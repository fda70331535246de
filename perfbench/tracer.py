"""Span tracing by wrapping functions from outside the traced program.

A `Tracer` folds every span into per-label sums as the span closes, so
memory stays flat however many calls a run makes:

- `calls`: entries into the label from outside it (a call nested inside a
  span of the same label is not counted again);
- `total_s`: summed duration of those outermost spans;
- `self_s`: summed duration of every span minus the part of it covered by
  its direct child spans, whatever their label.

`install` replaces each target function with a timing wrapper in every
place the program looks the name up: the defining module, every other
module that bound the same object with `from .x import f`, and every name
a class binds the same method under (`__radd__ = __add__`). `uninstall`
puts the originals back.  The tracer keeps one span stack, so it assumes
the traced code runs in one thread.
"""
from __future__ import annotations

import functools
import time
import types
from dataclasses import dataclass, field


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list[float]] = []
        self.stats: dict[str, _Stat] = {}
        self.results: dict[str, list] = {}

    def stat(self, label: str) -> _Stat:
        return self.stats.setdefault(label, _Stat())

    def wrap(self, label: str, fn, keep_results: bool = False):
        """Return `fn` wrapped in a span named `label`.  With `keep_results`
        every return value is also appended to `self.results[label]`."""
        st = self.stat(label)
        stack = self._stack
        clock = self._clock
        kept = self.results.setdefault(label, []) if keep_results else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by direct child spans
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st.depth -= 1
                st.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if not st.depth:
                    st.calls += 1
                    st.total_s += dur
            if kept is not None:
                kept.append(out)
            return out

        return wrapper

    def span(self, label: str, fn, *args, **kwargs):
        """Call `fn(*args, **kwargs)` inside a span named `label`."""
        return self.wrap(label, fn)(*args, **kwargs)


@dataclass
class Installed:
    """What `install` changed: (owner, attribute, original) per binding."""
    patches: list[tuple[object, str, object]] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    found: set[str] = field(default_factory=set)


def _resolve(modules: dict[str, types.ModuleType], module: str, qualname: str):
    """(owner, attribute) for `module:qualname`, or None if it is absent."""
    owner = modules.get(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        if not callable(owner.__dict__.get(attr)):
            return None
    elif not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def install(tracer: Tracer, targets, modules: dict[str, types.ModuleType]) -> Installed:
    """Wrap each `(label, module, qualname, keep_results)` target.

    `modules` maps module names to the loaded modules of the program; all
    of them are searched for other names bound to a target function.  A
    target that does not exist is listed in `Installed.missing`.
    """
    done = Installed()
    for label, module, qualname, keep in targets:
        where = _resolve(modules, module, qualname)
        if where is None:
            done.missing.append(f"{module}:{qualname}")
            continue
        owner, attr = where
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            bindings = [(owner, name) for name, val in list(owner.__dict__.items())
                        if val is original]
        else:
            original = getattr(owner, attr)
            bindings = [(mod, name) for mod in modules.values()
                        for name, val in list(vars(mod).items()) if val is original]
        wrapper = tracer.wrap(label, original, keep_results=keep)
        for obj, name in bindings:
            setattr(obj, name, wrapper)
            done.patches.append((obj, name, original))
        done.found.add(label)
    return done


def uninstall(done: Installed) -> None:
    for obj, name, original in reversed(done.patches):
        setattr(obj, name, original)
    done.patches.clear()
