"""Every function the package defines is reached by some command.

The test runs each command path once, in a fresh interpreter under
`sys.setprofile`, and lists the module-level functions and the methods of
`src/bc2mvop` that recorded no call.  A definition that no command reaches
is either dead code or belongs in `UNREACHED`, with the reason it stays.
Closures, lambdas and comprehensions are reached through the function that
holds them and are not listed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

_GRID = ["--m", "2,3", "--a", "0,1,2", "--b", "0,1"]
_POINT = ["--m", "4", "--a", "2", "--b", "1"]
COMMANDS = [
    ["verify", "all", *_GRID, "--dmax", "2", "--numeric"],
    ["verify", "xi", "--m", "2", "--format", "json"],
    *(["weight", *_POINT, "--coords", c] for c in ("c", "psi", "x")),
    ["weight", *_POINT, "--format", "csv"],
    *(["polys", *_POINT, "--d", "2,1", "--coords", c] for c in ("psi", "x")),
    ["polys", *_POINT, "--d", "2,1", "--format", "csv"],
    ["dims", *_POINT, "--label", "1,2,1"],
    ["dims", *_POINT, "--label", "1,2,1", "--format", "csv"],
    ["moments", "--m", "4", "--monomial", "3,2"],
    ["moments", "--m", "4", "--monomial", "3,2", "--format", "csv"],
    ["verify", "xi", "--m", "1"],
]

# Definitions that no command calls, each with the reason it stays.
# Methods named __dunder__ (equality, hashing, printing, immutability, and
# the arithmetic a FAIL detail uses) are contracts of their types and are
# not listed.
UNREACHED = {
    "lie.point_cache": "a decorator: it runs at import, before the profile",
    "poly.MultiPoly.from_json": "the README's round trip reads an export back",
    "matrices.PolyMatrix.from_json": "the README's round trip",
    "lie.root_coordinates": "the reference tests hold dominance_leq against",
}

# Lists the functions and methods the package defines, runs the commands
# under a profile that records every code object called, and prints the
# qualified names of those that recorded no call, as JSON.
CHILD = r"""
import contextlib, importlib, io, json, pkgutil, sys
import bc2mvop
from bc2mvop import cli

defined = {}
for info in pkgutil.iter_modules(bc2mvop.__path__):
    if info.name == "__main__":
        continue
    module = importlib.import_module(f"bc2mvop.{info.name}")
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).items() if isinstance(obj, type) else [(name, obj)]
        for member, fn in members:
            if isinstance(fn, property):
                fn = fn.fget
            fn = getattr(fn, "__func__", fn)
            fn = getattr(fn, "__wrapped__", fn)
            code = getattr(fn, "__code__", None)
            if code is not None and not (member.startswith("__")
                                         and member.endswith("__")):
                defined[code] = f"{info.name}.{code.co_qualname}"
called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            exits.append(cli.main(argv))
        finally:
            sys.setprofile(None)
print(json.dumps({"exits": exits, "unreached": sorted(
    name for code, name in defined.items() if code not in called)}))
"""


def test_every_definition_is_reached_by_a_command():
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(COMMANDS)],
                          cwd=ROOT, env=run.child_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["exits"] == [0] * (len(COMMANDS) - 1) + [2]
    unreached = set(got["unreached"])
    assert unreached - UNREACHED.keys() == set(), "no command reaches these"
    assert UNREACHED.keys() - unreached == set(), "a command reaches these"
