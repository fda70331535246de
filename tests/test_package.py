"""The package's public names and its lazy submodules."""

import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import bc2mvop

PACKAGE = Path(bc2mvop.__file__).parent


def test_star_import_gives_every_public_name():
    names = {}
    exec("from bc2mvop import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(bc2mvop.__all__)
    for name, value in names.items():
        if name in bc2mvop._HOME:
            home = sys.modules[f"bc2mvop.{bc2mvop._HOME[name]}"]
            assert value is getattr(home, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bc2mvop.no_such_name
    assert not hasattr(bc2mvop, "no_such_name")
    with pytest.raises(ImportError):
        from bc2mvop import no_such_name  # noqa: F401


MODULES = sorted({path.stem for path in PACKAGE.glob("*.py")}
                 - {"__init__", "__main__"})


def test_every_module_but_the_entry_point_and_the_eager_two_is_lazy():
    # `lie` and `report` are what a built command line reads
    assert sorted(set(MODULES) - {"cli", "lie", "report"}) == sorted(bc2mvop._LAZY)


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_dir_lists_every_public_name_before_it_is_read():
    assert set(_run("import bc2mvop; print(*dir(bc2mvop))")) >= {
        *bc2mvop.__all__, *bc2mvop._LAZY, "__version__"}


@pytest.mark.parametrize("module", MODULES)
def test_each_module_loads_first_in_a_fresh_interpreter(module):
    # a module that binds another lazily (`from . import`) loads it only
    # when it reads one of its names
    assert _run(f"import types\n"
                f"import bc2mvop.{module} as module\n"
                "module.__doc__\n"
                "print(type(module) is types.ModuleType)") == ["True"]


def test_a_module_loads_when_a_name_of_it_is_read():
    # `from bc2mvop import poly` binds the lazy module; reading a name of it,
    # or a name the package re-exports from it, loads it
    loaded = ("[type(sys.modules['bc2mvop.' + m]) is types.ModuleType "
              "for m in ('poly', 'matrices')]")
    assert _run("import sys, types\n"
                "from bc2mvop import poly, matrices\n"
                f"print(*{loaded})\n"
                "poly.MultiPoly\n"
                "from bc2mvop import PolyMatrix\n"
                f"print(*{loaded})") == ["False", "False", "True", "True"]


def test_a_dotted_import_loads_the_module_at_once():
    # once the package is imported: before, importing it is what registers
    # the lazy module, which the dotted import then returns as it is
    assert _run("import sys, types\n"
                "import bc2mvop\n"
                "import bc2mvop.diffop\n"
                "print(type(sys.modules['bc2mvop.diffop']) is types.ModuleType)"
                ) == ["True"]


_CACHES = ("lru_cache", "point_cache")


def _cached_without_parameters(tree):
    """(line, name) of each function in tree under a cache decorator that
    takes no parameter at all."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        if (args.posonlyargs or args.args or args.kwonlyargs or args.vararg
                or args.kwarg):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if ast.unparse(target).rsplit(".", 1)[-1] in _CACHES:
                yield node.lineno, node.name


def test_no_function_without_parameters_is_cached():
    # a value that reads nothing is a constant: it is built once at import,
    # not behind a cache that every reader calls.  The rule sees each form
    # of the decorators, and passes a cached function that takes a value
    sample = ast.parse("@lru_cache(maxsize=None)\ndef a(): pass\n"
                       "@functools.lru_cache\ndef b(): pass\n"
                       "@point_cache\ndef c(): pass\n"
                       "@point_cache\ndef d(params): pass\n"
                       "def e(): pass\n")
    assert [name for _, name in _cached_without_parameters(sample)] == [
        "a", "b", "c"]
    offenders = [f"{path.name}:{line} {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, name in _cached_without_parameters(
                     ast.parse(path.read_text()))]
    assert offenders == []


def _relative_imports(tree) -> set[str]:
    """The package modules that tree imports by a relative import, in
    either form."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module.partition(".")[0]] if node.module
                       else (alias.name for alias in node.names))
    return out


def test_relative_imports_form_no_cycle():
    # the modules depend one way: the recursion reads the operators, the
    # xi constants read the family, and `casimir` reads no family
    sample = ast.parse("from . import a, b\nfrom .c import d\n"
                       "from .. import e\nimport f\n")
    assert _relative_imports(sample) == {"a", "b", "c"}
    graph = {path.stem: _relative_imports(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as err:
        pytest.fail(f"relative import cycle: {' -> '.join(err.args[1])}")
