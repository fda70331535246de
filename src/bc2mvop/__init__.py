"""Two-variable matrix orthogonal polynomials of BC2 type, built from the
spherical functions of the pair (SU(m+2), S(U(2) x U(m))), entirely in
exact rational arithmetic.

The package constructs the leading-term matrix, the matrix weight, the
transition and expansion coefficients, the full matrix polynomials, and
the radial second-order operator they satisfy, and mechanically verifies
every closed-form identity these objects are supposed to obey.  Checks
report PASS, FAIL, or REPORTED; REPORTED marks an exact disagreement with
a stored reference formula, printed with both sides.

Importing the package loads `report` and `lie`, the two modules a built
command line reads, and no other.  Every other submodule but the entry
points `cli` and `__main__` is put in `sys.modules` and on the package as
a lazy module (`importlib.util.LazyLoader`): it is compiled and run when
one of its names is first read, and each re-exported name of it below
resolves the same way, through the module `__getattr__`.  So
`from . import expansion` binds a module that costs nothing until used,
while `from .expansion import f` loads it at once, and so does
`import bc2mvop.expansion` once the package is imported.  An interpreter
that writes no bytecode (PYTHONDONTWRITEBYTECODE) compiles each module it
loads from source, so a command pays only for the modules its run reads;
with bytecode cached, a skipped module saves only its run, a few
milliseconds.  `cli` is not made lazy: `python -m bc2mvop.cli` must find
it unloaded.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# The names the package re-exports, by the submodule that defines them.
_EXPORTS = {
    "expansion": ("L_matrix", "d_coeffs", "phi_expansion",
                  "poly_matrix_psi", "poly_matrix_x"),
    "krawtchouk": ("poch",),
    "leading": ("leading_term", "leading_term_matrix", "weight_matrix_c",
                "weight_matrix_psi", "weight_matrix_x"),
    "matrices": ("PolyMatrix",),
    "orthogonality": ("gram", "in_region", "region_integral"),
    "poly": ("MultiPoly",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_LAZY = ("casimir", "diffop", "expansion", "krawtchouk", "leading",
         "matrices", "orthogonality", "poly")


def _lazy_module(name: str):
    """Register the submodule `name` in `sys.modules`, to be loaded when
    one of its attributes is first read, and return it."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _lazy_module(_name)
del _name

from .lie import (MsfLabel, PairParams, Weight, casimir_eigenvalue,  # noqa: E402
                  casimir_eigenvalue_ip, dualize, label_weight, weyl_dim)
# eager: outside `report`, this import is the one place allowed to name the
# REPORTED status (tests/test_report.py)
from .report import FAIL, PASS, REPORTED, CheckResult  # noqa: E402


def __getattr__(name: str):
    """A re-exported name, read from its module (which loads it) on first
    use and bound on the package from then on."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value


def __dir__():
    """The package's names, with the re-exports not yet read."""
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = sorted([*_HOME, "CheckResult", "FAIL", "MsfLabel", "PASS",
                  "PairParams", "REPORTED", "Weight", "casimir_eigenvalue",
                  "casimir_eigenvalue_ip", "dualize", "label_weight",
                  "weyl_dim"])
