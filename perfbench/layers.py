"""The layers a traced run measures, and the per-layer metric names.

A layer is a label over one or more functions of the program.  Its kinds
say which metrics it reports; `expect` names the workloads on which it
must record calls, and `absent` those on which it must record none.
"""
from __future__ import annotations

from dataclasses import dataclass

PKG = "bc2mvop"

ALL = ("grid-sweep", "gram-deep", "recursion-deep")


@dataclass(frozen=True)
class Layer:
    label: str
    module: str
    qualnames: tuple[str, ...]
    kinds: tuple[str, ...]
    expect: tuple[str, ...] = ()
    absent: tuple[str, ...] = ()
    cache: str | None = None  # qualname of the lru_cache behind the layer
    family: bool = False      # its results are members R_d of the family


def _l(label, qualnames, kinds, **kw):
    return Layer(label, f"{PKG}.{label.split('.')[0]}", tuple(qualnames.split()),
                 tuple(kinds.split()), **kw)


_RATIONALFN = " ".join(f"RationalFn.{n}" for n in (
    "__init__ __add__ __neg__ __sub__ __rsub__ __mul__ __truediv__ "
    "__rtruediv__ __pow__ reciprocal as_poly evaluate").split())
_SOLVE = ("solve_exact solve_linear _eliminate frac_rank nullspace_dim "
          "frac_invert frac_det")

LAYERS = (
    # exact integration
    _l("poly.substitute", "MultiPoly.substitute", "calls self_s",
       expect=ALL),
    _l("orthogonality.region_integral", "region_integral", "calls self_s total_s",
       expect=("grid-sweep", "gram-deep"), absent=("recursion-deep",)),
    _l("orthogonality.integrate_against_delta", "integrate_against_delta",
       "self_s", expect=("grid-sweep", "gram-deep")),
    _l("orthogonality.gram", "gram", "calls hit_ratio",
       cache="_gram_cached", expect=("grid-sweep", "gram-deep"),
       absent=("recursion-deep",)),
    _l("orthogonality.orthogonality_suite", "orthogonality_suite", "total_s",
       expect=("grid-sweep", "gram-deep")),
    # recursion
    _l("lie.dominance_leq", "dominance_leq", "calls self_s",
       expect=("grid-sweep", "recursion-deep")),
    _l("matrices.solve", _SOLVE, "calls self_s", expect=ALL),
    _l("expansion.phi_expansion", "phi_expansion", "calls self_s", expect=ALL),
    _l("casimir.lowering_moves", "lowering_moves", "calls self_s", expect=ALL),
    _l("expansion.pde_suite", "pde_suite", "total_s",
       expect=("grid-sweep", "recursion-deep")),
    # operators
    _l("casimir.radial_apply", "radial_apply", "calls self_s",
       expect=("grid-sweep", "recursion-deep")),
    _l("poly.rationalfn", _RATIONALFN, "calls self_s",
       expect=("grid-sweep", "recursion-deep")),
    _l("poly.divide_exact", "MultiPoly.divide_exact", "self_s",
       expect=("grid-sweep", "recursion-deep")),
    _l("casimir.casimir_suite", "casimir_suite", "total_s",
       expect=("grid-sweep", "recursion-deep")),
    # polynomial kernel
    _l("poly.init", "MultiPoly.__init__", "calls", expect=ALL),
    _l("poly.mul", "MultiPoly.__mul__", "calls self_s", expect=ALL),
    _l("poly.add", "MultiPoly.__add__ MultiPoly.__sub__ MultiPoly.__rsub__",
       "calls self_s", expect=ALL),
    _l("matrices.matmul", "PolyMatrix.__matmul__", "calls self_s", expect=ALL),
    _l("matrices.det", "PolyMatrix.det", "self_s", expect=("grid-sweep",)),
    # construction and operators in x coordinates
    _l("diffop.apply", "MatrixDiffOp.apply", "calls self_s",
       expect=("grid-sweep", "recursion-deep")),
    _l("diffop.change_vars_affine", "MatrixDiffOp.change_vars_affine",
       "self_s", expect=("grid-sweep", "recursion-deep")),
    _l("expansion.poly_matrix_psi", "poly_matrix_psi", "", family=True),
    _l("expansion.poly_matrix_x", "poly_matrix_x", "hit_ratio",
       cache="poly_matrix_x", expect=ALL, family=True),
    _l("leading.weight_matrix_x", "weight_matrix_x", "hit_ratio",
       cache="weight_matrix_x", expect=("grid-sweep", "gram-deep")),
    _l("leading.leading_term", "leading_term", "self_s", expect=ALL),
    # float quadrature
    _l("orthogonality.numeric_suite", "numeric_suite", "total_s",
       expect=("grid-sweep",), absent=("gram-deep", "recursion-deep")),
    _l("orthogonality.numeric_crosscheck", "numeric_crosscheck",
       "calls self_s", expect=("grid-sweep",),
       absent=("gram-deep", "recursion-deep")),
    # the remaining suites and the report
    _l("krawtchouk.standard_suite", "standard_suite", "total_s",
       expect=("grid-sweep",)),
    _l("leading.weight_suite", "weight_suite", "total_s",
       expect=("grid-sweep",)),
    _l("expansion.transition_suite", "transition_suite", "total_s",
       expect=("grid-sweep",)),
    _l("expansion.duality_suite", "duality_suite", "total_s",
       expect=("grid-sweep",)),
    _l("orthogonality.indecomposability_suite", "indecomposability_suite",
       "total_s", expect=("grid-sweep",)),
    _l("casimir.xi_suite", "xi_suite", "total_s", expect=("grid-sweep",)),
    _l("report.render", "render_text render_json", "self_s", expect=ALL),
)

# Metrics that are not a kind of one wrapped layer.
ROOT_LABEL = "cli.main"
EXTRA = (
    ("cli.main.total_s", "s", "lower"),
    ("cli.unattributed_s", "s", "lower"),
    ("orthogonality.numeric.max_rel_dev", "ratio", "lower"),
    ("expansion.family.max_coeff_bits", "bits", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

KIND_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "lookups": ("count", "lower"),
}


def layer_kinds(layer: Layer) -> tuple[str, ...]:
    """A hit ratio is always reported together with its base."""
    return layer.kinds + (("lookups",) if "hit_ratio" in layer.kinds else ())


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{layer.label}.{kind}",) + KIND_UNITS[kind]
           for layer in LAYERS for kind in layer_kinds(layer)]
    return out + list(EXTRA)


def targets() -> list[tuple[str, str, str, bool]]:
    """(label, module, qualname, keep_results) for `tracer.install`."""
    return [(layer.label, layer.module, q, layer.family)
            for layer in LAYERS for q in layer.qualnames]
