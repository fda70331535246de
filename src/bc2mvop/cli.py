r"""Command-line front end.

`verify` runs identity suites over a parameter grid, one report line per
check.  The data subcommands (`weight`, `polys`, `dims`, `moments`) emit
the constructed objects as JSON, or with `--format csv` as CSV: the weight
and the polynomials as an evaluation grid in x coordinates over the
bounding box of the support region, the others as one key-value row.  Each
reads only its own options; any other is a usage error.  A value that
starts with "-" is attached with "=" (`--d=-1,0`): detached, argparse reads
it as an option, and refuses `--d -1,0` as `--d` missing its value.

Output is deterministic: polynomial terms are serialized in canonical
monomial order, JSON keys are sorted, and CSV floats use the shortest
round-trip representation, so identical invocations give identical bytes.

Exit codes: 0 when no check FAILs (REPORTED discrepancies do not fail a
run), 1 when at least one identity check fails, 2 for usage and parameter
errors, including degenerate `verify` input such as a negative --dmax or
--N, an empty --p list, a grid or --p value listed twice, a selection that
runs no check or none that reads a given --N, --p, --numeric or --dmax,
and an --out path that cannot be written.  Suites run serially.  The one
environment variable the CLI touches is OPENBLAS_NUM_THREADS: `main` sets
it to 1, unless the caller has set it, before numpy can load, so numpy
starts no BLAS worker thread for the quadrature's one small eigenvalue
problem per node count.  A process imports only what its run uses: `json`
for JSON output and the CSV's list cells, `csv` for CSV output, and numpy
only under `verify --numeric`.  The package's own modules load the same
way: this module binds the others as modules (`from . import casimir`),
which the package registers lazily, so each is compiled and run when the
command first reads one of its names.  A built parser has loaded `cli`,
`lie` and `report` alone; `verify casimir` never loads `expansion` or
`orthogonality`, and `verify pde` never loads `orthogonality`.  An
interpreter that writes no bytecode compiles every module it loads from
source.

The suites' defaults live here and nowhere else: --dmax 2, --N 6 and the
Krawtchouk parameters `STANDARD_PS`.  Every suite takes each value from its
caller.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction

from . import (casimir, expansion, krawtchouk, leading, matrices,
               orthogonality)
from .lie import (MsfLabel, PairParams, casimir_eigenvalue_ip,
                  drop_point_caches, label_weight, weyl_dim)
from .report import at_point, exit_code, render_json, render_text

SUITES = ("krawtchouk", "weight", "casimir", "transition", "pde",
          "orthogonality", "indecomposable", "duality", "xi")


# ---- argument helpers ----

def _int_list(s: str) -> list[int]:
    try:
        return [int(x) for x in s.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {s!r}")


def _frac_list(s: str) -> list[Fraction]:
    try:
        return [Fraction(x) for x in s.split(",") if x != ""]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected comma-separated fractions, got {s!r}")


def _int_tuple(n: int):
    def parse(s: str) -> tuple[int, ...]:
        parts = s.split(",")
        if len(parts) != n or not all(p.strip().lstrip("-").isdigit() for p in parts):
            raise argparse.ArgumentTypeError(
                f"expected {n} comma-separated integers, got {s!r}")
        return tuple(int(p) for p in parts)
    return parse


def _construction_params(m: int, a: int, b: int) -> PairParams:
    """Parameters for direct construction; the b <= -a side is refused with
    a pointer to its b >= 0 partner."""
    params = PairParams(m, a, b)
    if params.b < 0:
        partner = -params.a - params.b
        raise ValueError(
            f"b={b}: direct construction runs in the b >= 0 regime; the "
            f"b <= -a family is the flip-conjugate of (m={m}, a={a}, "
            f"b={partner}) and is verified there by the duality suite")
    return params


def _refuse_repeats(option: str, values: list):
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"--{option} lists {v} twice")


def _grid(ms: list[int], as_: list[int], bs: list[int]) -> list[PairParams]:
    if not (ms and as_ and bs):
        raise ValueError("empty parameter grid")
    for axis, values in (("m", ms), ("a", as_), ("b", bs)):
        _refuse_repeats(axis, values)
    return [_construction_params(m, a, b) for m in ms for a in as_ for b in bs]


def _write(text: str, out: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError(f"cannot write --out {out}: {err.strerror or err}")
    else:
        sys.stdout.write(text)


# ---- verify ----

def _verify_results(args, grid: list[PairParams]):
    """The selected suites' results: Krawtchouk, then each grid point, then
    each distinct m.

    Every point prints each of its lines, but a check that reads less than
    the whole point is decided once: the weight, positivity,
    indecomposability and (A1, A2) checks once per (a, b), and the two
    scalar radial checks of the Casimir suite once per m.  ``verdicts``
    holds those decisions for this run only, so a later run in the same
    process decides afresh.  When a point is done, everything built for it
    alone is dropped (`drop_point_caches`): its weights, families,
    transition matrices, operators, lowering graphs, Gram matrices, moment
    tables and quadrature values.  The per-m checks drop once more at the
    end, for the a = b = 0 families that `expansion.xi_constants` reads."""
    want = lambda s: args.suite in ("all", s)
    dmax = 2 if args.dmax is None else args.dmax
    verdicts = {}
    results = []
    if want("krawtchouk"):
        results += krawtchouk.standard_suite(
            6 if args.N is None else args.N,
            tuple(args.p) if args.p else krawtchouk.STANDARD_PS)
    for q in grid:
        if want("weight"):
            results += leading.weight_suite(q, verdicts)
        if want("casimir"):
            results += casimir.casimir_suite(q, dmax, verdicts)
        if want("transition"):
            results += expansion.transition_suite(q)
        if want("pde"):
            results += expansion.pde_suite(q, dmax)
        if want("orthogonality"):
            results.append(at_point(orthogonality.positivity_verdict, q,
                                    verdicts))
            results += orthogonality.orthogonality_suite(q, dmax)
            if args.numeric:
                results += orthogonality.numeric_suite(q, dmax)
        if want("indecomposable"):
            results += orthogonality.indecomposability_suite(q, verdicts)
        if want("duality"):
            results += expansion.duality_suite(q, dmax)
        drop_point_caches()
    for m in dict.fromkeys(q.m for q in grid):
        if want("orthogonality"):
            results.append(orthogonality.total_mass_check(m))
        if want("xi"):
            results += casimir.xi_suite(m, expansion.xi_constants(m))
    drop_point_caches()
    return results


def _check_verify_args(args):
    """Refuse input that would crash a suite, pass it vacuously, or be
    ignored by the selected suites."""
    for opt, given, suites in (("N", args.N is not None, ["krawtchouk"]),
                               ("p", args.p is not None, ["krawtchouk"]),
                               ("numeric", args.numeric, ["orthogonality"]),
                               ("dmax", args.dmax is not None, ["casimir", "pde",
                                "orthogonality", "duality"])):
        if given and args.suite not in ["all", *suites]:
            raise ValueError(f"--{opt} is read only by verify {'/'.join(suites)}"
                             f" and verify all, not by verify {args.suite}")
    if args.dmax is not None and args.dmax < 0:
        raise ValueError(f"--dmax {args.dmax} must be non-negative")
    if args.N is not None and args.N < 0:
        raise ValueError(f"--N {args.N} must be non-negative")
    if args.p is not None:
        if not args.p:
            raise ValueError("--p needs at least one Krawtchouk parameter")
        for p in args.p:
            if not 0 < p < 1:
                raise ValueError(f"--p {p}: Krawtchouk parameters need 0 < p < 1")
        _refuse_repeats("p", args.p)


def _cmd_verify(args) -> int:
    _check_verify_args(args)
    grid = _grid(args.m, args.a, args.b)
    results = _verify_results(args, grid)
    if not results:
        raise ValueError("the selection runs no check")
    text = render_json(results) if args.format == "json" else render_text(results)
    _write(text, args.out)
    return exit_code(results)


# ---- data payloads ----

def _weight_payload(args) -> dict:
    params = _construction_params(args.m, args.a, args.b)
    fn = {"c": leading.weight_matrix_c,
          "psi": leading.weight_matrix_psi,
          "x": leading.weight_matrix_x}[args.coords]
    return {"kind": "weight", "m": params.m, "a": params.a, "b": params.b,
            "coords": args.coords, "matrix": fn(params.a, params.b)}


def _polys_payload(args) -> dict:
    params = _construction_params(args.m, args.a, args.b)
    d = tuple(args.d)
    mat = (expansion.poly_matrix_psi(params, d) if args.coords == "psi"
           else expansion.poly_matrix_x(params, d))
    eigs = [str(casimir_eigenvalue_ip(label_weight(params, MsfLabel(i, d[0], d[1]))))
            for i in range(params.size)]
    return {"kind": "polys", "m": params.m, "a": params.a, "b": params.b,
            "d": list(d), "coords": args.coords, "eigenvalues": eigs,
            "matrix": mat}


def _dims_payload(args) -> dict:
    params = PairParams(args.m, args.a, args.b)
    w = label_weight(params, MsfLabel(*args.label))
    return {"kind": "dims", "m": params.m, "a": params.a, "b": params.b,
            "label": list(args.label), "omega": list(w.omega),
            "dim": weyl_dim(w), "eigenvalue": str(casimir_eigenvalue_ip(w))}


def _moments_payload(args) -> dict:
    p, q = args.monomial
    if p < 0 or q < 0:
        raise ValueError(f"monomial exponents ({p},{q}) must be non-negative")
    mono = (leading.C1 ** (2 * p)) * (leading.C2 ** (2 * q))
    # the integral first: it refuses m < 2, as the other payloads do
    delta = orthogonality.integrate_against_delta(args.m, mono)
    return {"kind": "moments", "m": args.m, "monomial": [p, q],
            "beta_p": str(orthogonality.beta_moment(args.m, p)),
            "beta_q": str(orthogonality.beta_moment(args.m, q)),
            "delta_integral": str(delta)}


_PAYLOADS = {"weight": _weight_payload, "polys": _polys_payload,
             "dims": _dims_payload, "moments": _moments_payload}


def _grid_csv(mat: matrices.PolyMatrix) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x1", "x2"]
                    + [f"entry_{i}_{j}" for i in range(mat.rows)
                       for j in range(mat.cols)]
                    + ["in_region"])
    for x1, x2, vals, inside in orthogonality.region_grid(mat):
        writer.writerow([repr(float(x1)), repr(float(x2))]
                        + [repr(float(v)) for v in vals]
                        + ["1" if inside else "0"])
    return buf.getvalue()


def _kv_csv(payload: dict) -> str:
    import csv
    import json
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    keys = sorted(payload)
    writer.writerow(keys)
    writer.writerow([json.dumps(payload[k]) if isinstance(payload[k], list)
                     else payload[k] for k in keys])
    return buf.getvalue()


def _cmd_data(args) -> int:
    """Print one payload, as JSON or as CSV.  A payload with a matrix
    (weight, polys) has the x-coordinate evaluation grid as its CSV form."""
    payload = _PAYLOADS[args.kind](args)
    if args.format == "json":
        import json
        text = json.dumps(payload, indent=2, sort_keys=True,
                          default=matrices.PolyMatrix.to_json)
    elif "matrix" not in payload:
        text = _kv_csv(payload)
    elif args.coords != "x":
        raise ValueError(f"the CSV grid is evaluated in x coordinates; "
                         f"--coords {args.coords} has no CSV form")
    else:
        text = _grid_csv(payload["matrix"])
    _write(text, args.out)
    return 0


# ---- parser ----

def _data_parser(sub, kind: str, summary: str, need_ab=True):
    """A data subcommand: the point it reads, --format and --out."""
    ap = sub.add_parser(kind, help=summary)
    ap.add_argument("--m", type=int, required=True, help="rank parameter, >= 2")
    if need_ab:
        ap.add_argument("--a", type=int, required=True)
        ap.add_argument("--b", type=int, required=True)
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--out", default=None)
    ap.set_defaults(func=_cmd_data, kind=kind)
    return ap


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bc2mvop",
        description="two-variable matrix orthogonal polynomials: "
                    "construction and exact verification")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity suites over a parameter grid")
    v.add_argument("suite", nargs="?", default="all", choices=("all",) + SUITES)
    v.add_argument("--m", type=_int_list, default=[3, 4, 5],
                   help="comma-separated list, default 3,4,5")
    v.add_argument("--a", type=_int_list, default=[0, 1, 2, 3],
                   help="comma-separated list, default 0,1,2,3")
    v.add_argument("--b", type=_int_list, default=[0, 1, 2],
                   help="comma-separated list, default 0,1,2")
    v.add_argument("--dmax", type=int, help="largest degree d1+d2, default 2")
    v.add_argument("--numeric", action="store_true",
                   help="add the floating-point quadrature cross-check")
    v.add_argument("--N", type=int, default=None,
                   help="largest Krawtchouk size, default 6")
    v.add_argument("--p", type=_frac_list, default=None,
                   help="Krawtchouk parameters, default 1/4,1/3,1/2,2/3")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    w = _data_parser(sub, "weight", "the weight matrix")
    w.add_argument("--coords", choices=("c", "psi", "x"), default="x")

    pl = _data_parser(sub, "polys", "a matrix orthogonal polynomial and its "
                                    "eigenvalues")
    pl.add_argument("--d", type=_int_tuple(2), default=(0, 0),
                    help="degree d1,d2, default 0,0")
    pl.add_argument("--coords", choices=("psi", "x"), default="x")

    dm = _data_parser(sub, "dims", "dimension and eigenvalue data for a label")
    dm.add_argument("--label", type=_int_tuple(3), required=True,
                    help="bottom index and degrees: i,d1,d2")

    mo = _data_parser(sub, "moments", "exact torus moments of a monomial",
                      need_ab=False)
    mo.add_argument("--monomial", type=_int_tuple(2), required=True,
                    help="exponents p,q of c1^(2p) c2^(2q)")

    return ap


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
