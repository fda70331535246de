"""The one rule behind every REPORTED line: `report.against_reference`."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import bc2mvop
from bc2mvop import casimir, expansion, orthogonality
from bc2mvop.lie import PairParams
from bc2mvop.report import FAIL, PASS, REPORTED, CheckResult, against_reference


def test_tagged_keeps_the_verdict():
    r = CheckResult("name", FAIL, "detail", "residual").tagged("(m=3,a=0,b=0)")
    assert r == CheckResult("name (m=3,a=0,b=0)", FAIL, "detail", "residual")


def test_against_reference_decides_equality_first():
    for related in (False, True):
        r = against_reference("n", 1, 1, related, "same", "d", "b")
        assert (r.status, r.detail) == (PASS, "same")
    r = against_reference("n", 2, 1, True, "s", "differs", "b")
    assert (r.status, r.detail) == (REPORTED, "differs")
    r = against_reference("n", 2, 1, False, "s", "d", "broken")
    assert (r.status, r.detail) == (FAIL, "broken")


def _line(results, name):
    return next(r for r in results if r.name.startswith(name))


def _doubled(rows):
    return [[2 * v for v in row] for row in rows]


# each REPORTED kind: its line, the attribute whose value breaks the
# documented relation once changed, and the FAIL detail that names it
BROKEN_RELATIONS = {
    # REPORTED means derived = 2 x reference; a derived table at 6 x the
    # reference is a FAIL naming the move
    "lowering table": (
        lambda: casimir.reference_table_comparison(PairParams(3, 1, 0), 2),
        (casimir, "lowering_moves",
         lambda moves: {t: 3 * c for t, c in moves.items()}),
        "derived -24, reference -4, not twice the reference"),
    # REPORTED means stored/computed = (m^2(m^2-1)/32)^2; doubling every
    # Gram matrix halves that ratio
    "norm constant": (
        lambda: _line(orthogonality.orthogonality_suite(PairParams(3, 1, 0), 1),
                      "norm constant stored closed form"),
        (orthogonality, "gram", _doubled),
        "the ratio stored/computed is not the square of the mass constant"),
    "inverse transition": (
        lambda: expansion.transition_inverse_checks(PairParams(3, 1, 0))[1],
        (expansion, "inverse_closed_corrected", _doubled),
        "L times the +2-shifted form is not the identity"),
    "total mass": (
        lambda: orthogonality.total_mass_check(3),
        (orthogonality, "mass_claim", lambda claim: 2 * claim),
        "mass 4/9, claim 9/2, not reciprocal"),
    # REPORTED means the derived constants sum to 1 and the stored ones do
    # not; a stored triple that sums to 1 and still differs is a FAIL
    "second xi constants": (
        lambda: _line(casimir.xi_suite(4, expansion.xi_constants(4)),
                      "second coordinate expansion constants"),
        (casimir, "xi_references",
         lambda refs: {**refs, "psi2": (F(0), F(0), F(1))}),
        "reference (0, 0, 1), sum 1"),
    # REPORTED means the stored inversion is twice the solved one
    "first inversion": (
        lambda: _line(casimir.xi_suite(4, expansion.xi_constants(4)),
                      "first eigenfunction inversion"),
        (casimir, "xi_references",
         lambda refs: {**refs, "phi1": 3 * refs["phi1"] / 2}),
        "reference inversion"),
}


@pytest.mark.parametrize("kind", sorted(BROKEN_RELATIONS))
def test_each_reported_kind_fails_once_its_relation_breaks(kind, monkeypatch):
    line, (module, attr, change), detail = BROKEN_RELATIONS[kind]
    assert line().status == REPORTED
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args: change(real(*args)))
    r = line()
    assert r.status == FAIL
    assert detail in r.detail


def _names_reported(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "REPORTED"
            or isinstance(node, ast.Attribute) and node.attr == "REPORTED"
            or isinstance(node, ast.alias) and node.name == "REPORTED"
            or isinstance(node, ast.Constant) and node.value == "REPORTED")


def test_only_the_report_module_names_reported():
    # a REPORTED line made anywhere else would skip the rule that turns a
    # broken relation into a FAIL; the package re-exports the constant
    package = Path(bc2mvop.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "report.py":
            continue
        body = ast.parse(path.read_text()).body
        if path.name == "__init__.py":
            body = [stmt for stmt in body if not (
                isinstance(stmt, ast.ImportFrom) and stmt.module == "report"
                or isinstance(stmt, ast.Assign)
                and ast.unparse(stmt.targets[0]) == "__all__")]
        offenders += [f"{path.name}:{node.lineno}" for stmt in body
                      for node in ast.walk(stmt) if _names_reported(node)]
    assert offenders == []
