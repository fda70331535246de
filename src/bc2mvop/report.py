"""Verification results and deterministic rendering.

Three outcomes:

* PASS: the identity holds exactly (or numerically within tolerance where a
  check is explicitly numeric).
* FAIL: the implementation contradicts itself; something we derived and
  trust is violated.
* REPORTED: our independently constructed object disagrees with a stored
  reference closed form in the one documented way.  The discrepancy is
  printed with both sides, and does not count as a failure of the
  machinery.

`against_reference` is the one rule that compares a derived value with a
stored one, and the only place a REPORTED line is made: a disagreement
that breaks its documented relation is a FAIL.  `decide` gives a verdict
once per key within the table of verdicts its caller passes, so a fresh
table decides afresh; `at_point` decides a verdict of the K-type (a, b)
that way and prints its line under the tag of each point.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .lie import PairParams, ValueTuple

PASS = "PASS"
FAIL = "FAIL"
REPORTED = "REPORTED"

_STATUSES = (PASS, FAIL, REPORTED)


class CheckResult(ValueTuple, namedtuple("CheckResult",
                                           "name status detail residual")):
    __slots__ = ()

    def __new__(cls, name, status, detail="", residual=""):
        if status not in _STATUSES:
            raise ValueError(f"bad status {status!r}")
        return tuple.__new__(cls, (name, status, detail, residual))

    def tagged(self, tag: str) -> CheckResult:
        """The same verdict under the name "<name> <tag>"."""
        return self._replace(name=f"{self.name} {tag}")

    @property
    def ok(self) -> bool:
        """True unless the status is FAIL."""
        return self.status != FAIL

    def to_dict(self) -> dict:
        d = {"identity": self.name, "status": self.status}
        if self.detail:
            d["detail"] = self.detail
        if self.residual:
            d["residual"] = self.residual
        return d


def decide(verdicts: dict, verdict, *key) -> CheckResult:
    """verdict(*key), decided once per (verdict, key) within ``verdicts``,
    the table of one run, and read from it after that; a fresh table
    decides afresh."""
    if (verdict, key) not in verdicts:
        verdicts[verdict, key] = verdict(*key)
    return verdicts[verdict, key]


def at_point(verdict, params: PairParams, verdicts: dict) -> CheckResult:
    """The line of a check that reads (a, b) alone: verdict(a, b) under the
    tag of the point, decided once per (a, b) within ``verdicts``."""
    return decide(verdicts, verdict, params.a, params.b).tagged(params.tag())


def against_reference(name: str, derived, stored, related: bool, same: str,
                      differs: str, broken: str) -> CheckResult:
    """A derived value against a stored closed form: PASS with detail
    ``same`` when they are equal, REPORTED with ``differs`` when they are
    not but ``related``, the documented relation between the two, holds,
    and FAIL with ``broken`` otherwise."""
    if derived == stored:
        return CheckResult(name, PASS, same)
    if related:
        return CheckResult(name, REPORTED, differs)
    return CheckResult(name, FAIL, broken)


def _tally(results: list[CheckResult]) -> tuple[int, int, int]:
    """The numbers of PASS, FAIL and REPORTED results, in that order: the
    summary of both renderings."""
    counts = Counter(r.status for r in results)
    return tuple(counts[s] for s in _STATUSES)


def render_text(results: list[CheckResult]) -> str:
    lines = []
    width = max((len(r.name) for r in results), default=0)
    for r in results:
        line = f"{r.status:<8} {r.name:<{width}}"
        if r.detail:
            line += f"  {r.detail}"
        lines.append(line.rstrip())
    n_pass, n_fail, n_rep = _tally(results)
    lines.append(f"{n_pass} passed, {n_fail} failed, {n_rep} reported")
    return "\n".join(lines)


def render_json(results: list[CheckResult]) -> str:
    import json
    payload = {
        "results": [r.to_dict() for r in results],
        "summary": dict(zip(("pass", "fail", "reported"), _tally(results))),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def exit_code(results: list[CheckResult]) -> int:
    return 0 if all(r.ok for r in results) else 1
