"""Sharp bounds on harm/benefit probabilities and treatment effects.

Every interval is formed here from the strata of an `identification.EvidenceSet`,
which keeps each one's joint numbers j_a = P(Y^a=1, A*=s), risks and CATE.
Harm within stratum s has the Frechet bounds
[max(0, j1 - j0), min(j1, P(A*=s) - j0)], and the marginal bounds are their
sums.  With natural-choice data the lower bound is Tian & Pearl's
max(0, P(y) - P(y|do(a0))) + max(0, P(y|do(a1)) - P(y)); without it, the one
stratum is the whole population.  The tests pin every closed form to an
independent LP oracle, which no runtime module imports.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterable

from .identification import EvidenceSet
from .model import ONE, ZERO


class Interval(namedtuple("Interval", "lower upper")):
    """A lower/upper bound pair; sharpness is a contract, not a field."""

    __slots__ = ()

    def __new__(cls, lower: Fraction, upper: Fraction) -> "Interval":
        if lower > upper:
            raise ValueError(f"lower {lower} exceeds upper {upper}")
        return super().__new__(cls, lower, upper)

    def __contains__(self, value: object) -> bool:
        return self.lower <= value <= self.upper  # type: ignore[operator]


# The experimental data carry no information about A*, so without
# natural-choice data each conditional ATE is the closure [-1, 1].
VACUOUS_CATE = Interval(-ONE, ONE)


def is_point_identified(interval: Interval) -> bool:
    return interval.lower == interval.upper


def _frechet_sum(strata: Iterable[tuple[Fraction, Fraction, Fraction]]) -> Interval:
    """Sharp bounds on P(U=1, V=0) from each stratum's (mass, P(U=1, stratum), P(V=1, stratum))."""
    (lower, upper), *rest = [(max(ZERO, u - v), min(u, mass - v)) for mass, u, v in strata]
    for more_lower, more_upper in rest:
        lower += more_lower
        upper += more_upper
    return Interval(lower, upper)


def harm_bounds(evidence: EvidenceSet) -> Interval:
    """Sharp bounds on P(Y^{a=1}=1, Y^{a=0}=0)."""
    return _frechet_sum((s.mass, s.joint1, s.joint0) for s in evidence.strata)


def benefit_bounds(evidence: EvidenceSet) -> Interval:
    """Sharp bounds on P(Y^{a=1}=0, Y^{a=0}=1)."""
    return _frechet_sum((s.mass, s.joint0, s.joint1) for s in evidence.strata)


def conditional_harm_bounds(evidence: EvidenceSet, astar: int) -> Interval:
    """Sharp bounds on P(harm | A*=astar): Frechet bounds on identified risks."""
    stratum = evidence.stratum(astar)
    return Interval(max(ZERO, stratum.cate), min(stratum.risk1, ONE - stratum.risk0))


def conditional_benefit_bounds(evidence: EvidenceSet, astar: int) -> Interval:
    """Sharp bounds on P(benefit | A*=astar)."""
    stratum = evidence.stratum(astar)
    return Interval(max(ZERO, -stratum.cate), min(stratum.risk0, ONE - stratum.risk1))


def ate_bounds(evidence: EvidenceSet) -> Interval:
    """The marginal ATE, P(Y=1|do(A=1)) - P(Y=1|do(A=0)); a point, for compatible evidence."""
    evidence.strata  # raises IncompatibleEvidence when no joint fits
    ate = evidence.p0.p_do1 - evidence.p0.p_do0
    return Interval(ate, ate)


def cate_bounds(evidence: EvidenceSet, astar: int) -> Interval:
    """Conditional ATE given A*: vacuous without natural-choice data, a point with it."""
    if astar not in (0, 1):
        raise ValueError(f"astar must be 0 or 1, got {astar!r}")
    if evidence.p1 is None:
        return VACUOUS_CATE
    cate = evidence.stratum(astar).cate
    return Interval(cate, cate)
