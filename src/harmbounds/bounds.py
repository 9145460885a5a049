"""Sharp bounds on harm/benefit probabilities and treatment effects.

Every bound is a closed form over the identified strata of an
`identification.EvidenceSet`.  Within a stratum both potential-outcome risks
are identified, so harm and benefit there have the two-marginal (Frechet)
bounds; the marginal bounds are their mass-weighted sums.  Without
natural-choice data the one stratum is the whole population, which gives
the classical experimental bounds.  The test suite pins every closed form
to an independent LP oracle (exact vertex enumeration over the joints
consistent with the evidence), which no runtime module imports.
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


def is_point_identified(interval: Interval) -> bool:
    return interval.lower == interval.upper


def _frechet(first: Fraction, second: Fraction) -> tuple[Fraction, Fraction]:
    """Sharp bounds on P(U=1, V=0) given only P(U=1) = first and P(V=1) = second."""
    return max(ZERO, first - second), min(first, 1 - second)


def _mixture(parts: Iterable[tuple[Fraction, tuple[Fraction, Fraction]]]) -> Interval:
    """The mass-weighted sum of per-stratum (lower, upper) bounds.

    The non-empty strata partition the population, so a lone stratum has
    mass 1 and its bounds are returned as they are.
    """
    parts = list(parts)
    if len(parts) == 1:
        return Interval(*parts[0][1])
    lower = upper = ZERO
    for mass, (lo, hi) in parts:
        lower += mass * lo
        upper += mass * hi
    return Interval(lower, upper)


def harm_bounds(evidence: EvidenceSet) -> Interval:
    """Sharp bounds on P(Y^{a=1}=1, Y^{a=0}=0)."""
    return _mixture((s.mass, _frechet(s.risk1, s.risk0)) for s in evidence.strata)


def benefit_bounds(evidence: EvidenceSet) -> Interval:
    """Sharp bounds on P(Y^{a=1}=0, Y^{a=0}=1)."""
    return _mixture((s.mass, _frechet(s.risk0, s.risk1)) for s in evidence.strata)


def conditional_harm_bounds(evidence: EvidenceSet, astar: int) -> Interval:
    """Sharp bounds on P(harm | A*=astar): Frechet bounds on identified risks."""
    stratum = evidence.stratum(astar)
    return Interval(*_frechet(stratum.risk1, stratum.risk0))


def conditional_benefit_bounds(evidence: EvidenceSet, astar: int) -> Interval:
    """Sharp bounds on P(benefit | A*=astar)."""
    stratum = evidence.stratum(astar)
    return Interval(*_frechet(stratum.risk0, stratum.risk1))


def ate_bounds(evidence: EvidenceSet) -> Interval:
    """The marginal ATE, the mass-weighted sum of the stratum ATEs; a point."""
    ate = sum(s.mass * s.cate for s in evidence.strata)
    return Interval(ate, ate)


def cate_bounds(evidence: EvidenceSet, astar: int) -> Interval:
    """Conditional ATE given A*: vacuous without natural-choice data, a point with it.

    The experimental data carry no information about A*, so the
    experimental-only interval is the closure [-1, 1].
    """
    if astar not in (0, 1):
        raise ValueError(f"astar must be 0 or 1, got {astar!r}")
    if evidence.p1 is None:
        return Interval(-ONE, ONE)
    cate = evidence.stratum(astar).cate
    return Interval(cate, cate)
