"""Sharp bounds on harm/benefit probabilities and treatment effects.

Every interval is formed here from the strata of an `identification.EvidenceSet`,
which keeps each one's mass and joint numbers j_a = P(Y^a=1, A*=s) as integers
over a common denominator `scale`.  Harm within stratum s has the Frechet
bounds [max(0, j1 - j0), min(j1, P(A*=s) - j0)], and the marginal bounds are
their sums.  With natural-choice data the lower bound is Tian & Pearl's
max(0, P(y) - P(y|do(a0))) + max(0, P(y|do(a1)) - P(y)); without it, the one
stratum is the whole population.  The arithmetic runs on the integers; each
interval forms its `Fraction` ends last, over `scale` for a marginal interval
and over the stratum mass for a conditional one.  The tests pin every closed
form to an independent LP oracle, which no runtime module imports.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .identification import EvidenceSet, Stratum
from .model import ONE


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


def _frechet_sum(strata: tuple[Stratum, ...], benefit: bool, den: int | None = None) -> Interval:
    """Sharp bounds on harm (benefit: j1 and j0 swapped) within `strata`, over
    `den` (default `scale`): the sum of [max(0, j1 - j0), min(j1, mass - j0)].
    The ends share the positive `den`, so they are ordered when their numerators are."""
    lower = upper = 0
    for s in strata:
        u, v = (s.joint0, s.joint1) if benefit else (s.joint1, s.joint0)
        lower += max(0, u - v)
        upper += min(u, s.mass - v)
    den = den or strata[0].scale
    if lower > upper:
        raise ValueError(f"lower {Fraction(lower, den)} exceeds upper {Fraction(upper, den)}")
    return Interval._make((Fraction(lower, den), Fraction(upper, den)))


def harm_bounds(evidence: EvidenceSet) -> Interval:
    """Sharp bounds on P(Y^{a=1}=1, Y^{a=0}=0)."""
    return _frechet_sum(evidence.strata, False)


def benefit_bounds(evidence: EvidenceSet) -> Interval:
    """Sharp bounds on P(Y^{a=1}=0, Y^{a=0}=1)."""
    return _frechet_sum(evidence.strata, True)


def conditional_harm_bounds(evidence: EvidenceSet, astar: int) -> Interval:
    """Sharp bounds on P(harm | A*=astar): the stratum's Frechet bounds over its mass."""
    stratum = evidence.stratum(astar)
    return _frechet_sum((stratum,), False, stratum.mass)


def conditional_benefit_bounds(evidence: EvidenceSet, astar: int) -> Interval:
    """Sharp bounds on P(benefit | A*=astar)."""
    stratum = evidence.stratum(astar)
    return _frechet_sum((stratum,), True, stratum.mass)


def ate_bounds(evidence: EvidenceSet) -> Interval:
    """The marginal ATE, P(Y=1|do(A=1)) - P(Y=1|do(A=0)); a point, for compatible evidence."""
    strata = evidence.strata  # raises IncompatibleEvidence when no joint fits
    ate = Fraction(sum(s.joint1 - s.joint0 for s in strata), strata[0].scale)
    return Interval._make((ate, ate))


def cate_bounds(evidence: EvidenceSet, astar: int) -> Interval:
    """Conditional ATE given A*: vacuous without natural-choice data, a point with it."""
    if astar not in (0, 1):
        raise ValueError(f"astar must be 0 or 1, got {astar!r}")
    if evidence.p1 is None:
        return VACUOUS_CATE
    cate = evidence.stratum(astar).cate
    return Interval._make((cate, cate))
