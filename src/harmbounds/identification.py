"""Fusion compatibility and identification of the A* strata.

With both data sources in hand, the within-stratum risk of the arm a
patient would naturally take is observed directly, and the cross-world
risk (the other arm's risk in the same stratum) is pinned down by a
one-line linear solve against the experimental marginal.  Compatibility
of the two sources is exactly the requirement that both derived
cross-world risks are probabilities.  Without natural-choice data the
only stratum is the whole population, with the experimental risks.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .errors import IncompatibleEvidence, MissingObservational, NullStratum
from .model import ExperimentalParams, ObservationalParams, ONE


class FusionReport(NamedTuple):
    """Outcome of checking that P0 and P1 can coexist under one joint."""

    compatible: bool
    violations: tuple[str, ...]
    derived_cross_risks: Mapping[int, Fraction]  # astar -> P(Y^{1-astar}=1 | A*=astar)


class Stratum(NamedTuple):
    """A non-empty stratum and both of its identified potential-outcome risks."""

    astar: Optional[int]  # None: the whole population, A* unmeasured
    mass: Fraction
    risk1: Fraction  # P(Y^{a=1}=1 | stratum)
    risk0: Fraction  # P(Y^{a=0}=1 | stratum)

    @property
    def cate(self) -> Fraction:
        """The stratum's average treatment effect, point identified."""
        return self.risk1 - self.risk0


def _cross_risks(
    p0: ExperimentalParams, p1: ObservationalParams
) -> dict[int, Fraction]:
    """Raw cross-world risks; values may fall outside [0,1] if incompatible.

    P(Y^1=1) = pi1*q1 + (1-pi1)*P(Y^1=1 | A*=0) and symmetrically for arm 0,
    so each cross risk is determined by a single linear equation.
    """
    risks: dict[int, Fraction] = {}
    if p1.pi1 < 1:
        risks[0] = (p0.p_do1 - p1.pi1 * (p1.q1 if p1.q1 is not None else 0)) / (1 - p1.pi1)
    if p1.pi1 > 0:
        risks[1] = (p0.p_do0 - (1 - p1.pi1) * (p1.q0 if p1.q0 is not None else 0)) / p1.pi1
    return risks


def compatibility_check(
    p0: ExperimentalParams, p1: ObservationalParams
) -> FusionReport:
    """Check the fusion inequalities; incompatibility is a report, not an error."""
    violations: list[str] = []
    if p1.q1 is not None:
        lo, hi = p1.pi1 * p1.q1, p1.pi1 * p1.q1 + (1 - p1.pi1)
        if not lo <= p0.p_do1 <= hi:
            violations.append(
                f"P(Y=1|do(A=1)) = {p0.p_do1} outside [{lo}, {hi}] "
                f"implied by P(A*=1) = {p1.pi1}, P(Y=1|A*=1) = {p1.q1}"
            )
    if p1.q0 is not None:
        lo, hi = (1 - p1.pi1) * p1.q0, (1 - p1.pi1) * p1.q0 + p1.pi1
        if not lo <= p0.p_do0 <= hi:
            violations.append(
                f"P(Y=1|do(A=0)) = {p0.p_do0} outside [{lo}, {hi}] "
                f"implied by P(A*=0) = {1 - p1.pi1}, P(Y=1|A*=0) = {p1.q0}"
            )
    return FusionReport(
        compatible=not violations,
        violations=tuple(violations),
        derived_cross_risks=_cross_risks(p0, p1),
    )


class EvidenceSet(namedtuple("EvidenceSet", "p0 p1 fusion strata")):
    """Experimental parameters, optionally fused with natural-choice data.

    Identified once, when built: `fusion` is the compatibility report (None
    without natural-choice data), and every bound and verdict reads `strata`.
    """

    __slots__ = ()

    def __new__(
        cls, p0: ExperimentalParams, p1: Optional[ObservationalParams] = None
    ) -> "EvidenceSet":
        fusion = strata = None
        if p1 is None:
            strata = (Stratum(None, ONE, p0.p_do1, p0.p_do0),)
        else:
            fusion = compatibility_check(p0, p1)
            if fusion.compatible:
                cross = fusion.derived_cross_risks
                both = (
                    Stratum(0, 1 - p1.pi1, cross.get(0), p1.q0),
                    Stratum(1, p1.pi1, p1.q1, cross.get(1)),
                )
                strata = tuple(s for s in both if s.mass > 0)
        return super().__new__(cls, p0, p1, fusion, strata)

    def __getnewargs__(self) -> tuple:
        return self.p0, self.p1

    @property
    def strata(self) -> tuple[Stratum, ...]:
        """The non-empty strata in A* order; IncompatibleEvidence if no joint fits."""
        strata = self[3]  # the field behind this property
        if strata is None:
            raise IncompatibleEvidence("; ".join(self.fusion.violations))
        return strata

    def stratum(self, astar: int) -> Stratum:
        """The A*=astar stratum; it needs natural-choice data and positive mass."""
        if self.p1 is None:
            raise MissingObservational("conditional bounds require natural-choice data")
        if astar not in (0, 1):
            raise ValueError(f"astar must be 0 or 1, got {astar!r}")
        for stratum in self.strata:
            if stratum.astar == astar:
                return stratum
        raise NullStratum(f"P(A*={astar}) = 0")


def identify_stratum_risks(
    p0: ExperimentalParams, p1: ObservationalParams, astar: int
) -> tuple[Fraction, Fraction]:
    """Both potential-outcome death risks within the A*=astar stratum.

    Returns (P(Y^{a=1}=1 | A*=astar), P(Y^{a=0}=1 | A*=astar)).
    """
    stratum = EvidenceSet(p0, p1).stratum(astar)
    return stratum.risk1, stratum.risk0

