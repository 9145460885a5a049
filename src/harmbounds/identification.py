"""Fusion compatibility and identification of the A* strata.

Everything rests on one identity per arm a:

    P(Y=1|do(A=a)) = P(A*=a)·P(Y=1|A*=a) + P(A*≠a)·P(Y^a=1 | A*≠a).

The first term is observed.  Solved for the last factor, the identity
gives the cross-world risk of the other stratum, and the two sources are
compatible exactly when both identities hold with that factor in [0, 1]:
P(Y=1|do(A=a)) lies in [P(Y=1, A*=a), P(Y=1, A*=a) + P(A*≠a)].  Without
natural-choice data the only stratum is the whole population, with the
experimental risks.
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


def compatibility_check(
    p0: ExperimentalParams, p1: ObservationalParams
) -> FusionReport:
    """Solve the identity for each arm; incompatibility is a report, not an error."""
    violations: list[str] = []
    cross: dict[int, Fraction] = {}
    for arm, p_do, mass, risk in (
        (1, p0.p_do1, p1.pi1, p1.q1),
        (0, p0.p_do0, 1 - p1.pi1, p1.q0),
    ):
        seen = 0 if risk is None else mass * risk  # P(Y=1, A*=arm)
        rest = 1 - mass  # P(A*≠arm)
        if risk is not None and not seen <= p_do <= seen + rest:
            violations.append(
                f"P(Y=1|do(A={arm})) = {p_do} outside [{seen}, {seen + rest}] "
                f"implied by P(A*={arm}) = {mass}, P(Y=1|A*={arm}) = {risk}"
            )
        if rest > 0:
            cross[1 - arm] = (p_do - seen) / rest
    return FusionReport(not violations, tuple(violations), cross)


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

