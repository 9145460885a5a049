"""Fusion compatibility and identification of the A* strata, on the joint scale.

Everything rests on one identity per arm a:

    P(Y=1|do(A=a)) = P(Y=1, A*=a) + P(Y^a=1, A*≠a).

`compatibility_check` alone solves it and returns the strata with its report.
Stratum s keeps its mass P(A*=s) and its joint numbers P(Y^a=1, A*=s): the
observed P(Y=1, A*=s) in arm s, and P(Y=1|do(A=a)) minus the other stratum's
observed term in the other arm, each in [0, P(A*=s)] exactly when the sources
are compatible.  Without natural-choice data the one stratum is the whole
population, with the experimental risks.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .errors import IncompatibleEvidence, MissingObservational, NullStratum
from .model import ExperimentalParams, ObservationalParams, ONE, ZERO


class Stratum(NamedTuple):
    """A non-empty stratum's identified numbers, from which `bounds` forms every interval."""

    astar: Optional[int]  # None: the whole population, A* unmeasured
    mass: Fraction  # P(A*=astar)
    joint1: Fraction  # P(Y^{a=1}=1, A*=astar)
    joint0: Fraction  # P(Y^{a=0}=1, A*=astar)
    cate: Fraction  # the stratum's average treatment effect, point identified
    risk1: Optional[Fraction] = None  # P(Y^{a=1}=1 | A*=astar); None for the whole population
    risk0: Optional[Fraction] = None  # P(Y^{a=0}=1 | A*=astar)


class FusionReport(NamedTuple):
    """Outcome of checking that P0 and P1 can coexist under one joint."""

    compatible: bool
    violations: tuple[str, ...]
    derived_cross_risks: Mapping[int, Fraction]  # astar -> P(Y^{1-astar}=1 | A*=astar)
    strata: Optional[tuple[Stratum, ...]]  # the non-empty strata in A* order; None if incompatible


def compatibility_check(p0: ExperimentalParams, p1: ObservationalParams) -> FusionReport:
    """Solve the identity once for each arm; incompatibility is a report, not an error."""
    violations: list[str] = []
    cross: dict[int, Fraction] = {}
    seen, other = [ZERO, ZERO], [ZERO, ZERO]  # by arm
    mass0 = ONE - p1.pi1
    for arm, p_do, mass, rest, risk in (
        (1, p0.p_do1, p1.pi1, mass0, p1.q1),
        (0, p0.p_do0, mass0, p1.pi1, p1.q0),
    ):
        seen[arm] = ZERO if risk is None else mass * risk  # P(Y=1, A*=arm)
        other[arm] = p_do - seen[arm]  # P(Y^arm=1, A*≠arm), in [0, P(A*≠arm)] when compatible
        if risk is not None and not ZERO <= other[arm] <= rest:
            violations.append(
                f"P(Y=1|do(A={arm})) = {p_do} outside [{seen[arm]}, {seen[arm] + rest}] "
                f"implied by P(A*={arm}) = {mass}, P(Y=1|A*={arm}) = {risk}"
            )
        if rest:
            cross[1 - arm] = other[arm] / rest
    strata = None
    if not violations:
        both = (
            (0, mass0, other[1], seen[0], cross.get(0), p1.q0),
            (1, p1.pi1, seen[1], other[0], p1.q1, cross.get(1)),
        )
        strata = tuple(Stratum(s, m, j1, j0, r1 - r0, r1, r0) for s, m, j1, j0, r1, r0 in both if m)
    return FusionReport(not violations, tuple(violations), cross, strata)


class EvidenceSet(namedtuple("EvidenceSet", "p0 p1 fusion strata")):
    """Experimental parameters, optionally fused with natural-choice data.

    Identified once, when built: `fusion` is the compatibility report (None
    without natural-choice data), and every bound and verdict reads `strata`.
    """

    __slots__ = ()

    def __new__(
        cls, p0: ExperimentalParams, p1: Optional[ObservationalParams] = None
    ) -> "EvidenceSet":
        if p1 is None:
            strata = (Stratum(None, ONE, p0.p_do1, p0.p_do0, p0.p_do1 - p0.p_do0),)
            return super().__new__(cls, p0, p1, None, strata)
        fusion = compatibility_check(p0, p1)
        return super().__new__(cls, p0, p1, fusion, fusion.strata)

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
    """Both potential-outcome death risks within the A*=astar stratum:
    (P(Y^{a=1}=1 | A*=astar), P(Y^{a=0}=1 | A*=astar))."""
    stratum = EvidenceSet(p0, p1).stratum(astar)
    return stratum.risk1, stratum.risk0

