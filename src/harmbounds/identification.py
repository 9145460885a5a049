"""Fusion compatibility and identification of the A* strata, in integers over one scale.

Everything rests on one identity per arm a:

    P(Y=1|do(A=a)) = P(Y=1, A*=a) + P(Y^a=1, A*≠a).

`compatibility_check` alone solves it, in `int` over one common denominator
`scale`, and returns the strata with its report.  Stratum s keeps its mass
P(A*=s) and its joint numbers P(Y^a=1, A*=s) as numerators over `scale`: the
observed P(Y=1, A*=s) in arm s, and P(Y=1|do(A=a)) minus the other stratum's
observed term in the other arm, each in [0, P(A*=s)] exactly when the sources
are compatible.  Without natural-choice data the one stratum is the whole
population, with the experimental risks.  A `Fraction` is formed only for a
number that is reported: a CATE, a risk, a cross risk or a violation text.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .errors import IncompatibleEvidence, MissingObservational, NullStratum
from .model import ExperimentalParams, ObservationalParams


class Stratum(namedtuple("Stratum", "astar scale mass joint1 joint0")):
    """A non-empty stratum's identified numbers, from which `bounds` forms
    every interval: the positive `mass` P(A*=astar) and `joint1`, `joint0`
    = P(Y^{a=1}=1, A*=astar), P(Y^{a=0}=1, A*=astar), integer numerators over
    `scale`, the common denominator of every stratum of an EvidenceSet.
    `astar` is None for the whole population, when A* is unmeasured."""

    __slots__ = ()

    @property
    def cate(self) -> Fraction:
        """The stratum's average treatment effect, point identified."""
        return Fraction(self.joint1 - self.joint0, self.mass)


class FusionReport(namedtuple("FusionReport", "compatible violations derived_cross_risks strata")):
    """Outcome of checking that P0 and P1 can coexist under one joint: the
    violation texts, P(Y^{1-astar}=1 | A*=astar) by astar, and the non-empty
    strata in A* order, None if incompatible."""

    __slots__ = ()


def compatibility_check(p0: ExperimentalParams, p1: ObservationalParams) -> FusionReport:
    """Solve the identity once for each arm; incompatibility is a report, not an error."""
    pi1 = p1.pi1
    dens = [pi1.denominator * q.denominator for q in (p1.q1, p1.q0) if q is not None]
    scale = lcm(p0.p_do1.denominator, p0.p_do0.denominator, *dens)
    mass1 = pi1.numerator * (scale // pi1.denominator)
    masses = (scale - mass1, mass1)  # by arm
    violations: list[str] = []
    cross: dict[int, Fraction] = {}
    seen, other = [0, 0], [0, 0]  # by arm
    for arm, p_do, risk in ((1, p0.p_do1, p1.q1), (0, p0.p_do0, p1.q0)):
        mass, rest = masses[arm], masses[1 - arm]
        if risk is not None:  # P(Y=1, A*=arm); exact, as scale is a multiple of den(π_arm)·den(q_arm)
            seen[arm] = mass * risk.numerator // risk.denominator
        # P(Y^arm=1, A*≠arm), in [0, P(A*≠arm)] when compatible
        other[arm] = p_do.numerator * (scale // p_do.denominator) - seen[arm]
        if risk is not None and not 0 <= other[arm] <= rest:
            violations.append(
                f"P(Y=1|do(A={arm})) = {p_do} outside [{Fraction(seen[arm], scale)}, "
                f"{Fraction(seen[arm] + rest, scale)}] implied by P(A*={arm}) = "
                f"{Fraction(mass, scale)}, P(Y=1|A*={arm}) = {risk}"
            )
        if rest:
            cross[1 - arm] = Fraction(other[arm], rest)
    strata = None
    if not violations:
        both = ((0, masses[0], other[1], seen[0]), (1, mass1, seen[1], other[0]))
        strata = tuple(Stratum(s, scale, m, j1, j0) for s, m, j1, j0 in both if m)
    return FusionReport(not violations, tuple(violations), cross, strata)


class EvidenceSet(namedtuple("EvidenceSet", "p0 p1 fusion strata")):
    """Experimental parameters, optionally fused with natural-choice data.

    Identified once, when built: `fusion` is the compatibility report (None
    without natural-choice data), and every bound and verdict reads `strata`.
    """

    __slots__ = ()

    def __new__(
        cls, p0: ExperimentalParams, p1: ObservationalParams | None = None
    ) -> "EvidenceSet":
        if p1 is None:
            p_do1, p_do0 = p0
            scale = lcm(p_do1.denominator, p_do0.denominator)
            joint1 = p_do1.numerator * (scale // p_do1.denominator)
            joint0 = p_do0.numerator * (scale // p_do0.denominator)
            strata = (Stratum(None, scale, scale, joint1, joint0),)
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
    return Fraction(stratum.joint1, stratum.mass), Fraction(stratum.joint0, stratum.mass)
