"""Probability domain types and ground-truth machinery.

Everything is computed with exact rationals (`fractions.Fraction`).  The
central object is the joint law of the two potential outcomes and the
natural treatment value, (Y under a=0, Y under a=1, A*), stored as 8
nonnegative atoms summing to one.  Observable parameters of both data
sources are functionals of this single joint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

ZERO = Fraction(0)
ONE = Fraction(1)

AtomKey = tuple[int, int, int]  # (y0, y1, astar)

ATOM_KEYS: tuple[AtomKey, ...] = tuple(
    (y0, y1, astar) for y0 in (0, 1) for y1 in (0, 1) for astar in (0, 1)
)
_ATOM_INDEX = {key: i for i, key in enumerate(ATOM_KEYS)}

RationalLike = Union[Fraction, int]


def as_prob(value: RationalLike) -> Fraction:
    """An int or Fraction in [0, 1], as a Fraction; a Fraction is kept as
    given, and anything else (float, str, bool) is a TypeError."""
    if type(value) is int:
        value = Fraction(value)
    elif type(value) is not Fraction:
        raise TypeError(f"expected an int or a Fraction, got {value!r}")
    if not ZERO <= value <= ONE:
        raise ValueError(f"probability outside [0, 1]: {value}")
    return value


@dataclass(frozen=True)
class JointDistribution:
    """Joint law of (Y^{a=0}, Y^{a=1}, A*): 8 exact atoms in ATOM_KEYS order."""

    atoms: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) != 8:
            raise ValueError(f"expected 8 atoms, got {len(self.atoms)}")
        atoms = tuple(as_prob(p) for p in self.atoms)
        if sum(atoms) != 1:
            raise ValueError(f"atoms sum to {sum(atoms)}, expected 1")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_mapping(cls, mapping: Mapping[AtomKey, RationalLike]) -> "JointDistribution":
        """Build from a (possibly partial) mapping; omitted atoms are 0."""
        for key in mapping:
            if key not in _ATOM_INDEX:
                raise ValueError(f"unknown atom key {key!r}")
        return cls(tuple(mapping.get(key, 0) for key in ATOM_KEYS))

    def __getitem__(self, key: AtomKey) -> Fraction:
        return self.atoms[_ATOM_INDEX[key]]

    def mass(
        self,
        y0: Optional[int] = None,
        y1: Optional[int] = None,
        astar: Optional[int] = None,
    ) -> Fraction:
        """Total probability of all atoms matching the given coordinates."""
        total = ZERO
        for (k0, k1, ka), p in zip(ATOM_KEYS, self.atoms):
            if y0 is not None and k0 != y0:
                continue
            if y1 is not None and k1 != y1:
                continue
            if astar is not None and ka != astar:
                continue
            total += p
        return total


@dataclass(frozen=True)
class ExperimentalParams:
    """Interventional death risks identified by the randomized experiment."""

    p_do1: Fraction  # P(Y=1 | do(A=1))
    p_do0: Fraction  # P(Y=1 | do(A=0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_do1", as_prob(self.p_do1))
        object.__setattr__(self, "p_do0", as_prob(self.p_do0))


@dataclass(frozen=True)
class ObservationalParams:
    """Natural-choice prevalence and arm-specific observational risks.

    q1 / q0 are None exactly when the corresponding stratum is empty
    (conditioning on a null event is undefined, never defaulted).
    """

    pi1: Fraction  # P(A*=1)
    q1: Optional[Fraction]  # P(Y=1 | A*=1), None iff pi1 == 0
    q0: Optional[Fraction]  # P(Y=1 | A*=0), None iff pi1 == 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi1", as_prob(self.pi1))
        q1 = None if self.q1 is None else as_prob(self.q1)
        q0 = None if self.q0 is None else as_prob(self.q0)
        if self.pi1 == 0 and q1 is not None:
            raise ValueError("q1 must be undefined when P(A*=1) = 0")
        if self.pi1 > 0 and q1 is None:
            raise ValueError("q1 required when P(A*=1) > 0")
        if self.pi1 == 1 and q0 is not None:
            raise ValueError("q0 must be undefined when P(A*=0) = 0")
        if self.pi1 < 1 and q0 is None:
            raise ValueError("q0 required when P(A*=0) > 0")
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q0", q0)


@dataclass(frozen=True)
class Estimands:
    """True causal estimands evaluated on a known joint.

    Conditional entries are None when the conditioning stratum is empty.
    """

    p_harm: Fraction
    p_benefit: Fraction
    ate: Fraction
    cate0: Optional[Fraction]
    cate1: Optional[Fraction]
    p_harm_given0: Optional[Fraction]
    p_harm_given1: Optional[Fraction]
    p_benefit_given0: Optional[Fraction]
    p_benefit_given1: Optional[Fraction]


def observables_from_joint(
    joint: JointDistribution,
) -> tuple[ExperimentalParams, ObservationalParams]:
    """Observable parameters of both data sources under one shared joint.

    The experiment identifies the marginal do-risks; the natural-choice data
    identify P(A*=1) and the within-stratum risk of the arm actually taken.
    """
    p_do1 = joint.mass(y1=1)
    p_do0 = joint.mass(y0=1)
    pi1 = joint.mass(astar=1)
    q1 = joint.mass(y1=1, astar=1) / pi1 if pi1 > 0 else None
    q0 = joint.mass(y0=1, astar=0) / (1 - pi1) if pi1 < 1 else None
    return ExperimentalParams(p_do1, p_do0), ObservationalParams(pi1, q1, q0)


def true_estimands(joint: JointDistribution) -> Estimands:
    """Evaluate harm/benefit probabilities and treatment effects exactly."""
    p_harm = joint.mass(y0=0, y1=1)
    p_benefit = joint.mass(y0=1, y1=0)
    ate = joint.mass(y1=1) - joint.mass(y0=1)

    def conditional(astar: int):
        mass = joint.mass(astar=astar)
        if mass == 0:
            return None, None, None
        harm = joint.mass(y0=0, y1=1, astar=astar) / mass
        benefit = joint.mass(y0=1, y1=0, astar=astar) / mass
        cate = (joint.mass(y1=1, astar=astar) - joint.mass(y0=1, astar=astar)) / mass
        return harm, benefit, cate

    harm0, benefit0, cate0 = conditional(0)
    harm1, benefit1, cate1 = conditional(1)
    return Estimands(
        p_harm=p_harm,
        p_benefit=p_benefit,
        ate=ate,
        cate0=cate0,
        cate1=cate1,
        p_harm_given0=harm0,
        p_harm_given1=harm1,
        p_benefit_given0=benefit0,
        p_benefit_given1=benefit1,
    )


_SAMPLE_GRID = 100  # atoms drawn as integers in [0, _SAMPLE_GRID], then normalized


def sample_joint(seed: int) -> JointDistribution:
    """Random joint with exact rational atoms, deterministic in the seed."""
    rng = random.Random(seed)
    while True:
        weights = [rng.randint(0, _SAMPLE_GRID) for _ in range(8)]
        if any(weights):
            break
    total = sum(weights)
    return JointDistribution(tuple(Fraction(w, total) for w in weights))


def demo_joint() -> JointDistribution:
    """The men's stratum of the running two-source example.

    Both natural-choice strata hide a determinism: natural non-takers die
    for sure under treatment, natural takers die for sure without it.
    """
    return JointDistribution.from_mapping(
        {
            (1, 1, 1): Fraction(21, 100),
            (1, 0, 1): Fraction(49, 100),
            (1, 1, 0): Fraction(9, 100),
            (0, 1, 0): Fraction(21, 100),
        }
    )


_Cells = dict[tuple[int, int], Fraction]  # within-stratum law over (y0, y1)


def _forced(arm: int, value: int, risk: Fraction) -> _Cells:
    """Arm `arm` always has outcome `value`; the other arm dies with probability `risk`."""
    if arm == 1:
        return {(0, value): 1 - risk, (1, value): risk}
    return {(value, 0): 1 - risk, (value, 1): risk}


def _independent(r1: Fraction, r0: Fraction) -> _Cells:
    """Product law with P(y1=1) = r1 and P(y0=1) = r0."""
    return {
        (y0, y1): (r0 if y0 else 1 - r0) * (r1 if y1 else 1 - r1)
        for y0 in (0, 1)
        for y1 in (0, 1)
    }


def _stratified(pi1: Fraction, cells0: _Cells, cells1: _Cells) -> JointDistribution:
    """Joint with P(A*=1) = pi1 and the given within-stratum laws.

    The law of an empty stratum needs no special case: its cells weigh 0.
    """
    return JointDistribution.from_mapping(
        {
            (y0, y1, astar): mass * weight
            for astar, mass, cells in ((0, 1 - pi1, cells0), (1, pi1, cells1))
            for (y0, y1), weight in cells.items()
        }
    )


def degenerate_grid() -> list[JointDistribution]:
    """Systematic instances across every degeneracy branch, for the harness."""
    half = Fraction(1, 2)
    grid: list[JointDistribution] = []
    # one arm's outcome deterministic in both strata; each setting is
    # (P(A*=1), the other arm's risk within A*=0, within A*=1)
    for arm in (0, 1):
        for value in (0, 1):
            for pi1, risk0, risk1 in (
                (ZERO, ZERO, ZERO),
                (ONE, ONE, ONE),
                (half, half, half),
                (Fraction(3, 8), Fraction(1, 5), Fraction(1, 3)),
            ):
                grid.append(_stratified(pi1, _forced(arm, value, risk0), _forced(arm, value, risk1)))
    # per-stratum determinisms as in the demo instance
    for pi1 in (ZERO, Fraction(3, 10), Fraction(7, 10), ONE):
        for force0 in ((1, 1), (0, 0)):
            for force1 in ((0, 1), (1, 0)):
                for risk in (ZERO, Fraction(3, 10), ONE):
                    grid.append(_stratified(pi1, _forced(*force0, risk), _forced(*force1, risk)))
    # one-sided determinism: only a single stratum forced
    forced_death = _forced(1, 1, Fraction(3, 10))
    for pi1 in (half, Fraction(7, 10)):
        grid.append(_stratified(pi1, forced_death, _independent(Fraction(2, 5), Fraction(3, 5))))
    # no degeneracy at all
    grid.append(JointDistribution(tuple(Fraction(1, 8) for _ in range(8))))
    grid.append(
        _stratified(
            Fraction(2, 5),
            _independent(Fraction(1, 3), half),
            _independent(Fraction(3, 4), Fraction(1, 5)),
        )
    )
    grid.append(demo_joint())
    return grid
