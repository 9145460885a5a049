"""Probability domain types and ground-truth machinery.

Everything is computed with exact rationals (`fractions.Fraction`).  The
central object is the joint law of the two potential outcomes and the
natural treatment value, (Y under a=0, Y under a=1, A*), stored as 8
nonnegative integer weights over one positive total, in lowest terms; its
atoms are the weights divided by the total.  Observable parameters of both
data sources are functionals of this single joint.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)

AtomKey = tuple[int, int, int]  # (y0, y1, astar)

ATOM_KEYS: tuple[AtomKey, ...] = tuple(
    (y0, y1, astar) for y0 in (0, 1) for y1 in (0, 1) for astar in (0, 1)
)
_ATOM_INDEX = {key: i for i, key in enumerate(ATOM_KEYS)}


def as_prob(value: Fraction | int) -> Fraction:
    """An int or Fraction in [0, 1], as a Fraction; a Fraction is kept as
    given, and anything else (float, str, bool) is a TypeError."""
    if type(value) is int:
        value = Fraction(value)
    elif type(value) is not Fraction:
        raise TypeError(f"expected an int or a Fraction, got {value!r}")
    if not 0 <= value.numerator <= value.denominator:  # on the integers: no `numbers` ABC check
        raise ValueError(f"probability outside [0, 1]: {value}")
    return value


class JointDistribution(namedtuple("JointDistribution", "weights total")):
    """Joint law of (Y^{a=0}, Y^{a=1}, A*): atom i, in ATOM_KEYS order, is
    weights[i] / total, in lowest terms, so equal atoms give equal joints."""

    __slots__ = ()

    def __new__(cls, atoms: tuple[Fraction, ...]) -> "JointDistribution":
        if len(atoms) != 8:
            raise ValueError(f"expected 8 atoms, got {len(atoms)}")
        atoms = tuple(as_prob(p) for p in atoms)
        scale = lcm(*(p.denominator for p in atoms))
        weights = [p.numerator * (scale // p.denominator) for p in atoms]
        if sum(weights) != scale:
            raise ValueError(f"atoms sum to {Fraction(sum(weights), scale)}, expected 1")
        return cls.from_weights(weights)

    @classmethod
    def from_weights(cls, weights: list[int]) -> "JointDistribution":
        """The joint whose atom i is weights[i] / sum(weights), for 8 nonnegative ints not all 0."""
        if len(weights) != 8:
            raise ValueError(f"expected 8 weights, got {len(weights)}")
        for w in weights:
            if type(w) is not int:
                raise TypeError(f"expected an int weight, got {w!r}")
            if w < 0:
                raise ValueError(f"negative weight: {w}")
        divisor = gcd(*weights)
        if not divisor:
            raise ValueError("the weights are all 0")
        return super().__new__(cls, tuple(w // divisor for w in weights), sum(weights) // divisor)

    def __reduce__(self):  # unpickled through the checking constructor
        return type(self).from_weights, (self.weights,)

    @classmethod
    def from_mapping(cls, mapping: Mapping[AtomKey, Fraction | int]) -> "JointDistribution":
        """Build from a (possibly partial) mapping; omitted atoms are 0."""
        for key in mapping:
            if key not in _ATOM_INDEX:
                raise ValueError(f"unknown atom key {key!r}")
        return cls(tuple(mapping.get(key, 0) for key in ATOM_KEYS))

    @property
    def atoms(self) -> tuple[Fraction, ...]:
        """The 8 atoms as Fractions, in ATOM_KEYS order."""
        return tuple(Fraction(w, self.total) for w in self.weights)

    def __getitem__(self, key: AtomKey) -> Fraction:
        return Fraction(self.weights[_ATOM_INDEX[key]], self.total)

    def mass(self, y0: int | None = None, y1: int | None = None, astar: int | None = None) -> Fraction:
        """Total probability of all atoms matching the given coordinates."""
        total = 0
        for (k0, k1, ka), w in zip(ATOM_KEYS, self.weights):
            if (y0 is None or k0 == y0) and (y1 is None or k1 == y1) and (astar is None or ka == astar):
                total += w
        return Fraction(total, self.total)


class ExperimentalParams(namedtuple("ExperimentalParams", "p_do1 p_do0")):
    """Interventional death risks identified by the randomized experiment:
    p_do1 = P(Y=1 | do(A=1)) and p_do0 = P(Y=1 | do(A=0))."""

    __slots__ = ()

    def __new__(cls, p_do1: Fraction | int, p_do0: Fraction | int) -> "ExperimentalParams":
        return super().__new__(cls, as_prob(p_do1), as_prob(p_do0))


class ObservationalParams(namedtuple("ObservationalParams", "pi1 q1 q0")):
    """Natural-choice prevalence pi1 = P(A*=1) and arm-specific observational
    risks q1 = P(Y=1 | A*=1) and q0 = P(Y=1 | A*=0).

    q1 / q0 are None exactly when the corresponding stratum is empty
    (conditioning on a null event is undefined, never defaulted).
    """

    __slots__ = ()

    def __new__(
        cls, pi1: Fraction | int, q1: Fraction | int | None, q0: Fraction | int | None
    ) -> "ObservationalParams":
        pi1 = as_prob(pi1)
        q1 = None if q1 is None else as_prob(q1)
        q0 = None if q0 is None else as_prob(q0)
        empty1, empty0 = pi1.numerator == 0, pi1.numerator == pi1.denominator  # is A*=1, A*=0 empty?
        if empty1 and q1 is not None:
            raise ValueError("q1 must be undefined when P(A*=1) = 0")
        if not empty1 and q1 is None:
            raise ValueError("q1 required when P(A*=1) > 0")
        if empty0 and q0 is not None:
            raise ValueError("q0 must be undefined when P(A*=0) = 0")
        if not empty0 and q0 is None:
            raise ValueError("q0 required when P(A*=0) > 0")
        return super().__new__(cls, pi1, q1, q0)


class Estimands(
    namedtuple(
        "Estimands",
        "p_harm p_benefit ate cate0 cate1 p_harm_given0 p_harm_given1 p_benefit_given0 p_benefit_given1",
    )
):
    """True causal estimands evaluated on a known joint, each a Fraction.

    Conditional entries are None when the conditioning stratum is empty.
    """

    __slots__ = ()


def observables_from_joint(
    joint: JointDistribution,
) -> tuple[ExperimentalParams, ObservationalParams]:
    """Observable parameters of both data sources under one shared joint.

    The experiment identifies the marginal do-risks; the natural-choice data
    identify P(A*=1) and the within-stratum risk of the arm actually taken,
    each a sum of the joint's integer weights over its total.
    """
    w, scale = joint.weights, joint.total  # w at 4·y0 + 2·y1 + astar
    treated = sum(w[1::2])  # A*=1
    p0 = ExperimentalParams(Fraction(sum(w[2:4] + w[6:]), scale), Fraction(sum(w[4:]), scale))
    q1 = Fraction(w[3] + w[7], treated) if treated else None  # P(Y^1=1 | A*=1)
    q0 = Fraction(w[4] + w[6], scale - treated) if treated < scale else None  # P(Y^0=1 | A*=0)
    return p0, ObservationalParams(Fraction(treated, scale), q1, q0)


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
    return JointDistribution.from_weights(weights)


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


def degenerate_grid(n: int = 2) -> list[JointDistribution]:
    """Every joint whose eight atoms are multiples of 1/n, C(n+7, 7) of them.

    Each choice of 7 bar positions among n + 7 slots splits n units into 8
    atoms (stars and bars), in the deterministic order of
    `itertools.combinations`.  Zero atoms give empty strata and risks of 0
    or 1.  n = 8, 10 and 12 each reach the same 207 sign patterns of the
    identified risks; odd n misses two of them, which need P(A*=1) = 1/2.
    Nothing yet proves that no other pattern is realizable.
    """
    if n < 1:
        raise ValueError(f"the grid needs n of at least 1, got {n!r}")
    ends = ((-1, *bars, n + 7) for bars in itertools.combinations(range(n + 7), 7))
    return [JointDistribution.from_weights([b - a - 1 for a, b in zip(e, e[1:])]) for e in ends]
