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
from typing import Mapping, Optional, Sequence, Union

ZERO = Fraction(0)
ONE = Fraction(1)

AtomKey = tuple[int, int, int]  # (y0, y1, astar)

ATOM_KEYS: tuple[AtomKey, ...] = tuple(
    (y0, y1, astar) for y0 in (0, 1) for y1 in (0, 1) for astar in (0, 1)
)
_ATOM_INDEX = {key: i for i, key in enumerate(ATOM_KEYS)}

RationalLike = Union[Fraction, int, str, float]


def as_prob(value: RationalLike) -> Fraction:
    """Convert to an exact Fraction and require it to lie in [0, 1]."""
    p = Fraction(value)
    if not ZERO <= p <= ONE:
        raise ValueError(f"probability outside [0, 1]: {p}")
    return p


@dataclass(frozen=True)
class JointDistribution:
    """Joint law of (Y^{a=0}, Y^{a=1}, A*): 8 exact atoms in ATOM_KEYS order."""

    atoms: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) != 8:
            raise ValueError(f"expected 8 atoms, got {len(self.atoms)}")
        atoms = tuple(Fraction(p) for p in self.atoms)
        if any(p < 0 for p in atoms):
            raise ValueError("negative atom probability")
        if sum(atoms) != 1:
            raise ValueError(f"atoms sum to {sum(atoms)}, expected 1")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_mapping(cls, mapping: Mapping[AtomKey, RationalLike]) -> "JointDistribution":
        """Build from a (possibly partial) mapping; omitted atoms are 0."""
        for key in mapping:
            if key not in _ATOM_INDEX:
                raise ValueError(f"unknown atom key {key!r}")
        return cls(tuple(Fraction(mapping.get(key, 0)) for key in ATOM_KEYS))

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


def _stratum_cells(spec: Mapping[str, object]) -> dict[tuple[int, int], Fraction]:
    """Within-stratum law over (y0, y1) from a degeneracy spec.

    spec is either {"force": (arm, value), "risk": r} — the forced arm's
    outcome is deterministic and r is the other arm's death risk — or
    {"risks": (r1, r0)} for an independent product law with P(y1=1)=r1,
    P(y0=1)=r0.
    """
    if "force" in spec:
        arm, value = spec["force"]  # type: ignore[misc]
        if arm not in (0, 1) or value not in (0, 1):
            raise ValueError(f"invalid forcing {spec['force']!r}")
        risk = as_prob(spec["risk"])  # type: ignore[arg-type]
        cells: dict[tuple[int, int], Fraction] = {}
        for other in (0, 1):
            weight = risk if other == 1 else 1 - risk
            y0, y1 = (other, value) if arm == 1 else (value, other)
            cells[(y0, y1)] = weight
        return cells
    if "risks" in spec:
        r1, r0 = (as_prob(r) for r in spec["risks"])  # type: ignore[misc]
        return {
            (y0, y1): (r0 if y0 else 1 - r0) * (r1 if y1 else 1 - r1)
            for y0 in (0, 1)
            for y1 in (0, 1)
        }
    raise ValueError("stratum spec needs 'force' or 'risks'")


def degenerate_family(kind: str, params: Mapping[str, object]) -> JointDistribution:
    """Construct joints hitting the point-identification degeneracy branches.

    kind="marginal": one arm's potential outcome is deterministic marginally.
      params: arm, value, free — 4 weights over (other outcome, astar) in
      the order (0,0),(0,1),(1,0),(1,1), summing to 1.
    kind="stratum": per-stratum determinisms as in the demo instance.
      params: pi1, strata — mapping astar -> stratum spec (see _stratum_cells);
      strata with zero mass may be omitted.
    """
    if kind == "marginal":
        arm = params["arm"]
        value = params["value"]
        if arm not in (0, 1) or value not in (0, 1):
            raise ValueError(f"invalid arm/value ({arm!r}, {value!r})")
        free = [as_prob(p) for p in params["free"]]  # type: ignore[union-attr]
        if len(free) != 4 or sum(free) != 1:
            raise ValueError("free weights must be 4 probabilities summing to 1")
        atoms: dict[AtomKey, Fraction] = {}
        for weight, (other, astar) in zip(
            free, ((0, 0), (0, 1), (1, 0), (1, 1))
        ):
            y0, y1 = (other, value) if arm == 1 else (value, other)
            atoms[(y0, y1, astar)] = weight
        return JointDistribution.from_mapping(atoms)

    if kind == "stratum":
        pi1 = as_prob(params["pi1"])  # type: ignore[arg-type]
        strata: Mapping[int, Mapping[str, object]] = params["strata"]  # type: ignore[assignment]
        atoms = {}
        for astar, mass in ((0, 1 - pi1), (1, pi1)):
            if mass == 0:
                continue
            if astar not in strata:
                raise ValueError(f"missing spec for non-null stratum A*={astar}")
            for (y0, y1), weight in _stratum_cells(strata[astar]).items():
                atoms[(y0, y1, astar)] = atoms.get((y0, y1, astar), ZERO) + mass * weight
        return JointDistribution.from_mapping(atoms)

    raise ValueError(f"unknown degeneracy kind {kind!r}")


def degenerate_grid() -> list[JointDistribution]:
    """Systematic instances across every degeneracy branch, for the harness."""
    grid: list[JointDistribution] = []
    free_settings: Sequence[tuple[RationalLike, ...]] = (
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (Fraction(1, 4),) * 4,
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)),
    )
    for arm in (0, 1):
        for value in (0, 1):
            for free in free_settings:
                grid.append(degenerate_family("marginal", {"arm": arm, "value": value, "free": free}))

    risk_settings = (ZERO, Fraction(3, 10), ONE)
    for pi1 in (ZERO, Fraction(3, 10), Fraction(7, 10), ONE):
        for force0 in ((1, 1), (0, 0)):
            for force1 in ((0, 1), (1, 0)):
                for risk in risk_settings:
                    grid.append(
                        degenerate_family(
                            "stratum",
                            {
                                "pi1": pi1,
                                "strata": {
                                    0: {"force": force0, "risk": risk},
                                    1: {"force": force1, "risk": risk},
                                },
                            },
                        )
                    )
    # one-sided determinism: only a single stratum forced
    for pi1 in (Fraction(1, 2), Fraction(7, 10)):
        grid.append(
            degenerate_family(
                "stratum",
                {
                    "pi1": pi1,
                    "strata": {
                        0: {"force": (1, 1), "risk": Fraction(3, 10)},
                        1: {"risks": (Fraction(2, 5), Fraction(3, 5))},
                    },
                },
            )
        )
    # no degeneracy at all
    grid.append(JointDistribution(tuple(Fraction(1, 8) for _ in range(8))))
    grid.append(
        degenerate_family(
            "stratum",
            {
                "pi1": Fraction(2, 5),
                "strata": {
                    0: {"risks": (Fraction(1, 3), Fraction(1, 2))},
                    1: {"risks": (Fraction(3, 4), Fraction(1, 5))},
                },
            },
        )
    )
    grid.append(demo_joint())
    return grid
