"""Harm verdicts for both analytic schools and mechanical theorem checks.

`level` identifies one evidence level once and derives every reported
bound and both verdicts from it, and `evidence_levels` decides which levels
a stratum has; the CLI report renders these `Level`s and the harness checks
the same ones.  The checkers falsify: each takes the experimental-only and
the fused `Level` of a ground-truth joint and tests one of the
concordance/degeneracy biconditionals, calling no bound function.  On
correct bounds code every checker returns None for every valid joint; a
non-None result is a counterexample and therefore an implementation bug.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable

from . import bounds as bounds_mod
from .model import (
    JointDistribution,
    demo_joint,
    degenerate_grid,
    observables_from_joint,
    sample_joint,
)


class Verdict(namedtuple("Verdict", "school detected witness value", defaults=(None, None))):
    """Harm detection outcome of one analytic school: `school` is
    "interventionist" or "counterfactual"; when `detected`, `witness` names
    the subgroup or bound that triggered detection and `value` is its
    strictly positive sharp lower bound, a Fraction."""

    __slots__ = ()


class PropositionReport(namedtuple("PropositionReport", "proposition instances_checked counterexamples")):
    """One checker's outcome: `counterexamples` holds a (joint, details)
    pair for each instance on which the proposition failed."""

    __slots__ = ()


def interventionist_verdict(evidence: bounds_mod.EvidenceSet) -> Verdict:
    """Detected iff some measurable group has a strictly positive sharp ATE lower bound.

    With experimental data alone no feature is measured, so the only group
    is the whole population; with natural-choice data the groups are the
    A* strata and their ATEs are point identified.
    """
    for stratum in evidence.strata:
        if stratum.joint1 > stratum.joint0:
            witness = "marginal ATE" if stratum.astar is None else f"ATE | A*={stratum.astar}"
            return Verdict("interventionist", True, witness, stratum.cate)
    return Verdict("interventionist", False)


def counterfactual_verdict(evidence: bounds_mod.EvidenceSet, harm: bounds_mod.Interval) -> Verdict:
    """Detected iff `harm`, the sharp P(harm) bounds of `evidence`, has a positive lower bound."""
    if harm.lower > 0:
        label = "sharp lower bound on P(harm)"
        if evidence.p1 is not None:
            label += " (fused)"
        return Verdict("counterfactual", True, label, harm.lower)
    return Verdict("counterfactual", False)


class Level(namedtuple("Level", "evidence bounds verdicts")):
    """One evidence level: its evidence, every bound reported at it by name
    (None for an empty A* stratum), and both verdicts, interventionist then
    counterfactual."""

    __slots__ = ()


def level(evidence: bounds_mod.EvidenceSet) -> Level:
    """Every bound and both verdicts of one identified evidence level.

    Without natural-choice data the conditional ATEs are vacuous and no
    other conditional bound is reported; with it, each conditional bound of
    an empty A* stratum is None.
    """
    harm = bounds_mod.harm_bounds(evidence)
    bounds = {
        "harm": harm,
        "benefit": bounds_mod.benefit_bounds(evidence),
        "ate": bounds_mod.ate_bounds(evidence),
    }
    # Literal keys, so that every level's dict shares the same strings.
    conditional = [(("cate0", "cate1"), bounds_mod.cate_bounds)]
    empty = set()
    if evidence.p1 is not None:
        conditional += [
            (("harm_given0", "harm_given1"), bounds_mod.conditional_harm_bounds),
            (("benefit_given0", "benefit_given1"), bounds_mod.conditional_benefit_bounds),
        ]
        empty = {0, 1} - {s.astar for s in evidence.strata}
    for keys, fn in conditional:
        for astar, key in enumerate(keys):
            bounds[key] = None if astar in empty else fn(evidence, astar)
    verdicts = (interventionist_verdict(evidence), counterfactual_verdict(evidence, harm))
    return Level(evidence, bounds, verdicts)


def evidence_levels(evidence: bounds_mod.EvidenceSet) -> tuple[Level, Level | None]:
    """The experimental-only and the fused level of a stratum's evidence; the
    fused one is None without natural-choice data (the one level is then on
    `evidence` itself) and when the two sources are incompatible."""
    if evidence.p1 is None:
        return level(evidence), None
    fused = level(evidence) if evidence.fusion.compatible else None
    return level(bounds_mod.EvidenceSet(evidence.p0)), fused


def joint_levels(joint: JointDistribution) -> tuple[Level, Level]:
    """The experimental-only and the fused level of a joint's evidence; a
    joint's two sources are always compatible, so both are present."""
    return evidence_levels(bounds_mod.EvidenceSet(*observables_from_joint(joint)))


def check_prop1(p0_only: Level, fused: Level) -> str | None:
    """Counterfactual and interventionist detection agree at both evidence levels."""
    for label, lvl in (("experimental-only", p0_only), ("fused", fused)):
        interventionist, counterfactual = (v.detected for v in lvl.verdicts)
        if counterfactual != interventionist:
            return (
                f"{label}: counterfactual detected={counterfactual} but "
                f"interventionist detected={interventionist}"
            )
    return None


def check_prop2(p0_only: Level, fused: Level) -> str | None:
    """Point identification of P(harm) happens exactly at deterministic risks."""
    for label, lvl, kind in (
        ("experimental-only", p0_only, "marginal"),
        ("fused", fused, "stratum"),
    ):
        point = bounds_mod.is_point_identified(lvl.bounds["harm"])
        degenerate = all(s.joint1 in (0, s.mass) or s.joint0 in (0, s.mass) for s in lvl.evidence.strata)
        if point != degenerate:
            return (
                f"{label}: point identification {point} but "
                f"{kind} degeneracy {degenerate}"
            )
    return None


def check_prop3(p0_only: Level, fused: Level) -> str | None:
    """Point-identified positive P(harm) splits the strata: per stratum, either
    conditional benefit or conditional harm is identified to be exactly 0."""
    premise = any(
        bounds_mod.is_point_identified(harm) and harm.lower > 0
        for harm in (fused.bounds["harm"], p0_only.bounds["harm"])
    )
    if not premise:
        return None
    zero = bounds_mod.Interval(0, 0)
    for stratum in fused.evidence.strata:
        astar = stratum.astar
        benefit = fused.bounds[f"benefit_given{astar}"]
        harm = fused.bounds[f"harm_given{astar}"]
        if benefit != zero and harm != zero:
            return (
                f"A*={astar}: conditional benefit {benefit.lower}..{benefit.upper} "
                f"and conditional harm {harm.lower}..{harm.upper}, neither pinned to 0"
            )
    return None


def check_prop4(p0_only: Level, fused: Level) -> str | None:
    """The fused harm lower bound strictly improves iff the stratum ATEs have
    strictly opposite signs.  Vacuous when a stratum is empty."""
    if len(fused.evidence.strata) < 2:
        return None
    improved = fused.bounds["harm"].lower > p0_only.bounds["harm"].lower
    effect0, effect1 = (s.joint1 - s.joint0 for s in fused.evidence.strata)  # each CATE's sign
    opposite = (effect0 > 0 > effect1) or (effect1 > 0 > effect0)
    if improved != opposite:
        cate0, cate1 = (s.cate for s in fused.evidence.strata)
        return (
            f"lower bound improved={improved} but opposite-sign stratum ATEs="
            f"{opposite} (ATE|A*=0 is {cate0}, ATE|A*=1 is {cate1})"
        )
    return None


_CHECKERS: dict[str, Callable[[Level, Level], str | None]] = {
    "P1": check_prop1,
    "P2": check_prop2,
    "P3": check_prop3,
    "P4": check_prop4,
}


def run_harness(n: int, seed: int) -> list[PropositionReport]:
    """Run all checkers on n sampled joints plus the constructed instances.

    Deterministic in (n, seed).  Each joint is sampled only when its turn
    comes, so memory does not grow with n.  Counterexamples carry the
    offending joint so a reported violation can always be re-verified.
    """
    if n < 1:
        raise ValueError(f"need at least one sampled instance, got {n}")
    instances = itertools.chain(
        [demo_joint()], degenerate_grid(), (sample_joint(seed + i) for i in range(n))
    )
    counterexamples: dict[str, list[tuple[JointDistribution, str]]] = {name: [] for name in _CHECKERS}
    for checked, joint in enumerate(instances, start=1):
        levels = joint_levels(joint)
        for name, check in _CHECKERS.items():
            details = check(*levels)
            if details is not None:
                counterexamples[name].append((joint, details))
    return [
        PropositionReport(
            proposition=name,
            instances_checked=checked,
            counterexamples=tuple(counterexamples[name]),
        )
        for name in _CHECKERS
    ]
