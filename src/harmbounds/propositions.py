"""Harm verdicts for both analytic schools and mechanical theorem checks.

The checkers falsify: each takes a ground-truth joint, derives the
observable evidence, and tests one of the concordance/degeneracy
biconditionals.  On correct bounds code every checker returns None for
every valid joint; a non-None result is a counterexample and therefore an
implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import bounds as bounds_mod
from .model import (
    JointDistribution,
    demo_joint,
    degenerate_grid,
    observables_from_joint,
    sample_joint,
)

PROPOSITIONS = ("P1", "P2", "P3", "P4")


@dataclass(frozen=True)
class Verdict:
    """Harm detection outcome of one analytic school."""

    school: str  # "interventionist" | "counterfactual"
    detected: bool
    witness: Optional[str] = None  # subgroup / bound that triggered detection
    value: Optional[Fraction] = None  # the strictly positive sharp lower bound


@dataclass(frozen=True)
class PropositionReport:
    proposition: str
    instances_checked: int
    counterexamples: tuple[tuple[JointDistribution, str], ...]


def interventionist_verdict(evidence: bounds_mod.EvidenceSet) -> Verdict:
    """Detected iff some measurable group has a strictly positive sharp ATE lower bound.

    With experimental data alone no feature is measured, so the only group
    is the whole population; with natural-choice data the groups are the
    A* strata and their ATEs are point identified.
    """
    for stratum in evidence.strata:
        if stratum.cate > 0:
            witness = "marginal ATE" if stratum.astar is None else f"ATE | A*={stratum.astar}"
            return Verdict("interventionist", True, witness, stratum.cate)
    return Verdict("interventionist", False)


def counterfactual_verdict(evidence: bounds_mod.EvidenceSet) -> Verdict:
    """Detected iff the sharp lower bound on P(harm) is strictly positive."""
    lower = bounds_mod.harm_bounds(evidence).lower
    if lower > 0:
        label = "sharp lower bound on P(harm)"
        if evidence.p1 is not None:
            label += " (fused)"
        return Verdict("counterfactual", True, label, lower)
    return Verdict("counterfactual", False)


def _evidence_levels(
    joint: JointDistribution,
) -> tuple[bounds_mod.EvidenceSet, bounds_mod.EvidenceSet]:
    p0, p1 = observables_from_joint(joint)
    return bounds_mod.EvidenceSet(p0), bounds_mod.EvidenceSet(p0, p1)


def check_prop1(joint: JointDistribution) -> Optional[str]:
    """Counterfactual and interventionist detection agree at both evidence levels."""
    ev0, ev1 = _evidence_levels(joint)
    for label, evidence in (("experimental-only", ev0), ("fused", ev1)):
        counterfactual = counterfactual_verdict(evidence).detected
        interventionist = interventionist_verdict(evidence).detected
        if counterfactual != interventionist:
            return (
                f"{label}: counterfactual detected={counterfactual} but "
                f"interventionist detected={interventionist}"
            )
    return None


def check_prop2(joint: JointDistribution) -> Optional[str]:
    """Point identification of P(harm) happens exactly at deterministic risks."""
    ev0, ev1 = _evidence_levels(joint)
    for label, evidence, kind in (
        ("experimental-only", ev0, "marginal"),
        ("fused", ev1, "stratum"),
    ):
        point = bounds_mod.is_point_identified(bounds_mod.harm_bounds(evidence))
        degenerate = all(s.risk1 in (0, 1) or s.risk0 in (0, 1) for s in evidence.strata)
        if point != degenerate:
            return (
                f"{label}: point identification {point} but "
                f"{kind} degeneracy {degenerate}"
            )
    return None


def check_prop3(joint: JointDistribution) -> Optional[str]:
    """Point-identified positive P(harm) splits the strata: per stratum, either
    conditional benefit or conditional harm is identified to be exactly 0."""
    ev0, ev1 = _evidence_levels(joint)
    fused = bounds_mod.harm_bounds(ev1)
    experimental = bounds_mod.harm_bounds(ev0)
    premise = (
        bounds_mod.is_point_identified(fused) and fused.lower > 0
    ) or (
        bounds_mod.is_point_identified(experimental) and experimental.lower > 0
    )
    if not premise:
        return None
    for stratum in ev1.strata:
        astar = stratum.astar
        benefit = bounds_mod.conditional_benefit_bounds(ev1, astar)
        harm = bounds_mod.conditional_harm_bounds(ev1, astar)
        zero = bounds_mod.Interval(0, 0)
        if benefit != zero and harm != zero:
            return (
                f"A*={astar}: conditional benefit {benefit.lower}..{benefit.upper} "
                f"and conditional harm {harm.lower}..{harm.upper}, neither pinned to 0"
            )
    return None


def check_prop4(joint: JointDistribution) -> Optional[str]:
    """The fused harm lower bound strictly improves iff the stratum ATEs have
    strictly opposite signs.  Vacuous when a stratum is empty."""
    ev0, ev1 = _evidence_levels(joint)
    if len(ev1.strata) < 2:
        return None
    improved = bounds_mod.harm_bounds(ev1).lower > bounds_mod.harm_bounds(ev0).lower
    cate0, cate1 = (s.cate for s in ev1.strata)
    opposite = (cate0 > 0 > cate1) or (cate1 > 0 > cate0)
    if improved != opposite:
        return (
            f"lower bound improved={improved} but opposite-sign stratum ATEs="
            f"{opposite} (ATE|A*=0 is {cate0}, ATE|A*=1 is {cate1})"
        )
    return None


_CHECKERS: dict[str, Callable[[JointDistribution], Optional[str]]] = {
    "P1": check_prop1,
    "P2": check_prop2,
    "P3": check_prop3,
    "P4": check_prop4,
}


def run_harness(n: int, seed: int) -> list[PropositionReport]:
    """Run all checkers on n sampled joints plus the constructed instances.

    Deterministic in (n, seed).  Counterexamples carry the offending joint so
    a reported violation can always be re-verified.
    """
    if n < 1:
        raise ValueError(f"need at least one sampled instance, got {n}")
    instances = [demo_joint()] + degenerate_grid() + [
        sample_joint(seed + i) for i in range(n)
    ]
    counterexamples: dict[str, list[tuple[JointDistribution, str]]] = {
        name: [] for name in PROPOSITIONS
    }
    for joint in instances:
        for name in PROPOSITIONS:
            details = _CHECKERS[name](joint)
            if details is not None:
                counterexamples[name].append((joint, details))
    return [
        PropositionReport(
            proposition=name,
            instances_checked=len(instances),
            counterexamples=tuple(counterexamples[name]),
        )
        for name in PROPOSITIONS
    ]
