from fractions import Fraction

import pytest
from hypothesis import given, settings

from harmbounds import (
    EvidenceSet,
    ExperimentalParams,
    Interval,
    JointDistribution,
    ObservationalParams,
    check_prop1,
    check_prop2,
    check_prop3,
    check_prop4,
    counterfactual_verdict,
    harm_bounds,
    interventionist_verdict,
    is_point_identified,
    observables_from_joint,
    run_harness,
)
from harmbounds import bounds as bounds_mod
from harmbounds import propositions
from harmbounds.model import degenerate_grid
from harmbounds.propositions import evidence_levels, joint_levels

from conftest import joints

F = Fraction

UNIFORM = JointDistribution(tuple(F(1, 8) for _ in range(8)))


class TestInterventionistVerdict:
    def test_demo_not_detected_marginally(self, demo_p0_only):
        verdict = interventionist_verdict(demo_p0_only)
        assert not verdict.detected
        assert verdict.witness is None

    def test_demo_detected_in_untreated_stratum(self, demo_evidence):
        verdict = interventionist_verdict(demo_evidence)
        assert verdict.detected
        assert verdict.witness == "ATE | A*=0"
        assert verdict.value == F(7, 10)

    def test_positive_marginal_ate(self):
        verdict = interventionist_verdict(EvidenceSet(ExperimentalParams(F(3, 5), F(2, 5))))
        assert verdict.detected
        assert verdict.value == F(1, 5)


class TestCounterfactualVerdict:
    def test_demo_not_detected_marginally(self, demo_p0_only):
        assert not counterfactual_verdict(demo_p0_only, harm_bounds(demo_p0_only)).detected

    def test_demo_detected_fused(self, demo_evidence):
        verdict = counterfactual_verdict(demo_evidence, harm_bounds(demo_evidence))
        assert verdict.detected
        assert verdict.value == F(21, 100)

    def test_positive_lower_bound_from_experiment_alone(self):
        evidence = EvidenceSet(ExperimentalParams(F(3, 5), F(2, 5)))
        verdict = counterfactual_verdict(evidence, harm_bounds(evidence))
        assert verdict.detected
        assert verdict.value == F(1, 5)


class TestCheckers:
    def test_demo_passes_all(self, demo):
        assert check_prop1(*joint_levels(demo)) is None
        assert check_prop2(*joint_levels(demo)) is None
        assert check_prop3(*joint_levels(demo)) is None
        assert check_prop4(*joint_levels(demo)) is None

    def test_uniform_passes_all(self):
        assert check_prop1(*joint_levels(UNIFORM)) is None
        assert check_prop2(*joint_levels(UNIFORM)) is None
        assert check_prop3(*joint_levels(UNIFORM)) is None
        assert check_prop4(*joint_levels(UNIFORM)) is None

    def test_uniform_bounds_shape(self):
        # premise of the split proposition fails: no point identification
        p0, p1 = observables_from_joint(UNIFORM)
        assert harm_bounds(EvidenceSet(p0)) == Interval(0, F(1, 2))

    def test_marginal_degeneracy_point_identifies(self):
        joint = degenerate_grid()[14]
        p0, _ = observables_from_joint(joint)
        assert p0.p_do1 == 1
        assert is_point_identified(harm_bounds(EvidenceSet(p0)))
        assert check_prop2(*joint_levels(joint)) is None
        assert check_prop3(*joint_levels(joint)) is None

    @pytest.mark.parametrize("checker", [check_prop1, check_prop2, check_prop3, check_prop4])
    @given(joint=joints())
    @settings(max_examples=100, deadline=None)
    def test_no_random_counterexamples(self, checker, joint):
        assert checker(*joint_levels(joint)) is None


class TestRunHarness:
    def test_small_run_is_clean(self):
        reports = run_harness(25, seed=7)
        assert [r.proposition for r in reports] == ["P1", "P2", "P3", "P4"]
        assert all(r.counterexamples == () for r in reports)
        assert all(r.instances_checked > 25 for r in reports)

    def test_deterministic(self):
        assert run_harness(5, seed=3) == run_harness(5, seed=3)

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            run_harness(0, seed=1)

    def test_injected_bug_is_caught_and_reverifies(self, monkeypatch):
        """A deliberately broken harm bound must surface as counterexamples."""

        def broken_harm_bounds(evidence):
            if evidence.p1 is not None:
                return Interval(0, 1)  # ignores the natural-choice data
            return harm_bounds(evidence)

        monkeypatch.setattr(bounds_mod, "harm_bounds", broken_harm_bounds)
        reports = {r.proposition: r for r in run_harness(50, seed=11)}
        assert reports["P1"].counterexamples or reports["P2"].counterexamples
        joint, _details = (
            reports["P1"].counterexamples or reports["P2"].counterexamples
        )[0]
        monkeypatch.undo()
        # with the bug removed the stored instance satisfies the propositions,
        # and re-running the checker against the bug reproduces the violation
        assert check_prop1(*joint_levels(joint)) is None and check_prop2(*joint_levels(joint)) is None
        monkeypatch.setattr(bounds_mod, "harm_bounds", broken_harm_bounds)
        assert (propositions.check_prop1(*joint_levels(joint)) is not None) or (
            propositions.check_prop2(*joint_levels(joint)) is not None
        )

    def test_each_joint_is_derived_once_and_bounded_once_per_level(self, monkeypatch):
        """The four checkers share one derivation of each joint's evidence and
        one harm interval per evidence level."""
        derived, bounded = [], []
        observe, harm = propositions.observables_from_joint, bounds_mod.harm_bounds

        def counted_observe(joint):
            derived.append(joint)
            return observe(joint)

        def counted_harm(evidence):
            bounded.append(evidence.p1 is None)
            return harm(evidence)

        monkeypatch.setattr(propositions, "observables_from_joint", counted_observe)
        monkeypatch.setattr(bounds_mod, "harm_bounds", counted_harm)
        n = 20
        reports = run_harness(n, seed=5)
        instances = 1 + len(degenerate_grid()) + n
        assert all(r.instances_checked == instances for r in reports)
        assert len(derived) == instances
        assert sorted(bounded) == [False] * instances + [True] * instances


class TestLevel:
    def test_verdicts_read_the_reported_harm_interval(self, demo_evidence, monkeypatch):
        """The counterfactual verdict is decided on the interval the level reports."""
        monkeypatch.setattr(bounds_mod, "harm_bounds", lambda evidence: Interval(F(1, 3), F(1, 2)))
        level = propositions.level(demo_evidence)
        assert level.bounds["harm"] == Interval(F(1, 3), F(1, 2))
        assert level.verdicts[1] == counterfactual_verdict(demo_evidence, level.bounds["harm"])
        assert level.verdicts[1].value == F(1, 3)

    def test_joint_levels(self, demo):
        p0, p1 = observables_from_joint(demo)
        p0_only, fused = joint_levels(demo)
        assert p0_only.evidence == EvidenceSet(p0) and fused.evidence == EvidenceSet(p0, p1)
        assert fused.bounds["harm"] == harm_bounds(EvidenceSet(p0, p1))
        assert [v.school for v in fused.verdicts] == ["interventionist", "counterfactual"]
        assert set(p0_only.bounds) == {"harm", "benefit", "ate", "cate0", "cate1"}

    def test_evidence_levels(self, demo):
        """The fused level is absent without natural-choice data and when the
        sources are incompatible; the experimental-only level is always there."""
        p0, p1 = observables_from_joint(demo)
        p0_only = EvidenceSet(p0)
        alone, fused = evidence_levels(p0_only)
        assert alone.evidence is p0_only and fused is None
        incompatible = EvidenceSet(
            ExperimentalParams(F(1, 10), F(1, 2)), ObservationalParams(F(9, 10), F(9, 10), F(1, 2))
        )
        alone, fused = evidence_levels(incompatible)
        assert alone.evidence == EvidenceSet(incompatible.p0) and fused is None
        both = EvidenceSet(p0, p1)
        alone, fused = evidence_levels(both)
        assert alone == propositions.level(p0_only) and fused.evidence is both
