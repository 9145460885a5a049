from fractions import Fraction

import pytest
from hypothesis import given, settings

from harmbounds import (
    EvidenceSet,
    ExperimentalParams,
    IncompatibleEvidence,
    NullStratum,
    ObservationalParams,
    compatibility_check,
    identify_stratum_risks,
    observables_from_joint,
    sample_joint,
    true_estimands,
)
from harmbounds.identification import Stratum
from harmbounds.lp_oracle import sharp_interval
from harmbounds.model import ZERO, degenerate_grid
from harmbounds.propositions import joint_levels

from conftest import joints

F = Fraction


@pytest.fixture
def demo_params(demo):
    return observables_from_joint(demo)


class TestCompatibilityCheck:
    def test_demo_compatible_with_deterministic_cross_risks(self, demo_params):
        report = compatibility_check(*demo_params)
        assert report.compatible
        assert report.violations == ()
        assert report.derived_cross_risks == {0: F(1), 1: F(1)}

    def test_incompatible_pair_reports_violation(self):
        p0 = ExperimentalParams(F(1, 10), F(1, 2))
        p1 = ObservationalParams(F(9, 10), F(9, 10), F(1, 2))
        report = compatibility_check(p0, p1)
        assert not report.compatible
        # pi1*q1 = 81/100 > p_do1 = 1/10
        assert any("do(A=1)" in v for v in report.violations)
        assert report.derived_cross_risks[0] < 0

    def test_single_stratum_population(self):
        p0 = ExperimentalParams(F(1, 3), F(2, 5))
        p1 = ObservationalParams(F(0), None, F(2, 5))
        assert compatibility_check(p0, p1).compatible

    def test_single_stratum_population_mismatch(self):
        p0 = ExperimentalParams(F(1, 3), F(2, 5))
        p1 = ObservationalParams(F(0), None, F(1, 5))
        assert not compatibility_check(p0, p1).compatible

    @pytest.mark.parametrize(
        "p0,p1,violations,cross",
        [
            (
                ExperimentalParams(F(1, 3), F(2, 5)),
                ObservationalParams(F(0), None, F(1, 5)),
                (
                    "P(Y=1|do(A=0)) = 2/5 outside [1/5, 1/5] "
                    "implied by P(A*=0) = 1, P(Y=1|A*=0) = 1/5",
                ),
                {0: F(1, 3)},
            ),
            (
                ExperimentalParams(F(1, 2), F(1, 3)),
                ObservationalParams(F(1), F(1, 5), None),
                (
                    "P(Y=1|do(A=1)) = 1/2 outside [1/5, 1/5] "
                    "implied by P(A*=1) = 1, P(Y=1|A*=1) = 1/5",
                ),
                {1: F(1, 3)},
            ),
            (
                ExperimentalParams(F(1, 10), F(1, 2)),
                ObservationalParams(F(3, 10), F(9, 10), F(1, 2)),
                (
                    "P(Y=1|do(A=1)) = 1/10 outside [27/100, 97/100] "
                    "implied by P(A*=1) = 3/10, P(Y=1|A*=1) = 9/10",
                ),
                {0: F(-17, 70), 1: F(1, 2)},
            ),
            (
                ExperimentalParams(F(1, 2), F(9, 10)),
                ObservationalParams(F(3, 10), F(1, 2), F(1, 2)),
                (
                    "P(Y=1|do(A=0)) = 9/10 outside [7/20, 13/20] "
                    "implied by P(A*=0) = 7/10, P(Y=1|A*=0) = 1/2",
                ),
                {0: F(1, 2), 1: F(11, 6)},
            ),
            (
                ExperimentalParams(F(1, 10), F(9, 10)),
                ObservationalParams(F(3, 10), F(1), F(0)),
                (
                    "P(Y=1|do(A=1)) = 1/10 outside [3/10, 1] "
                    "implied by P(A*=1) = 3/10, P(Y=1|A*=1) = 1",
                    "P(Y=1|do(A=0)) = 9/10 outside [0, 3/10] "
                    "implied by P(A*=0) = 7/10, P(Y=1|A*=0) = 0",
                ),
                {0: F(-2, 7), 1: F(3)},
            ),
        ],
        ids=["pi1-zero", "pi1-one", "only-arm-1", "only-arm-0", "both-arms"],
    )
    def test_violations_and_cross_risks_are_pinned(self, p0, p1, violations, cross):
        """The exact messages, and the raw cross-world risks in key order
        0, 1, which fall outside [0, 1] when the evidence is incompatible."""
        report = compatibility_check(p0, p1)
        assert report[:3] == (False, violations, cross)
        assert report.strata is None
        assert list(report.derived_cross_risks) == list(cross)


def _views(stratum):
    """A stratum's (astar, mass, joint1, joint0) as the rationals they stand for."""
    return (stratum.astar, *(F(n, stratum.scale) for n in stratum[2:]))


class TestIdentify:
    def test_demo_strata(self, demo_params):
        """Each stratum's (astar, mass, P(Y^1=1, A*=s), P(Y^0=1, A*=s)),
        integer numerators over the common denominator of the demo's
        parameters."""
        assert EvidenceSet(*demo_params).strata == (
            Stratum(0, 100, 30, 30, 9),
            Stratum(1, 100, 70, 21, 70),
        )
        assert [_views(s) for s in EvidenceSet(*demo_params).strata] == [
            (0, F(3, 10), F(3, 10), F(9, 100)),
            (1, F(7, 10), F(21, 100), F(7, 10)),
        ]

    def test_experimental_only_is_one_population_stratum(self, demo_params):
        """The whole population, of mass 1, with the experimental risks as its
        joint numbers, over the lcm of their denominators."""
        p0, _ = demo_params
        (stratum,) = EvidenceSet(p0).strata
        assert stratum == Stratum(None, 100, 100, 51, 79)
        assert _views(stratum) == (None, F(1), p0.p_do1, p0.p_do0)
        assert stratum.cate == p0.p_do1 - p0.p_do0

    def test_empty_stratum_is_omitted(self):
        p0 = ExperimentalParams(F(2, 7), F(3, 7))
        p1 = ObservationalParams(F(0), None, F(3, 7))
        assert EvidenceSet(p0, p1).strata == (Stratum(0, 7, 7, 2, 3),)
        assert [_views(s) for s in EvidenceSet(p0, p1).strata] == [(0, F(1), F(2, 7), F(3, 7))]

    def test_incompatible_raises(self):
        p0 = ExperimentalParams(F(1, 10), F(1, 2))
        p1 = ObservationalParams(F(9, 10), F(9, 10), F(1, 2))
        with pytest.raises(IncompatibleEvidence, match="do\\(A=1\\)"):
            EvidenceSet(p0, p1).strata


class TestJointScale:
    def test_strata_and_bounds_read_the_joint(self):
        """On every lattice joint of n = 6 and 1,000 sampled ones: the fused
        strata are the fusion report's own, each one's joint numbers are the
        joint's own P(Y^a=1, A*=s), its risks (also as `identify_stratum_risks`
        returns them) are those over its mass, the fused harm lower bound is
        Tian & Pearl's, and every bound end is a Fraction."""
        for joint in degenerate_grid(6) + [sample_joint(seed) for seed in range(1000)]:
            p0, p1 = observables_from_joint(joint)
            p0_only, fused = joint_levels(joint)
            assert fused.evidence.strata is fused.evidence.fusion.strata, joint
            for s in fused.evidence.strata:
                assert F(s.mass, s.scale) == joint.mass(astar=s.astar)
                assert F(s.joint1, s.scale) == joint.mass(y1=1, astar=s.astar), joint
                assert F(s.joint0, s.scale) == joint.mass(y0=1, astar=s.astar), joint
                mass = joint.mass(astar=s.astar)
                risks = (joint.mass(y1=1, astar=s.astar) / mass, joint.mass(y0=1, astar=s.astar) / mass)
                assert (F(s.joint1, s.mass), F(s.joint0, s.mass)) == risks, joint
                assert identify_stratum_risks(p0, p1, s.astar) == risks, joint
            p_y = sum(
                mass * risk for mass, risk in ((p1.pi1, p1.q1), (1 - p1.pi1, p1.q0)) if mass
            )
            tian_pearl = max(ZERO, p_y - p0.p_do0) + max(ZERO, p0.p_do1 - p_y)
            assert fused.bounds["harm"].lower == tian_pearl, joint
            for lvl in (p0_only, fused):
                for interval in lvl.bounds.values():
                    if interval is not None:
                        assert type(interval.lower) is Fraction is type(interval.upper), joint


class TestIdentifyCate:
    def test_demo_untreated_stratum(self, demo_params):
        assert EvidenceSet(*demo_params).stratum(0).cate == F(7, 10)

    def test_demo_treated_stratum(self, demo_params):
        assert EvidenceSet(*demo_params).stratum(1).cate == F(-7, 10)

    def test_whole_population_in_one_stratum(self):
        p0 = ExperimentalParams(F(3, 5), F(1, 5))
        p1 = ObservationalParams(F(1), F(3, 5), None)
        assert EvidenceSet(p0, p1).stratum(1).cate == p0.p_do1 - p0.p_do0

    def test_null_stratum_raises(self):
        p0 = ExperimentalParams(F(3, 5), F(1, 5))
        p1 = ObservationalParams(F(1), F(3, 5), None)
        with pytest.raises(NullStratum):
            EvidenceSet(p0, p1).stratum(0).cate

    def test_incompatible_raises(self):
        p0 = ExperimentalParams(F(1, 10), F(1, 2))
        p1 = ObservationalParams(F(9, 10), F(9, 10), F(1, 2))
        with pytest.raises(IncompatibleEvidence):
            EvidenceSet(p0, p1).stratum(0).cate


class TestIdentifyStratumRisks:
    def test_demo_cross_risks_are_deterministic(self, demo_params):
        assert identify_stratum_risks(*demo_params, astar=0) == (F(1), F(3, 10))
        assert identify_stratum_risks(*demo_params, astar=1) == (F(3, 10), F(1))

    def test_degenerate_prevalence(self):
        p0 = ExperimentalParams(F(2, 7), F(3, 7))
        p1 = ObservationalParams(F(0), None, F(3, 7))
        assert identify_stratum_risks(p0, p1, astar=0) == (p0.p_do1, p0.p_do0)

    def test_rejects_bad_astar(self, demo_params):
        with pytest.raises(ValueError):
            identify_stratum_risks(*demo_params, astar=2)


class TestRoundTripIdentification:
    @given(joints())
    @settings(max_examples=200)
    def test_identified_cates_match_truth(self, joint):
        p0, p1 = observables_from_joint(joint)
        est = true_estimands(joint)
        evidence = EvidenceSet(p0, p1)
        if p1.pi1 > 0:
            assert evidence.stratum(1).cate == est.cate1
        if p1.pi1 < 1:
            assert evidence.stratum(0).cate == est.cate0

    @given(joints())
    @settings(max_examples=200)
    def test_convex_recomposition(self, joint):
        p0, p1 = observables_from_joint(joint)
        if 0 < p1.pi1 < 1:
            evidence = EvidenceSet(p0, p1)
            recomposed = p1.pi1 * evidence.stratum(1).cate + (1 - p1.pi1) * evidence.stratum(0).cate
            assert recomposed == p0.p_do1 - p0.p_do0


class TestAgreementWithOracle:
    def test_incompatible_check_implies_infeasible_program(self):
        p0 = ExperimentalParams(F(1, 10), F(1, 2))
        p1 = ObservationalParams(F(9, 10), F(9, 10), F(1, 2))
        assert not compatibility_check(p0, p1).compatible
        with pytest.raises(IncompatibleEvidence):
            sharp_interval(EvidenceSet(p0, p1), "harm")

    @given(joints())
    @settings(max_examples=100, deadline=None)
    def test_compatible_check_implies_feasible_program(self, joint):
        p0, p1 = observables_from_joint(joint)
        assert compatibility_check(p0, p1).compatible
        interval = sharp_interval(EvidenceSet(p0, p1), "harm")
        assert interval.lower <= interval.upper
