from fractions import Fraction

import pytest
from hypothesis import given, settings

from harmbounds import (
    EvidenceSet,
    ExperimentalParams,
    IncompatibleEvidence,
    Interval,
    MissingObservational,
    NullStratum,
    ObservationalParams,
    ate_bounds,
    benefit_bounds,
    cate_bounds,
    conditional_benefit_bounds,
    conditional_harm_bounds,
    harm_bounds,
    is_point_identified,
    observables_from_joint,
    true_estimands,
)
from harmbounds.lp_oracle import sharp_interval
from harmbounds.model import degenerate_grid
from harmbounds.propositions import joint_levels

from conftest import joints

F = Fraction

INCOMPATIBLE = EvidenceSet(
    ExperimentalParams(F(1, 10), F(1, 2)),
    ObservationalParams(F(9, 10), F(9, 10), F(1, 2)),
)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(F(1, 2), F(1, 4))

    def test_keeps_the_ends_it_is_given(self):
        lower, upper = F(1, 3), F(1, 2)
        interval = Interval(lower, upper)
        assert interval.lower is lower and interval.upper is upper

    def test_contains(self):
        assert F(1, 3) in Interval(0, 1)
        assert F(2) not in Interval(0, 1)

    def test_point_identification_predicate(self):
        assert is_point_identified(Interval(F(21, 100), F(21, 100)))
        assert not is_point_identified(Interval(0, F(21, 100)))
        assert is_point_identified(Interval(0, 0))


class TestHarmBounds:
    def test_experimental_only_demo(self, demo_p0_only):
        assert harm_bounds(demo_p0_only) == Interval(0, F(21, 100))

    def test_fused_demo_point_identified(self, demo_evidence):
        assert harm_bounds(demo_evidence) == Interval(F(21, 100), F(21, 100))

    def test_no_deaths_under_treatment(self):
        assert harm_bounds(EvidenceSet(ExperimentalParams(F(0), F(0)))) == Interval(0, 0)

    def test_incompatible_evidence_raises(self):
        with pytest.raises(IncompatibleEvidence):
            harm_bounds(INCOMPATIBLE)


class TestBenefitBounds:
    def test_experimental_only_demo(self, demo_p0_only):
        assert benefit_bounds(demo_p0_only) == Interval(F(28, 100), F(49, 100))

    def test_fused_demo(self, demo_evidence):
        assert benefit_bounds(demo_evidence) == Interval(F(49, 100), F(49, 100))

    def test_no_deaths_without_treatment(self):
        assert benefit_bounds(EvidenceSet(ExperimentalParams(F(1), F(1)))) == Interval(0, 0)


class TestConditionalBounds:
    def test_harm_in_untreated_stratum(self, demo_evidence):
        assert conditional_harm_bounds(demo_evidence, 0) == Interval(F(7, 10), F(7, 10))

    def test_harm_in_treated_stratum_exactly_zero(self, demo_evidence):
        assert conditional_harm_bounds(demo_evidence, 1) == Interval(0, 0)

    def test_benefit_per_stratum(self, demo_evidence):
        assert conditional_benefit_bounds(demo_evidence, 0) == Interval(0, 0)
        assert conditional_benefit_bounds(demo_evidence, 1) == Interval(F(7, 10), F(7, 10))

    def test_requires_observational(self, demo_p0_only):
        with pytest.raises(MissingObservational):
            conditional_harm_bounds(demo_p0_only, 0)

    def test_null_stratum(self):
        evidence = EvidenceSet(
            ExperimentalParams(F(1, 3), F(2, 5)),
            ObservationalParams(F(1), F(1, 3), None),
        )
        with pytest.raises(NullStratum):
            conditional_harm_bounds(evidence, 0)

    def test_empty_harm_stratum(self):
        evidence = EvidenceSet(
            ExperimentalParams(F(1, 5), F(2, 5)),
            ObservationalParams(F(1, 2), F(0), F(2, 5)),
        )
        # P(Y^1=1 | A*=1) = 0 leaves no room for harm among takers
        assert conditional_harm_bounds(evidence, 1) == Interval(0, 0)


class TestAteBounds:
    def test_identified_by_experiment_alone(self, demo_p0_only, demo_evidence):
        expected = Interval(F(-28, 100), F(-28, 100))
        assert ate_bounds(demo_p0_only) == expected
        assert ate_bounds(demo_evidence) == expected

    def test_null_effect(self):
        assert ate_bounds(EvidenceSet(ExperimentalParams(F(2, 5), F(2, 5)))) == Interval(0, 0)

    def test_incompatible(self):
        with pytest.raises(IncompatibleEvidence):
            ate_bounds(INCOMPATIBLE)


class TestCateBounds:
    def test_vacuous_without_observational(self, demo_p0_only):
        assert cate_bounds(demo_p0_only, 1) == Interval(-1, 1)
        assert cate_bounds(demo_p0_only, 0) == Interval(-1, 1)

    def test_point_identified_with_observational(self, demo_evidence):
        assert cate_bounds(demo_evidence, 1) == Interval(F(-7, 10), F(-7, 10))
        assert cate_bounds(demo_evidence, 0) == Interval(F(7, 10), F(7, 10))

    def test_rejects_bad_stratum(self, demo_evidence):
        with pytest.raises(ValueError):
            cate_bounds(demo_evidence, 2)


def _swap_evidence(evidence):
    """Relabel the treatment arms: a -> 1-a everywhere, including A*."""
    p0 = ExperimentalParams(evidence.p0.p_do0, evidence.p0.p_do1)
    p1 = evidence.p1
    if p1 is None:
        return EvidenceSet(p0)
    return EvidenceSet(p0, ObservationalParams(1 - p1.pi1, p1.q0, p1.q1))


def _assert_matches_oracle(joint):
    p0, p1 = observables_from_joint(joint)
    ev0, ev1 = EvidenceSet(p0), EvidenceSet(p0, p1)
    for evidence in (ev0, ev1):
        assert harm_bounds(evidence) == sharp_interval(evidence, "harm")
        assert benefit_bounds(evidence) == sharp_interval(evidence, "benefit")
    for astar in (0, 1):
        if (p1.pi1 if astar else 1 - p1.pi1) == 0:
            continue
        assert conditional_harm_bounds(ev1, astar) == sharp_interval(ev1, f"harm_given{astar}")
        assert conditional_benefit_bounds(ev1, astar) == sharp_interval(
            ev1, f"benefit_given{astar}"
        )
    # The intervals the report prints, under the report's keys.
    for level in joint_levels(joint):
        for key, interval in level.bounds.items():
            if not key.startswith(("harm", "benefit")):
                continue  # the ATEs, which the oracle does not cover
            if interval is None:
                with pytest.raises(NullStratum):
                    sharp_interval(level.evidence, key)
            else:
                assert interval == sharp_interval(level.evidence, key), key


@pytest.mark.parametrize("joint", degenerate_grid())
def test_degenerate_grid_matches_oracle(joint):
    """Empty strata and deterministic risks, which sampled joints rarely hit."""
    _assert_matches_oracle(joint)


class TestProperties:
    @given(joints())
    @settings(max_examples=100, deadline=None)
    def test_oracle_equivalence(self, joint):
        _assert_matches_oracle(joint)

    @given(joints())
    @settings(max_examples=200)
    def test_validity_truth_inside_bounds(self, joint):
        p0, p1 = observables_from_joint(joint)
        ev0, ev1 = EvidenceSet(p0), EvidenceSet(p0, p1)
        est = true_estimands(joint)
        assert est.p_harm in harm_bounds(ev0)
        assert est.p_benefit in benefit_bounds(ev0)
        assert est.ate in ate_bounds(ev0)
        for astar, harm, benefit, cate in (
            (0, est.p_harm_given0, est.p_benefit_given0, est.cate0),
            (1, est.p_harm_given1, est.p_benefit_given1, est.cate1),
        ):
            assert cate is None or cate in cate_bounds(ev0, astar)
            if harm is not None:
                assert harm in conditional_harm_bounds(ev1, astar)
                assert benefit in conditional_benefit_bounds(ev1, astar)
                assert cate in cate_bounds(ev1, astar)

    @given(joints())
    @settings(max_examples=100, deadline=None)
    def test_evidence_monotonicity(self, joint):
        p0, p1 = observables_from_joint(joint)
        ev0, ev1 = EvidenceSet(p0), EvidenceSet(p0, p1)
        for fn in (harm_bounds, benefit_bounds):
            wide, narrow = fn(ev0), fn(ev1)
            assert wide.lower <= narrow.lower
            assert narrow.upper <= wide.upper

    @given(joints())
    @settings(max_examples=100, deadline=None)
    def test_harm_benefit_ate_identity(self, joint):
        p0, p1 = observables_from_joint(joint)
        ate = p0.p_do1 - p0.p_do0
        for evidence in (EvidenceSet(p0), EvidenceSet(p0, p1)):
            harm, benefit = harm_bounds(evidence), benefit_bounds(evidence)
            assert harm.lower - benefit.upper <= ate <= harm.upper - benefit.lower
            if is_point_identified(harm) and is_point_identified(benefit):
                assert harm.lower - benefit.lower == ate

    @given(joints())
    @settings(max_examples=100, deadline=None)
    def test_label_swap_duality(self, joint):
        p0, p1 = observables_from_joint(joint)
        for evidence in (EvidenceSet(p0), EvidenceSet(p0, p1)):
            swapped = _swap_evidence(evidence)
            assert benefit_bounds(evidence) == harm_bounds(swapped)
            if evidence.p1 is not None:
                for astar in (0, 1):
                    mass = p1.pi1 if astar else 1 - p1.pi1
                    if mass == 0:
                        continue
                    assert conditional_benefit_bounds(evidence, astar) == (
                        conditional_harm_bounds(swapped, 1 - astar)
                    )

    @given(joints())
    @settings(max_examples=200)
    def test_cate_convexity(self, joint):
        p0, p1 = observables_from_joint(joint)
        if not 0 < p1.pi1 < 1:
            return
        evidence = EvidenceSet(p0, p1)
        cate1 = cate_bounds(evidence, 1).lower
        cate0 = cate_bounds(evidence, 0).lower
        assert p1.pi1 * cate1 + (1 - p1.pi1) * cate0 == p0.p_do1 - p0.p_do0
