from fractions import Fraction

import pytest
from hypothesis import given, settings

from harmbounds import (
    JointDistribution,
    compatibility_check,
    degenerate_family,
    demo_joint,
    observables_from_joint,
    sample_joint,
    true_estimands,
)
from harmbounds.model import ATOM_KEYS, degenerate_grid

from conftest import joints

F = Fraction


class TestJointDistribution:
    def test_valid_construction(self):
        j = JointDistribution(tuple(F(1, 8) for _ in range(8)))
        assert sum(j.atoms) == 1

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            JointDistribution((F(1),))

    def test_rejects_negative_atom(self):
        atoms = [F(1, 4)] * 4 + [F(0)] * 4
        atoms[0], atoms[1] = F(1, 2), F(-1, 4)
        with pytest.raises(ValueError):
            JointDistribution(tuple(atoms))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            JointDistribution(tuple(F(1, 4) for _ in range(8)))

    def test_from_mapping_fills_zeros(self):
        j = JointDistribution.from_mapping({(0, 0, 0): 1})
        assert j[(0, 0, 0)] == 1
        assert j.mass(astar=1) == 0

    def test_from_mapping_rejects_bad_key(self):
        with pytest.raises(ValueError):
            JointDistribution.from_mapping({(0, 0, 2): 1})


class TestObservablesFromJoint:
    def test_demo_instance(self, demo):
        p0, p1 = observables_from_joint(demo)
        assert (p0.p_do1, p0.p_do0) == (F(51, 100), F(79, 100))
        assert (p1.pi1, p1.q1, p1.q0) == (F(7, 10), F(3, 10), F(3, 10))

    def test_point_mass_null_stratum(self):
        j = JointDistribution.from_mapping({(0, 0, 0): 1})
        p0, p1 = observables_from_joint(j)
        assert (p0.p_do1, p0.p_do0) == (0, 0)
        assert p1.pi1 == 0
        assert p1.q1 is None
        assert p1.q0 == 0

    def test_uniform_joint(self):
        j = JointDistribution(tuple(F(1, 8) for _ in range(8)))
        p0, p1 = observables_from_joint(j)
        assert (p0.p_do1, p0.p_do0) == (F(1, 2), F(1, 2))
        assert (p1.pi1, p1.q1, p1.q0) == (F(1, 2), F(1, 2), F(1, 2))


class TestTrueEstimands:
    def test_demo_instance(self, demo):
        est = true_estimands(demo)
        assert est.p_harm == F(21, 100)
        assert est.p_benefit == F(49, 100)
        assert est.ate == F(-28, 100)
        assert est.cate1 == F(-7, 10)
        assert est.cate0 == F(7, 10)
        assert est.p_harm_given1 == 0
        assert est.p_harm_given0 == F(7, 10)

    def test_uniform(self):
        est = true_estimands(JointDistribution(tuple(F(1, 8) for _ in range(8))))
        assert est.p_harm == est.p_benefit == F(1, 4)
        assert est.ate == 0

    def test_deterministic_harm(self):
        est = true_estimands(JointDistribution.from_mapping({(0, 1, 1): 1}))
        assert est.p_harm == 1
        assert est.ate == 1
        assert est.cate0 is None
        assert est.p_harm_given1 == 1


class TestSampleJoint:
    def test_deterministic_in_seed(self):
        assert sample_joint(123) == sample_joint(123)

    def test_normalized(self):
        for seed in range(50):
            assert sum(sample_joint(seed).atoms) == 1

    def test_full_support_over_many_seeds(self):
        seen_positive = [False] * 8
        for seed in range(1000):
            for i, p in enumerate(sample_joint(seed).atoms):
                if p > 0:
                    seen_positive[i] = True
        assert all(seen_positive)


class TestDegenerateFamily:
    def test_marginal_forced_death(self):
        j = degenerate_family(
            "marginal", {"arm": 1, "value": 1, "free": (F(1, 4),) * 4}
        )
        assert j.mass(y1=1) == 1

    def test_stratum_pattern_reproduces_demo(self):
        j = degenerate_family(
            "stratum",
            {
                "pi1": F(7, 10),
                "strata": {
                    0: {"force": (1, 1), "risk": F(3, 10)},
                    1: {"force": (0, 1), "risk": F(3, 10)},
                },
            },
        )
        assert j == demo_joint()
        assert observables_from_joint(j) == observables_from_joint(demo_joint())

    def test_invalid_free_params(self):
        with pytest.raises(ValueError):
            degenerate_family(
                "marginal", {"arm": 1, "value": 0, "free": (F(1, 2),) * 4}
            )
        with pytest.raises(ValueError):
            degenerate_family("marginal", {"arm": 2, "value": 0, "free": (1, 0, 0, 0)})
        with pytest.raises(ValueError):
            degenerate_family("unknown", {})

    def test_grid_members_are_valid(self):
        grid = degenerate_grid()
        assert len(grid) > 50
        for j in grid:
            assert sum(j.atoms) == 1


class TestInvariants:
    @given(joints())
    @settings(max_examples=200)
    def test_ate_is_harm_minus_benefit(self, joint):
        est = true_estimands(joint)
        assert est.p_harm - est.p_benefit == est.ate

    @given(joints())
    @settings(max_examples=200)
    def test_ate_is_convex_combination_of_cates(self, joint):
        pi1 = joint.mass(astar=1)
        est = true_estimands(joint)
        if 0 < pi1 < 1:
            assert est.ate == pi1 * est.cate1 + (1 - pi1) * est.cate0

    @given(joints())
    @settings(max_examples=200)
    def test_observables_always_fusable(self, joint):
        p0, p1 = observables_from_joint(joint)
        assert compatibility_check(p0, p1).compatible

    def test_atom_key_order_is_stable(self):
        assert ATOM_KEYS[0] == (0, 0, 0)
        assert ATOM_KEYS[-1] == (1, 1, 1)
        assert len(ATOM_KEYS) == 8
