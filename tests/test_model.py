import hashlib
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings

from harmbounds import (
    ExperimentalParams,
    JointDistribution,
    ObservationalParams,
    compatibility_check,
    observables_from_joint,
    sample_joint,
    true_estimands,
)
from harmbounds.model import ATOM_KEYS, as_prob, degenerate_grid

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


class TestExactInputs:
    def test_fraction_is_kept_and_int_becomes_fraction(self):
        half = F(1, 2)
        assert as_prob(half) is half
        assert type(as_prob(1)) is Fraction and as_prob(1) == 1

    @pytest.mark.parametrize("value", [0.1, "1/2", True])
    def test_inexact_or_textual_probability_is_refused(self, value):
        """`ExperimentalParams(0.1, 0.3)` used to store 3602879701896397/36028797018963968."""
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            ExperimentalParams(value, F(3, 10))
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            ObservationalParams(F(1, 2), value, F(1, 2))

    def test_inexact_atom_is_refused(self):
        with pytest.raises(TypeError, match="0.5"):
            JointDistribution.from_mapping({(0, 0, 0): 0.5, (1, 1, 1): F(1, 2)})
        with pytest.raises(TypeError, match="0.125"):
            JointDistribution(tuple(0.125 for _ in range(8)))


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


# sha256 over str(joint.atoms) of every degenerate_grid() member, in order
GRID_SHA256 = "5d5ec67a734801d70c82d7964bf1ec0089971148925418caceba09d9c2da5ebc"


class TestDegenerateFamily:
    """The constructed joints of degenerate_grid()."""

    def test_marginal_forced_death(self):
        j = JointDistribution.from_mapping(
            {(y0, 1, astar): F(1, 4) for y0 in (0, 1) for astar in (0, 1)}
        )
        assert j.mass(y1=1) == 1
        assert observables_from_joint(j)[0] == ExperimentalParams(F(1), F(1, 2))

    def test_grid_members_are_valid(self):
        for n in (1, 2, 3):
            grid = degenerate_grid(n)
            assert len(grid) == comb(n + 7, 7)
            assert len(set(grid)) == len(grid)
            for j in grid:
                assert sum(j.atoms) == 1
                assert all((p * n).denominator == 1 for p in j.atoms)

    def test_grid_is_unchanged(self):
        digest = hashlib.sha256()
        for j in degenerate_grid():
            digest.update(str(j.atoms).encode())
        assert digest.hexdigest() == GRID_SHA256


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
