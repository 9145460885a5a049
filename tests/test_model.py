import hashlib
import itertools
import pickle
import re
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize(
        "atoms,message",
        [
            ((F(1),), "expected 8 atoms, got 1"),
            ((F(1, 2), F(-1, 4), *[F(1, 4)] * 6), "probability outside [0, 1]: -1/4"),
            ((F(1, 4),) * 8, "atoms sum to 2, expected 1"),
            ((F(1, 3), F(1, 3), *[0] * 6), "atoms sum to 2/3, expected 1"),
        ],
        ids=["arity", "negative", "sum-2", "sum-2/3"],
    )
    def test_atom_refusals_keep_their_messages(self, atoms, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            JointDistribution(atoms)


weight_vectors = st.lists(st.integers(0, 30), min_size=8, max_size=8).filter(any)


class TestIntegerJoint:
    """A joint is 8 int weights over their sum, in lowest terms; `atoms` is its Fraction view."""

    @given(weight_vectors, st.integers(1, 12))
    @settings(max_examples=200)
    def test_in_lowest_terms(self, weights, factor):
        joint = JointDistribution.from_weights([factor * w for w in weights])
        assert all(type(w) is int for w in joint.weights) and type(joint.total) is int
        assert joint.total == sum(joint.weights) and gcd(*joint.weights) == 1
        assert joint.atoms == tuple(F(w, sum(weights)) for w in weights)

    @given(weight_vectors, st.integers(2, 12))
    @settings(max_examples=200)
    def test_equal_atoms_give_equal_joints_from_every_constructor(self, weights, factor):
        joint = JointDistribution.from_weights(weights)
        others = [
            JointDistribution.from_weights([factor * w for w in weights]),
            JointDistribution(joint.atoms),
            JointDistribution.from_mapping(dict(zip(ATOM_KEYS, joint.atoms))),
            pickle.loads(pickle.dumps(joint)),
        ]
        for other in others:
            assert other == joint and hash(other) == hash(joint) and other.atoms == joint.atoms
        assert len({joint, *others}) == 1

    def test_sampled_and_grid_joints_equal_their_atom_built_twins(self):
        for joint in [sample_joint(seed) for seed in range(50)] + degenerate_grid(2):
            twin = JointDistribution(joint.atoms)
            assert twin == joint and hash(twin) == hash(joint)

    def test_pickle_rebuilds_through_the_integer_constructor(self):
        joint = sample_joint(5)
        assert joint.__reduce__() == (JointDistribution.from_weights, (joint.weights,))

    @given(joints())
    @settings(max_examples=200)
    def test_mass_is_the_matching_atom_sum(self, joint):
        for y0, y1, astar in itertools.product((None, 0, 1), repeat=3):
            expected = sum(
                p for (k0, k1, ka), p in zip(ATOM_KEYS, joint.atoms)
                if y0 in (None, k0) and y1 in (None, k1) and astar in (None, ka)
            )
            assert joint.mass(y0, y1, astar) == expected
            assert type(joint.mass(y0, y1, astar)) is Fraction

    @given(joints())
    @settings(max_examples=200)
    def test_observables_equal_a_fraction_reference(self, joint):
        atom = dict(zip(ATOM_KEYS, joint.atoms))
        pi1 = sum(p for (_, _, a), p in atom.items() if a == 1)
        p_do1 = sum(p for (_, y1, _), p in atom.items() if y1 == 1)
        p_do0 = sum(p for (y0, _, _), p in atom.items() if y0 == 1)
        treated_die = atom[0, 1, 1] + atom[1, 1, 1]  # Y = Y^1 among A*=1
        untreated_die = atom[1, 0, 0] + atom[1, 1, 0]  # Y = Y^0 among A*=0
        q1 = treated_die / pi1 if pi1 else None
        q0 = untreated_die / (1 - pi1) if pi1 != 1 else None
        assert observables_from_joint(joint) == (ExperimentalParams(p_do1, p_do0), ObservationalParams(pi1, q1, q0))

    @pytest.mark.parametrize(
        "weights,error,message",
        [
            ([True] + [0] * 7, TypeError, "expected an int weight, got True"),
            ([1, 0.5] + [0] * 6, TypeError, "expected an int weight, got 0.5"),
            ([F(1)] + [0] * 7, TypeError, "expected an int weight, got Fraction(1, 1)"),
            (["1"] + [0] * 7, TypeError, "expected an int weight, got '1'"),
            ([2, -1] + [0] * 6, ValueError, "negative weight: -1"),
            ([1] * 7, ValueError, "expected 8 weights, got 7"),
            ([1] * 9, ValueError, "expected 8 weights, got 9"),
            ([0] * 8, ValueError, "the weights are all 0"),
        ],
        ids=["bool", "float", "fraction", "str", "negative", "seven", "nine", "all-zero"],
    )
    def test_integer_constructor_refusals(self, weights, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            JointDistribution.from_weights(weights)


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

    def test_stream_is_unchanged(self):
        """The joints that `verify` and the benchmark's studies draw: seeds
        0-199, then the seed-1 and seed-2 `verify` seeds 1000-1039 and
        2000-2039."""
        digest = hashlib.sha256()
        for seed in (*range(200), *range(1000, 1040), *range(2000, 2040)):
            digest.update(str(sample_joint(seed).atoms).encode())
        assert digest.hexdigest() == SAMPLE_SHA256


# sha256 over str(sample_joint(seed).atoms) of each seed of `test_stream_is_unchanged`, in order
SAMPLE_SHA256 = "7b34407a98821c43daee2c53019608928a2fef4dcafa928d63be14adba2723b8"

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

    @pytest.mark.parametrize("n", [0, -1])
    def test_grid_below_one_is_refused(self, n):
        """n = 0 used to end in a ZeroDivisionError, and n = -1 in an empty
        grid, over which a harness would check nothing and report ok."""
        with pytest.raises(ValueError, match=f"got {n}$"):
            degenerate_grid(n)

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
