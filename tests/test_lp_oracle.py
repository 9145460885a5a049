import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings

from harmbounds import (
    EvidenceSet,
    ExperimentalParams,
    IncompatibleEvidence,
    Interval,
    JointDistribution,
    MissingObservational,
    NullStratum,
    ObservationalParams,
    observables_from_joint,
    sample_joint,
)
from harmbounds.lp_oracle import _feasible_vertices, build_program, sharp_interval
from harmbounds.model import ATOM_KEYS, degenerate_grid

from conftest import joints

F = Fraction


@pytest.fixture
def demo_fused(demo):
    p0, p1 = observables_from_joint(demo)
    return EvidenceSet(p0, p1)


@pytest.fixture
def demo_p0(demo):
    p0, _ = observables_from_joint(demo)
    return EvidenceSet(p0)


_P0 = ExperimentalParams(F(1, 3), F(2, 5))

# sha256 over the vertex sets of the harm programs of degenerate_grid() and
# sample_joint(0..199), each at both evidence levels, in that order.
VERTEX_SETS_SHA256 = "3e14bd614c4b80d5baaa0d1ea57ea2ec12db7464e5498ac6dd0d6115f65bbfda"


def _vertices(lp):
    return _feasible_vertices(lp.num_atoms, lp.eq_constraints)


def _values(lp):
    return {sum(c * x for c, x in zip(lp.objective, vertex)) for vertex in _vertices(lp)}


class TestBuildProgram:
    @pytest.mark.parametrize(
        "evidence, num_atoms, num_rows",
        [
            (EvidenceSet(_P0), 4, 2),
            (EvidenceSet(_P0, ObservationalParams(F(1, 2), F(1, 3), F(2, 5))), 8, 5),
            (EvidenceSet(_P0, ObservationalParams(F(0), None, F(2, 5))), 8, 4),
            (EvidenceSet(_P0, ObservationalParams(F(1), F(1, 3), None)), 8, 4),
        ],
        ids=["p0_only", "fused", "pi1_is_0", "pi1_is_1"],
    )
    def test_shape(self, evidence, num_atoms, num_rows):
        lp = build_program(evidence, "harm")
        assert lp.num_atoms == num_atoms
        assert len(lp.eq_constraints) == num_rows

    def test_conditional_without_observational_raises(self, demo_p0):
        with pytest.raises(MissingObservational):
            build_program(demo_p0, "harm_given1")

    def test_conditional_numerator_ratio(self, demo_fused):
        assert max(_values(build_program(demo_fused, "harm_given1"))) == 0
        assert sharp_interval(demo_fused, "harm_given1") == Interval(0, 0)

    def test_unknown_target(self, demo_fused):
        with pytest.raises(ValueError):
            build_program(demo_fused, "regret")


class TestSolve:
    """Solving a program: its vertex set and the optima over it."""

    def test_fused_demo_point_identifies_harm(self, demo_fused):
        assert _values(build_program(demo_fused, "harm")) == {F(21, 100)}

    def test_p0_only_demo_harm_range(self, demo_p0):
        values = _values(build_program(demo_p0, "harm"))
        assert (min(values), max(values)) == (0, F(21, 100))

    def test_contradictory_rows_infeasible(self):
        p0 = ExperimentalParams(F(1, 10), F(1, 2))
        p1 = ObservationalParams(F(9, 10), F(9, 10), F(1, 2))
        lp = build_program(EvidenceSet(p0, p1), "harm")
        assert _vertices(lp) == ()
        with pytest.raises(IncompatibleEvidence):
            sharp_interval(EvidenceSet(p0, p1), "harm")

    def test_dependent_rows_rejected(self):
        row = ((F(0), F(1), F(0), F(1)), F(1, 2))
        with pytest.raises(ValueError, match="linearly dependent"):
            _feasible_vertices(4, (row, row))

    def test_witness_attains_value_and_satisfies_constraints(self, demo_fused):
        lp = build_program(demo_fused, "benefit")
        upper = sharp_interval(demo_fused, "benefit").upper
        witness = max(_vertices(lp), key=lambda v: sum(c * x for c, x in zip(lp.objective, v)))
        assert sum(witness) == 1
        assert all(x >= 0 for x in witness)
        for coeffs, rhs in lp.eq_constraints:
            assert sum(c * x for c, x in zip(coeffs, witness)) == rhs
        assert sum(c * x for c, x in zip(lp.objective, witness)) == upper

    def test_witness_reproduces_evidence(self, demo):
        """Every vertex is a joint that meets every row and reproduces the
        evidence, and the sharp interval's ends are attained at vertices."""
        p0_keys = [(y0, y1, 0) for y0 in (0, 1) for y1 in (0, 1)]  # a* = 0 throughout
        for joint in [demo, *degenerate_grid()]:
            p0, p1 = observables_from_joint(joint)
            for evidence in (EvidenceSet(p0), EvidenceSet(p0, p1)):
                lp = build_program(evidence, "harm")
                vertices = _vertices(lp)
                assert vertices
                for vertex in vertices:
                    assert all(x >= 0 for x in vertex)
                    assert sum(vertex) == 1
                    for coeffs, rhs in lp.eq_constraints:
                        assert sum(c * x for c, x in zip(coeffs, vertex)) == rhs
                    keys = p0_keys if evidence.p1 is None else ATOM_KEYS
                    rebuilt = JointDistribution.from_mapping(dict(zip(keys, vertex)))
                    rebuilt_p0, rebuilt_p1 = observables_from_joint(rebuilt)
                    assert rebuilt_p0 == evidence.p0
                    assert evidence.p1 in (None, rebuilt_p1)
                interval = sharp_interval(evidence, "harm")
                assert {interval.lower, interval.upper} <= _values(lp)

    def test_vertex_sets_are_unchanged(self):
        digest = hashlib.sha256()
        for joint in [*degenerate_grid(), *(sample_joint(seed) for seed in range(200))]:
            p0, p1 = observables_from_joint(joint)
            for evidence in (EvidenceSet(p0), EvidenceSet(p0, p1)):
                digest.update(str(_vertices(build_program(evidence, "harm"))).encode())
        assert digest.hexdigest() == VERTEX_SETS_SHA256


class TestSharpInterval:
    def test_matches_harm_examples(self, demo_fused, demo_p0):
        assert sharp_interval(demo_p0, "harm") == Interval(0, F(21, 100))
        assert sharp_interval(demo_fused, "harm") == Interval(F(21, 100), F(21, 100))

    def test_benefit_point_identified(self, demo_fused):
        assert sharp_interval(demo_fused, "benefit") == Interval(F(49, 100), F(49, 100))

    def test_trivial_empty_harm_stratum(self):
        evidence = EvidenceSet(ExperimentalParams(F(0), F(0)))
        assert sharp_interval(evidence, "harm") == Interval(0, 0)

    def test_null_stratum_raises(self):
        p0 = ExperimentalParams(F(1, 3), F(2, 5))
        p1 = ObservationalParams(F(0), None, F(2, 5))
        with pytest.raises(NullStratum):
            sharp_interval(EvidenceSet(p0, p1), "harm_given1")

    def test_incompatible_raises(self):
        p0 = ExperimentalParams(F(1, 10), F(1, 2))
        p1 = ObservationalParams(F(9, 10), F(9, 10), F(1, 2))
        with pytest.raises(IncompatibleEvidence):
            sharp_interval(EvidenceSet(p0, p1), "harm")

    @given(joints())
    @settings(max_examples=100, deadline=None)
    def test_min_below_max_and_truth_inside(self, joint):
        p0, p1 = observables_from_joint(joint)
        evidence = EvidenceSet(p0, p1)
        interval = sharp_interval(evidence, "harm")
        assert interval.lower <= interval.upper
        assert interval.lower <= joint.mass(y0=0, y1=1) <= interval.upper


class TestEnumerationCompleteness:
    """Spot-check the vertex enumeration against an independent LP solver."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("target", ["harm", "benefit"])
    def test_agrees_with_scipy(self, seed, target):
        scipy_opt = pytest.importorskip("scipy.optimize")
        evidence = EvidenceSet(*observables_from_joint(sample_joint(seed)))
        lp = build_program(evidence, target)
        interval = sharp_interval(evidence, target)
        a_eq = [[1.0] * lp.num_atoms] + [
            [float(c) for c in coeffs] for coeffs, _ in lp.eq_constraints
        ]
        b_eq = [1.0] + [float(rhs) for _, rhs in lp.eq_constraints]
        objective = [float(c) for c in lp.objective]
        for end, sign in ((interval.lower, 1.0), (interval.upper, -1.0)):
            res = scipy_opt.linprog(
                [sign * c for c in objective], A_eq=a_eq, b_eq=b_eq, bounds=(0, 1)
            )
            assert res.status == 0
            assert abs(sign * res.fun - float(end)) < 1e-8
