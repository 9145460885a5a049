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
)
from harmbounds.lp_oracle import (
    LinearProgram,
    build_program,
    sharp_interval,
    solve,
)
from harmbounds.model import ATOM_KEYS

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
        lp = build_program(demo_fused, "harm_given1")
        numerator = solve(lp, "max")
        assert numerator.value == 0
        assert sharp_interval(demo_fused, "harm_given1") == Interval(0, 0)

    def test_unknown_target(self, demo_fused):
        with pytest.raises(ValueError):
            build_program(demo_fused, "regret")

    def test_inconsistent_dimensions_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(4, (F(1),) * 3, ())


class TestSolve:
    def test_fused_demo_point_identifies_harm(self, demo_fused):
        lp = build_program(demo_fused, "harm")
        assert solve(lp, "min").value == F(21, 100)
        assert solve(lp, "max").value == F(21, 100)

    def test_p0_only_demo_harm_range(self, demo_p0):
        lp = build_program(demo_p0, "harm")
        assert solve(lp, "min").value == 0
        assert solve(lp, "max").value == F(21, 100)

    def test_contradictory_rows_infeasible(self):
        p0 = ExperimentalParams(F(1, 10), F(1, 2))
        p1 = ObservationalParams(F(9, 10), F(9, 10), F(1, 2))
        lp = build_program(EvidenceSet(p0, p1), "harm")
        result = solve(lp, "min")
        assert result.status == "infeasible"
        assert result.value is None

    def test_dependent_rows_rejected(self):
        row = ((F(0), F(1), F(0), F(1)), F(1, 2))
        lp = LinearProgram(4, (F(0), F(1), F(0), F(0)), (row, row))
        with pytest.raises(ValueError, match="linearly dependent"):
            solve(lp, "min")

    def test_rejects_bad_sense(self, demo_p0):
        with pytest.raises(ValueError):
            solve(build_program(demo_p0, "harm"), "argmin")

    def test_witness_attains_value_and_satisfies_constraints(self, demo_fused):
        lp = build_program(demo_fused, "benefit")
        result = solve(lp, "max")
        witness = result.witness
        assert sum(witness) == 1
        assert all(x >= 0 for x in witness)
        for coeffs, rhs in lp.eq_constraints:
            assert sum(c * x for c, x in zip(coeffs, witness)) == rhs
        assert sum(c * x for c, x in zip(lp.objective, witness)) == result.value

    def test_witness_reproduces_evidence(self, demo_fused):
        lp = build_program(demo_fused, "harm")
        witness = solve(lp, "min").witness
        joint = JointDistribution(witness)
        p0, p1 = observables_from_joint(joint)
        assert p0 == demo_fused.p0
        assert p1 == demo_fused.p1


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
        from harmbounds import sample_joint

        p0, p1 = observables_from_joint(sample_joint(seed))
        lp = build_program(EvidenceSet(p0, p1), target)
        a_eq = [[1.0] * lp.num_atoms] + [
            [float(c) for c in coeffs] for coeffs, _ in lp.eq_constraints
        ]
        b_eq = [1.0] + [float(rhs) for _, rhs in lp.eq_constraints]
        objective = [float(c) for c in lp.objective]
        for sense, sign in (("min", 1.0), ("max", -1.0)):
            res = scipy_opt.linprog(
                [sign * c for c in objective], A_eq=a_eq, b_eq=b_eq, bounds=(0, 1)
            )
            assert res.status == 0
            assert abs(sign * res.fun - float(solve(lp, sense).value)) < 1e-8
