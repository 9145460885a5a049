"""Acceptance suite: one test per criterion, exact tolerances, hard runtime caps.

Criteria 3, 5 and 7 quantify over the same corpus of 10^4 sampled joints,
built once per session; so does the Tian & Pearl formula check at the end,
which adds a second reference to criterion 3's LP oracle.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from harmbounds import (
    EvidenceSet,
    ExperimentalParams,
    IncompatibleEvidence,
    ObservationalParams,
    benefit_bounds,
    cate_bounds,
    compatibility_check,
    conditional_benefit_bounds,
    conditional_harm_bounds,
    harm_bounds,
    observables_from_joint,
    sample_joint,
    true_estimands,
)
from harmbounds.cli import main
from harmbounds.lp_oracle import sharp_interval
from harmbounds.model import degenerate_grid

F = Fraction

N_JOINTS = 10_000
N_INCOMPATIBLE = 1_000


def _report(criterion, description, outcome):
    print(f"ACCEPTANCE {criterion} ({description}): {outcome}")


@pytest.fixture(scope="session")
def corpus():
    """Per-joint evidence and bounds-module intervals for 10^4 sampled joints."""
    records = []
    for seed in range(N_JOINTS):
        joint = sample_joint(seed)
        p0, p1 = observables_from_joint(joint)
        ev0, ev1 = EvidenceSet(p0), EvidenceSet(p0, p1)
        intervals = {
            ("p0", "harm"): harm_bounds(ev0),
            ("p0", "benefit"): benefit_bounds(ev0),
            ("fused", "harm"): harm_bounds(ev1),
            ("fused", "benefit"): benefit_bounds(ev1),
        }
        for astar in (0, 1):
            mass = p1.pi1 if astar else 1 - p1.pi1
            if mass == 0:
                continue
            intervals[("fused", f"harm_given{astar}")] = conditional_harm_bounds(ev1, astar)
            intervals[("fused", f"benefit_given{astar}")] = conditional_benefit_bounds(
                ev1, astar
            )
        records.append((joint, ev0, ev1, intervals))
    return records


class TestAcceptance:
    def test_criterion_1_golden_table(self, capsys, monkeypatch):
        monkeypatch.setenv("HARMBOUNDS_COLOR", "never")
        start = time.monotonic()
        assert main(["example", "--format", "json"]) == 0
        elapsed = time.monotonic() - start
        payload = json.loads(capsys.readouterr().out)
        stratum = payload["strata"][0]
        fused = stratum["bounds"]["fused"]
        p0_only = stratum["bounds"]["p0_only"]
        try:
            assert p0_only["harm"]["lower"]["rational"] == "0"
            assert fused["harm"]["lower"]["rational"] == "21/100"
            assert p0_only["ate"]["lower"]["rational"] == "-7/25"
            assert fused["ate"]["lower"]["rational"] == "-7/25"
            assert p0_only["cate1"]["lower"]["rational"] == "-1"
            assert fused["cate1"]["lower"]["rational"] == "-7/10"
            assert p0_only["cate0"]["lower"]["rational"] == "-1"
            assert fused["cate0"]["lower"]["rational"] == "7/10"
            for school in ("interventionist", "counterfactual"):
                assert stratum["verdicts"]["fused"][school]["detected"] is True
                assert stratum["verdicts"]["p0_only"][school]["detected"] is False
            assert elapsed < 1.0, f"example took {elapsed:.2f}s"
        except AssertionError:
            _report(1, "golden table reproduction", "FAIL")
            raise
        _report(1, "golden table reproduction", "PASS")

    def test_criterion_2_point_identification(self, demo_evidence):
        try:
            assert harm_bounds(demo_evidence).lower == F(21, 100)
            assert harm_bounds(demo_evidence).upper == F(21, 100)
            cond1 = conditional_harm_bounds(demo_evidence, 1)
            cond0 = conditional_harm_bounds(demo_evidence, 0)
            assert (cond1.lower, cond1.upper) == (0, 0)
            assert (cond0.lower, cond0.upper) == (F(7, 10), F(7, 10))
        except AssertionError:
            _report(2, "point identification remark", "FAIL")
            raise
        _report(2, "point identification remark", "PASS")

    def test_criterion_3_oracle_equivalence(self, corpus):
        start = time.monotonic()
        try:
            for _joint, ev0, ev1, intervals in corpus:
                for (level, target), interval in intervals.items():
                    evidence = ev0 if level == "p0" else ev1
                    assert interval == sharp_interval(evidence, target), (
                        level,
                        target,
                        evidence,
                    )
            elapsed = time.monotonic() - start
            assert elapsed < 300, f"oracle sweep took {elapsed:.0f}s"
        except AssertionError:
            _report(3, "oracle equivalence on 10^4 joints", "FAIL")
            raise
        _report(3, "oracle equivalence on 10^4 joints", "PASS")

    def test_criterion_4_proposition_harness(self, capsys):
        start = time.monotonic()
        status = main(["verify", "--samples", "10000", "--seed", "42"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        try:
            assert status == 0, out
            assert out.count("counterexample") == 0
            assert elapsed < 300, f"harness took {elapsed:.0f}s"
        except AssertionError:
            _report(4, "proposition harness 10^4 samples", "FAIL")
            raise
        _report(4, "proposition harness 10^4 samples", "PASS")

    def test_criterion_5_validity_and_round_trip(self, corpus):
        try:
            for joint, ev0, ev1, intervals in corpus:
                est = true_estimands(joint)
                truths = {
                    ("p0", "harm"): est.p_harm,
                    ("p0", "benefit"): est.p_benefit,
                    ("fused", "harm"): est.p_harm,
                    ("fused", "benefit"): est.p_benefit,
                    ("fused", "harm_given0"): est.p_harm_given0,
                    ("fused", "harm_given1"): est.p_harm_given1,
                    ("fused", "benefit_given0"): est.p_benefit_given0,
                    ("fused", "benefit_given1"): est.p_benefit_given1,
                }
                for key, interval in intervals.items():
                    assert truths[key] in interval
                assert est.ate in cate_bounds(ev0, 0)  # vacuous [-1, 1]
                p1 = ev1.p1
                if p1.pi1 > 0:
                    assert ev1.stratum(1).cate == est.cate1
                    assert est.cate1 in cate_bounds(ev1, 1)
                if p1.pi1 < 1:
                    assert ev1.stratum(0).cate == est.cate0
                    assert est.cate0 in cate_bounds(ev1, 0)
        except AssertionError:
            _report(5, "validity and round-trip identification", "FAIL")
            raise
        _report(5, "validity and round-trip identification", "PASS")

    def test_criterion_6_incompatibility_detection(self):
        rng = random.Random(20_240_817)
        checked = disagreements = 0
        try:
            while checked < N_INCOMPATIBLE:
                grid = 20
                pi1 = F(rng.randint(1, grid - 1), grid)
                p1 = ObservationalParams(
                    pi1, F(rng.randint(0, grid), grid), F(rng.randint(0, grid), grid)
                )
                p0 = ExperimentalParams(
                    F(rng.randint(0, grid), grid), F(rng.randint(0, grid), grid)
                )
                report = compatibility_check(p0, p1)
                if report.compatible:
                    continue
                checked += 1
                try:
                    sharp_interval(EvidenceSet(p0, p1), "harm")
                    disagreements += 1
                except IncompatibleEvidence:
                    pass
            assert disagreements == 0
        except AssertionError:
            _report(6, "incompatibility agreement closed-form vs LP", "FAIL")
            raise
        _report(6, "incompatibility agreement closed-form vs LP", "PASS")

    def test_criterion_7_evidence_monotonicity(self, corpus):
        try:
            for _joint, _ev0, _ev1, intervals in corpus:
                for target in ("harm", "benefit"):
                    wide = intervals[("p0", target)]
                    narrow = intervals[("fused", target)]
                    assert wide.lower <= narrow.lower
                    assert narrow.upper <= wide.upper
        except AssertionError:
            _report(7, "fused intervals never widen", "FAIL")
            raise
        _report(7, "fused intervals never widen", "PASS")


def _tian_pearl(p0, p1, x):
    """Tian & Pearl (2000): sharp bounds on P(y_x, y'_x') from P(y_x), P(y_x')
    and the observational joint of treatment X and outcome Y, with y the
    event Y=1.  Harm is the case x = treated, benefit the case x = untreated.

    Built from the evidence parameters alone, sharing no code with `bounds`.
    """
    do = {1: p0.p_do1, 0: p0.p_do0}
    share = {1: p1.pi1, 0: 1 - p1.pi1}
    risk = {1: p1.q1, 0: p1.q0}
    # P(X=a, Y=1) and P(X=a, Y=0); an empty natural-choice arm has neither.
    died = {a: F(0) if risk[a] is None else share[a] * risk[a] for a in (0, 1)}
    lived = {a: share[a] - died[a] for a in (0, 1)}
    other = 1 - x
    p_y = died[0] + died[1]
    lower = max(F(0), do[x] - do[other], p_y - do[other], do[x] - p_y)
    upper = min(
        do[x],
        1 - do[other],
        died[x] + lived[other],
        do[x] - do[other] + lived[x] + died[other],
    )
    return lower, upper


def test_fused_bounds_equal_tian_pearl_closed_forms(corpus):
    """Fused harm and benefit equal the Tian & Pearl closed forms on the
    criterion-3 corpus and the n = 6 lattice, next to the LP check."""
    cases = [
        (ev1, intervals[("fused", "harm")], intervals[("fused", "benefit")])
        for _joint, _ev0, ev1, intervals in corpus
    ]
    for joint in degenerate_grid(6):
        evidence = EvidenceSet(*observables_from_joint(joint))
        cases.append((evidence, harm_bounds(evidence), benefit_bounds(evidence)))
    for evidence, harm, benefit in cases:
        assert (harm.lower, harm.upper) == _tian_pearl(evidence.p0, evidence.p1, 1), evidence
        assert (benefit.lower, benefit.upper) == _tian_pearl(evidence.p0, evidence.p1, 0), evidence
