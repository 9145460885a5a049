"""Correctness checks on the program's outputs.

Each check returns the number of failed items (strata or joints) and a list
of human-readable problems.  The generating joint of every stratum is
known, so a reported interval is wrong when it misses the joint's true
estimand.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from harmbounds import lp_oracle
from harmbounds.bounds import EvidenceSet
from harmbounds.model import observables_from_joint, true_estimands

from workloads import Workload

# Report interval key -> attribute of model.Estimands.
P0_ESTIMANDS = {"harm": "p_harm", "benefit": "p_benefit", "ate": "ate", "cate0": "cate0", "cate1": "cate1"}
FUSED_ESTIMANDS = {
    **P0_ESTIMANDS,
    "harm_given0": "p_harm_given0",
    "harm_given1": "p_harm_given1",
    "benefit_given0": "p_benefit_given0",
    "benefit_given1": "p_benefit_given1",
}

# Fused harm/benefit of these fused_study strata are compared with the LP
# oracle.  It costs about 15 ms per stratum, so a fixed few are checked.
ORACLE_CHECKED_STRATA = 6


def _rational(value: dict) -> Fraction:
    return Fraction(value["rational"])


def _intervals_problems(where: str, intervals: Optional[dict], estimands, keys: dict) -> list[str]:
    if intervals is None:
        return [f"{where}: no intervals reported"]
    problems = []
    for key, attr in keys.items():
        truth = getattr(estimands, attr)
        interval = intervals.get(key)
        if truth is None:
            if interval is not None:
                problems.append(f"{where}.{key}: reported for an empty stratum")
            continue
        if interval is None:
            problems.append(f"{where}.{key}: missing")
            continue
        lower, upper = _rational(interval["lower"]), _rational(interval["upper"])
        if not lower <= truth <= upper:
            problems.append(f"{where}.{key}: true value {truth} outside [{lower}, {upper}]")
    return problems


def _stratum_problems(stratum, entry: dict) -> list[str]:
    where = stratum.label
    if entry.get("labels") != {"stratum": stratum.label}:
        return [f"{where}: labels {entry.get('labels')!r} out of order"]
    problems = []
    if (_rational(entry["p0"]["p_do1"]), _rational(entry["p0"]["p_do0"])) != (stratum.p_do1, stratum.p_do0):
        problems.append(f"{where}: experimental risks differ from the input")
    if stratum.kind == "incompatible":
        if entry["incompatible"] is not True or entry["fusion"]["compatible"] is not False:
            problems.append(f"{where}: built incompatible but not flagged incompatible")
        if entry["bounds"]["fused"] is not None or entry["verdicts"]["fused"] is not None:
            problems.append(f"{where}: fused results reported for incompatible evidence")
        return problems
    estimands = true_estimands(stratum.joint)
    problems += _intervals_problems(f"{where}.p0_only", entry["bounds"]["p0_only"], estimands, P0_ESTIMANDS)
    if stratum.kind == "experimental_only":
        if entry["incompatible"] is not False or entry["fusion"] is not None or entry["bounds"]["fused"] is not None:
            problems.append(f"{where}: experimental-only stratum reported with fusion")
        return problems
    if entry["incompatible"] is not False or entry["fusion"]["compatible"] is not True:
        problems.append(f"{where}: compatible stratum flagged incompatible")
        return problems
    problems += _intervals_problems(f"{where}.fused", entry["bounds"]["fused"], estimands, FUSED_ESTIMANDS)
    return problems


def check_analyze(workload: Workload, doc: Optional[dict], exit_code: int) -> tuple[int, list[str]]:
    """Check an ``analyze --format json`` report against the generating joints."""
    n = len(workload.strata)
    if exit_code != 0:
        return n, [f"exit code {exit_code}, expected 0"]
    if not isinstance(doc, dict) or not isinstance(doc.get("strata"), list) or len(doc["strata"]) != n:
        return n, [f"report does not hold {n} strata"]
    failed, problems = 0, []
    for index, (stratum, entry) in enumerate(zip(workload.strata, doc["strata"])):
        try:
            found = _stratum_problems(stratum, entry)
            if stratum.kind == "fused" and index < ORACLE_CHECKED_STRATA:
                found += _oracle_problems(stratum, entry)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            found = [f"{stratum.label}: malformed entry ({exc!r})"]
        if found:
            failed += 1
            problems += found
    return failed, problems


def _oracle_problems(stratum, entry: dict) -> list[str]:
    """Fused harm and benefit must equal the LP oracle's sharp interval exactly."""
    evidence = EvidenceSet(*observables_from_joint(stratum.joint))
    problems = []
    for target in ("harm", "benefit"):
        sharp = lp_oracle.sharp_interval(evidence, target)
        reported = entry["bounds"]["fused"][target]
        if (_rational(reported["lower"]), _rational(reported["upper"])) != (sharp.lower, sharp.upper):
            problems.append(
                f"{stratum.label}.fused.{target}: reported [{reported['lower']['rational']}, "
                f"{reported['upper']['rational']}] but the LP oracle gives [{sharp.lower}, {sharp.upper}]"
            )
    return problems


def check_verify(workload: Workload, stdout: str, exit_code: int) -> tuple[int, list[str]]:
    """``verify`` must exit 0 with four ``ok`` lines covering every instance."""
    expected = [
        f"proposition {name}: {workload.items} instances, ok" for name in ("P1", "P2", "P3", "P4")
    ]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if stdout.splitlines() != expected:
        problems.append(f"output {stdout[:300]!r} is not {expected!r}")
    return (workload.items if problems else 0), problems


def check_bypass(workload: Workload, reps: list[dict]) -> list[str]:
    """The LP-bypass property of the two analyze workloads, from a traced run.

    ``screening_study`` must make no vertex-cache lookup and no
    ``lp_oracle.sharp_interval`` call.  Every ``fused_study`` stratum must
    reach the fused bounds; while those bounds go through the LP oracle,
    each stratum must also miss the vertex cache at least once.
    """
    problems = []
    for rep in reps:
        cache = rep["cli.analyze"]
        lookups = cache["hits"] + cache["misses"]
        if workload.name == "screening_study":
            if lookups or rep["lp_calls"]:
                problems.append(
                    f"rep {rep['rep']}: {lookups} vertex-cache lookups and "
                    f"{rep['lp_calls']} sharp_interval calls on screening_study"
                )
        if workload.name == "fused_study":
            items = set(range(workload.items))
            if set(rep["fused_harm_items"]) != items:
                problems.append(f"rep {rep['rep']}: some strata never reached the fused bounds")
            if rep["lp_calls"] and (cache["misses"] < workload.items or set(rep["cold_lp_items"]) != items):
                problems.append(
                    f"rep {rep['rep']}: {cache['misses']} vertex-cache misses for {workload.items} strata"
                )
    return problems
