"""The JSON report as a dict document, built from a report's records.

This is the tests' reference for the CLI's JSON writer: the writer's bytes
must equal `json.dumps(report_to_json(report), indent=2)`.  It shares no
code with the writer (`cli._stratum_text`) or its rational renderer: it
writes each decimal itself with the `decimal` module, so a field the writer
renders wrongly shows as a difference.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction

from harmbounds import bounds as bounds_mod
from harmbounds import propositions
from harmbounds.cli import _LEVEL_NAMES, StratumReport


def _decimal(x: Fraction) -> tuple[str, bool]:
    """The decimal of `x` in full when its denominator divides 10^12, and
    otherwise rounded to 6 significant digits, with whether it is exact."""
    n, d = x.numerator, x.denominator
    if 10**12 % d == 0:
        return format(Decimal(n) / Decimal(d), "f"), True
    return str(Context(prec=6).divide(Decimal(n), Decimal(d))), False


def _rat_json(x: Fraction | None) -> dict | None:
    if x is None:
        return None
    decimal, exact = _decimal(x)
    return {"rational": str(x), "decimal": decimal, "exact": exact}


def _interval_json(interval: bounds_mod.Interval | None) -> dict | None:
    if interval is None:
        return None
    return {
        "lower": _rat_json(interval.lower),
        "upper": _rat_json(interval.upper),
        "point": bounds_mod.is_point_identified(interval),
    }


def _verdict_json(verdict: propositions.Verdict) -> dict:
    return {
        "school": verdict.school,
        "detected": verdict.detected,
        "witness": verdict.witness,
        "value": _rat_json(verdict.value),
    }


def report_to_json(report: tuple[StratumReport, ...]) -> dict:
    strata = []
    for sr in report:
        p1, fusion = sr.stratum.evidence.p1, sr.stratum.evidence.fusion
        entry: dict = {
            "labels": dict(sr.stratum.labels),
            "p0": {
                "p_do1": _rat_json(sr.stratum.evidence.p0.p_do1),
                "p_do0": _rat_json(sr.stratum.evidence.p0.p_do0),
            },
            "p1": None
            if p1 is None
            else {
                "pi1": _rat_json(p1.pi1),
                "q1": _rat_json(p1.q1),
                "q0": _rat_json(p1.q0),
            },
            "fusion": None
            if fusion is None
            else {
                "compatible": fusion.compatible,
                "violations": list(fusion.violations),
                "cross_risks": {
                    str(astar): _rat_json(risk)
                    for astar, risk in sorted(fusion.derived_cross_risks.items())
                },
            },
            "bounds": {
                name: None
                if level is None
                else {key: _interval_json(interval) for key, interval in level.bounds.items()}
                for (name, _, _), level in zip(_LEVEL_NAMES, sr.levels)
            },
            "verdicts": {
                name: None
                if level is None
                else {verdict.school: _verdict_json(verdict) for verdict in level.verdicts}
                for (name, _, _), level in zip(_LEVEL_NAMES, sr.levels)
            },
            "incompatible": sr.incompatible,
        }
        strata.append(entry)
    return {"strata": strata}
