"""Command-line front end.

Subcommands:
  analyze --input <path> [--format json|text]   analyze a study file
  example [--format json|text]                  analyze the bundled demo study
  verify --samples <n> --seed <s>               run the proposition harness

Input counts become exact rational proportions; every number in a report
carries its rational form, and decimals are exact renderings whenever the
rational terminates (otherwise marked approximate).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from collections import namedtuple
from decimal import Context
from fractions import Fraction

from . import bounds as bounds_mod
from . import propositions
from .errors import (
    HarmboundsError,
    ParseError,
    ValidationError,
)
from .model import (
    ATOM_KEYS,
    ExperimentalParams,
    ObservationalParams,
    as_prob,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ALL_INCOMPATIBLE = 2
EXIT_COUNTEREXAMPLE = 3

# Longest accepted rational parameter; longer text is refused before any arithmetic.
MAX_RATIONAL_CHARS = 100
# Largest accepted study, about 200,000 strata of JSON; a longer one is an error.
MAX_INPUT_BYTES = 64 * 1024 * 1024
_READ_CHUNK = 64 * 1024
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+|/[0-9]+)?")
# Rounds inexact decimals; its flags are set by every division and never read.
_SIX_DIGITS = Context(prec=6)

_CSV_HEADER = [
    "labels",
    "exp_t_events",
    "exp_t_total",
    "exp_c_events",
    "exp_c_total",
    "obs_t_events",
    "obs_t_total",
    "obs_c_events",
    "obs_c_total",
]
# The only keys a JSON stratum and its `parameters` block may hold.
_STRATUM_KEYS = ("labels", "experimental", "observational", "parameters")
_PARAMETER_KEYS = ("p_do1", "p_do0", "pi1", "q1", "q0")


# ---------------------------------------------------------------------------
# rational rendering

def parse_rational(text: str) -> Fraction:
    """Accepts 'p/q' and 'd[.d]' strings with an optional sign, no exponent,
    at most MAX_RATIONAL_CHARS long; both parse to exact rationals."""
    if len(text) > MAX_RATIONAL_CHARS or not _RATIONAL.fullmatch(text):
        raise ParseError(f"not a rational number: {text[:MAX_RATIONAL_CHARS]!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc


def decimal_str(x: Fraction) -> tuple[str, bool]:
    """Decimal rendering plus an exactness flag.

    A value renders exactly when its decimal ends within 12 places, that
    is when its denominator divides 10^12; everything else is rounded to 6
    significant digits.
    """
    numerator, denominator = x.numerator, x.denominator
    if 10**12 % denominator == 0:
        whole, frac = divmod(abs(numerator) * 10**12 // denominator, 10**12)
        places = ("%012d" % frac).rstrip("0")
        return ("-" if numerator < 0 else "") + str(whole) + ("." + places if places else ""), True
    return str(_SIX_DIGITS.divide(numerator, denominator)), False


def _rat_json(x: Fraction | None) -> dict | None:
    if x is None:
        return None
    decimal, exact = decimal_str(x)
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


# ---------------------------------------------------------------------------
# input model

# The C0 and C1 controls, the line breaks U+2028 and U+2029 and the
# bidirectional controls, written out wherever outside text is printed.
_CONTROL_ESCAPES = str.maketrans(
    {c: f"\\x{c:02x}" for c in [*range(0x20), *range(0x7F, 0xA0)]}
    | {c: f"\\u{c:04x}" for c in [0x2028, 0x2029, *range(0x202A, 0x202F), *range(0x2066, 0x206A)]}
)
_NAME_ESCAPES = str.maketrans({"\\": "\\\\", ";": "\\;", "=": "\\="}) | _CONTROL_ESCAPES


class StratumInput(namedtuple("StratumInput", "labels evidence")):
    """A stratum's (key, value) labels and its `EvidenceSet`."""

    __slots__ = ()

    @property
    def name(self) -> str:
        """The labels as `key=value` pairs joined by `;`, with each `\\`, `;`
        and `=` inside a key or value escaped by a backslash, so that two
        label sets never share a name.  The control characters U+0000-U+001F
        and U+007F-U+009F, the line breaks U+2028 and U+2029, the
        bidirectional controls U+202A-U+202E and U+2066-U+2069, and the lone
        surrogates U+D800-U+DFFF are written as `\\xNN` or `\\uNNNN`, so a name
        never spans two lines, holds an ESC or CSI, reorders the rest of its
        line, or cannot be written as UTF-8."""
        name = ";".join(
            f"{k.translate(_NAME_ESCAPES)}={v.translate(_NAME_ESCAPES)}" for k, v in self.labels
        ) or "(unlabeled)"
        return name.encode("utf-8", "backslashreplace").decode()  # only surrogates fail to encode


class StudyInput(namedtuple("StudyInput", "strata")):
    """The strata of a study; two strata may not carry the same set of labels."""

    __slots__ = ()

    def __new__(cls, strata: tuple[StratumInput, ...]) -> "StudyInput":
        if not strata:
            raise ValidationError("study contains no strata")
        seen = set()
        for stratum in strata:
            labels = frozenset(stratum.labels)
            if labels in seen:
                raise ValidationError(f"duplicate stratum label {stratum.name!r}")
            seen.add(labels)
        return super().__new__(cls, strata)


def _cell(block: object, arm: str, where: str) -> tuple[int, int]:
    """The (events, total) integer counts of one arm; bools and floats are not counts."""
    cell = block.get(arm) if isinstance(block, dict) else None
    if not isinstance(cell, dict):
        raise ParseError(f"{where}: expected an object with events/total counts")
    _refuse_unknown_keys(cell, ("events", "total"), "key", where)
    events, total = cell.get("events"), cell.get("total")
    if type(events) is not int or type(total) is not int:
        raise ParseError(
            f"{where}: events and total must be integers, got {events!r} and {total!r}"
        )
    if max(abs(events), abs(total)) >= 10**MAX_RATIONAL_CHARS:
        raise ParseError(f"{where}: counts may have at most {MAX_RATIONAL_CHARS} digits")
    if total < 0:
        raise ValidationError(f"{where}: total must not be negative, got {total}")
    if events < 0 or events > total:
        raise ValidationError(f"{where}: events {events} outside [0, {total}]")
    return events, total


def _risk(block: object, arm: str, where: str) -> Fraction:
    """The event proportion of an experimental arm, which needs patients."""
    events, total = _cell(block, arm, where)
    if total == 0:
        raise ValidationError(f"{where}: total must be positive, got 0")
    return Fraction(events, total)


def _stratum_from_counts(
    labels: tuple[tuple[str, str], ...],
    experimental: object,
    observational: object,
    where: str,
) -> StratumInput:
    p0 = ExperimentalParams(
        _risk(experimental, "treated", f"{where}, experimental.treated"),
        _risk(experimental, "untreated", f"{where}, experimental.untreated"),
    )
    p1 = None
    if observational is not None:
        # A natural-choice arm may be empty: its A* stratum then has mass 0
        # and its observed risk is undefined.
        ot_events, ot_total = _cell(observational, "treated", f"{where}, observational.treated")
        oc_events, oc_total = _cell(observational, "untreated", f"{where}, observational.untreated")
        if ot_total + oc_total == 0:
            raise ValidationError(f"{where}, observational: both arms have total 0")
        p1 = ObservationalParams(
            Fraction(ot_total, ot_total + oc_total),
            Fraction(ot_events, ot_total) if ot_total else None,
            Fraction(oc_events, oc_total) if oc_total else None,
        )
    return StratumInput(labels, bounds_mod.EvidenceSet(p0, p1))


def _stratum_from_parameters(
    labels: tuple[tuple[str, str], ...], params: object, where: str
) -> StratumInput:
    if not isinstance(params, dict):
        raise ParseError(f"{where}: parameters must be an object")
    _refuse_unknown_keys(params, _PARAMETER_KEYS, "parameter", where)

    def prob(key: str, required: bool = True) -> Fraction | None:
        if key not in params or params[key] is None:
            if required:
                raise ParseError(f"{where}: missing parameter {key!r}")
            return None
        try:
            return as_prob(parse_rational(str(params[key])))
        except ParseError as exc:
            raise ParseError(f"{where}, parameter {key!r}: {exc}") from exc
        except ValueError as exc:
            raise ValidationError(f"{where}, parameter {key!r}: {exc}") from exc

    p0 = ExperimentalParams(prob("p_do1"), prob("p_do0"))
    p1 = None
    pi1 = prob("pi1", required=False)
    for key in ("q1", "q0"):
        if pi1 is None and params.get(key) is not None:
            raise ParseError(f"{where}: parameter {key!r} needs 'pi1'")
    if pi1 is not None:
        try:
            p1 = ObservationalParams(
                pi1, prob("q1", required=False), prob("q0", required=False)
            )
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    return StratumInput(labels, bounds_mod.EvidenceSet(p0, p1))


def _refuse_unknown_keys(block: dict, known: tuple[str, ...], what: str, where: str) -> None:
    for key in block:
        if key not in known:
            raise ParseError(f"{where}: unknown {what} {key!r}")


def _labels_from_mapping(raw: object, where: str) -> tuple[tuple[str, str], ...]:
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: labels must be a string-to-string mapping")
    for key, value in raw.items():
        if not key:
            raise ParseError(f"{where}: a label key is empty")
        if not isinstance(value, str):
            raise ParseError(
                f"{where}: labels must be a string-to-string mapping; label {key!r} is not a string"
            )
    return tuple(raw.items())


def _read_text(path: str) -> str:
    """The text of a UTF-8 file or pipe without its byte order mark, if it
    has one; other bytes, a missing path, a failed read, or more than
    MAX_INPUT_BYTES bytes, end in a ParseError."""
    try:
        with open(path, "rb") as fh:
            # One read at a time: a pipe's bytes are taken as they come, and no
            # buffer the size of the limit is allocated for a small study.
            data = bytearray()
            while chunk := fh.read1(min(_READ_CHUNK, MAX_INPUT_BYTES + 1 - len(data))):
                data += chunk
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from None
    if len(data) > MAX_INPUT_BYTES:
        raise ParseError(f"{path}: input is larger than {MAX_INPUT_BYTES} bytes")
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}, byte offset {exc.start}: not valid utf-8 ({exc.reason})") from None


class _JsonNumber(float):
    """A JSON number with a fraction or an exponent.  Its str is its source
    text, so that a parameter is read from its own digits; its repr is the
    float's."""

    __slots__ = ("text",)

    def __new__(cls, text: str) -> "_JsonNumber":
        number = super().__new__(cls, text)
        number.text = text
        return number

    def __str__(self) -> str:
        return self.text


def _parse_json_input(path: str) -> tuple[StratumInput, ...]:
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        # A ParseError, not a ValueError: the handler below reads any
        # other ValueError from json.loads as a number that is too long.
        block = dict(pairs)
        if len(block) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for key in keys if keys.count(key) > 1)
            raise ParseError(f"{path}: key {repeated!r} is repeated")
        return block

    text = _read_text(path)
    try:
        data = json.loads(text, object_pairs_hook=unique_keys, parse_float=_JsonNumber)
    except ParseError as exc:  # a repeated key; only this path loads the code that places it
        from .repeated_keys import placed

        raise placed(exc, text, path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # int() refuses numbers over sys.get_int_max_str_digits() digits
        raise ParseError(
            f"{path}: a number is too long; counts may have at most {MAX_RATIONAL_CHARS} digits"
        ) from None
    if not isinstance(data, dict) or not isinstance(data.get("strata"), list):
        raise ParseError(f"{path}: expected a top-level object with a 'strata' list")
    _refuse_unknown_keys(data, ("strata",), "key", path)
    strata = []
    for i, raw in enumerate(data["strata"]):
        where = f"{path}, stratum {i}"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        _refuse_unknown_keys(raw, _STRATUM_KEYS, "key", where)
        labels = _labels_from_mapping(raw.get("labels", {}), where)
        if "parameters" in raw:
            for key in ("experimental", "observational"):
                if key in raw:
                    raise ParseError(f"{where}: {key!r} cannot be combined with 'parameters'")
            strata.append(_stratum_from_parameters(labels, raw["parameters"], where))
        elif "experimental" in raw:
            for name in ("experimental", "observational"):
                if isinstance(raw.get(name), dict):
                    _refuse_unknown_keys(
                        raw[name], ("treated", "untreated"), "arm", f"{where}, {name}"
                    )
            strata.append(
                _stratum_from_counts(labels, raw["experimental"], raw.get("observational"), where)
            )
        else:
            raise ParseError(f"{where}: needs 'experimental' counts or 'parameters'")
    return tuple(strata)


def _csv_cells(row: list[str], first: int, where: str) -> dict:
    """The four count fields from column `first` on, as a counts block."""
    counts = []
    for column in range(first, first + 4):
        text = row[column].strip()
        if not (text.isascii() and text.isdigit()):
            raise ParseError(
                f"{where}, {_CSV_HEADER[column]}: expected a whole number, got {row[column]!r}"
            )
        if len(text) > MAX_RATIONAL_CHARS:
            raise ParseError(
                f"{where}, {_CSV_HEADER[column]}: counts may have at most {MAX_RATIONAL_CHARS} digits"
            )
        counts.append(int(text))
    return {
        "treated": {"events": counts[0], "total": counts[1]},
        "untreated": {"events": counts[2], "total": counts[3]},
    }


def _csv_labels(cell: str, where: str) -> tuple[tuple[str, str], ...]:
    """The `key=value` fragments of a labels cell, with the spaces around each
    key and value stripped; blank fragments are skipped and an empty or
    repeated key is refused."""
    labels: dict[str, str] = {}
    for part in cell.split(";"):
        if not part.strip():
            continue
        if "=" not in part:
            raise ParseError(f"{where}: label {part!r} is not of the form key=value")
        key, value = (text.strip() for text in part.split("=", 1))
        if not key:
            raise ParseError(f"{where}: label {part!r} has an empty key")
        if key in labels:
            raise ParseError(f"{where}: label key {key!r} is repeated")
        labels[key] = value
    return tuple(labels.items())


def _csv_rows(fh, path: str):
    """The rows of a CSV file; a malformed one ends in ParseError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path}, line {reader.line_num}: {exc}") from None


def _parse_csv_input(path: str) -> tuple[StratumInput, ...]:
    strata = []
    reader = _csv_rows(io.StringIO(_read_text(path), newline=""), path)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    if header != _CSV_HEADER:
        raise ParseError(f"{path}: bad header; expected {','.join(_CSV_HEADER)}")
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not field.strip() for field in row):
            continue
        where = f"{path}, line {lineno}"
        if len(row) != len(_CSV_HEADER):
            raise ParseError(f"{where}: expected {len(_CSV_HEADER)} fields")
        labels = _csv_labels(row[0], where)
        obs_fields = [field.strip() for field in row[5:9]]
        observational = None
        if any(obs_fields):
            if not all(obs_fields):
                raise ParseError(f"{where}: partial observational counts")
            observational = _csv_cells(row, 5, where)
        strata.append(
            _stratum_from_counts(labels, _csv_cells(row, 1, where), observational, where)
        )
    return tuple(strata)


def parse_input(path: str) -> StudyInput:
    """A CSV study when the path ends in .csv, a JSON one otherwise."""
    parse = _parse_csv_input if path.lower().endswith(".csv") else _parse_json_input
    strata = parse(path)
    try:
        return StudyInput(strata)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# analysis

class StratumReport(namedtuple("StratumReport", "stratum p0_only fused")):
    """A `StratumInput` and its `propositions.Level`s, the records that `verify`
    checks on sampled joints; `fused` is None without natural-choice data or
    when the sources are incompatible."""

    __slots__ = ()

    @property
    def levels(self) -> tuple[tuple[str, propositions.Level | None], ...]:
        return ("p0_only", self.p0_only), ("fused", self.fused)

    @property
    def incompatible(self) -> bool:
        fusion = self.stratum.evidence.fusion
        return fusion is not None and not fusion.compatible


def analyze(study: StudyInput) -> tuple[StratumReport, ...]:
    return tuple(StratumReport(s, *propositions.evidence_levels(s.evidence)) for s in study.strata)


# ---------------------------------------------------------------------------
# rendering

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
                for name, level in sr.levels
            },
            "verdicts": {
                name: None
                if level is None
                else {verdict.school: _verdict_json(verdict) for verdict in level.verdicts}
                for name, level in sr.levels
            },
            "incompatible": sr.incompatible,
        }
        strata.append(entry)
    return {"strata": strata}


def _use_color(stream) -> bool:
    mode = os.environ.get("HARMBOUNDS_COLOR", "auto")
    if mode == "never":
        return False
    return bool(getattr(stream, "isatty", lambda: False)())


def _fmt_value(x: Fraction) -> str:
    decimal, exact = decimal_str(x)
    return decimal if exact else "~" + decimal


def _fmt_interval(interval: bounds_mod.Interval | None, bold: bool) -> str:
    if interval is None:
        return "-"
    text = f"[{_fmt_value(interval.lower)}, {_fmt_value(interval.upper)}]"
    if bold and interval.lower > 0:
        text = f"\x1b[1m{text}\x1b[0m"
    return text


def _fmt_verdict(verdict: propositions.Verdict) -> str:
    if not verdict.detected:
        return "No"
    return f"Yes ({verdict.witness} = {_fmt_value(verdict.value)})"


_TEXT_ROWS = (
    ("P(harm)", "harm", True),
    ("P(benefit)", "benefit", False),
    ("ATE", "ate", True),
    ("ATE | A*=1", "cate1", True),
    ("ATE | A*=0", "cate0", True),
    ("P(harm | A*=1)", "harm_given1", True),
    ("P(harm | A*=0)", "harm_given0", True),
    ("P(benefit | A*=1)", "benefit_given1", False),
    ("P(benefit | A*=0)", "benefit_given0", False),
)


def render_text(report: tuple[StratumReport, ...], color: bool = False) -> str:
    lines: list[str] = []
    for sr in report:
        evidence = sr.stratum.evidence
        p0, p1, fusion = evidence.p0, evidence.p1, evidence.fusion
        lines.append(f"Stratum {sr.stratum.name}")
        lines.append(
            f"  Experimental risks:   P(Y=1|do(A=1)) = {_fmt_value(p0.p_do1)} "
            f"[{p0.p_do1}]   P(Y=1|do(A=0)) = {_fmt_value(p0.p_do0)} "
            f"[{p0.p_do0}]"
        )
        if p1 is not None:
            q1 = "undefined" if p1.q1 is None else f"{_fmt_value(p1.q1)} [{p1.q1}]"
            q0 = "undefined" if p1.q0 is None else f"{_fmt_value(p1.q0)} [{p1.q0}]"
            lines.append(
                f"  Natural-choice data:  P(A*=1) = {_fmt_value(p1.pi1)} "
                f"[{p1.pi1}]   P(Y=1|A*=1) = {q1}   P(Y=1|A*=0) = {q0}"
            )
        if sr.incompatible:
            lines.append("  Fusion: INCOMPATIBLE — stratum not analyzed further")
            for violation in fusion.violations:
                lines.append(f"    {violation}")
            lines.append("")
            continue
        if fusion is not None:
            lines.append("  Fusion: compatible")
        lines.append("  Sharp bounds [lower, upper]:")
        lines.append(f"    {'estimand':<22}{'experimental only':<24}with natural-choice data")
        for label, key, bold in _TEXT_ROWS:
            if sr.fused is None and key not in sr.p0_only.bounds:
                continue
            p0_cell, fused_cell = (
                "-"
                if level is None
                else _fmt_interval(level.bounds.get(key), bold and color and name == "fused")
                for name, level in sr.levels
            )
            lines.append(f"    {label:<22}{p0_cell:<23} {fused_cell}")
        lines.append("  Harm detected?")
        for i, verdict in enumerate(sr.p0_only.verdicts):
            p0_part, fused_part = (
                "-" if level is None else _fmt_verdict(level.verdicts[i]) for _, level in sr.levels
            )
            lines.append(
                f"    {verdict.school + ':':<17}experimental only: {p0_part}   fused: {fused_part}"
            )
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands

def _demo_study() -> StudyInput:
    """The bundled demo study, read from the package directory; `os.path`
    finds it without `importlib.resources`, which would add 30 to 40 modules
    to the start-up of `example`."""
    return parse_input(os.path.join(os.path.dirname(__file__), "data", "example_study.json"))


def command_verify(n: int, seed: int) -> tuple[int, list[propositions.PropositionReport]]:
    reports = propositions.run_harness(n, seed)
    failed = any(r.counterexamples for r in reports)
    return (EXIT_COUNTEREXAMPLE if failed else EXIT_OK), reports


_quote = json.encoder.encode_basestring_ascii  # the C helper behind json.dumps
_BOOL = ("false", "true")


def _lines(depth: int, members: list[str], brackets: str = "{}") -> str:
    """The `json.dumps(..., indent=2)` text of an object (or, with brackets
    "[]", an array) whose brackets sit `depth` spaces in, holding the texts
    `members`, one to a line."""
    if not members:
        return brackets
    pad = "\n" + " " * (depth + 2)
    return brackets[0] + pad + ("," + pad).join(members) + "\n" + " " * depth + brackets[1]


# The `report_to_json` objects of fixed shape, as `%` templates.  A rational's
# fields are ASCII digits, signs, dots and slashes, so they need no escaping.
_RATIONAL_TEXT = {
    depth: _lines(depth, ['"rational": "%s"', '"decimal": "%s"', '"exact": %s']) for depth in (8, 10, 12)
}
_INTERVAL = _lines(10, ['"lower": ' + _RATIONAL_TEXT[12], '"upper": ' + _RATIONAL_TEXT[12], '"point": %s'])
_VERDICT = _lines(10, ['"school": %s', '"detected": %s', '"witness": %s', '"value": %s'])
_LEVELS = _lines(6, ['"p0_only": %s', '"fused": %s'])
_P0 = _lines(6, ['"p_do1": %s', '"p_do0": %s'])
_P1 = _lines(6, ['"pi1": %s', '"q1": %s', '"q0": %s'])
_FUSION = _lines(6, ['"compatible": %s', '"violations": %s', '"cross_risks": %s'])
_STRATUM = _lines(
    4, ['"%s": %%s' % key for key in ("labels", "p0", "p1", "fusion", "bounds", "verdicts", "incompatible")]
)


def _rational_text(depth: int, x: Fraction | None) -> str:
    if x is None:
        return "null"
    decimal, exact = decimal_str(x)
    return _RATIONAL_TEXT[depth] % (x, decimal, _BOOL[exact])


def _interval_text(interval: bounds_mod.Interval | None) -> str:
    if interval is None:
        return "null"
    lower, upper = str(interval.lower), str(interval.upper)
    lower_decimal, lower_exact = decimal_str(interval.lower)
    upper_decimal, upper_exact = decimal_str(interval.upper)
    # A rational's text is canonical, so equal texts are equal ends.
    return _INTERVAL % (
        lower, lower_decimal, _BOOL[lower_exact], upper, upper_decimal, _BOOL[upper_exact], _BOOL[lower == upper]
    )


def _verdict_text(verdict: propositions.Verdict) -> str:
    witness = "null" if verdict.witness is None else _quote(verdict.witness)
    return _VERDICT % (
        _quote(verdict.school), _BOOL[verdict.detected], witness, _rational_text(12, verdict.value)
    )


def _stratum_text(sr: StratumReport) -> str:
    """The text of the stratum's `report_to_json` entry in the report's
    `json.dumps(..., indent=2)`, written from its records."""
    evidence = sr.stratum.evidence
    p0, p1, fusion = evidence.p0, evidence.p1, evidence.fusion
    p1_text = fusion_text = "null"
    if p1 is not None:
        p1_text = _P1 % (_rational_text(8, p1.pi1), _rational_text(8, p1.q1), _rational_text(8, p1.q0))
        cross_risks = sorted(fusion.derived_cross_risks.items())
        fusion_text = _FUSION % (
            _BOOL[fusion.compatible],
            _lines(8, [_quote(v) for v in fusion.violations], "[]"),
            _lines(8, [_quote(str(a)) + ": " + _rational_text(10, risk) for a, risk in cross_risks]),
        )
    bounds, verdicts = ["null", "null"], ["null", "null"]
    for i, (_, level) in enumerate(sr.levels):
        if level is not None:
            bounds[i] = _lines(8, [_quote(k) + ": " + _interval_text(iv) for k, iv in level.bounds.items()])
            verdicts[i] = _lines(8, [_quote(v.school) + ": " + _verdict_text(v) for v in level.verdicts])
    return _STRATUM % (
        _lines(6, [_quote(key) + ": " + _quote(value) for key, value in sr.stratum.labels]),
        _P0 % (_rational_text(8, p0.p_do1), _rational_text(8, p0.p_do0)),
        p1_text,
        fusion_text,
        _LEVELS % tuple(bounds),
        _LEVELS % tuple(verdicts),
        _BOOL[sr.incompatible],
    )


class _StratumEncoder(json.JSONEncoder):
    """Encodes a report, the tuple of `StratumReport`s, as the text of
    `json.dumps(report_to_json(report), indent=2)`, one stratum per chunk: so
    `json.dump` makes one write per stratum, and no stratum's text outlives
    its write.  `indent` is always 2, whatever the encoder is given.  The
    report is never empty, because `StudyInput` refuses a study without
    strata.
    """

    def iterencode(self, o, _one_shot=False):
        head = '{\n  "strata": [\n    '
        for sr in o:
            yield head + _stratum_text(sr)
            head = ",\n    "
        yield "\n  ]\n}"


def _emit_report(report: tuple[StratumReport, ...], fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(report, stream, indent=2, cls=_StratumEncoder)
        stream.write("\n")
    else:
        stream.write(render_text(report, color=_use_color(stream)))
    stream.flush()  # a closed pipe raises here, inside `main`, not at interpreter exit


def _counterexample_json(report: propositions.PropositionReport) -> dict:
    return {
        "proposition": report.proposition,
        "instances_checked": report.instances_checked,
        "counterexamples": [
            {
                "atoms": {
                    "/".join(map(str, key)): str(p)
                    for key, p in zip(ATOM_KEYS, joint.atoms)
                },
                "details": details,
            }
            for joint, details in report.counterexamples
        ],
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="harmbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a study file")
    p_analyze.add_argument("--input", required=True, help="path to a JSON or CSV study file")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")

    p_example = sub.add_parser("example", help="analyze the bundled demo study")
    p_example.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run the proposition harness")
    p_verify.add_argument("--samples", type=int, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            if args.samples < 1:
                raise ParseError("--samples must be at least 1")
            status, reports = command_verify(args.samples, args.seed)
            for rep in reports:
                outcome = "ok" if not rep.counterexamples else f"{len(rep.counterexamples)} counterexample(s)"
                print(
                    f"proposition {rep.proposition}: {rep.instances_checked} instances, {outcome}"
                )
            if status != EXIT_OK:
                sys.stdout.write(
                    json.dumps([_counterexample_json(r) for r in reports if r.counterexamples], indent=2)
                    + "\n"
                )
            sys.stdout.flush()
            return status
        study = parse_input(args.input) if args.command == "analyze" else _demo_study()
        report = analyze(study)
        _emit_report(report, args.format, sys.stdout)
        return EXIT_ALL_INCOMPATIBLE if all(sr.incompatible for sr in report) else EXIT_OK
    except (HarmboundsError, ValueError) as exc:
        # A message may quote the input path as given: escaped, it stays one line with no ESC.
        print(f"error: {str(exc).translate(_CONTROL_ESCAPES)}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader stopped early (`| head`): quiet the interpreter's last flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except OSError as exc:
        # stdout refused the report (a full disk): drop what it still holds, as above.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
