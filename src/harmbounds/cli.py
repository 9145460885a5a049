"""harmbounds: sharp bounds on the probability of counterfactual harm and benefit.

usage: harmbounds <subcommand> [options]

Subcommands:
  analyze --input <path> [--format json|text]   analyze a study file
  example [--format json|text]                  analyze the bundled demo study
  verify --samples <n> [--seed <s>]             run the proposition harness

Every subcommand takes -h or --help.  An option's value follows it as the
next argument or after `=` (`--input=study.json`); an option may be cut to
any unique prefix (`--form json`), and a repeated option keeps its last value.

Input counts become exact rational proportions; every number in a report
carries its rational form, and decimals are exact renderings whenever the
rational terminates (otherwise marked approximate).
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
from collections import Counter, namedtuple
from decimal import Context
from fractions import Fraction

from . import bounds as bounds_mod
from . import propositions
from .cmdline import parse_args
from .errors import HarmboundsError, ParseError, ValidationError
from .model import ATOM_KEYS, ExperimentalParams, ObservationalParams, as_prob

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ALL_INCOMPATIBLE = 2
EXIT_COUNTEREXAMPLE = 3

# Longest accepted rational parameter; longer text is refused before any arithmetic.
MAX_RATIONAL_CHARS = 100
_COUNT_LIMIT = 10**MAX_RATIONAL_CHARS  # the smallest count with too many digits
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
# The only keys a JSON stratum, its `parameters` block, an arm block and an arm may hold.
_STRATUM_KEYS = ("labels", "experimental", "observational", "parameters")
_PARAMETER_KEYS = ("p_do1", "p_do0", "pi1", "q1", "q0")
_ARMS = ("treated", "untreated")
_COUNT_KEYS = ("events", "total")


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


def _rational_fields(x: Fraction) -> tuple[str, str, str]:
    """A rational's three JSON fields, from its integer numerator and
    denominator: its text, its decimal and whether that decimal is exact
    (`true` or `false`).

    A value renders exactly when its decimal ends within 12 places, that
    is when its denominator divides 10^12; everything else is rounded to 6
    significant digits.
    """
    numerator, denominator = x.numerator, x.denominator
    if denominator == 1:
        text = str(numerator)
        return text, text, "true"
    text = "%d/%d" % (numerator, denominator)
    if 10**12 % denominator:
        return text, str(_SIX_DIGITS.divide(numerator, denominator)), "false"
    whole, frac = divmod(abs(numerator) * (10**12 // denominator), 10**12)
    sign = "-" if numerator < 0 else ""
    return text, sign + str(whole) + "." + ("%012d" % frac).rstrip("0"), "true"


def decimal_str(x: Fraction) -> tuple[str, bool]:
    """The decimal of `_rational_fields` and whether it is exact."""
    _, decimal, exact = _rational_fields(x)
    return decimal, exact == "true"


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


def _object(block: dict, where: str, known: tuple | None = None, what: str = "key", repeats_at: str = "") -> None:
    """Refuses a repeated key, named at `repeats_at` if given, and then the
    first key, in written order, outside `known` (any key when None)."""
    if type(block) is _Repeats:
        raise ParseError(f"{repeats_at or where}: key {block.repeated!r} is repeated")
    for key in block if known else ():
        if key not in known:
            raise ParseError(f"{where}: unknown {what} {key!r}")


def _counts(arms, name: str, where: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """The treated and untreated (events, total) of the `name` block, from
    its arms' (arm, events, total) in reading order; each arm is checked as
    it comes.  Both formats' counts pass here, so both keep one set of rules."""
    counts = {}
    for arm, events, total in arms:
        if total < 0:
            raise ValidationError(f"{where}, {name}.{arm}: total must not be negative, got {total}")
        if events < 0 or events > total:
            raise ValidationError(f"{where}, {name}.{arm}: events {events} outside [0, {total}]")
        if total == 0 and name == "experimental":  # an experimental risk needs patients
            raise ValidationError(f"{where}, {name}.{arm}: total must be positive, got 0")
        counts[arm] = events, total
    treated, untreated = counts["treated"], counts["untreated"]
    if treated[1] + untreated[1] == 0:  # only a natural-choice block gets here with no patients
        raise ValidationError(f"{where}, {name}: both arms have total 0")
    return treated, untreated


def _evidence(experimental: tuple, observational: tuple | None) -> bounds_mod.EvidenceSet:
    """The evidence of a stratum's checked counts, each block a (treated, untreated) pair."""
    p1 = None
    if observational is not None:
        # A natural-choice arm may be empty: its A* stratum then has mass 0
        # and its observed risk is undefined.
        (events1, total1), (events0, total0) = observational
        p1 = ObservationalParams(
            Fraction(total1, total1 + total0),
            Fraction(events1, total1) if total1 else None,
            Fraction(events0, total0) if total0 else None,
        )
    return bounds_mod.EvidenceSet(ExperimentalParams(Fraction(*experimental[0]), Fraction(*experimental[1])), p1)


def _probability(value: object, key: str, where: str) -> Fraction:
    if isinstance(value, (bool, dict, list)):  # `str` would quote Python's spelling of it
        kind = {bool: "a boolean", list: "an array"}.get(type(value), "an object")
        raise ParseError(f"{where}, parameter {key!r}: expected a number or a string, got {kind}")
    try:
        return as_prob(parse_rational(str(value)))
    except ParseError as exc:
        raise ParseError(f"{where}, parameter {key!r}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{where}, parameter {key!r}: {exc}") from exc


def _evidence_from_parameters(params: object, where: str) -> bounds_mod.EvidenceSet:
    """The evidence of a `parameters` block, in which a `null` parameter is absent."""
    if not isinstance(params, dict):
        raise ParseError(f"{where}: parameters must be an object")
    _object(params, where, _PARAMETER_KEYS, "parameter", f"{where}, parameters")
    for key in ("p_do1", "p_do0"):
        if params.get(key) is None:
            raise ParseError(f"{where}: missing parameter {key!r}")
    for key in ("q1", "q0"):
        if params.get("pi1") is None and params.get(key) is not None:
            raise ParseError(f"{where}: parameter {key!r} needs 'pi1'")
    probs = {key: _probability(value, key, where) for key, value in params.items() if value is not None}
    p1 = None
    if "pi1" in probs:
        try:
            p1 = ObservationalParams(probs["pi1"], probs.get("q1"), probs.get("q0"))
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    return bounds_mod.EvidenceSet(ExperimentalParams(probs["p_do1"], probs["p_do0"]), p1)


def _labels_from_mapping(raw: object, where: str) -> tuple[tuple[str, str], ...]:
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: labels must be a string-to-string mapping")
    _object(raw, f"{where}, labels")
    for key, value in raw.items():
        if not key:
            raise ParseError(f"{where}: a label key is empty")
        if not isinstance(value, str):
            raise ParseError(f"{where}: labels must be a string-to-string mapping; label {key!r} is not a string")
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


class _Repeats(dict):
    """A JSON object that writes its key `repeated` more than once, kept with
    each key's last value; the walk refuses it where it reaches it."""

    __slots__ = ("repeated",)


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    block = dict(pairs)
    if len(block) < len(pairs):
        # One count of every key; a dict lists each key where it first occurs.
        counts = Counter(key for key, _ in pairs)
        block = _Repeats(block)
        block.repeated = next(key for key in block if counts[key] > 1)
    return block


def _json_arms(block: object, where: str):
    """The (arm, events, total) of each arm of the JSON arm block at `where`, in the
    order written, after the block's own faults; bools and floats are not counts."""
    arms = block if isinstance(block, dict) else {}
    _object(arms, where, _ARMS, "arm")
    for arm in _ARMS:
        if arm not in arms:
            raise ParseError(f"{where}.{arm}: expected an object with events/total counts")
    for arm, cell in arms.items():
        at = f"{where}.{arm}"
        if not isinstance(cell, dict):
            raise ParseError(f"{at}: expected an object with events/total counts")
        _object(cell, at, _COUNT_KEYS)
        events, total = cell.get("events"), cell.get("total")
        if type(events) is not int or type(total) is not int:
            raise ParseError(f"{at}: events and total must be integers, got {events!r} and {total!r}")
        if max(abs(events), abs(total)) >= _COUNT_LIMIT:
            raise ParseError(f"{at}: counts may have at most {MAX_RATIONAL_CHARS} digits")
        yield arm, events, total


def _parse_json_input(path: str) -> tuple[StratumInput, ...]:
    """The strata of a JSON study, read from the top: an object's own faults
    (not an object, a repeated or unknown key, a missing or conflicting
    member) come before its members, and its members in the order written."""
    text = _read_text(path)
    try:
        data = json.loads(text, object_pairs_hook=_json_object, parse_float=_JsonNumber)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # int() refuses numbers over sys.get_int_max_str_digits() digits
        raise ParseError(
            f"{path}: a number is too long; counts may have at most {MAX_RATIONAL_CHARS} digits"
        ) from None
    if isinstance(data, dict):
        _object(data, path, ("strata",))
    if not isinstance(data, dict) or not isinstance(data.get("strata"), list):
        raise ParseError(f"{path}: expected a top-level object with a 'strata' list")
    strata = []
    for i, raw in enumerate(data["strata"]):
        where = f"{path}, stratum {i}"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        _object(raw, where, _STRATUM_KEYS)
        if "parameters" in raw:
            for key in ("experimental", "observational"):
                if key in raw:
                    raise ParseError(f"{where}: {key!r} cannot be combined with 'parameters'")
        elif "experimental" not in raw:
            raise ParseError(f"{where}: needs 'experimental' counts or 'parameters'")
        labels, blocks = (), {"observational": None}
        for key, value in raw.items():
            if key == "labels":
                labels = _labels_from_mapping(value, where)
            elif key == "parameters":
                evidence = _evidence_from_parameters(value, where)
            elif value is not None or key == "experimental":  # a null natural-choice block is absent
                blocks[key] = _counts(_json_arms(value, f"{where}, {key}"), key, where)
        if "parameters" not in raw:
            evidence = _evidence(**blocks)
        strata.append(StratumInput(labels, evidence))
    return tuple(strata)


def _csv_count(row: list[str], column: int, where: str) -> int:
    text = row[column].strip()
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{where}, {_CSV_HEADER[column]}: expected a whole number, got {row[column]!r}")
    if len(text) > MAX_RATIONAL_CHARS:
        raise ParseError(f"{where}, {_CSV_HEADER[column]}: counts may have at most {MAX_RATIONAL_CHARS} digits")
    return int(text)


def _csv_arms(row: list[str], first: int, where: str):
    """The (arm, events, total) of the two arms whose fields start at column `first`."""
    for arm, column in (("treated", first), ("untreated", first + 2)):
        yield arm, _csv_count(row, column, where), _csv_count(row, column + 1, where)


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
        labels = _csv_labels(row[0], where)  # then each arm left to right: its two fields, then its range
        experimental = _counts(_csv_arms(row, 1, where), "experimental", where)
        obs_fields = [field.strip() for field in row[5:9]]
        observational = None
        if any(obs_fields):
            if not all(obs_fields):
                raise ParseError(f"{where}: partial observational counts")
            observational = _counts(_csv_arms(row, 5, where), "observational", where)
        strata.append(StratumInput(labels, _evidence(experimental, observational)))
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

# The report's levels in `evidence_levels` order: JSON key, column heading, verdict label.
_LEVEL_NAMES = (
    ("p0_only", "experimental only", "experimental only"),
    ("fused", "with natural-choice data", "fused"),
)


class StratumReport(namedtuple("StratumReport", "stratum levels")):
    """A `StratumInput` and the `propositions.Level`s that `evidence_levels`
    returns, the records that `verify` checks on sampled joints; the fused one
    is None without natural-choice data or when the sources are incompatible."""

    __slots__ = ()

    @property
    def incompatible(self) -> bool:
        fusion = self.stratum.evidence.fusion
        return fusion is not None and not fusion.compatible


def analyze(study: StudyInput) -> tuple[StratumReport, ...]:
    return tuple(StratumReport(s, propositions.evidence_levels(s.evidence)) for s in study.strata)


# ---------------------------------------------------------------------------
# rendering

def _use_color(stream) -> bool:
    setting = os.environ.get("HARMBOUNDS_COLOR", "")
    if setting not in ("", "never"):  # unset or empty is auto; a mistyped value must not pass silently
        raise ValidationError(f"HARMBOUNDS_COLOR must be 'never', empty or unset, got {setting!r}")
    return not setting and getattr(stream, "isatty", lambda: False)()


def _fmt_value(x: Fraction) -> str:
    decimal, exact = decimal_str(x)
    return decimal if exact else "~" + decimal


def _fmt_interval(interval: bounds_mod.Interval | None, bold: bool) -> str:
    if interval is None:
        return "-"
    text = f"[{_fmt_value(interval.lower)}, {_fmt_value(interval.upper)}]"
    return f"\x1b[1m{text}\x1b[0m" if bold and interval.lower > 0 else text


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
# A bounds-table line: the label in 22 columns, then each cell but the last in 23 and a space.
_TABLE_ROW = "    %-22s" + "%-23s " * (len(_LEVEL_NAMES) - 1) + "%s"
_TABLE_HEADING = _TABLE_ROW % ("estimand", *(heading for _, heading, _ in _LEVEL_NAMES))
_VERDICT_LINE = "    %-17s" + "   ".join(label + ": %s" for _, _, label in _LEVEL_NAMES)


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
        lines.append(_TABLE_HEADING)
        # An absent level's cells are "-"; a row is shown when a present level has its key.
        columns = [{} if level is None else level.bounds for level in sr.levels]
        shown = set().union(*columns)
        *padded, last = columns
        for label, key, bold in _TEXT_ROWS:
            if key in shown:
                # Only the last, fused column is bold: an escape counts toward a padded cell's width.
                cells = [_fmt_interval(bounds.get(key), False) for bounds in padded]
                lines.append(_TABLE_ROW % (label, *cells, _fmt_interval(last.get(key), bold and color)))
        lines.append("  Harm detected?")
        for i, verdict in enumerate(sr.levels[0].verdicts):
            parts = ["-" if level is None else _fmt_verdict(level.verdicts[i]) for level in sr.levels]
            lines.append(_VERDICT_LINE % (verdict.school + ":", *parts))
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


def _template(depth: int, *members: str) -> str:
    """A `%` template of an object whose braces sit `depth` spaces in, one member to a line."""
    pad = "\n" + " " * (depth + 2)
    return "{" + pad + ("," + pad).join(members) + "\n" + " " * depth + "}"


# The objects of fixed shape in the `json.dumps(..., indent=2)` text of the report's JSON
# document, as `%` templates.  A rational's fields are ASCII digits, signs, dots and
# slashes, so they need no escaping.
_R8, _R10, _R12 = (_template(depth, '"rational": "%s"', '"decimal": "%s"', '"exact": %s') for depth in (8, 10, 12))
_INTERVAL = _template(10, '"lower": ' + _R12, '"upper": ' + _R12, '"point": %s')
_VERDICT = _template(10, '"school": %s', '"detected": %s', '"witness": %s', '"value": %s')
_LEVEL_KEYS = [("," if i else "") + '\n        "%s": ' % name for i, (name, _, _) in enumerate(_LEVEL_NAMES)]


def _stratum_text(sr: StratumReport) -> str:
    """The text of the stratum's entry in the `json.dumps(..., indent=2)`
    text of the report's JSON document, written from its records in one pass."""
    evidence = sr.stratum.evidence
    p0, p1, fusion = evidence.p0, evidence.p1, evidence.fusion
    labels = ",\n        ".join(_quote(key) + ": " + _quote(value) for key, value in sr.stratum.labels)
    out = [
        '{\n      "labels": ', "{\n        " + labels + "\n      }" if labels else "{}",
        ',\n      "p0": {\n        "p_do1": ', _R8 % _rational_fields(p0.p_do1),
        ',\n        "p_do0": ', _R8 % _rational_fields(p0.p_do0), '\n      },\n      "p1": ',
    ]
    if p1 is None:
        out.append('null,\n      "fusion": null')
    else:
        violations = ",\n          ".join(map(_quote, fusion.violations))
        risks = ",\n          ".join(
            '"%d": ' % a + _R10 % _rational_fields(risk) for a, risk in sorted(fusion.derived_cross_risks.items())
        )
        out += [
            '{\n        "pi1": ', _R8 % _rational_fields(p1.pi1),
            ',\n        "q1": ', "null" if p1.q1 is None else _R8 % _rational_fields(p1.q1),
            ',\n        "q0": ', "null" if p1.q0 is None else _R8 % _rational_fields(p1.q0),
            '\n      },\n      "fusion": {\n        "compatible": ', _BOOL[fusion.compatible],
            ',\n        "violations": ', "[\n          " + violations + "\n        ]" if violations else "[]",
            ',\n        "cross_risks": ', "{\n          " + risks + "\n        }" if risks else "{}", "\n      }",
        ]
    # A present level always holds bounds and verdicts, so neither of its objects is empty.
    bounds, verdicts = [',\n      "bounds": {'], ['\n      },\n      "verdicts": {']
    for key, level in zip(_LEVEL_KEYS, sr.levels):
        if level is None:
            bounds += [key, "null"]
            verdicts += [key, "null"]
            continue
        member = key + "{\n          "
        for name, interval in level.bounds.items():
            if interval is None:
                bounds += [member, _quote(name), ": null"]
            else:
                # A rational's text is canonical, so equal texts are equal ends.
                lower, upper = _rational_fields(interval.lower), _rational_fields(interval.upper)
                bounds += [member, _quote(name), ": ", _INTERVAL % (*lower, *upper, _BOOL[lower[0] == upper[0]])]
            member = ",\n          "
        member = key + "{\n          "
        for verdict in level.verdicts:
            school, witness = _quote(verdict.school), verdict.witness
            value = "null" if verdict.value is None else _R12 % _rational_fields(verdict.value)
            witness = "null" if witness is None else _quote(witness)
            verdicts += [member, school, ": ", _VERDICT % (school, _BOOL[verdict.detected], witness, value)]
            member = ",\n          "
        bounds.append("\n        }")
        verdicts.append("\n        }")
    out += bounds + verdicts
    out += ['\n      },\n      "incompatible": ', _BOOL[sr.incompatible], "\n    }"]
    return "".join(out)


class _StratumEncoder(json.JSONEncoder):
    """Encodes a report, the tuple of `StratumReport`s, as the
    `json.dumps(..., indent=2)` text of the report's JSON document, one
    stratum per chunk: so `json.dump` makes one write per stratum, and no
    stratum's text outlives its write.  `indent` is always 2, whatever the
    encoder is given.  The report is never empty, because `StudyInput`
    refuses a study without strata.
    """

    def iterencode(self, o, _one_shot=False):
        head = '{\n  "strata": [\n    '
        for sr in o:
            yield head + _stratum_text(sr)
            head = ",\n    "
        yield "\n  ]\n}"


def report_to_json(report: tuple[StratumReport, ...]) -> dict:
    """The report's JSON document: the dict that the CLI's bytes parse to."""
    return json.loads("".join(_StratumEncoder().iterencode(report)))


def _emit_report(report: tuple[StratumReport, ...], fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(report, stream, cls=_StratumEncoder)
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


def main(argv: list[str] | None = None) -> int:
    try:
        command, options = parse_args(sys.argv[1:] if argv is None else argv)
        if options is None:
            sys.stdout.write(__doc__ or "")  # `python -OO` strips docstrings
            sys.stdout.flush()
            return EXIT_OK
        if command == "verify":
            if options["--samples"] < 1:
                raise ParseError("--samples must be at least 1")
            status, reports = command_verify(options["--samples"], options["--seed"])
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
        study = parse_input(options["--input"]) if command == "analyze" else _demo_study()
        report = analyze(study)
        _emit_report(report, options["--format"], sys.stdout)
        return EXIT_ALL_INCOMPATIBLE if all(sr.incompatible for sr in report) else EXIT_OK
    except (HarmboundsError, ValueError) as exc:
        # A message may quote the input path as given: escaped, it stays one line with no ESC.
        print(f"error: {str(exc).translate(_CONTROL_ESCAPES)}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # stdout refused the report: drop what it holds, or the interpreter's last flush
        # fails again.  A reader that stopped early (`| head`) needs no error line; a full disk does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
