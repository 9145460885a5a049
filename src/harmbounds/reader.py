"""The study reader: `parse_input` reads a JSON or CSV study file into each
stratum's labels and checked `EvidenceSet`; every fault of the file ends in
one ParseError or ValidationError that says where it is."""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import ParseError, ValidationError
from .identification import EvidenceSet
from .model import ExperimentalParams, ObservationalParams, as_prob

# Longest accepted rational parameter; longer text is refused before any arithmetic.
MAX_RATIONAL_CHARS = 100
_COUNT_LIMIT = 10**MAX_RATIONAL_CHARS  # the smallest count with too many digits
# Largest accepted study, about 200,000 strata of JSON; a longer one is an error.
MAX_INPUT_BYTES = 64 * 1024 * 1024
_READ_CHUNK = 64 * 1024
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+|/[0-9]+)?")

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


def parse_rational(text: str) -> Fraction:
    """Accepts 'p/q' and 'd[.d]' strings with an optional sign, no exponent,
    at most MAX_RATIONAL_CHARS long; both parse to exact rationals."""
    if len(text) > MAX_RATIONAL_CHARS or not _RATIONAL.fullmatch(text):
        raise ParseError(f"not a rational number: {text[:MAX_RATIONAL_CHARS]!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc

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


def _evidence(experimental: tuple, observational: tuple | None) -> EvidenceSet:
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
    return EvidenceSet(ExperimentalParams(Fraction(*experimental[0]), Fraction(*experimental[1])), p1)


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


def _evidence_from_parameters(params: object, where: str) -> EvidenceSet:
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
    return EvidenceSet(ExperimentalParams(probs["p_do1"], probs["p_do0"]), p1)


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


class _JsonConstant(_JsonNumber):
    """`NaN`, `Infinity` or `-Infinity`, not JSON numbers: its repr too is its source text."""

    __slots__ = ()
    __repr__ = _JsonNumber.__str__


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
        data = json.loads(
            text, object_pairs_hook=_json_object, parse_float=_JsonNumber, parse_constant=_JsonConstant
        )
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
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
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
