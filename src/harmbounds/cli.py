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

import json
import os
import re
import sys
from collections import namedtuple
from decimal import Context
from fractions import Fraction

from . import bounds as bounds_mod
from . import propositions
from .errors import HarmboundsError, ParseError, ValidationError
from .model import ATOM_KEYS
from .reader import _CONTROL_ESCAPES, StudyInput, parse_input

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ALL_INCOMPATIBLE = 2
EXIT_COUNTEREXAMPLE = 3


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

# Rounds inexact decimals; its flags are set by every division and never read.
_SIX_DIGITS = Context(prec=6)


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


def _use_color(stream) -> bool:
    setting = os.environ.get("HARMBOUNDS_COLOR", "")
    if setting not in ("", "never"):  # unset or empty is auto; a mistyped value must not pass silently
        raise ValidationError(f"HARMBOUNDS_COLOR must be 'never', empty or unset, got {setting!r}")
    return not setting and getattr(stream, "isatty", lambda: False)()


def _fmt_value(x: Fraction) -> str:
    _, decimal, exact = _rational_fields(x)
    return decimal if exact == "true" else "~" + decimal


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
# command line, read as Python 3.11's argparse read it, without its 2 ms import

# Each command's options, in the order an ambiguous prefix lists them, with a converter
# (a tuple lists the accepted values) and a default; a required option's default is None.
_FORMATS = ("text", "json")
_COMMANDS = {
    "analyze": {"--input": (str, None), "--format": (_FORMATS, "text")},
    "example": {"--format": (_FORMATS, "text")},
    "verify": {"--samples": (int, None), "--seed": (int, 0)},
}
_HELP = ("-h", "--help")


def _read_option(token: str, names: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """How argparse reads `token` against the options `names`: None for a
    value, else the option (None when unknown) and the value written in the
    token itself, after `=` or after `-h` (None when there is none)."""
    if token[:1] != "-" or token == "-":
        return None
    if token == "--":  # ends the options, and is no value either
        return None, token
    head, eq, value = token.partition("=")
    if token in names:
        return token, None
    if eq and head in names:
        return head, value
    if token[1] == "-":
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise ParseError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[1] == "h":
        return "-h", token[2:]
    if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token:  # a negative number, or text with a space
        return None
    return None, token


def _help_asked(option: str | None, value: str | None) -> bool:
    """Whether a read option asks for help, which takes no value but more
    `h`s bundled after `-h`."""
    if option in _HELP and value is not None:
        rest = value.lstrip("h") if option == "-h" else value
        if rest or not value:
            raise ParseError(f"argument -h/--help: ignored explicit argument {rest!r}")
    return option in _HELP


def parse_args(argv: list[str]) -> tuple[str | None, dict | None]:
    """The command and its options, by name, read as argparse reads them:
    `--opt value` or `--opt=value`, any unique prefix of an option, and the
    last value of a repeated one; (None, None) when help is asked for.  A
    malformed command line raises ParseError with argparse's message."""
    extras = []
    for i, token in enumerate(argv):
        read = _read_option(token, _HELP)
        if read is None or token == "--" and i + 1 < len(argv):
            break
        if _help_asked(*read):
            return None, None
        extras.append(token)
    else:
        raise ParseError("the following arguments are required: command")
    command, rest = argv[i], argv[i + 1 :]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise ParseError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    table = _COMMANDS[command]
    # Every token is read before any value is converted, so an ambiguous prefix
    # is the first fault; after the first `--`, every token is a value.
    end = rest.index("--") + 1 if "--" in rest else len(rest)
    reads = [_read_option(token, _HELP + tuple(table)) for token in rest[:end]] + [None] * (len(rest) - end)
    options = {name: default for name, (_, default) in table.items()}
    i = 0
    while i < len(rest):
        read, i = reads[i], i + 1
        if read is None or read[0] is None:
            extras.append(rest[i - 1])
            continue
        if _help_asked(*read):
            return None, None
        name, value = read
        if value is None:
            if i == len(rest) or reads[i] is not None:
                raise ParseError(f"argument {name}: expected one argument")
            value, i = rest[i], i + 1
        convert = table[name][0]
        if type(convert) is tuple:
            if value not in convert:
                choices = ", ".join(map(repr, convert))
                raise ParseError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        else:
            try:
                value = convert(value)
            except ValueError:
                raise ParseError(f"argument {name}: invalid {convert.__name__} value: {value!r}") from None
        options[name] = value
    missing = [name for name, value in options.items() if value is None]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ParseError(f"unrecognized arguments: {' '.join(extras)}")
    return command, options


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
