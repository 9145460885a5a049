"""Parser fuzzing: arbitrary JSON documents and CSV rows through `analyze`.

Whatever the input file holds, the CLI must exit 0, 1 or 2.  Exit 1 prints
nothing on stdout and exactly one `error:` line on stderr; exits 0 and 2
print a report and nothing on stderr.  No exception may escape `main`, and
the hypothesis deadline bounds the time of every run.  For valid studies
the JSON report must be the bytes of the standard library's indented
encoding of `report_reference.report_to_json`, the tests' reference
document, and the text report must give each stratum one heading line.
A repeated key is refused, and a parameter written as a JSON number is
read from its digits.
"""

import contextlib
import csv
import io
import json
import re
import sys
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmbounds import ParseError
from harmbounds.cli import (
    EXIT_ALL_INCOMPATIBLE,
    EXIT_OK,
    EXIT_USAGE,
    analyze,
    main,
    parse_args,
)
from harmbounds.reader import _CSV_HEADER, parse_input

import argparse_reference
from report_reference import report_to_json

FUZZ = settings(max_examples=300, deadline=timedelta(seconds=2))

rational_texts = st.one_of(
    st.sampled_from(["0", "1", "1/2", "3/10", "0.7", "-1/3", "1/0", "2", "", "1e-200000", "0.5 "]),
    st.builds("{}/{}".format, st.integers(0, 12), st.integers(0, 12)),
    st.text(max_size=12),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 15),
    st.integers(),
    st.floats(),
    rational_texts,
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

# Valid studies, so that the analysis and both renderers run; a mutation
# then replaces or deletes one node of most of them.
probabilities = st.integers(1, 12).flatmap(lambda q: st.integers(0, q).map(lambda p: f"{p}/{q}"))
arm_counts = st.integers(1, 12).flatmap(
    lambda total: st.fixed_dictionaries({"events": st.integers(0, total), "total": st.just(total)})
)
count_block = st.fixed_dictionaries({"treated": arm_counts, "untreated": arm_counts})
counts_stratum = st.fixed_dictionaries({"experimental": count_block}, optional={"observational": count_block})
natural_choice = st.one_of(
    st.just({}),
    st.fixed_dictionaries({"pi1": st.just("0"), "q0": probabilities}),
    st.fixed_dictionaries({"pi1": st.just("1"), "q1": probabilities}),
    st.fixed_dictionaries({"pi1": st.sampled_from(["1/2", "3/10"]), "q1": probabilities, "q0": probabilities}),
)
parameters_stratum = st.builds(
    lambda p_do1, p_do0, p1: {"parameters": {"p_do1": p_do1, "p_do0": p_do0, **p1}},
    probabilities, probabilities, natural_choice,
)
valid_studies = st.lists(counts_stratum | parameters_stratum, min_size=1, max_size=4).map(
    lambda strata: {"strata": [{"labels": {"case": str(i)}, **s} for i, s in enumerate(strata)]}
)


def _paths(node, path=()):
    """The key path of every node of a JSON value, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


@st.composite
def mutated_studies(draw):
    study = draw(valid_studies)
    if draw(st.integers(0, 3)) == 0:
        return study
    *parents, key = draw(st.sampled_from(list(_paths(study))[1:]))
    node = study
    for step in parents:
        node = node[step]
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(rational_texts | json_values)
    return study


# A key no generated study holds; its JSON text is replaced by a repeated key.
_REPEAT = "\x00repeat\x00"


@st.composite
def repeated_key_documents(draw):
    """The text of a valid study in which one object writes one of its keys
    twice, that object's place as an error names it, and the key."""
    study = draw(valid_studies)
    *parents, key = draw(st.sampled_from([p for p in _paths(study) if p and isinstance(p[-1], str)]))
    node = study
    for step in parents:
        node = node[step]
    node[_REPEAT] = draw(json_values)
    # Every object below the top level is in a stratum: ["strata", i, *keys].
    place = f", stratum {parents[1]}" if parents else ""
    if parents[2:]:
        place += ", " + ".".join(parents[2:])
    return json.dumps(study).replace(json.dumps(_REPEAT), json.dumps(key)), place, key


json_documents = st.one_of(
    mutated_studies().map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=200),
)

csv_fields = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["", " 5 ", "sex=men", "foo", "a=b;c=d", ";", "=", '"', "1.5", "-1", "1e3"]),
    st.text(max_size=8),
)
csv_counts = st.integers(1, 12).flatmap(lambda total: st.tuples(st.integers(0, total), st.just(total)))
valid_rows = st.builds(
    lambda t, c, observed: [*map(str, t + c), *(map(str, observed) if observed else ["", "", "", ""])],
    csv_counts, csv_counts, st.none() | st.builds(lambda t, c: t + c, csv_counts, csv_counts),
)


@st.composite
def csv_documents(draw):
    strata = draw(st.lists(valid_rows, min_size=1, max_size=4))
    rows = [list(_CSV_HEADER)] + [[f"case={i}", *row] for i, row in enumerate(strata)]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        if draw(st.integers(0, 4)) == 0 and len(row) > 1:
            row.pop()
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(csv_fields)
    return _csv_text(rows) + draw(st.just("") | st.text(max_size=40))


def _csv_text(rows: list[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _analyze(path, fmt: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["analyze", "--input", str(path), "--format", fmt])
    return status, out.getvalue(), err.getvalue()


def _assert_contract(status: int, out: str, err: str) -> None:
    assert status in (EXIT_OK, EXIT_USAGE, EXIT_ALL_INCOMPATIBLE)
    if status == EXIT_USAGE:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        assert out and err == ""


@FUZZ
@given(text=json_documents, fmt=st.sampled_from(["text", "json"]))
def test_any_json_document(workdir, text, fmt):
    path = workdir / "study.json"
    path.write_text(text, encoding="utf-8")
    _assert_contract(*_analyze(path, fmt))


@FUZZ
@given(document=repeated_key_documents())
def test_a_repeated_key_is_refused(workdir, document):
    text, place, key = document
    path = workdir / "repeated.json"
    path.write_text(text, encoding="utf-8")
    assert _analyze(path, "text") == (EXIT_USAGE, "", f"error: {path}{place}: key {key!r} is repeated\n")


@FUZZ
@given(number=st.from_regex(r"-?(0|[1-9][0-9]{0,2})(\.[0-9]{1,40})?([eE][+-]?[0-9]{1,3})?", fullmatch=True))
def test_a_number_parameter_is_read_from_its_digits(workdir, number):
    """Exactly as the same text in a string: no exponent, and no rounding."""
    path = workdir / "number.json"
    path.write_text(f'{{"strata": [{{"parameters": {{"p_do1": {number}, "p_do0": "1/2"}}}}]}}')
    status, out, err = _analyze(path, "json")
    value = Fraction(number)
    if re.fullmatch(r"-?[0-9]+(\.[0-9]+)?", number) and 0 <= value <= 1:
        assert (status, err) == (EXIT_OK, "")
        assert json.loads(out)["strata"][0]["p0"]["p_do1"]["rational"] == str(value)
    else:
        _assert_contract(status, out, err)
        assert status == EXIT_USAGE and err.startswith(f"error: {path}, stratum 0, parameter 'p_do1': ")


@FUZZ
@given(text=csv_documents(), fmt=st.sampled_from(["text", "json"]))
def test_any_csv_rows(workdir, text, fmt):
    path = workdir / "study.csv"
    path.write_text(text, encoding="utf-8")
    _assert_contract(*_analyze(path, fmt))


# Fusion fails for each of these: P(Y=1|do(A=1)) lies outside
# [pi1*q1, pi1*q1 + 1 - pi1], or P(Y=1|do(A=0)) outside [(1-pi1)*q0, (1-pi1)*q0 + pi1].
incompatible_parameters = st.sampled_from([
    {"p_do1": "0", "p_do0": "1/2", "pi1": "1/2", "q1": "1", "q0": "1/2"},
    {"p_do1": "1/10", "p_do0": "1/2", "pi1": "9/10", "q1": "9/10", "q0": "1/2"},
    {"p_do1": "1/2", "p_do0": "1", "pi1": "1/2", "q1": "1/2", "q0": "0"},
]).map(lambda params: {"parameters": params})
label_texts = st.one_of(
    st.sampled_from(["", "\n", '"', "\\", "\u00e9\u4e2d\U0001f600", "a=b;c", "\x1b[31m", "\r\x85\u2028\u2029"]),
    st.text(max_size=6),
)


labeled_studies = st.lists(
    st.builds(
        lambda labels, stratum: {"labels": labels, **stratum},
        # an empty key is refused (test_cli's empty-label-key cases)
        st.dictionaries(label_texts.filter(bool), label_texts, max_size=3),
        counts_stratum | parameters_stratum | incompatible_parameters,
    ),
    min_size=1,
    max_size=5,
    # a study refuses two strata with the same label set, in whatever key order
    unique_by=lambda stratum: frozenset(stratum["labels"].items()),
).map(lambda strata: {"strata": strata})


@FUZZ
@given(study=labeled_studies)
def test_json_report_is_the_standard_encoding(workdir, study):
    path = workdir / "labeled.json"
    path.write_text(json.dumps(study), encoding="utf-8")
    status, out, err = _analyze(path, "json")
    assert status in (EXIT_OK, EXIT_ALL_INCOMPATIBLE) and err == ""
    expected = report_to_json(analyze(parse_input(str(path))))
    assert out == json.dumps(expected, indent=2) + "\n"


@FUZZ
@given(study=labeled_studies)
def test_text_report_heads_each_stratum_on_one_line(workdir, study):
    path = workdir / "labeled.json"
    path.write_text(json.dumps(study), encoding="utf-8")
    status, out, err = _analyze(path, "text")
    assert status in (EXIT_OK, EXIT_ALL_INCOMPATIBLE) and err == ""
    lines = out.splitlines()
    assert lines == out.split("\n")[:-1]
    assert sum(line.startswith("Stratum ") for line in lines) == len(study["strata"])
    assert not any(c in out for c in "\x1b\x7f")


# Command lines built from the options' names, their prefixes, values of each
# kind and argparse's special tokens, plus arbitrary text.
argv_tokens = st.one_of(
    st.sampled_from([
        "analyze", "example", "verify", "--input", "--format", "--samples", "--seed", "--in", "--form", "--s",
        "--se", "--sa", "--f", "--", "-", "-h", "--help", "--he", "-hh", "-hx", "-h=", "--help=", "-x", "--=x",
        "json", "text", "xml", "3", "-5", "-5.5", " 4 ", "1_0", "\u0663", "", "- a", "-1_0", "study.json",
    ]),
    st.builds("{}={}".format, st.sampled_from(["--input", "--in", "--format", "--fo", "--samples", "--seed", "-h"]),
              st.sampled_from(["", "json", "-2", "x", "h", "="])),
    st.text(alphabet="-=hsx1 ", max_size=5),
)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the reference messages are Python 3.11's argparse")
@FUZZ
@given(argv=st.lists(argv_tokens, max_size=7), command=st.sampled_from([[], ["analyze"], ["example"], ["verify"]]))
def test_command_line_is_read_as_argparse_reads_it(argv, command):
    """The CLI's reader gives every command line argparse's command, values
    and error message, and asks for help where argparse printed it."""
    argv = command + argv
    try:
        expected = argparse_reference.parse_args(argv)
    except ParseError as exc:
        expected = str(exc)
    try:
        got = parse_args(argv)
    except ParseError as exc:
        got = str(exc)
    assert got == expected
