import codecs
import importlib
import io
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import tracemalloc
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import harmbounds
from harmbounds import (
    ExperimentalParams,
    JointDistribution,
    NullStratum,
    ObservationalParams,
    ParseError,
    ValidationError,
    demo_joint,
    identification,
    observables_from_joint,
    propositions,
    true_estimands,
)
from harmbounds import bounds as bounds_mod
from harmbounds import lp_oracle
from harmbounds.cli import (
    EXIT_ALL_INCOMPATIBLE,
    EXIT_COUNTEREXAMPLE,
    EXIT_OK,
    EXIT_USAGE,
    MAX_INPUT_BYTES,
    MAX_RATIONAL_CHARS,
    StratumInput,
    StudyInput,
    _StratumEncoder,
    _counterexample_json,
    _demo_study,
    _emit_report,
    analyze,
    decimal_str,
    main,
    parse_input,
    parse_rational,
    render_text,
    report_to_json,
)

F = Fraction
GOLDEN = Path(__file__).parent / "data" / "golden"
CORPUS = GOLDEN / "corpus_study.json"
CSV_HEADER = (
    "labels,exp_t_events,exp_t_total,exp_c_events,exp_c_total,"
    "obs_t_events,obs_t_total,obs_c_events,obs_c_total\n"
)

DEMO_COUNTS = {
    "strata": [
        {
            "labels": {"sex": "men"},
            "experimental": {
                "treated": {"events": 51, "total": 100},
                "untreated": {"events": 79, "total": 100},
            },
            "observational": {
                "treated": {"events": 21, "total": 70},
                "untreated": {"events": 9, "total": 30},
            },
        }
    ]
}


# The demo stratum, and the same stratum as identified parameters.
DEMO_STRATUM = DEMO_COUNTS["strata"][0]
DEMO_PARAMETERS = {"p_do1": "51/100", "p_do0": "79/100", "pi1": "7/10", "q1": "3/10", "q0": "3/10"}


# The evidence of the JSON writer's cases: the demo stratum; an empty
# natural-choice treated arm (q1 undefined, one cross risk); sources that
# break both fusion inequalities; and experimental data alone, with a
# 100-digit risk and one that renders as an inexact decimal.
WRITER_EVIDENCE = {
    "demo": bounds_mod.EvidenceSet(
        ExperimentalParams(F(51, 100), F(79, 100)), ObservationalParams(F(7, 10), F(3, 10), F(3, 10))
    ),
    "empty-arm": bounds_mod.EvidenceSet(
        ExperimentalParams(F(51, 100), F(3, 10)), ObservationalParams(F(0), None, F(3, 10))
    ),
    "incompatible": bounds_mod.EvidenceSet(
        ExperimentalParams(F(1, 10), F(9, 10)), ObservationalParams(F(1, 2), F(1, 2), F(1, 2))
    ),
    "experimental-only": bounds_mod.EvidenceSet(ExperimentalParams(F(10**99 - 7, 10**99), F(1, 3 * 10**13))),
}


# Compatible with an empty natural-choice treated arm: everyone is in A*=0,
# so P(Y=1|do(A=0)) must equal the observed risk 9/30.
EMPTY_ARM_COUNTS = {
    "strata": [
        {
            "labels": {"sex": "men"},
            "experimental": {
                "treated": {"events": 51, "total": 100},
                "untreated": {"events": 30, "total": 100},
            },
            "observational": {
                "treated": {"events": 21, "total": 70},
                "untreated": {"events": 9, "total": 30},
            },
        }
    ]
}


def write_json(tmp_path, payload, name="study.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def src_env():
    """The environment of a child interpreter that imports this checkout's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


class TestRationalRendering:
    @pytest.mark.parametrize(
        "value,expected,exact",
        [
            (F(21, 100), "0.21", True),
            (F(-7, 25), "-0.28", True),
            (F(0), "0", True),
            (F(1), "1", True),
            (F(-1), "-1", True),
            (F(7, 10), "0.7", True),
            (F(1, 3), "0.333333", False),
            (F(1, 7), "0.142857", False),
            (F(123456789, 1000), "123456.789", True),
            (F(-1, 10**12), "-0.000000000001", True),
            (F(1, 2**12), "0.000244140625", True),
            (F(1, 2**13), "0.000122070", False),
            (F(1, 10**13), "1E-13", False),
        ],
    )
    def test_decimal_str(self, value, expected, exact):
        assert decimal_str(value) == (expected, exact)

    @pytest.mark.parametrize("text", ["21/100", "-7/25", "0.51", "0", "1"])
    def test_rational_round_trip(self, text):
        value = parse_rational(text)
        assert parse_rational(str(value)) == value

    def test_bad_rational(self):
        with pytest.raises(ParseError):
            parse_rational("one half")

    @pytest.mark.parametrize(
        "text",
        ["1e-3", "1E5", ".5", "5.", "1_000", " 0.5", "0.5\n", "1/0", "1/-2", "\u0665", "inf", "nan",
         "0." + "1" * (MAX_RATIONAL_CHARS - 1)],
    )
    def test_rational_grammar_refuses(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text,value",
        [
            ("+1/2", F(1, 2)),
            ("-0.25", F(-1, 4)),
            ("007", F(7)),
            ("0." + "5" * (MAX_RATIONAL_CHARS - 2), F("0." + "5" * (MAX_RATIONAL_CHARS - 2))),
        ],
    )
    def test_rational_grammar_accepts(self, text, value):
        assert parse_rational(text) == value


class TestParseInput:
    def test_demo_counts(self, tmp_path):
        study = parse_input(write_json(tmp_path, DEMO_COUNTS))
        evidence = study.strata[0].evidence
        assert (evidence.p0.p_do1, evidence.p0.p_do0) == (F(51, 100), F(79, 100))
        assert (evidence.p1.pi1, evidence.p1.q1, evidence.p1.q0) == (
            F(7, 10),
            F(3, 10),
            F(3, 10),
        )

    def test_events_exceed_total_names_cell(self, tmp_path):
        payload = json.loads(json.dumps(DEMO_COUNTS))
        payload["strata"][0]["experimental"]["treated"]["events"] = 105
        with pytest.raises(ValidationError, match="experimental.treated"):
            parse_input(write_json(tmp_path, payload))

    def test_zero_total_rejected(self, tmp_path):
        """An experimental arm needs patients; only a natural-choice arm may be empty."""
        payload = json.loads(json.dumps(DEMO_COUNTS))
        payload["strata"][0]["experimental"]["untreated"] = {"events": 0, "total": 0}
        with pytest.raises(ValidationError, match="experimental.untreated: total must be positive"):
            parse_input(write_json(tmp_path, payload))

    def test_missing_observational_block(self, tmp_path):
        payload = json.loads(json.dumps(DEMO_COUNTS))
        del payload["strata"][0]["observational"]
        study = parse_input(write_json(tmp_path, payload))
        assert study.strata[0].evidence.p1 is None

    def test_parameters_variant(self, tmp_path):
        payload = {
            "strata": [
                {
                    "labels": {"sex": "men"},
                    "parameters": {
                        "p_do1": "0.51",
                        "p_do0": "79/100",
                        "pi1": "0.7",
                        "q1": "0.3",
                        "q0": "0.3",
                    },
                }
            ]
        }
        study = parse_input(write_json(tmp_path, payload))
        assert study.strata[0].evidence.p0.p_do1 == F(51, 100)
        assert study.strata[0].evidence.p1.pi1 == F(7, 10)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="line"):
            parse_input(str(path))

    def test_duplicate_labels(self, tmp_path):
        payload = {"strata": [DEMO_COUNTS["strata"][0], DEMO_COUNTS["strata"][0]]}
        with pytest.raises(ValidationError, match="duplicate stratum label 'sex=men'"):
            parse_input(write_json(tmp_path, payload))

    def test_labels_that_join_to_the_same_name_are_two_strata(self, tmp_path):
        payload = {
            "strata": [
                {**DEMO_STRATUM, "labels": {"a": "1;b=2"}},
                {**DEMO_STRATUM, "labels": {"a": "1", "b": "2"}},
            ]
        }
        study = parse_input(write_json(tmp_path, payload))
        assert [s.labels for s in study.strata] == [(("a", "1;b=2"),), (("a", "1"), ("b", "2"))]

    def test_labels_that_join_to_the_same_name_get_two_headings(self, tmp_path):
        """`;`, `=` and `\\` inside a key or value are escaped in the name."""
        labels = [{"a": "1;b=2"}, {"a": "1", "b": "2"}, {"a\\": "="}]
        payload = {"strata": [{**DEMO_STRATUM, "labels": pairs} for pairs in labels]}
        text = render_text(analyze(parse_input(write_json(tmp_path, payload))))
        headings = [line for line in text.splitlines() if line.startswith("Stratum ")]
        assert headings == ["Stratum a=1\\;b\\=2", "Stratum a=1;b=2", "Stratum a\\\\=\\="]

    def test_control_characters_in_labels_are_escaped(self, tmp_path):
        """A line break in a label used to start a forged heading line, and an
        ESC byte reached the terminal."""
        labels = [
            {"a": "1\nStratum b=2"},
            {"a": "\x1b[31m"},
            {"\x00\x7f": "\x85\u2028\u2029\\x0a"},
        ]
        payload = {"strata": [{**DEMO_STRATUM, "labels": pairs} for pairs in labels]}
        text = render_text(analyze(parse_input(write_json(tmp_path, payload))))
        headings = [line for line in text.splitlines() if line.startswith("Stratum ")]
        assert headings == [
            "Stratum a=1\\x0aStratum b\\=2",
            "Stratum a=\\x1b[31m",
            "Stratum \\x00\\x7f=\\x85\\u2028\\u2029\\\\x0a",
        ]
        assert not any(c in text for c in "\x00\x1b\x7f\x85\u2028\u2029")

    def test_c1_and_bidirectional_controls_in_labels_are_escaped(self, tmp_path, capsys, monkeypatch):
        """U+009B (CSI) starts a control sequence on terminals that honour
        8-bit C1, and U+202E reorders how the rest of the heading displays."""
        monkeypatch.setenv("HARMBOUNDS_COLOR", "never")
        payload = {"strata": [{**DEMO_STRATUM, "labels": {"a": "x\u009b31my\u202eevil"}}]}
        assert main(["analyze", "--input", write_json(tmp_path, payload), "--format", "text"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "Stratum a=x\\x9b31my\\u202eevil\n" in text
        controls = [*range(0x80, 0xA0), *range(0x202A, 0x202F), *range(0x2066, 0x206A)]
        assert not any(chr(c) in text for c in controls)

    def test_lone_surrogate_in_a_label_is_escaped(self, tmp_path, monkeypatch):
        """`"\\ud800"` is valid JSON but no UTF-8 stream takes the lone
        surrogate it decodes to, so the text heading writes it as `\\ud800`,
        apart from a label that spells out that backslash sequence."""
        monkeypatch.setenv("HARMBOUNDS_COLOR", "never")
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", newline="\n"))
        payload = {"strata": [{**DEMO_STRATUM, "labels": {"a": "\ud800", "b": "\\udfff"}}]}
        assert main(["analyze", "--input", write_json(tmp_path, payload), "--format", "text"]) == EXIT_OK
        sys.stdout.flush()
        assert "Stratum a=\\ud800;b=\\\\udfff\n" in raw.getvalue().decode("utf-8")

    def test_csv_round(self, tmp_path):
        path = tmp_path / "study.csv"
        path.write_text(
            "labels,exp_t_events,exp_t_total,exp_c_events,exp_c_total,"
            "obs_t_events,obs_t_total,obs_c_events,obs_c_total\n"
            "sex=men,51,100,79,100,21,70,9,30\n"
            "sex=women,10,100,10,100,,,,\n"
        )
        study = parse_input(str(path))
        assert len(study.strata) == 2
        assert study.strata[0].evidence.p1.pi1 == F(7, 10)
        assert study.strata[1].evidence.p1 is None

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "study.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError, match="header"):
            parse_input(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError, match="no such file"):
            parse_input("/nonexistent/study.json")


class TestAnalyze:
    def test_demo_reproduces_published_table(self, tmp_path):
        study = parse_input(write_json(tmp_path, DEMO_COUNTS))
        (sr,) = analyze(study)
        p0_only, fused = sr.p0_only.bounds, sr.fused.bounds
        assert p0_only["harm"].lower == 0
        assert fused["harm"].lower == F(21, 100)
        assert p0_only["ate"].lower == F(-7, 25)
        assert fused["ate"].lower == F(-7, 25)
        assert p0_only["cate1"].lower == -1
        assert fused["cate1"].lower == F(-7, 10)
        assert p0_only["cate0"].lower == -1
        assert fused["cate0"].lower == F(7, 10)
        for level in (sr.p0_only, sr.fused):
            assert [v.school for v in level.verdicts] == ["interventionist", "counterfactual"]
        assert not any(v.detected for v in sr.p0_only.verdicts)
        assert all(v.detected for v in sr.fused.verdicts)

    def test_positive_marginal_effect_detected_at_p0_level(self, tmp_path):
        payload = {
            "strata": [
                {
                    "labels": {"arm": "only"},
                    "experimental": {
                        "treated": {"events": 60, "total": 100},
                        "untreated": {"events": 40, "total": 100},
                    },
                }
            ]
        }
        (sr,) = analyze(parse_input(write_json(tmp_path, payload)))
        assert all(v.detected for v in sr.p0_only.verdicts)

    def test_incompatible_stratum_flagged_others_analyzed(self, tmp_path, capsys):
        payload = {
            "strata": [
                {
                    "labels": {"sex": "men"},
                    "parameters": {
                        "p_do1": "0.1",
                        "p_do0": "0.5",
                        "pi1": "0.9",
                        "q1": "0.9",
                        "q0": "0.5",
                    },
                },
                DEMO_COUNTS["strata"][0] | {"labels": {"sex": "women"}},
            ]
        }
        path = write_json(tmp_path, payload)
        report = analyze(parse_input(path))
        assert report[0].incompatible
        assert report[0].fused is None
        assert not report[1].incompatible
        assert report[1].fused is not None
        assert main(["analyze", "--input", path]) == EXIT_OK
        capsys.readouterr()


class TestJsonReport:
    def test_rational_fields(self):
        report = report_to_json(analyze(_demo_study()))
        sr = report["strata"][0]
        assert sr["bounds"]["fused"]["harm"]["lower"]["rational"] == "21/100"
        assert sr["bounds"]["fused"]["ate"]["lower"]["rational"] == "-7/25"
        assert sr["bounds"]["fused"]["cate1"]["lower"]["rational"] == "-7/10"
        assert sr["bounds"]["fused"]["cate0"]["lower"]["rational"] == "7/10"

    def test_round_trip_preserves_rationals(self):
        report = report_to_json(analyze(_demo_study()))
        blob = json.loads(json.dumps(report))

        def walk(node):
            if isinstance(node, dict):
                if set(node) == {"rational", "decimal", "exact"}:
                    value = parse_rational(node["rational"])
                    if node["exact"]:
                        assert parse_rational(node["decimal"]) == value
                    yield value
                else:
                    for child in node.values():
                        yield from walk(child)
            elif isinstance(node, list):
                for child in node:
                    yield from walk(child)

        values = list(walk(blob))
        assert F(21, 100) in values and F(-7, 25) in values

    def test_text_and_json_agree_numerically(self, capsys):
        assert main(["example"]) == EXIT_OK
        text = capsys.readouterr().out
        report = report_to_json(analyze(_demo_study()))
        fused = report["strata"][0]["bounds"]["fused"]
        for key in ("harm", "benefit", "ate", "cate0", "cate1"):
            assert fused[key]["lower"]["decimal"] in text

    @pytest.mark.parametrize(
        "strata",
        [
            [({}, "demo"), ({"sex": "men"}, "experimental-only")],
            [
                (
                    {
                        'a "quoted" \\ key': 'line\nbreak\ttab\r\x00\x1f\x7f "quote" \\',
                        "caf\u00e9 \u4e2d": "\u00e9\u4e2d\U0001f600 \u2028\u2029 \ud800",
                        "\U0001f600\n": "astral",
                        "\udfff": "",
                    },
                    "demo",
                ),
                ({"\x00": "\\"}, "incompatible"),
            ],
            [({"arm": "empty"}, "empty-arm")],
            [({"sources": "apart"}, "incompatible")],
            [({"risks": "long"}, "experimental-only")],
        ],
        ids=["unlabeled-stratum", "escapes", "empty-arm", "incompatible", "experimental-only"],
    )
    def test_emitter_is_the_standard_indented_encoding(self, strata):
        """The writer's text is `json.dumps(..., indent=2)` of `report_to_json`,
        the reference built from the same records."""
        study = StudyInput(
            tuple(StratumInput(tuple(labels.items()), WRITER_EVIDENCE[name]) for labels, name in strata)
        )
        report = analyze(study)
        expected = json.dumps(report_to_json(report), indent=2)
        assert "".join(_StratumEncoder(indent=2).iterencode(report)) == expected
        stream = io.StringIO()
        _emit_report(report, "json", stream)
        assert stream.getvalue() == expected + "\n"

    def test_emitter_cases_reach_every_shape(self):
        """The evidence of the cases above is what their names say."""
        empty_arm, apart, alone = (
            WRITER_EVIDENCE[name] for name in ("empty-arm", "incompatible", "experimental-only")
        )
        assert empty_arm.p1.q1 is None and list(empty_arm.fusion.derived_cross_risks) == [0]
        assert len(apart.fusion.violations) == 2 and propositions.evidence_levels(apart)[1] is None
        p0_only, fused = propositions.evidence_levels(alone)
        assert fused is None and all(verdict.detected for verdict in p0_only.verdicts)
        assert not decimal_str(alone.p0.p_do0)[1]


class TestMain:
    def test_example_is_deterministic(self, capsys, monkeypatch):
        monkeypatch.setenv("HARMBOUNDS_COLOR", "never")
        assert main(["example"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["example"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert "[0.21, 0.21]" in first
        assert "Yes" in first and "No" in first

    def test_color_bolds_the_fused_cells_with_a_positive_lower_bound(self):
        """Only the fused column is ever bold, and only where harm or an ATE
        is bounded away from 0; color adds the escapes and nothing else."""
        report = analyze(_demo_study())
        text = render_text(report, color=True)
        assert text.replace("\x1b[1m", "").replace("\x1b[0m", "") == render_text(report)
        bold = [line for line in text.splitlines() if "\x1b[" in line]
        assert [line[4:26].rstrip() for line in bold] == ["P(harm)", "ATE | A*=0", "P(harm | A*=0)"]
        for line in bold:
            assert line.count("\x1b[1m") == 1 and line.endswith("\x1b[0m")

    def test_analyze_matches_example(self, capsys, tmp_path):
        assert main(["analyze", "--input", write_json(tmp_path, DEMO_COUNTS)]) == EXIT_OK
        analyzed = capsys.readouterr().out
        assert main(["example"]) == EXIT_OK
        assert analyzed == capsys.readouterr().out

    def test_analyze_json_format(self, capsys, tmp_path):
        path = write_json(tmp_path, DEMO_COUNTS)
        assert main(["analyze", "--input", path, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["strata"][0]["verdicts"]["fused"]["counterfactual"]["detected"]

    def test_all_incompatible_exit_code(self, capsys, tmp_path):
        payload = {
            "strata": [
                {
                    "labels": {"sex": "men"},
                    "parameters": {
                        "p_do1": "0.1",
                        "p_do0": "0.5",
                        "pi1": "0.9",
                        "q1": "0.9",
                        "q0": "0.5",
                    },
                }
            ]
        }
        path = write_json(tmp_path, payload)
        assert main(["analyze", "--input", path]) == EXIT_ALL_INCOMPATIBLE
        assert "INCOMPATIBLE" in capsys.readouterr().out

    def test_usage_errors(self, capsys, tmp_path):
        assert main(["analyze", "--input", "/missing.json"]) == EXIT_USAGE
        assert main(["analyze", "--input", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {tmp_path}: cannot read: Is a directory"
        assert main(["verify", "--samples", "0"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE

    def test_unreadable_file_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        """A read that fails (as on /proc/self/mem) ends in one error line, not a traceback."""

        def failing_open(*_args, **_kwargs):
            raise OSError(5, "Input/output error")

        path = write_json(tmp_path, DEMO_COUNTS)
        monkeypatch.setattr("harmbounds.cli.open", failing_open, raising=False)
        assert main(["analyze", "--input", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: cannot read: Input/output error\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_piped_study_is_read(self):
        """A study piped to `--input /dev/stdin` is read as JSON, as its file would be."""
        study = Path(__file__).resolve().parents[1] / "src" / "harmbounds" / "data" / "example_study.json"
        result = subprocess.run(
            [sys.executable, "-m", "harmbounds.cli", "analyze", "--input", "/dev/stdin", "--format", "json"],
            env=src_env(), input=study.read_bytes(), capture_output=True, timeout=60,
        )
        assert (result.returncode, result.stderr) == (EXIT_OK, b"")
        assert result.stdout == (GOLDEN / "example.json").read_bytes()

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("no\nerror: such", None, "no such file: {}"),
            ("esc\x1b[2J.json", "{", "{}: invalid JSON at line 1: Expecting property name enclosed in double quotes"),
        ],
        ids=["newline", "esc"],
    )
    def test_control_characters_of_a_path_are_written_out(self, name, text, message, capsys, tmp_path):
        """A path reaches stderr with its control characters escaped, so it
        cannot forge a second error line or send an escape sequence."""
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        escaped = str(path).replace("\n", "\\x0a").replace("\x1b", "\\x1b")
        assert capsys.readouterr().err == "error: " + message.format(escaped) + "\n"

    def test_any_library_error_is_one_error_line(self, capsys, monkeypatch):
        """An error the library raises past the parser ends in one line and exit 1."""

        def null_stratum(study):
            raise NullStratum("P(A*=1) = 0")

        monkeypatch.setattr("harmbounds.cli.analyze", null_stratum)
        assert main(["example"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: P(A*=1) = 0\n"

    @pytest.mark.parametrize(
        "argv", [["example", "--format", "json"], ["verify", "--samples", "20"]], ids=["example", "verify"]
    )
    def test_closed_stdout_exits_1_without_traceback(self, argv):
        """A reader that stops early (`| head -c 1`) must not cost a traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "harmbounds.cli", *argv],
                env=src_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == EXIT_USAGE
        assert result.stderr == ""  # no traceback, no "Exception ignored" line

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv", [["example", "--format", "json"], ["verify", "--samples", "3"]], ids=["example", "verify"]
    )
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_full_stdout_is_one_error_line(self, argv, unbuffered):
        """A write that fails (a full disk) ends in one error line and exit 1,
        with stdout buffered or not, and no "Exception ignored" line."""
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "harmbounds.cli", *argv],
                env=dict(src_env(), PYTHONUNBUFFERED=unbuffered),
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert result.returncode == EXIT_USAGE
        assert [line.split(":")[:2] for line in result.stderr.splitlines()] == [["error", " cannot write output"]]

    def test_verify_small_run(self, capsys):
        assert main(["verify", "--samples", "30", "--seed", "42"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("P1", "P2", "P3", "P4"):
            assert f"proposition {name}" in out

    def test_verify_prints_reproducible_counterexamples(self, capsys, monkeypatch):
        """A broken bound makes `verify` exit 3 and print, after the
        proposition lines, a JSON list whose atoms rebuild each offending joint."""
        _break_fused_harm_bounds(monkeypatch)
        expected = {r.proposition: r for r in propositions.run_harness(10, 7) if r.counterexamples}
        assert expected
        assert main(["verify", "--samples", "10", "--seed", "7"]) == EXIT_COUNTEREXAMPLE
        out = capsys.readouterr().out
        head, _, tail = out.partition("[")
        assert [line.split(":")[0] for line in head.splitlines()] == [
            f"proposition {name}" for name in ("P1", "P2", "P3", "P4")
        ]
        dumped = json.loads("[" + tail)
        assert [entry["proposition"] for entry in dumped] == list(expected)
        for entry in dumped:
            rebuilt = [
                JointDistribution.from_mapping(
                    {tuple(map(int, key.split("/"))): parse_rational(p) for key, p in ce["atoms"].items()}
                )
                for ce in entry["counterexamples"]
            ]
            report = expected[entry["proposition"]]
            assert rebuilt == [joint for joint, _ in report.counterexamples]
            assert entry["instances_checked"] == report.instances_checked

    def test_verify_writes_the_counterexamples_at_once(self, monkeypatch):
        """The counterexample list is the standard indented encoding, written
        in one write instead of one per token."""
        _break_fused_harm_bounds(monkeypatch)
        reports = propositions.run_harness(10, 7)
        expected = [_counterexample_json(r) for r in reports if r.counterexamples]
        stream = _CountingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["verify", "--samples", "10", "--seed", "7"]) == EXIT_COUNTEREXAMPLE
        head, _, tail = stream.getvalue().partition("[")
        assert "[" + tail == json.dumps(expected, indent=2) + "\n"
        # `print` writes each proposition line and its newline apart
        assert len(head.splitlines()) == len(reports) and stream.writes == 2 * len(reports) + 1


def _break_fused_harm_bounds(monkeypatch):
    """Make the fused harm bound ignore the natural-choice data, so that
    `verify` finds counterexamples."""
    harm_bounds = bounds_mod.harm_bounds

    def broken_harm_bounds(evidence):
        if evidence.p1 is not None:
            return bounds_mod.Interval(0, 1)
        return harm_bounds(evidence)

    monkeypatch.setattr(bounds_mod, "harm_bounds", broken_harm_bounds)


def _with(path, value):
    """DEMO_COUNTS with the entry at `path` (a key sequence) set to `value`."""
    payload = json.loads(json.dumps(DEMO_COUNTS))
    node = payload["strata"][0]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


def _without_untreated():
    payload = json.loads(json.dumps(DEMO_COUNTS))
    del payload["strata"][0]["experimental"]["untreated"]
    return payload


class TestInputLimit:
    """A study is read to at most `MAX_INPUT_BYTES` + 1 bytes; a longer one
    ends in one `error:` line and exit code 1, however it arrives."""

    def test_file_at_the_limit_is_read_and_one_byte_longer_is_refused(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, DEMO_COUNTS)
        size = os.path.getsize(path)
        monkeypatch.setattr("harmbounds.cli.MAX_INPUT_BYTES", size)
        assert main(["analyze", "--input", path]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr("harmbounds.cli.MAX_INPUT_BYTES", size - 1)
        assert main(["analyze", "--input", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: input is larger than {size - 1} bytes\n"

    def test_small_study_is_read_without_a_buffer_the_size_of_the_limit(self, tmp_path):
        path = write_json(tmp_path, DEMO_COUNTS)
        tracemalloc.start()
        try:
            parse_input(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 < MAX_INPUT_BYTES

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("ended", [True, False], ids=["pipe", "endless-pipe"])
    def test_pipe_over_the_limit_is_refused(self, ended, capsys, monkeypatch):
        """A pipe is refused once it has given one byte over the limit, before
        its writer has finished too: the read does not wait for its end."""
        monkeypatch.setattr("harmbounds.cli.MAX_INPUT_BYTES", 100)
        read_end, write_end = os.pipe()
        path = f"/dev/fd/{read_end}"
        try:
            os.write(write_end, b"{" * 1000)
            if ended:
                os.close(write_end)
            assert main(["analyze", "--input", path]) == EXIT_USAGE
        finally:
            os.close(read_end)
            if not ended:
                os.close(write_end)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: input is larger than 100 bytes\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_device_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr("harmbounds.cli.MAX_INPUT_BYTES", 1000)
        assert main(["analyze", "--input", "/dev/zero"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: /dev/zero: input is larger than 1000 bytes\n"


class TestInputBoundary:
    """Malformed counts end in one `error:` line and exit code 1, never a
    silently coerced number or a traceback."""

    @pytest.mark.parametrize(
        "payload",
        [
            _with(("experimental", "treated", "events"), 51.9),
            _with(("experimental", "treated", "events"), 51.0),
            _with(("experimental", "treated", "events"), True),
            _with(("observational", "untreated", "total"), "30"),
            _with(("observational", "treated"), None),
            _with(("parameters",), 7),
            _without_untreated(),
            {"strata": [7]},
        ],
        ids=[
            "fractional-events",
            "float-events",
            "bool-events",
            "string-total",
            "null-arm",
            "non-object-parameters",
            "missing-untreated",
            "non-object-stratum",
        ],
    )
    def test_json_rejected(self, payload, tmp_path, capsys):
        assert main(["analyze", "--input", write_json(tmp_path, payload)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("field", ["51.9", "true", "-5", "5e1", "\u0665"])
    def test_csv_count_must_be_digits(self, field, tmp_path, capsys):
        path = tmp_path / "study.csv"
        path.write_text(
            "labels,exp_t_events,exp_t_total,exp_c_events,exp_c_total,"
            "obs_t_events,obs_t_total,obs_c_events,obs_c_total\n"
            f"sex=men,{field},100,79,100,21,70,9,30\n",
            encoding="utf-8",
        )
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exp_t_events" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "name,text",
        [
            ("deep.json", '{"strata": ' + "[" * 100_000 + "]" * 100_000 + "}"),
            ("long-field.csv", CSV_HEADER + "sex=" + "x" * 131_073 + ",51,100,79,100,,,,\n"),
            ("huge-exponent.json", '{"strata": [{"parameters": {"p_do1": "1e-99999999", "p_do0": "1/2"}}]}'),
            ("long-exponent.json", '{"strata": [{"parameters": {"p_do1": "1e-200000", "p_do0": "1/2"}}]}'),
        ],
        ids=["deep-json", "long-csv-field", "huge-exponent", "long-exponent"],
    )
    def test_ends_quickly_in_one_error_line(self, name, text, tmp_path):
        """Run in a child process, so a hang fails the test instead of stalling the suite."""
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "harmbounds.cli", "analyze", "--input", str(path)],
            env=src_env(), capture_output=True, text=True, timeout=5,
        )
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_bad_parameter_names_file_stratum_and_parameter(self, tmp_path, capsys):
        payload = {"strata": [{"parameters": {"p_do1": "1e-200000", "p_do0": "1/2"}}]}
        path = write_json(tmp_path, payload)
        assert main(["analyze", "--input", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}, stratum 0, parameter 'p_do1': ")

    @pytest.mark.parametrize(
        "stratum,key",
        [
            (
                {"experimental": DEMO_STRATUM["experimental"], "observatonal": DEMO_STRATUM["observational"]},
                "unknown key 'observatonal'",
            ),
            ({"parameters": DEMO_PARAMETERS | {"note": "men"}}, "unknown parameter 'note'"),
            (
                {"parameters": {"p_do1": "51/100", "p_do0": "79/100", "pi_1": "7/10", "q1": "3/10"}},
                "unknown parameter 'pi_1'",
            ),
            ({"parameters": {"p_do1": "51/100", "p_do0": "79/100", "q1": "3/10"}}, "'q1' needs 'pi1'"),
            ({"parameters": {"p_do1": "51/100", "p_do0": "79/100", "q0": "3/10"}}, "'q0' needs 'pi1'"),
            (DEMO_STRATUM | {"parameters": DEMO_PARAMETERS}, "'experimental' cannot"),
            (
                {"parameters": DEMO_PARAMETERS, "observational": DEMO_STRATUM["observational"]},
                "'observational' cannot",
            ),
        ],
        ids=[
            "misspelled-observational",
            "unknown-parameter",
            "misspelled-pi1",
            "q1-without-pi1",
            "q0-without-pi1",
            "parameters-and-experimental",
            "parameters-and-observational",
        ],
    )
    def test_ignored_keys_are_refused(self, stratum, key, tmp_path, capsys):
        """Each of these strata used to be analyzed with a key silently dropped."""
        path = write_json(tmp_path, {"strata": [stratum]})
        assert main(["analyze", "--input", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}, stratum 0: ") and key in captured.err

    @pytest.mark.parametrize(
        "payload,where,message",
        [
            (
                {
                    "strata": [
                        {
                            "experimental": {
                                "treated": {"events": 1, "total": 2, "evnts": 7},
                                "untreated": {"events": 1, "total": 2},
                                "untretaed": {"events": 0, "total": 5},
                            }
                        }
                    ],
                    "strta": [],
                },
                "",
                "unknown key 'strta'",
            ),
            (DEMO_COUNTS | {"note": "men"}, "", "unknown key 'note'"),
            (
                _with(("experimental", "untretaed"), {"events": 0, "total": 5}),
                ", stratum 0, experimental",
                "unknown arm 'untretaed'",
            ),
            (
                _with(("observational", "control"), {"events": 9, "total": 30}),
                ", stratum 0, observational",
                "unknown arm 'control'",
            ),
            (
                _with(("experimental", "treated", "evnts"), 7),
                ", stratum 0, experimental.treated",
                "unknown key 'evnts'",
            ),
            (
                _with(("observational", "untreated", "rate"), "3/10"),
                ", stratum 0, observational.untreated",
                "unknown key 'rate'",
            ),
        ],
        ids=[
            "every-level-misspelled",
            "unknown-top-level-key",
            "misspelled-experimental-arm",
            "unknown-observational-arm",
            "misspelled-events",
            "unknown-count-key",
        ],
    )
    def test_unknown_count_block_keys_are_refused(self, payload, where, message, tmp_path, capsys):
        """Each of these files used to be analyzed with a key silently dropped."""
        path = write_json(tmp_path, payload)
        assert main(["analyze", "--input", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}{where}: {message}\n"

    @pytest.mark.parametrize(
        "value", [{"b": 1}, None, True, 7, ["men"]], ids=["object", "null", "bool", "number", "array"]
    )
    def test_label_value_must_be_a_string(self, value, tmp_path, capsys):
        path = write_json(tmp_path, _with(("labels",), {"sex": "men", "site": value}))
        assert main(["analyze", "--input", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}, stratum 0: labels must be")
        assert "'site'" in captured.err

    def test_json_empty_label_key_is_refused(self, tmp_path, capsys):
        """`{"": "men"}` used to give a stratum named `=men`."""
        path = write_json(tmp_path, _with(("labels",), {"": "men"}))
        assert main(["analyze", "--input", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}, stratum 0: a label key is empty\n"

    @pytest.mark.parametrize(
        "text,where,key",
        [
            (
                '{"strata": [{"experimental": {"treated": {"events": 5, "total": 10, "events": 9}, '
                '"untreated": {"events": 1, "total": 10}}}]}',
                ", stratum 0, experimental.treated",
                "events",
            ),
            (
                '{"strata": [{"labels": {"a": "1", "a": "2"}, "parameters": {"p_do1": "1/2", "p_do0": "1/2"}}]}',
                ", stratum 0, labels",
                "a",
            ),
            (
                '{"strata": [{"parameters": {"p_do1": "1/2", "p_do0": "1/2", "p_do1": "1/3"}}]}',
                ", stratum 0, parameters",
                "p_do1",
            ),
            (
                '{"strata": [], "strata": [{"parameters": {"p_do1": "1/2", "p_do0": "1/2"}}]}',
                "",
                "strata",
            ),
            (
                '{"strata": [{"parameters": {"p_do1": "1/2", "p_do0": "1/2"}}, '
                '{"parameters": {"p_do1": "1/2", "p_do0": "1/2"}, "parameters": {"p_do1": "1/3", "p_do0": "1/2"}}]}',
                ", stratum 1",
                "parameters",
            ),
            (
                '{"strata": [{"experimental": {"treated": {"events": 5, "total": 10}, '
                '"untreated": {"events": 1, "total": 10}, "treated": {"events": 9, "total": 10}}}]}',
                ", stratum 0, experimental",
                "treated",
            ),
        ],
        ids=["count", "label", "parameter", "top-level", "stratum", "arm"],
    )
    def test_json_repeated_key_is_refused(self, text, where, key, tmp_path, capsys):
        """The last of the repeated keys used to win: 5/10 was analyzed as 9/10.
        The error names the object's place, as every other input error does."""
        path = tmp_path / "study.json"
        path.write_text(text)
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}{where}: key {key!r} is repeated\n"

    def test_json_repeated_key_names_the_first_object_read(self, tmp_path, capsys):
        """An inner object is read before the one around it; a repeat that a
        second read cannot reach, past a syntax error, is named without a place."""
        path = tmp_path / "study.json"
        path.write_text('{"strata": [{"labels": {"a": "1", "a": "2"}, "labels": {}}]}')
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}, stratum 0, labels: key 'a' is repeated\n"
        path.write_text('{"strata": [{"labels": {"a": "1", "a": "2"}}], ')
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: key 'a' is repeated\n"

    def test_json_number_parameter_is_read_from_its_digits(self, tmp_path, capsys):
        """A number with more digits than a float holds used to be rounded
        through one: 0.12345678901234567890123 became 1543209862654321/12500000000000000."""
        path = tmp_path / "study.json"
        path.write_text('{"strata": [{"parameters": {"p_do1": 0.12345678901234567890123, "p_do0": 0.5}}]}')
        assert main(["analyze", "--input", str(path), "--format", "json"]) == EXIT_OK
        p0 = json.loads(capsys.readouterr().out)["strata"][0]["p0"]
        assert p0["p_do1"]["rational"] == "12345678901234567890123/100000000000000000000000"
        assert p0["p_do0"]["rational"] == "1/2"

    @pytest.mark.parametrize("number", ["1e-3", "5E-1", "0.5e0"])
    def test_json_number_parameter_with_an_exponent_is_refused(self, number, tmp_path, capsys):
        """As the string "1e-3" is; the number used to be read as the float 0.001."""
        path = tmp_path / "study.json"
        path.write_text(f'{{"strata": [{{"parameters": {{"p_do1": {number}, "p_do0": "1/2"}}}}]}}')
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}, stratum 0, parameter 'p_do1': not a rational number: {number!r}\n"
        )

    def test_json_float_count_keeps_its_message(self, tmp_path, capsys):
        path = tmp_path / "study.json"
        path.write_text(
            '{"strata": [{"experimental": {"treated": {"events": 51.0, "total": 1e2}, '
            '"untreated": {"events": 1, "total": 10}}}]}'
        )
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {path}, stratum 0, experimental.treated: "
            "events and total must be integers, got 51.0 and 100.0\n"
        )

    @pytest.mark.parametrize(
        "digits,where",
        [(3_000, "stratum 0, experimental.treated"), (5_000, None)],
        ids=["3000-digits", "5000-digits"],
    )
    def test_json_counts_are_capped(self, digits, where, tmp_path, capsys):
        """Counts of 3,000 digits used to be analyzed and then fail while
        rendering; counts over 4,300 digits failed inside the JSON reader."""
        path = tmp_path / "study.json"
        treated, untreated = "1" * digits, "1" * (digits - 1) + "3"
        path.write_text(
            '{"strata": [{"experimental": {'
            f'"treated": {{"events": 1, "total": {treated}}}, '
            f'"untreated": {{"events": 1, "total": {untreated}}}}}}}]}}'
        )
        assert main(["analyze", "--input", str(path), "--format", "json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}")
        assert f"at most {MAX_RATIONAL_CHARS} digits" in captured.err
        assert where is None or where in captured.err

    def test_json_not_utf8_is_not_called_too_long(self, tmp_path, capsys):
        path = tmp_path / "study.json"
        path.write_bytes(b'{"strata": [], "note": "\xff"}')
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "utf-8" in err and "too long" not in err

    @pytest.mark.parametrize(
        "name,text",
        [
            ("study.json", b'{"strata": [{"labels": {"sex": "m\xffen"}}]}'),
            ("study.csv", CSV_HEADER.encode() + b"sex=m\xffen,51,100,79,100,,,,\n"),
            ("study.csv", codecs.BOM_UTF8 + CSV_HEADER.encode() + b"sex=m\xffen,51,100,79,100,,,,\n"),
        ],
        ids=["json", "csv", "csv-after-byte-order-mark"],
    )
    def test_not_utf8_names_file_and_byte_offset(self, name, text, tmp_path, capsys):
        path = tmp_path / name
        path.write_bytes(text)
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}, byte offset {text.index(0xFF)}: not valid utf-8 (invalid start byte)\n"
        )

    @pytest.mark.parametrize(
        "name,source",
        [
            ("study.json", Path(bounds_mod.__file__).parent / "data" / "example_study.json"),
            ("study.csv", GOLDEN / "example_study.csv"),
        ],
        ids=["json", "csv"],
    )
    def test_byte_order_mark_is_dropped(self, name, source, tmp_path, capsys):
        """Excel's "CSV UTF-8" and some editors start a file with a byte order mark."""
        path = tmp_path / name
        path.write_bytes(codecs.BOM_UTF8 + source.read_bytes())
        assert main(["analyze", "--input", str(path), "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / "example.json").read_text(encoding="utf-8")

    def test_csv_counts_are_capped(self, tmp_path, capsys):
        path = tmp_path / "study.csv"
        path.write_text(CSV_HEADER + f"sex=men,51,100,79,{'1' * 5_000},,,,\n")
        assert main(["analyze", "--input", str(path), "--format", "json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}, line 2, exp_c_total: ")
        assert f"at most {MAX_RATIONAL_CHARS} digits" in captured.err

    def test_counts_of_the_longest_accepted_length(self, tmp_path):
        longest = 10**MAX_RATIONAL_CHARS - 1
        path = write_json(tmp_path, _with(("experimental", "treated"), {"events": 1, "total": longest}))
        assert parse_input(path).strata[0].evidence.p0.p_do1 == F(1, longest)

    def test_csv_label_without_equals_names_line_and_fragment(self, tmp_path, capsys):
        path = tmp_path / "study.csv"
        path.write_text(CSV_HEADER + "foo,51,100,79,100,,,,\nbar,10,100,10,100,,,,\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "line 2" in captured.err and "'foo'" in captured.err

    def test_csv_repeated_label_key_names_line_and_key(self, tmp_path, capsys):
        """`a=1;a=2` used to be read as the labels {"a": "2"}, the same as a
        later `a=2` row."""
        path = tmp_path / "study.csv"
        path.write_text(CSV_HEADER + "a=1;a=2,51,100,79,100,,,,\na=2,10,100,10,100,,,,\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}, line 2: label key 'a' is repeated\n"

    def test_csv_empty_label_key_names_line_and_fragment(self, tmp_path, capsys):
        """The cell `sex=men; =A` used to give the labels {"sex": "men", "": "A"}."""
        path = tmp_path / "study.csv"
        path.write_text(CSV_HEADER + "a=1,10,100,10,100,,,,\nsex=men; =A,51,100,79,100,,,,\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}, line 3: label ' =A' has an empty key\n"

    def test_csv_label_spaces_are_stripped(self, tmp_path, capsys):
        """`a=1; a=2` used to be read as the labels {"a": "1", " a": "2"}."""
        path = tmp_path / "study.csv"
        path.write_text(CSV_HEADER + "sex = men; site=A ,51,100,79,100,,,,\n")
        assert parse_input(str(path)).strata[0].labels == (("sex", "men"), ("site", "A"))
        path.write_text(CSV_HEADER + "a=1; a=2,51,100,79,100,,,,\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}, line 2: label key 'a' is repeated\n"

    def test_csv_blank_label_fragments_are_skipped(self, tmp_path):
        path = tmp_path / "study.csv"
        path.write_text(CSV_HEADER + ",51,100,79,100,,,,\nsex=men;;site=A; ,10,100,10,100,,,,\n")
        unlabeled, labeled = parse_input(str(path)).strata
        assert unlabeled.name == "(unlabeled)"
        assert labeled.labels == (("sex", "men"), ("site", "A"))

    @pytest.mark.parametrize("empty", ["treated", "untreated"])
    def test_empty_natural_choice_arm(self, empty, tmp_path, capsys):
        """An observational arm of {"events": 0, "total": 0} means nobody
        would naturally take it: P(A*=arm) = 0 and its risk is undefined."""
        payload = json.loads(json.dumps(EMPTY_ARM_COUNTS))
        payload["strata"][0]["observational"][empty] = {"events": 0, "total": 0}
        if empty == "untreated":  # keep the evidence compatible: A*=1 is everyone
            payload["strata"][0]["experimental"]["treated"] = {"events": 30, "total": 100}
        path = write_json(tmp_path, payload)
        p1 = parse_input(path).strata[0].evidence.p1
        if empty == "treated":
            assert (p1.pi1, p1.q1, p1.q0) == (0, None, F(3, 10))
        else:
            assert (p1.pi1, p1.q1, p1.q0) == (1, F(3, 10), None)
        (sr,) = analyze(parse_input(path))
        astar = 1 if empty == "treated" else 0
        assert sr.fused.bounds[f"harm_given{astar}"] is None
        assert sr.fused.bounds[f"harm_given{1 - astar}"] is not None
        assert main(["analyze", "--input", path]) == EXIT_OK
        assert "= undefined" in capsys.readouterr().out

    def test_empty_natural_choice_arm_in_csv(self, tmp_path, capsys):
        path = tmp_path / "study.csv"
        path.write_text(CSV_HEADER + "sex=men,51,100,30,100,0,0,9,30\n")
        p1 = parse_input(str(path)).strata[0].evidence.p1
        assert (p1.pi1, p1.q1, p1.q0) == (0, None, F(3, 10))
        assert main(["analyze", "--input", str(path), "--format", "json"]) == EXIT_OK
        stratum = json.loads(capsys.readouterr().out)["strata"][0]
        assert stratum["p1"]["q1"] is None and stratum["bounds"]["fused"]["harm_given1"] is None

    @pytest.mark.parametrize(
        "observational,where,message",
        [
            (
                {"treated": {"events": 0, "total": 0}, "untreated": {"events": 0, "total": 0}},
                "observational",
                "both arms have total 0",
            ),
            (
                {"treated": {"events": 3, "total": 0}, "untreated": {"events": 9, "total": 30}},
                "observational.treated",
                "events 3 outside [0, 0]",
            ),
            (
                {"treated": {"events": 0, "total": -1}, "untreated": {"events": 9, "total": 30}},
                "observational.treated",
                "total must not be negative, got -1",
            ),
        ],
        ids=["both-arms-empty", "events-without-patients", "negative-total"],
    )
    def test_empty_arm_errors(self, observational, where, message, tmp_path, capsys):
        payload = json.loads(json.dumps(EMPTY_ARM_COUNTS))
        payload["strata"][0]["observational"] = observational
        path = write_json(tmp_path, payload)
        assert main(["analyze", "--input", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err == f"error: {path}, stratum 0, {where}: {message}\n"

    @pytest.mark.parametrize(
        "row,message",
        [
            ("sex=men,51,100,30,100,0,0,0,0", "line 2, observational: both arms have total 0"),
            ("sex=men,51,100,30,100,2,0,9,30", "line 2, observational.treated: events 2 outside [0, 0]"),
            ("sex=men,51,100,0,0,,,,", "line 2, experimental.untreated: total must be positive, got 0"),
        ],
        ids=["both-arms-empty", "events-without-patients", "empty-experimental-arm"],
    )
    def test_empty_arm_errors_in_csv(self, row, message, tmp_path, capsys):
        path = tmp_path / "study.csv"
        path.write_text(CSV_HEADER + row + "\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}, {message}\n"

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("study.json", '{"strata": []}', "study contains no strata"),
            ("study.csv", CSV_HEADER, "study contains no strata"),
            (
                "study.json",
                json.dumps({"strata": [DEMO_COUNTS["strata"][0], DEMO_COUNTS["strata"][0]]}),
                "duplicate stratum label 'sex=men'",
            ),
            (
                "study.csv",
                CSV_HEADER + "sex=men,51,100,79,100,,,,\n,1,2,1,2,,,,\n,1,3,1,3,,,,\n",
                "duplicate stratum label '(unlabeled)'",
            ),
            (
                "study.json",
                json.dumps(
                    {
                        "strata": [
                            {**DEMO_STRATUM, "labels": {"a": "1", "b": "2"}},
                            {**DEMO_STRATUM, "labels": {"b": "2", "a": "1"}},
                        ]
                    }
                ),
                "duplicate stratum label 'b=2;a=1'",
            ),
            (
                "study.csv",
                CSV_HEADER + "a=1;b=2,51,100,79,100,,,,\nb=2;a=1,1,2,1,2,,,,\n",
                "duplicate stratum label 'b=2;a=1'",
            ),
            ("study.csv", "", "empty file"),
            ("study.json", '{"strata": ' + "[" * 100_000 + "]" * 100_000 + "}", "JSON nested too deeply"),
        ],
        ids=[
            "no-strata-json",
            "header-only-csv",
            "duplicate-json",
            "duplicate-csv",
            "key-order-json",
            "key-order-csv",
            "empty-csv",
            "nested-too-deeply-json",
        ],
    )
    def test_study_errors_name_the_file(self, name, text, message, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(text)
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "parameters,message",
        [
            ({"p_do1": "1.5", "p_do0": "1/2"}, ", parameter 'p_do1': probability outside [0, 1]: 3/2"),
            ({"p_do1": "1/2"}, ": missing parameter 'p_do0'"),
            (
                {"p_do1": "1/2", "p_do0": "1/2", "pi1": "0", "q1": "1/2", "q0": "1/2"},
                ": q1 must be undefined when P(A*=1) = 0",
            ),
            ([1], ": parameters must be an object"),
            ({"p_do1": "1/2", "p_do0": "1/2", "pi1": "1/2", "q0": "1/2"}, ": q1 required when P(A*=1) > 0"),
            (
                {"p_do1": "1/2", "p_do0": "1/2", "pi1": "1", "q1": "1/2", "q0": "1/2"},
                ": q0 must be undefined when P(A*=0) = 0",
            ),
        ],
        ids=["out-of-range", "missing", "pi1-zero-with-q1", "not-an-object", "pi1-half-without-q1", "pi1-one-with-q0"],
    )
    def test_bad_parameter_branches(self, parameters, message, tmp_path, capsys):
        path = write_json(tmp_path, {"strata": [{"labels": {"sex": "men"}, "parameters": parameters}]})
        assert main(["analyze", "--input", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}, stratum 0{message}\n"

    def test_csv_field_over_the_field_limit_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "study.csv"
        path.write_text(CSV_HEADER + "sex=" + "m" * 200_000 + ",51,100,79,100,,,,\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}, line 2: field larger than field limit")

    def test_csv_blank_rows_are_skipped(self, tmp_path, capsys):
        header, row = (GOLDEN / "example_study.csv").read_text().splitlines(keepends=True)
        path = tmp_path / "study.csv"
        path.write_text(header + "\n" + ",,,\n" + row)
        assert main(["analyze", "--input", str(path), "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / "example.json").read_text()

    def test_csv_counts_may_be_padded(self, tmp_path):
        path = tmp_path / "study.csv"
        path.write_text(
            "labels,exp_t_events,exp_t_total,exp_c_events,exp_c_total,"
            "obs_t_events,obs_t_total,obs_c_events,obs_c_total\n"
            "sex=men, 51 ,100,79,100,21,70,9,30\n"
        )
        assert parse_input(str(path)).strata[0].evidence.p0.p_do1 == F(51, 100)


@pytest.mark.parametrize(
    "argv,load",
    [
        (["example", "--format", "json"], _demo_study),
        (["analyze", "--input", str(CORPUS), "--format", "json"], lambda: parse_input(str(CORPUS))),
    ],
    ids=["demo", "corpus"],
)
def test_each_fused_stratum_is_identified_once(argv, load, monkeypatch, capsys):
    """The fusion check runs once per stratum with natural-choice data, when
    its evidence is built; no bound, verdict or report runs it again."""
    fused = sum(s.evidence.p1 is not None for s in load().strata)
    calls = []
    check = identification.compatibility_check

    def counted(p0, p1):
        calls.append(p1)
        return check(p0, p1)

    monkeypatch.setattr(identification, "compatibility_check", counted)
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert fused > 0 and len(calls) == fused


@pytest.mark.parametrize(
    "argv,load",
    [
        (["example", "--format", "json"], _demo_study),
        (["analyze", "--input", str(CORPUS), "--format", "text"], lambda: parse_input(str(CORPUS))),
    ],
    ids=["demo", "corpus"],
)
def test_harm_is_bounded_once_per_evidence_level(argv, load, monkeypatch, capsys):
    """Every stratum has an experimental-only level, and a fused one when its
    evidence is compatible; the counterfactual verdict reads that level's
    harm interval instead of recomputing it."""
    strata = load().strata
    levels = len(strata) + sum(
        s.evidence.fusion is not None and s.evidence.fusion.compatible for s in strata
    )
    calls = []
    harm = bounds_mod.harm_bounds

    def counted(evidence):
        calls.append(evidence)
        return harm(evidence)

    monkeypatch.setattr(bounds_mod, "harm_bounds", counted)
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert levels > len(strata) and len(calls) == levels


class _CountingStream(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv,load",
    [
        (["example", "--format", "json"], _demo_study),
        (["analyze", "--input", str(CORPUS), "--format", "json"], lambda: parse_input(str(CORPUS))),
    ],
    ids=["demo", "corpus"],
)
def test_json_report_is_written_one_stratum_at_a_time(argv, load, monkeypatch):
    """Each write to an unbuffered stdout is a system call, so the JSON
    report must not be written token by token (981 writes for the demo)."""
    stream = _CountingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(argv) == EXIT_OK
    strata = len(load().strata)
    assert 0 < stream.writes <= strata + 3
    assert stream.getvalue() == json.dumps(report_to_json(analyze(load())), indent=2) + "\n"


def _screening_report(n):
    """The report of n screening-style strata: every fifth has experimental
    data alone, the others break a fusion inequality."""
    strata = []
    for i in range(n):
        p0 = ExperimentalParams(F(i % 20 + 1, 1000), F(i % 7 + 2, 9))
        p1 = None if i % 5 == 0 else ObservationalParams(F(1, 2), F(1, 2), F(1, 2))
        strata.append(StratumInput((("stratum", f"s{i:05d}"),), bounds_mod.EvidenceSet(p0, p1)))
    return analyze(StudyInput(tuple(strata)))


def test_json_writer_memory_does_not_grow_with_the_strata():
    """Each stratum's text is written before the next is built, so ten times
    the strata must not raise the writer's peak allocation; a writer that
    built the whole report first would raise it about tenfold."""
    peaks = []
    with open(os.devnull, "w") as sink:
        for n in (40, 400):
            report = _screening_report(n)
            assert any(sr.incompatible for sr in report)
            _emit_report(report, "json", sink)  # once untraced, for any lazy set-up
            tracemalloc.start()
            try:
                _emit_report(report, "json", sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def _modules_added_by(argv):
    """The modules that importing `harmbounds.cli` and running `main(argv)`
    add to a fresh interpreter; `-S` keeps the modules that site-packages'
    `.pth` files import out of the count."""
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from harmbounds.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "harmbounds.cli" in added
    return added


# Start-up is most of a CLI call; `dataclasses` alone pulls in `inspect`,
# `ast`, `dis` and `tokenize`, and `typing` costs about 6 ms.  The LP oracle
# is a test reference, which the CLI's runtime path must not load.
_NEVER_IMPORTED = {"dataclasses", "typing", "harmbounds.lp_oracle"}


def test_example_never_imports_the_lp_oracle():
    """The LP oracle is a test reference; the CLI's runtime path must not load it."""
    assert "harmbounds.lp_oracle" not in _modules_added_by(["example"])


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--input", str(CORPUS)], ["verify", "--samples", "3"], ["example"]],
    ids=["analyze", "verify", "example"],
)
def test_analyze_and_verify_import_only_what_they_use(argv):
    """`importlib.resources` imports `inspect`, `pathlib` and `zipfile`
    (`inspect` from Python 3.12 on); `example` finds its bundled study
    without it.  Every record is a `collections.namedtuple`, so no command
    imports `typing`."""
    added = _modules_added_by(argv)
    assert not added & (_NEVER_IMPORTED | {"importlib.resources", "inspect"})


def _records():
    """One built instance of each immutable record type."""
    joint = demo_joint()
    p0, p1 = observables_from_joint(joint)
    evidence = identification.EvidenceSet(p0, p1)
    study = _demo_study()
    return [
        joint,
        p0,
        p1,
        true_estimands(joint),
        evidence.fusion,
        evidence,
        evidence.strata[0],
        bounds_mod.Interval(F(0), F(1, 2)),
        propositions.interventionist_verdict(evidence),
        propositions.PropositionReport("P1", 1, ()),
        propositions.level(evidence),
        study.strata[0],
        study,
        analyze(study)[0],
        lp_oracle.build_program(evidence, "harm"),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    """No field can be reassigned and no attribute added, and a pickle round
    trip rebuilds an equal record through its checking constructor; for an
    `EvidenceSet`, that is a second one identified from the same (p0, p1)."""
    for attr in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    assert pickle.loads(pickle.dumps(record)) == record


def _modules():
    """Every module of the package."""
    return [importlib.import_module(f"harmbounds.{m.name}") for m in pkgutil.iter_modules(harmbounds.__path__)]


def _classes(module):
    return [obj for obj in vars(module).values() if isinstance(obj, type) and obj.__module__ == module.__name__]


def test_every_record_is_covered():
    """`_records` builds one instance of every record type the package
    declares, so one declared without `__slots__ = ()` fails above."""
    declared = {cls for module in _modules() for cls in _classes(module) if hasattr(cls, "_fields")}
    assert declared == {type(record) for record in _records()}


def _annotated(module):
    """Every class, function, method and property that `module` defines."""
    yield from _classes(module)
    for obj in [*vars(module).values(), *(v for cls in _classes(module) for v in vars(cls).values())]:
        function = getattr(obj, "fget", None) or getattr(obj, "__func__", obj)
        function = getattr(function, "__wrapped__", function)  # through `lru_cache`
        if getattr(function, "__globals__", None) is vars(module):
            yield function


@pytest.mark.parametrize("module", _modules(), ids=lambda module: module.__name__)
def test_annotations_resolve(module):
    """Under `from __future__ import annotations` every annotation is a
    string that nothing evaluates at run time; each must still name
    something the module has, on every supported Python."""
    objects = list(_annotated(module))
    assert objects
    for obj in objects:
        typing.get_type_hints(obj)
