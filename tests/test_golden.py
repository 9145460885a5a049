"""Byte-for-byte gate on the CLI's reports.

The reports under tests/data/golden/ were written by the CLI before the
bounds were rebuilt in closed form, and verify.txt before the harness and
the report shared one record per evidence level; a refactor that changes
any reported number, flag, rendering or harness count fails here.  The CSV
form of the demo study, example_study.csv, must give the demo's reports.
Never regenerate them to make a change pass: a difference is a change in
behavior and needs its own justification.
"""

import json
from pathlib import Path

import pytest

from harmbounds.cli import EXIT_OK, main
from harmbounds.model import degenerate_grid, observables_from_joint, sample_joint

GOLDEN = Path(__file__).parent / "data" / "golden"

SAMPLE_SEEDS = range(8)
# degenerate_grid() members: P(A*=1) = 0 with a forced marginal, P(A*=1) = 1
# with a forced marginal, P(A*=1) = 0 and 1 with forced strata, forced
# strata in both non-empty strata, and one forced stratum only.
GRID_INDICES = (0, 5, 17, 53, 38, 64)


def _parameters(label: str, joint) -> dict:
    p0, p1 = observables_from_joint(joint)
    params = {"p_do1": str(p0.p_do1), "p_do0": str(p0.p_do0), "pi1": str(p1.pi1)}
    if p1.q1 is not None:
        params["q1"] = str(p1.q1)
    if p1.q0 is not None:
        params["q0"] = str(p1.q0)
    return {"labels": {"case": label}, "parameters": params}


def corpus_study() -> dict:
    """The deterministic study behind corpus_study.json."""
    grid = degenerate_grid()
    strata = [_parameters(f"sample-{seed}", sample_joint(seed)) for seed in SAMPLE_SEEDS]
    strata += [_parameters(f"grid-{i}", grid[i]) for i in GRID_INDICES]
    strata.append(
        {
            "labels": {"case": "incompatible"},
            "parameters": {"p_do1": "0.1", "p_do0": "0.5", "pi1": "0.9", "q1": "0.9", "q0": "0.5"},
        }
    )
    strata.append(
        {
            "labels": {"case": "experimental-only"},
            "experimental": {
                "treated": {"events": 60, "total": 100},
                "untreated": {"events": 40, "total": 100},
            },
        }
    )
    return {"strata": strata}


def test_corpus_study_file_is_generated():
    text = json.dumps(corpus_study(), indent=2) + "\n"
    assert (GOLDEN / "corpus_study.json").read_text(encoding="utf-8") == text


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["example", "--format", "text"], "example.txt"),
        (["example", "--format", "json"], "example.json"),
        (
            ["analyze", "--input", str(GOLDEN / "corpus_study.json"), "--format", "json"],
            "corpus_report.json",
        ),
        (
            ["analyze", "--input", str(GOLDEN / "corpus_study.json"), "--format", "text"],
            "corpus_report.txt",
        ),
        (["verify", "--samples", "200", "--seed", "42"], "verify.txt"),
        (
            ["analyze", "--input", str(GOLDEN / "example_study.csv"), "--format", "json"],
            "example.json",
        ),
        (
            ["analyze", "--input", str(GOLDEN / "example_study.csv"), "--format", "text"],
            "example.txt",
        ),
    ],
    ids=[
        "example-text",
        "example-json",
        "corpus-json",
        "corpus-text",
        "verify",
        "csv-json",
        "csv-text",
    ],
)
def test_output_matches_golden(argv, golden, capsys, monkeypatch):
    monkeypatch.setenv("HARMBOUNDS_COLOR", "never")
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")
