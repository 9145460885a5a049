"""Byte-for-byte gate on the CLI's reports.

The reports under tests/data/golden/ were written by the CLI before the
bounds were rebuilt in closed form, and verify.txt before the harness and
the report shared one record per evidence level; a refactor that changes
any reported number, flag, rendering or harness count fails here.  The CSV
form of the demo study, example_study.csv, must give the demo's reports.
verify.txt's counts were re-recorded, 270 to 237 instances, when the
harness's constructed joints became the 36-joint lattice of
`degenerate_grid()` plus the demo joint once: the instance set changed on
purpose and every verdict stayed "ok".
Never regenerate them to make a change pass: a difference is a change in
behavior and needs its own justification.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from harmbounds.cli import EXIT_OK, main
from harmbounds.model import observables_from_joint, sample_joint

GOLDEN = Path(__file__).parent / "data" / "golden"
ROOT = Path(__file__).resolve().parent.parent
BENCH_WORKLOADS = ROOT / "bench" / "workloads.py"

# The sha256 of the CLI's stdout on the benchmark's seed-1 inputs: `analyze
# --format json` on the two generated studies and the harness's `verify`,
# recorded before the strata were kept on the joint scale.
SEED1_SHA256 = {
    "fused_study": "5fe621be7ca45c4ded859737e29448646858e4e87bb9bca54df49c6eded22eeb",
    "screening_study": "e891ebcfe2dc97557f5e17a3814038130b2494aded42d0f88b0b60194c85c62c",
    "harness": "64ddf078a67fee0dc9141433cfd6d38dc76f57784601bdc51b4969982ac42152",
}

SAMPLE_SEEDS = range(8)
# Constructed strata: P(A*=1) = 0 with a forced marginal, P(A*=1) = 1 with a
# forced marginal, P(A*=1) = 0 and 1 with forced strata, forced strata in
# both non-empty strata, and one forced stratum only.
CONSTRUCTED = (
    ("grid-0", {"p_do1": "0", "p_do0": "0", "pi1": "0", "q0": "0"}),
    ("grid-5", {"p_do1": "1", "p_do0": "1", "pi1": "1", "q1": "1"}),
    ("grid-17", {"p_do1": "1", "p_do0": "3/10", "pi1": "0", "q0": "3/10"}),
    ("grid-53", {"p_do1": "3/10", "p_do0": "1", "pi1": "1", "q1": "3/10"}),
    ("grid-38", {"p_do1": "21/100", "p_do0": "9/100", "pi1": "3/10", "q1": "0", "q0": "0"}),
    ("grid-64", {"p_do1": "7/10", "p_do0": "9/20", "pi1": "1/2", "q1": "2/5", "q0": "3/10"}),
)


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
    strata = [_parameters(f"sample-{seed}", sample_joint(seed)) for seed in SAMPLE_SEEDS]
    strata += [{"labels": {"case": label}, "parameters": params} for label, params in CONSTRUCTED]
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


@pytest.fixture(scope="module")
def bench_workloads():
    """The benchmark's input generator, imported from its file."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", sorted(SEED1_SHA256))
def test_benchmark_seed1_output_is_unchanged(name, bench_workloads, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HARMBOUNDS_COLOR", "never")
    workload = bench_workloads.GENERATORS[name](1)
    if name == "harness":
        argv = ["verify", "--samples", str(workload.harness_samples), "--seed", str(workload.verify_seed)]
    else:
        study = tmp_path / "study.json"
        study.write_bytes(workload.study_bytes)
        argv = ["analyze", "--input", str(study), "--format", "json"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SEED1_SHA256[name]


# The spans that the benchmark's per-layer metrics are read from.  The traced
# run finds each layer by its module-level name, so a layer that is renamed
# or bypassed leaves its metrics at 0 without any error.
TRACED_SPANS = {
    "identification.compatibility_check",
    "bounds.harm_bounds.p0",
    "bounds.harm_bounds.fused",
    "bounds.benefit_bounds.p0",
    "bounds.benefit_bounds.fused",
    "bounds.conditional_harm_bounds",
    "bounds.cate_bounds",
    "propositions.interventionist_verdict.p0",
    "propositions.interventionist_verdict.fused",
    "propositions.counterfactual_verdict.p0",
    "propositions.counterfactual_verdict.fused",
    "cli.parse_input",
    "cli.analyze",
    "cli.json_dump",
}


def test_benchmark_trace_sees_every_layer():
    """`example` under the benchmark's own tracer, in a fresh interpreter
    (the tracer rebinds module globals), records a span for every layer."""
    code = (
        "import contextlib, io, json\n"
        "import traced_run\n"
        "tracer = traced_run.Tracer()\n"
        "traced_run.install(tracer)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = traced_run.cli.main(['example', '--format', 'json'])\n"
        "print(json.dumps([code, sorted({span[0] for span in tracer.spans})]))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    # No bytecode is written, so the run leaves bench/ as it found it.
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    code, spans = json.loads(result.stdout)
    assert code == EXIT_OK
    assert TRACED_SPANS <= set(spans), sorted(TRACED_SPANS - set(spans))
