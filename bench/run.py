"""The harmbounds benchmark: timed CLI calls in fresh processes, plus a traced run.

One workload; the last line of output is the JSON result:

    python3 bench/run.py --workload fused_study --seed 1 --seconds 35 --trace 0

Every workload at both trace levels, every metric by name with its unit;
exits 1 when any correctness check fails:

    python3 bench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics.  Each timed call is a real
CLI command in a fresh interpreter, one at a time, back to back for
``--seconds`` (a closed loop with one client).  A fresh process matters:
the LP oracle's vertex cache lives for one process, and every real CLI call
starts with it empty.

``--trace 1`` measures the per-layer metrics: ``traced_run.py`` repeats the
workload in one fresh process with a span around every layer call (see
that file).

Generated inputs, the last output, and the spans go to ``.bench_work/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# checks.py and workloads.py import harmbounds, so they are imported where
# used, after main() has checked SRC and put it first on sys.path.

WORKLOADS = ("fused_study", "screening_study", "harness")
SETUP_MIN_SAMPLES = 7  # at least this many CLI calls, each followed by a set-up sample
CHILD_TIMEOUT_S = 150

# End-to-end times are given at a reference machine speed: each measured time
# is multiplied by REFERENCE_S over the time that launcher.reference_work took
# next to it.  On a shared 2-core machine this kind of code ran up to twice as
# fast at some moments as at others; the raw run medians of ten seeds spread
# by 23% (quartile distance over median), the scaled ones by 2% to 6%.
# REFERENCE_S is about the reference work's time on that machine.
REFERENCE_S = 0.035

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("items_per_s", "1/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# Layer functions timed per call: span name and the name of the per-call metric.
CALL_LAYERS = (
    ("identification.compatibility_check", "us_per_call"),
    ("identification.identify_stratum_risks", "us_per_call"),
    ("bounds.harm_bounds.p0", "us_per_call"),
    ("bounds.harm_bounds.fused", "us_per_call"),
    ("bounds.benefit_bounds.p0", "us_per_call"),
    ("bounds.benefit_bounds.fused", "us_per_call"),
    ("bounds.conditional_harm_bounds", "us_per_call"),
    ("bounds.cate_bounds", "us_per_call"),
    ("lp_oracle.sharp_interval", "cold_us_per_call"),
    ("propositions.interventionist_verdict.p0", "us_per_call"),
    ("propositions.interventionist_verdict.fused", "us_per_call"),
    ("propositions.counterfactual_verdict.p0", "us_per_call"),
    ("propositions.counterfactual_verdict.fused", "us_per_call"),
    ("propositions.check_prop1", "us_per_joint"),
    ("propositions.check_prop2", "us_per_joint"),
    ("propositions.check_prop3", "us_per_joint"),
    ("propositions.check_prop4", "us_per_joint"),
    ("model.sample_joint", "us_per_call"),
    ("model.observables_from_joint", "us_per_call"),
)
# CLI stages, timed once per traced repetition and divided by the item count.
STAGES = (
    ("cli.parse_input", "us_per_stratum"),
    ("cli.analyze", "us_per_stratum"),
    ("cli.report_to_json", "us_per_stratum"),
    ("cli.json_dump", "us_per_stratum"),
    ("cli.render_text", "us_per_stratum"),
    ("cli.command_verify", "us_per_joint"),
)


def _calls_metric(name: str) -> str:
    suffix = "calls_per_stratum" if name == "identification.compatibility_check" else "calls_per_item"
    return f"{name}.{suffix}"


def per_layer_definitions() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    defs = []
    for name, per in STAGES:
        defs.append((f"{name}.{per}", "us", "lower"))
        defs.append((f"{name}.tracemalloc_peak_kib", "KiB", "lower"))
    defs.append(("cli.output_bytes_per_stratum", "B", "lower"))
    for name, per in CALL_LAYERS:
        defs.append((f"{name}.{per}", "us", "lower"))
        defs.append((f"{name}.{per}.tail", "us", "lower"))
        defs.append((_calls_metric(name), "count", "lower"))
    defs += [
        ("identification.compatibility_check.compatible_ratio", "ratio", "higher"),
        ("bounds.harm_bounds.fused.self_us_per_call", "us", "lower"),
        ("lp_oracle.sharp_interval.share_of_stage", "ratio", "lower"),
        ("lp_oracle.vertex_cache.hits", "count", "higher"),
        ("lp_oracle.vertex_cache.misses", "count", "lower"),
        ("lp_oracle.vertex_cache.hit_ratio", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return defs


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it.

    Returns (percentile, value); with fewer than 20 samples no percentile
    qualifies and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            pos = pct / 100 * (n - 1)
            low = int(pos)
            high = min(low + 1, n - 1)
            return pct, ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
    return 100.0, ordered[-1]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Runs children one at a time through ``launcher.py``, a small process.

    Start it before this process grows: a child's peak RSS includes the
    memory of the process it was forked from.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def run(self, argv: list[str], stdout_path: Path, stderr_path: Path) -> dict:
        """Run one child to exit: wall time from spawn to exit, its own peak RSS,
        and the reference work's time next to it."""
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(stderr_path),
                   "cwd": str(ROOT), "env": _child_env(), "timeout": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def setup_sample(launcher: Launcher, work: Path) -> dict:
    """A fresh interpreter that imports harmbounds.cli, timed by the launcher."""
    argv = [sys.executable, "-c", "import harmbounds.cli"]
    result = launcher.run(argv, work / "setup.out", work / "setup.err")
    if result["exit_code"] != 0:
        raise RuntimeError("importing harmbounds.cli failed: " + (work / "setup.err").read_text()[-500:])
    return result


def cli_argv(workload, work: Path) -> list[str]:
    if workload.name == "harness":
        return ["verify", "--samples", str(workload.harness_samples), "--seed", str(workload.verify_seed)]
    return ["analyze", "--input", str(work / "study.json"), "--format", "json"]


class CliRunner:
    """Times CLI calls in fresh processes and checks each distinct output once."""

    def __init__(self, launcher: Launcher, workload, work: Path) -> None:
        self.launcher = launcher
        self.workload = workload
        self.work = work
        self.calls: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[dict] = []
        self._verdicts: dict[tuple[int, str], tuple[int, list[str]]] = {}

    def run_for(self, seconds: float) -> None:
        """CLI calls back to back until `seconds` have passed, at least SETUP_MIN_SAMPLES.

        A set-up sample follows each call, so that set-up is sampled across
        the whole run like the calls are.
        """
        setup_sample(self.launcher, self.work)  # warm-up: compiles the bytecode caches
        began = time.perf_counter()
        while len(self.calls) < SETUP_MIN_SAMPLES or time.perf_counter() - began < seconds:
            self.call()
            self.setup.append(setup_sample(self.launcher, self.work))

    def call(self) -> None:
        work = self.work
        timing = work / "timing.json"
        timing.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), str(timing)] + cli_argv(self.workload, work)
        result = self.launcher.run(argv, work / "output.txt", work / "stderr.txt")
        output = (work / "output.txt").read_bytes()
        result["sha256"] = hashlib.sha256(output).hexdigest()
        try:
            timing_doc = json.loads(timing.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            timing_doc = {}
        result["main_s"] = timing_doc.get("main_s")
        if timing_doc and not Path(timing_doc["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"harmbounds was imported from {timing_doc['module']}, not {SRC}")
        failed, problems = self._check(result["exit_code"], result["sha256"], output)
        if result["main_s"] is None:
            failed, problems = self.workload.items, problems + ["the CLI call did not finish main()"]
        stderr = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        if "Traceback" in stderr:
            failed, problems = self.workload.items, problems + ["traceback: " + stderr[-500:]]
        self.attempted += self.workload.items
        self.failed += failed
        self.problems += [p for p in problems if p not in self.problems]
        self.calls.append(result)

    def _check(self, exit_code: int, sha: str, output: bytes) -> tuple[int, list[str]]:
        from checks import check_analyze, check_verify

        key = (exit_code, sha)
        if key not in self._verdicts:
            if self.workload.name == "harness":
                verdict = check_verify(self.workload, output.decode("utf-8", errors="replace"), exit_code)
            else:
                try:
                    doc = json.loads(output)
                except ValueError:
                    doc = None
                verdict = check_analyze(self.workload, doc, exit_code)
            self._verdicts[key] = verdict
        return self._verdicts[key]


# ---------------------------------------------------------------------------
# the traced run


def _load_spans(path: Path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        return [json.loads(line) for line in fh]


def layer_metrics(workload, trace: dict, spans: list[list]) -> tuple[dict, dict, list[dict]]:
    """Per-layer metrics, their tails, and a summary of each traced repetition, from the spans.

    Layer calls come from the traced repetitions; the CLI stages' own times
    from the untraced ones.
    """
    n_items = workload.items
    traced = {r["rep"] for r in trace["reps"] if r["traced"]}
    child_time: dict[int, float] = defaultdict(float)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[0]].append(index)
        if span[3] is not None:
            child_time[span[3]] += span[2] - span[1]

    def inclusive(i):
        return spans[i][2] - spans[i][1]

    def per_item_us(indices, duration) -> list[float]:
        """Mean microseconds per call within each item (or each lone call)."""
        groups: dict[tuple, list[float]] = defaultdict(list)
        for i in indices:
            span = spans[i]
            key = (span[6], span[4]) if span[4] is not None else ("call", i)
            groups[key].append(duration(i))
        return [1e6 * sum(v) / len(v) for v in groups.values()]

    values: dict[str, float] = {}
    tails: dict[str, tuple[float, float, int]] = {}
    for name, per in CALL_LAYERS:
        indices = by_name.get(name, [])
        timed = [i for i in indices if spans[i][7]] if name == "lp_oracle.sharp_interval" else indices
        samples = per_item_us(timed, inclusive)
        metric = f"{name}.{per}"
        pct, tail = tail_percentile(samples) if samples else (100.0, 0.0)
        values[metric] = _median(samples)
        values[f"{metric}.tail"] = tail
        tails[metric] = (pct, tail, len(samples))
        values[_calls_metric(name)] = len(indices) / (len(traced) * n_items)

    fused_harm = by_name.get("bounds.harm_bounds.fused", [])
    values["bounds.harm_bounds.fused.self_us_per_call"] = _median(
        per_item_us(fused_harm, lambda i: inclusive(i) - child_time[i])
    )
    checks = [spans[i][7] for i in by_name.get("identification.compatibility_check", [])]
    values["identification.compatibility_check.compatible_ratio"] = sum(checks) / len(checks) if checks else 0.0

    main_stage = "cli.command_verify" if workload.name == "harness" else "cli.analyze"
    reps = {rep: {"rep": rep, "lp_calls": 0, "lp_seconds": 0.0, "fused_harm_items": set(), "cold_lp_items": set()}
            for rep in traced}
    for name, per in STAGES:
        untraced_s = []
        for i in by_name.get(name, []):
            span = spans[i]
            if span[6] in reps:
                reps[span[6]][name] = {"seconds": inclusive(i), "hits": span[7]["vertex_cache_hits"],
                                       "misses": span[7]["vertex_cache_misses"]}
            else:
                untraced_s.append(inclusive(i))
        values[f"{name}.{per}"] = 1e6 * _median(untraced_s) / n_items
        values[f"{name}.tracemalloc_peak_kib"] = trace["tracemalloc_peak_bytes"].get(name, 0) / 1024
    for i in by_name.get("lp_oracle.sharp_interval", []):
        span = spans[i]
        if span[5] == main_stage:
            reps[span[6]]["lp_calls"] += 1
            reps[span[6]]["lp_seconds"] += inclusive(i)
            if span[7]:
                reps[span[6]]["cold_lp_items"].add(span[4])
    for i in fused_harm:
        reps[spans[i][6]]["fused_harm_items"].add(spans[i][4])

    if workload.name != "harness":
        values["cli.output_bytes_per_stratum"] = _median(r["output_bytes"] for r in trace["reps"]) / n_items
    else:
        values["cli.output_bytes_per_stratum"] = 0.0
    stage = [r[main_stage] for r in reps.values()]
    hits, misses = _median(s["hits"] for s in stage), _median(s["misses"] for s in stage)
    values["lp_oracle.vertex_cache.hits"] = hits
    values["lp_oracle.vertex_cache.misses"] = misses
    values["lp_oracle.vertex_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["lp_oracle.sharp_interval.share_of_stage"] = _median(
        r["lp_seconds"] / r[main_stage]["seconds"] for r in reps.values()
    )
    values["trace.overhead_s"] = (
        _median(r["main_s"] for r in trace["reps"] if r["traced"])
        - _median(r["main_s"] for r in trace["reps"] if not r["traced"])
    )
    return values, tails, list(reps.values())


# ---------------------------------------------------------------------------
# one workload


def _prepare(name: str, seed: int, work: Path):
    """Generate the input, check it, and check that a second generation is byte-identical."""
    from workloads import GENERATORS, check_workload

    workload = GENERATORS[name](seed)
    problems = check_workload(workload)
    if workload.study_bytes:
        (work / "study.json").write_bytes(workload.study_bytes)
    again = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), "--workload", name, "--seed", str(seed)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if again.stdout.strip() != hashlib.sha256(workload.study_bytes).hexdigest():
        problems.append("a second generation with the same seed gave different input bytes")
    return workload, problems


def _end_to_end(launcher: Launcher, workload, work: Path, seconds: float, report: dict) -> tuple[dict, int, int, list]:
    runner = CliRunner(launcher, workload, work)
    runner.run_for(seconds)
    setup = runner.setup

    def scale(sample):
        return REFERENCE_S / sample["reference_s"]

    calls = runner.calls
    timed = [c for c in calls if c["main_s"]]
    samples = {
        "setup_s": [s["wall_s"] * scale(s) for s in setup],
        "wall_s": [c["wall_s"] * scale(c) for c in calls],
        "items_per_s": [workload.items / (c["main_s"] * scale(c)) for c in timed],
        "peak_rss_mb": [c["maxrss_kib"] / 1024 for c in calls],
    }
    unscaled = {
        "setup_s": [s["wall_s"] for s in setup],
        "wall_s": [c["wall_s"] for c in calls],
        "items_per_s": [workload.items / c["main_s"] for c in timed],
    }
    for metric, values in samples.items():
        pct, tail = tail_percentile(values) if values else (100.0, 0.0)
        report["details"][metric] = {"n": len(values), "tail_pct": pct, "tail": tail}
        if metric in unscaled:
            report["details"][metric]["unscaled_median"] = _median(unscaled[metric])
    report["calls"] = len(runner.calls)
    report["call_samples"] = runner.calls
    report["setup_samples"] = setup
    report["output_sha256"] = sorted({c["sha256"] for c in runner.calls})
    metrics = {metric: _median(values) for metric, values in samples.items()}
    return metrics, runner.attempted, runner.failed, runner.problems


def _per_layer(launcher: Launcher, workload, work: Path, seconds: float, report: dict) -> tuple[dict, int, int, list]:
    from checks import check_analyze, check_bypass, check_verify

    traced_dir = work / "traced"
    traced_dir.mkdir(exist_ok=True)
    argv = [sys.executable, str(BENCH / "traced_run.py"), "--workload", workload.name, "--out", str(traced_dir),
            "--budget", str(seconds)]
    if workload.name == "harness":
        argv += ["--samples", str(workload.harness_samples), "--seed", str(workload.verify_seed)]
    else:
        argv += ["--input", str(work / "study.json")]
    result = launcher.run(argv, traced_dir / "stdout.txt", traced_dir / "stderr.txt")
    if result["exit_code"] != 0:
        raise RuntimeError("traced run failed: " + (traced_dir / "stderr.txt").read_text()[-2000:])
    trace_doc = json.loads((traced_dir / "trace.json").read_text(encoding="utf-8"))
    spans = _load_spans(traced_dir / "spans.jsonl")
    metrics, tails, reps = layer_metrics(workload, trace_doc, spans)
    for metric, (pct, tail, n) in tails.items():
        report["details"][metric] = {"n": n, "tail_pct": pct, "tail": tail}
    report["stage_order"] = trace_doc["stage_order"]
    report["traced_reps"] = len(reps)
    report["spans"] = len(spans)

    exit_code = trace_doc["last_rep"]["exit_code"]
    output = (traced_dir / "traced_output.txt").read_bytes()
    report["output_sha256"] = [hashlib.sha256(output).hexdigest()]
    if workload.name == "harness":
        failed, problems = check_verify(workload, output.decode("utf-8", errors="replace"), exit_code)
        return metrics, workload.items, failed, problems
    try:
        doc = json.loads(output)
    except ValueError:
        doc = None
    failed, problems = check_analyze(workload, doc, exit_code)
    bypass = check_bypass(workload, reps)
    return metrics, workload.items, workload.items if bypass else failed, problems + bypass


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    workload, input_problems = _prepare(name, seed, work)
    report = {"workload": name, "seed": seed, "items": workload.items, "details": {}, "output_sha256": []}
    measure = _per_layer if trace else _end_to_end
    metrics, attempted, failed, problems = measure(launcher, workload, work, seconds, report)
    if input_problems:
        failed = attempted
    report["problems"] = input_problems + problems
    units = {m[0]: m[1] for m in (per_layer_definitions() if trace else END_TO_END)}
    report["result"] = {
        "correct": not report["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def benchmark_json_problems() -> list[str]:
    """BENCHMARK.json must list the metrics this file reports, with the same units."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, defined in (("end_to_end", [m[:3] for m in END_TO_END]), ("per_layer", per_layer_definitions())):
        listed = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
        if listed != list(defined):
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py reports")
    if [w["name"] for w in doc["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    return problems


# ---------------------------------------------------------------------------
# output


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_report(report: dict) -> None:
    result = report["result"]
    kind = "per-layer, traced" if "stage_order" in report else f"end-to-end, {report['calls']} CLI calls"
    print(f"== {report['workload']}, {kind} (seed {report['seed']}, {report['items']} items)")
    if "stage_order" in report:
        print(f"   traced stages, in order: {' -> '.join(report['stage_order'])}; "
              f"{report['traced_reps']} traced repetitions, {report['spans']} spans")
    for name, metric in result["metrics"].items():
        line = f"   {name:<58} {_format(metric['value']):>12} {metric['unit']}"
        detail = report["details"].get(name)
        if detail:
            pct = "max" if detail["tail_pct"] == 100.0 else f"p{detail['tail_pct']:g}"
            line += f"   (median; {pct} {_format(detail['tail'])}; n={detail['n']}"
            if "unscaled_median" in detail:
                line += f"; unscaled median {_format(detail['unscaled_median'])}"
            line += ")"
        print(line)
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"   {'failed_ratio':<58} {_format(ratio):>12} ratio   "
          f"({result['failed']} of {result['attempted']} items)")
    for sha in report["output_sha256"]:
        print(f"   output sha256 {sha}")
    for problem in report["problems"][:20]:
        print(f"   PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "harmbounds" / "cli.py").is_file():
        print(f"error: {SRC / 'harmbounds'} not found; run from a harmbounds checkout", file=sys.stderr)
        return 2
    launcher = Launcher()
    try:
        return _run(launcher, args)
    finally:
        launcher.close()


def _run(launcher: Launcher, args) -> int:
    sys.path.insert(0, str(SRC))
    import harmbounds

    if not Path(harmbounds.__file__).resolve().is_relative_to(SRC):
        print(f"error: harmbounds imported from {harmbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        report = run_workload(launcher, args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(report)
        print(json.dumps(report["result"]))
        return 0

    problems = benchmark_json_problems()
    for problem in problems:
        print(f"PROBLEM: {problem}")
    correct = not problems
    for name in WORKLOADS:
        for trace in (False, True):
            report = run_workload(launcher, name, args.seed, args.seconds, trace)
            print_report(report)
            correct = correct and report["result"]["correct"]
    print("all correctness checks passed" if correct else "CORRECTNESS CHECKS FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
