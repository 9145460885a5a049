"""Record the benchmark's metrics for one checkout to BENCH_<pr>.json.

Runs the checkout's tier-1 test suite once, for its pass count and wall
time.  Then, for each workload that the checkout's ``BENCHMARK.json``
declares, runs the checkout's own ``bench/run.py --workload W --seed S
--seconds T`` at ``--trace 0`` and at ``--trace 1``, and keeps the JSON
result each run prints as its last stdout line: every metric with its unit,
``attempted`` and ``failed``.  T defaults to the file's ``run_seconds``.
It also records ``src_lines``, the line count of each module under
``src/harmbounds/`` and their total, as ``wc -l src/harmbounds/*.py`` counts.

    python3 tools/record_bench.py --pr N
    python3 tools/record_bench.py --pr M --checkout ../parent --commit <sha> --out BENCH_M.json

A speed claim compares two trees on the same machine, and which tree runs
second in a pair moves the figures, so ``--pair-with DIR --pairs K`` then
times K pairs of ``--trace 0`` runs of each workload, the checkout and DIR
alternately first, and adds them to the file under ``pairs.workloads``.
For each end-to-end metric of the checkout's ``BENCHMARK.json`` it also
records both sides' median and quartiles and ``change_wins``: the pairs in
which the checkout did better, in the metric's ``better`` direction (a tie
counts for neither side).  DIR's ``src_lines`` go under ``pairs`` too.  The
same K alternating pairs time each of ``COMMANDS``, the end-to-end figures
that no workload measures, as ``COMMAND_REPEATS`` fresh ``python -m
harmbounds.cli`` processes in each tree per side of a pair.  A side's
figures are the medians of its calls' wall time and peak RSS (``ru_maxrss``
from ``os.wait4``, in KiB), and each call's figures are kept; the medians,
quartiles and wins go under ``pairs.commands``.

Only the standard library is used; nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
ENVIRONMENT = ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE")  # both move the end-to-end figures
COMMANDS = {  # criterion 4 and the demo report, by the name they are recorded under
    "verify_samples_10000": ["verify", "--samples", "10000", "--seed", "42"],
    "example_json": ["example", "--format", "json"],
}
# Calls of each command per side of a pair, whose median is recorded: with one call
# per side, the parent's quartiles were 18-29% of its median apart.
COMMAND_REPEATS = 5
COMMAND_METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "ru_maxrss_kib", "better": "lower"}]


def _env(checkout: Path) -> dict:
    """The environment of the tier-1 command: src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    return env


def commit_of(checkout: Path) -> tuple[str, bool]:
    """The checkout's HEAD and whether its tracked files differ from it."""
    if not (checkout / ".git").exists():
        return "unknown", False
    def git(*argv: str) -> str:
        run = subprocess.run(["git", *argv], cwd=checkout, capture_output=True, text=True, check=True)
        return run.stdout.strip()

    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))


def src_lines(checkout: Path) -> dict:
    """The newline count of each module under src/harmbounds/, by file name, and their total."""
    paths = sorted((checkout / "src" / "harmbounds").glob("*.py"))
    modules = {path.name: path.read_bytes().count(b"\n") for path in paths}
    return {"modules": modules, "total": sum(modules.values())}


def summary_counts(summary: str) -> dict:
    """The counts of a pytest summary line by kind; `1 error` and `2 errors` both count as `errors`."""
    found = re.findall(r"(\d+) (passed|failed|errors?|skipped|x\w+)", summary)
    return {"errors" if kind == "error" else kind: int(n) for n, kind in found}


def tier1(checkout: Path) -> dict:
    """The pytest summary counts and the wall time of one tier-1 run."""
    began = time.perf_counter()
    run = subprocess.run(TIER1, cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    wall_s = time.perf_counter() - began
    summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
    counts = summary_counts(summary)
    return {"passed": counts.get("passed", 0), "counts": counts, "exit_code": run.returncode,
            "wall_s": round(wall_s, 2), "summary": summary}


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result that the checkout's bench/run.py prints last."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if run.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} failed in {checkout}:\n{run.stderr[-2000:]}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def time_command(checkout: Path, argv: list[str]) -> tuple[float, int]:
    """The wall time and the peak RSS in KiB (`ru_maxrss`) of one fresh
    `python -m harmbounds.cli ARGV` in the checkout; stdout is discarded."""
    command = [sys.executable, "-m", "harmbounds.cli", *argv]
    began = time.perf_counter()
    child = subprocess.Popen(command, cwd=checkout, env=_env(checkout), stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE)
    with child.stderr:
        stderr = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall_s = time.perf_counter() - began
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen never waits
    if child.returncode != 0:
        raise SystemExit(f"harmbounds {' '.join(argv)} failed in {checkout}:\n{stderr.decode()[-2000:]}")
    return wall_s, usage.ru_maxrss


def command_sample(checkout: Path, argv: list[str]) -> dict:
    """The median wall time and peak RSS of COMMAND_REPEATS calls of the command, and each call's."""
    calls = [time_command(checkout, argv) for _ in range(COMMAND_REPEATS)]
    return {
        "wall_s": statistics.median(wall_s for wall_s, _ in calls),
        "ru_maxrss_kib": statistics.median(rss for _, rss in calls),
        "calls": [{"wall_s": wall_s, "ru_maxrss_kib": rss} for wall_s, rss in calls],
    }


def alternate(change: Path, base: Path, count: int, measure) -> list[dict]:
    """`count` pairs of `measure(tree)`, the change first in even pairs and the base first in odd ones."""
    runs = []
    for i in range(count):
        order = [("change", change), ("base", base)][:: -1 if i % 2 else 1]
        run = {"first": order[0][0]}
        for name, tree in order:
            run[name] = measure(tree)
        print(f"pair {i + 1}/{count}, {run['first']} first", flush=True)
        runs.append(run)
    return runs


def pairs(change: Path, base: Path, workload: str, seed: int, seconds: float, count: int) -> list[dict]:
    """`count` alternating pairs of end-to-end runs of the workload."""

    def measure(tree: Path) -> dict:
        result = bench(tree, workload, seed, seconds, 0)
        return {**{metric: m["value"] for metric, m in result["metrics"].items()}, "failed": result["failed"]}

    return alternate(change, base, count, measure)


def acceptance(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles over the
    pairs, and how many pairs the change won in the metric's direction."""
    figures = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        sides = {side: [run[side][name] for run in runs] for side in ("base", "change")}
        figures[name] = {"better": metric["better"]}
        for side, values in sides.items():
            quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            figures[name][side] = {"median": statistics.median(values), "quartiles": [quartiles[0], quartiles[2]]}
        figures[name]["change_wins"] = sum(sign * (c - b) > 0 for b, c in zip(sides["base"], sides["change"]))
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--commit", help="the checkout's commit, when it is not a git work tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of the checkout's BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json in the checkout")
    parser.add_argument("--pair-with", type=Path, help="another checkout to time against")
    parser.add_argument("--pair-commit", help="its commit, when it is not a git work tree")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:  # refused before the runs, which take minutes, not after them
        parser.error("--pairs must be at least 1")

    checkout = args.checkout.resolve()
    definition = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in definition["workloads"]]
    seconds = definition["run_seconds"] if args.seconds is None else args.seconds
    commit, changed = commit_of(checkout)
    record = {
        "pr": args.pr,
        "commit": args.commit or commit,
        "uncommitted_changes": changed,
        "seed": args.seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "environment": {name: os.environ.get(name) for name in ENVIRONMENT},
        "src_lines": src_lines(checkout),
    }
    print("tier-1 tests ...", flush=True)
    record["tier1"] = tier1(checkout)
    print(record["tier1"]["summary"], flush=True)
    record["workloads"] = {}
    for workload in workloads:
        record["workloads"][workload] = {}
        for trace in (0, 1):
            print(f"{workload} --trace {trace} ...", flush=True)
            result = bench(checkout, workload, args.seed, seconds, trace)
            record["workloads"][workload][f"trace{trace}"] = result
    if args.pair_with:
        base = args.pair_with.resolve()
        record["pairs"] = {
            "base_commit": args.pair_commit or commit_of(base)[0], "src_lines": src_lines(base), "workloads": {},
        }
        for workload in workloads:
            print(f"{workload} pairs ...", flush=True)
            runs = pairs(checkout, base, workload, args.seed, seconds, args.pairs)
            median = statistics.median(r["change"]["items_per_s"] / r["base"]["items_per_s"] - 1 for r in runs)
            figures = acceptance(runs, definition["end_to_end"])
            record["pairs"]["workloads"][workload] = {
                "median_items_per_s_change": median, "metrics": figures, "runs": runs,
            }
            wins = ", ".join(f"{name} {f['change_wins']}/{len(runs)}" for name, f in figures.items())
            print(f"{workload}: median items_per_s change {median:+.1%}; change wins {wins}", flush=True)
        record["pairs"]["commands"] = {}
        for name, command in COMMANDS.items():
            print(f"{name} pairs ...", flush=True)
            runs = alternate(checkout, base, args.pairs, lambda tree: command_sample(tree, command))
            figures = acceptance(runs, COMMAND_METRICS)
            record["pairs"]["commands"][name] = {
                "argv": command, "calls_per_side": COMMAND_REPEATS, "metrics": figures, "runs": runs,
            }
            wall_s, rss = figures["wall_s"], figures["ru_maxrss_kib"]
            print(f"{name}: median wall_s {wall_s['base']['median']:.3f} -> {wall_s['change']['median']:.3f} s, "
                  f"ru_maxrss {rss['base']['median']:.0f} -> {rss['change']['median']:.0f} KiB; "
                  f"change wins {wall_s['change_wins']} and {rss['change_wins']}/{len(runs)}", flush=True)
    out = args.out or checkout / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
