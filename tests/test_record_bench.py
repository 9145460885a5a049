"""tools/record_bench.py, imported from its file: the tier-1 summary parse and the paired runs."""

import importlib.util
import io
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

RECORD_BENCH = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"


@pytest.fixture(scope="module")
def record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", RECORD_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "summary,counts",
    [
        ("1 failed, 2070 passed, 1 error in 64.12s (0:01:04)", {"failed": 1, "passed": 2070, "errors": 1}),
        ("2071 passed, 2 errors in 70.01s (0:01:10)", {"passed": 2071, "errors": 2}),
    ],
    ids=["one-error", "two-errors"],
)
def test_errors_are_counted_under_one_key(record_bench, summary, counts):
    """pytest writes `1 error` but `2 errors`; two records compare on `errors`."""
    assert record_bench.summary_counts(summary) == counts


def test_pair_with_pairs_every_workload(record_bench, tmp_path, monkeypatch):
    """`--pair-with` times alternating pairs of every workload of the
    checkout's BENCHMARK.json, for its `run_seconds`, the change first in
    even pairs, and records each under `pairs.workloads` with, per
    end-to-end metric of that file, both sides' median and quartiles and the
    pairs the change won in the metric's direction."""
    change, base = tmp_path / "change", tmp_path / "base"
    change.mkdir()
    base.mkdir()
    definition = json.loads((RECORD_BENCH.parent.parent / "BENCHMARK.json").read_text())
    # another order and run length than the repo's, so that they must be read from the checkout
    definition["workloads"].reverse()
    definition["run_seconds"] = 7
    (change / "BENCHMARK.json").write_text(json.dumps(definition))
    workloads = [workload["name"] for workload in definition["workloads"]]
    calls = []

    def bench(checkout, workload, seed, seconds, trace):
        assert seconds == 7
        calls.append((checkout.name, workload, trace))
        paired = calls[2 * len(workloads):]  # after each workload's --trace 0 and 1 runs
        pair = sum(call[:2] == (checkout.name, workload) for call in paired) - 1
        values = {  # change, base: items_per_s better, wall_s tied, setup_s better, peak_rss_mb worse
            "items_per_s": (110.0 + pair, 100.0 + pair),
            "wall_s": (1.0, 1.0),
            "setup_s": (0.1, 0.2),
            "peak_rss_mb": (17.0, 16.0),
        }
        side = 0 if checkout == change else 1
        return {"metrics": {name: {"value": v[side]} for name, v in values.items()}, "failed": 0}

    monkeypatch.setattr(record_bench, "bench", bench)
    monkeypatch.setattr(record_bench, "tier1", lambda checkout: {"summary": "1 passed in 0.01s"})
    monkeypatch.setattr(record_bench, "time_command", lambda checkout, argv: (1.0, 16000))
    out = tmp_path / "BENCH.json"
    argv = ["--pr", "0", "--checkout", str(change), "--pair-with", str(base), "--pairs", "3", "--out", str(out)]
    assert record_bench.main(argv) == 0

    record = json.loads(out.read_text())
    assert record["seconds"] == 7 and list(record["workloads"]) == workloads
    pairs = record["pairs"]
    assert list(pairs["workloads"]) == workloads
    for recorded in pairs["workloads"].values():
        assert [run["first"] for run in recorded["runs"]] == ["change", "base", "change"]
        assert recorded["median_items_per_s_change"] == pytest.approx(111 / 101 - 1)
        metrics = recorded["metrics"]
        assert list(metrics) == ["setup_s", "wall_s", "items_per_s", "peak_rss_mb"]
        assert metrics["items_per_s"] == {
            "better": "higher",
            "base": {"median": 101.0, "quartiles": [100.0, 102.0]},
            "change": {"median": 111.0, "quartiles": [110.0, 112.0]},
            "change_wins": 3,
        }
        assert [metrics[name]["change_wins"] for name in ("setup_s", "wall_s", "peak_rss_mb")] == [3, 0, 0]
        assert metrics["setup_s"]["better"] == "lower"
        assert metrics["peak_rss_mb"]["change"] == {"median": 17.0, "quartiles": [17.0, 17.0]}
    order = ["change", "base", "base", "change", "change", "base"]
    assert calls[2 * len(workloads):] == [(tree, workload, 0) for workload in workloads for tree in order]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_pairs_below_one_are_refused_before_any_run(record_bench, tmp_path, monkeypatch, capsys, count):
    """`--pairs 0` ends in a usage error before the tier-1 run and every
    bench run, not in a `statistics.median([])` traceback after them."""

    def never(*args):
        raise AssertionError("nothing may run")

    monkeypatch.setattr(record_bench, "tier1", never)
    monkeypatch.setattr(record_bench, "bench", never)
    argv = ["--pr", "0", "--checkout", str(tmp_path), "--pair-with", str(tmp_path), "--pairs", count]
    with pytest.raises(SystemExit) as exit_info:
        record_bench.main(argv)
    assert exit_info.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err


def _stub_tree(root: Path, modules: dict) -> Path:
    """A checkout whose src/harmbounds/ holds `modules`, file name to text."""
    package = root / "src" / "harmbounds"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text)
    (package / "notes.txt").write_text("not a module\n")
    (root / "BENCHMARK.json").write_text(json.dumps({"workloads": [], "run_seconds": 1, "end_to_end": []}))
    return root


@pytest.mark.parametrize("paired", [False, True], ids=["checkout", "pair-with"])
def test_src_lines_are_recorded(record_bench, tmp_path, monkeypatch, paired):
    """`src_lines` holds each module's line count and the total, as
    `wc -l src/harmbounds/*.py` counts them (a last line without a newline
    is not counted); with `--pair-with`, the other tree's go under `pairs`."""
    change = _stub_tree(tmp_path / "change", {"cli.py": "a\nb\nc\n", "__init__.py": "", "model.py": "x\ny"})
    base = _stub_tree(tmp_path / "base", {"cli.py": "a\n" * 5, "old.py": "z\n"})
    monkeypatch.setattr(record_bench, "tier1", lambda checkout: {"summary": "1 passed in 0.01s"})
    monkeypatch.setattr(record_bench, "time_command", lambda checkout, argv: (1.0, 16000))
    out = tmp_path / "BENCH.json"
    argv = ["--pr", "0", "--checkout", str(change), "--out", str(out)]
    assert record_bench.main(argv + (["--pair-with", str(base)] if paired else [])) == 0

    record = json.loads(out.read_text())
    assert record["src_lines"] == {"modules": {"__init__.py": 0, "cli.py": 3, "model.py": 1}, "total": 4}
    if paired:
        assert record["pairs"]["src_lines"] == {"modules": {"cli.py": 5, "old.py": 1}, "total": 6}
    else:
        assert "pairs" not in record


class _Clock:
    """A `perf_counter` that only the fake `os.wait4` below moves."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


@pytest.fixture
def fake_cli(record_bench, monkeypatch):
    """Replaces `subprocess.Popen`, `os.wait4` and the clock of
    `record_bench`: each CLI call is logged as (tree name, argv, PYTHONPATH)
    and takes 1.0 s and 16,000 KiB in the change and 1.5 s and 17,000 KiB in
    the base, plus 0.1 s and 10 KiB per earlier call of the same tree and
    command; a call with "--fail" exits 1."""
    clock, calls, children = _Clock(), [], {}

    class Popen:
        def __init__(self, command, cwd, env, stdout, stderr):
            assert command[:3] == [sys.executable, "-m", "harmbounds.cli"] and stdout == subprocess.DEVNULL
            assert stderr == subprocess.PIPE
            tree, argv = Path(cwd).name, command[3:]
            earlier = sum(call[:2] == (tree, argv) for call in calls)
            calls.append((tree, argv, env["PYTHONPATH"].split(":")[0]))
            self.pid, self.returncode, self.stderr = len(calls), None, io.BytesIO(b"boom")
            children[self.pid] = tree, earlier, "--fail" in argv

    def wait4(pid, options):
        assert options == 0
        tree, earlier, fails = children.pop(pid)
        clock.now += (1.0 if tree == "change" else 1.5) + 0.1 * earlier
        rss = (16_000 if tree == "change" else 17_000) + 10 * earlier
        return pid, 256 if fails else 0, types.SimpleNamespace(ru_maxrss=rss)

    monkeypatch.setattr(record_bench.subprocess, "Popen", Popen)
    monkeypatch.setattr(record_bench.os, "wait4", wait4)
    monkeypatch.setattr(record_bench, "time", clock)
    monkeypatch.setattr(record_bench, "COMMAND_REPEATS", 3)
    return calls


def test_pair_with_times_the_commands_in_fresh_processes(record_bench, tmp_path, monkeypatch, fake_cli):
    """With `--pair-with`, each of `COMMANDS` runs COMMAND_REPEATS times as
    a fresh `python -m harmbounds.cli` per tree and pair, with that tree's
    src/ first on PYTHONPATH, in the alternating order of the workload pairs;
    a side's `wall_s` and `ru_maxrss_kib` are the medians of its calls, and
    `pairs.commands` holds both sides' medians and quartiles of them and the
    pairs the change won."""
    change = _stub_tree(tmp_path / "change", {"cli.py": ""})
    base = _stub_tree(tmp_path / "base", {"cli.py": ""})
    monkeypatch.setattr(record_bench, "tier1", lambda checkout: {"summary": "1 passed in 0.01s"})
    out = tmp_path / "BENCH.json"
    argv = ["--pr", "0", "--checkout", str(change), "--pair-with", str(base), "--pairs", "3", "--out", str(out)]
    assert record_bench.main(argv) == 0

    commands = json.loads(out.read_text())["pairs"]["commands"]
    assert record_bench.COMMANDS == {
        "verify_samples_10000": ["verify", "--samples", "10000", "--seed", "42"],
        "example_json": ["example", "--format", "json"],
    }
    assert list(commands) == list(record_bench.COMMANDS)
    order = ["change", "base", "base", "change", "change", "base"]
    assert fake_cli == [
        (tree, command, str(tmp_path / tree / "src"))
        for command in record_bench.COMMANDS.values()
        for tree in order
        for _ in range(3)
    ]
    for name, recorded in commands.items():
        assert recorded["argv"] == record_bench.COMMANDS[name] and recorded["calls_per_side"] == 3
        assert [run["first"] for run in recorded["runs"]] == ["change", "base", "change"]
        first = recorded["runs"][0]["change"]
        assert [call["wall_s"] for call in first["calls"]] == pytest.approx([1.0, 1.1, 1.2])
        assert [call["ru_maxrss_kib"] for call in first["calls"]] == [16_000, 16_010, 16_020]
        assert [run["change"]["wall_s"] for run in recorded["runs"]] == pytest.approx([1.1, 1.4, 1.7])
        assert [run["change"]["ru_maxrss_kib"] for run in recorded["runs"]] == [16_010, 16_040, 16_070]
        wall_s = recorded["metrics"]["wall_s"]
        assert wall_s["better"] == "lower" and wall_s["change_wins"] == 3
        assert wall_s["change"]["median"] == pytest.approx(1.4)
        assert wall_s["base"]["median"] == pytest.approx(1.9)
        assert wall_s["base"]["quartiles"] == pytest.approx([1.6, 2.2])
        rss = recorded["metrics"]["ru_maxrss_kib"]
        assert rss["better"] == "lower" and rss["change_wins"] == 3
        assert (rss["change"]["median"], rss["base"]["median"]) == (16_040, 17_040)


def test_a_failing_command_names_itself(record_bench, tmp_path, fake_cli):
    with pytest.raises(SystemExit, match="harmbounds verify --fail failed in .*\n.*boom"):
        record_bench.time_command(tmp_path, ["verify", "--fail"])


def test_a_command_is_measured_in_its_own_child(record_bench):
    """`time_command` reaps the child itself with `os.wait4`, which reports
    the child's own peak RSS, and refuses a nonzero exit with its stderr."""
    checkout = RECORD_BENCH.parent.parent
    wall_s, rss = record_bench.time_command(checkout, ["--help"])
    assert wall_s > 0 and rss > 1024  # a Python interpreter holds more than 1 MiB
    with pytest.raises(SystemExit, match="harmbounds verify --samples 0 failed in .*\n.*at least 1"):
        record_bench.time_command(checkout, ["verify", "--samples", "0"])
