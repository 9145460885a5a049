"""tools/record_bench.py, imported from its file: the tier-1 summary parse and the paired runs."""

import importlib.util
import json
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
    """`--pair-with` times alternating pairs of every workload, the change
    first in even pairs, and records each under `pairs.workloads` with, per
    end-to-end metric of the checkout's BENCHMARK.json, both sides' median
    and quartiles and the pairs the change won in the metric's direction."""
    change, base = tmp_path / "change", tmp_path / "base"
    change.mkdir()
    base.mkdir()
    (change / "BENCHMARK.json").write_text((RECORD_BENCH.parent.parent / "BENCHMARK.json").read_text())
    calls = []

    def bench(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, workload, trace))
        paired = calls[2 * len(record_bench.WORKLOADS):]  # after each workload's --trace 0 and 1 runs
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
    out = tmp_path / "BENCH.json"
    argv = ["--pr", "0", "--checkout", str(change), "--pair-with", str(base), "--pairs", "3", "--out", str(out)]
    assert record_bench.main(argv) == 0

    pairs = json.loads(out.read_text())["pairs"]
    assert list(pairs["workloads"]) == list(record_bench.WORKLOADS)
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
    assert calls[2 * len(record_bench.WORKLOADS):] == [
        (tree, workload, 0) for workload in record_bench.WORKLOADS for tree in order
    ]
