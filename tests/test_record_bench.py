"""The tier-1 summary parse of tools/record_bench.py, imported from its file."""

import importlib.util
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
