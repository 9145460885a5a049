"""Run one ``harmbounds`` CLI command in this fresh process and time ``main``.

    python3 bench/child.py <timing.json> <cli arguments...>

This is what the ``harmbounds`` console script does (import
``harmbounds.cli`` and exit with ``main(argv)``), plus two clock reads
around ``main`` whose result goes to <timing.json>, so the program's own
stdout and stderr stay untouched.  ``harmbounds`` is imported from
``PYTHONPATH``, which the caller points at the checkout's ``src``.
"""

import json
import sys
import time

timing_path, argv = sys.argv[1], sys.argv[2:]

import harmbounds.cli  # noqa: E402

t0 = time.perf_counter()
status = harmbounds.cli.main(argv)
t1 = time.perf_counter()
sys.stdout.flush()
with open(timing_path, "w", encoding="utf-8") as fh:
    json.dump({"main_s": t1 - t0, "module": harmbounds.cli.__file__}, fh)
sys.exit(status)
