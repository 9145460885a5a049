"""Start benchmark children from a small process and report each one's rusage.

Reads one JSON request per line on stdin ({"argv", "stdout", "stderr",
"cwd", "env", "timeout"}), runs the child to exit and answers with one JSON
line ({"exit_code", "wall_s", "maxrss_kib", "reference_s"}).

Linux records the memory high-water mark of a process's image before
``exec`` into its peak RSS, so a child forked from the benchmark's own,
larger process would report that process's memory as its peak.  Children
forked from this small process do not.

``reference_s`` is the mean time of ``reference_work`` measured just before
and just after the child.  The machine's speed for this kind of code drifts
by tens of percent over seconds; the benchmark divides each measured time
by the reference time next to it to take that drift out.
"""

import json
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction


def reference_work() -> None:
    """A fixed amount of the program's kind of work: exact-rational Gaussian elimination.

    It does not use harmbounds, so no change to the program can change it.
    """
    for seed in range(24):
        rows = [[Fraction((seed * 7 + i * 13 + j * 5) % 17, 1 + (i + 2 * j) % 7) for j in range(9)] for i in range(6)]
        for col in range(6):
            pivot = next((r for r in range(col, 6) if rows[r][col] != 0), None)
            if pivot is None:
                continue
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inverse = rows[col][col]
            rows[col] = [value / inverse for value in rows[col]]
            for r in range(6):
                if r != col and rows[r][col] != 0:
                    factor = rows[r][col]
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]


def reference_s() -> float:
    began = time.perf_counter()
    reference_work()
    return time.perf_counter() - began


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        before = reference_s()
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            began = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"], env=request["env"])
            killer = threading.Timer(request["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - began
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "exit_code": proc.returncode,
            "wall_s": wall,
            "maxrss_kib": usage.ru_maxrss,
            "reference_s": (before + reference_s()) / 2,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
