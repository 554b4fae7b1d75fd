"""Start one analyzer process and report its own wall time and peak RSS.

    python -I -S perfbench/spawn.py RESULT.json -- ARGV...

At exec the kernel carries the high-water RSS of the spawning process
over into the child's ``ru_maxrss``.  ``run.py`` holds a reference
analysis and the host probes, so a child it spawned itself would report
``run.py``'s peak whenever that is the larger one.  This small, fresh
process spawns ARGV instead, with the stdio and working directory it
was given, reaps it with ``wait4`` and writes ``seconds`` (spawn to
exit), ``returncode`` and ``maxrss_kb`` to RESULT.json.
"""

import json
import os
import sys
import time


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        print("usage: spawn.py RESULT.json -- ARGV...", file=sys.stderr)
        return 2
    result, argv = sys.argv[1], sys.argv[3:]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - started
    with open(result, "w") as out:
        json.dump({"seconds": seconds, "returncode": os.waitstatus_to_exitcode(status),
                   "maxrss_kb": usage.ru_maxrss}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
