"""Run the explainrank CLI and write the process's peak RSS when it exits.

Usage: python3 entry.py PEAK_FILE COMMAND [ARGS...]

The same as the ``explainrank`` console script, plus one exit hook that
writes VmHWM from /proc/self/status (kB) to PEAK_FILE. The benchmark reads
peak memory this way because the max RSS that ``os.wait4`` reports for a
child also counts the memory of the parent it was forked from.
"""

from __future__ import annotations

import atexit
import sys


def record_peak_rss(path: str) -> None:
    def write() -> None:
        with open("/proc/self/status", encoding="ascii") as fh:
            kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        with open(path, "w", encoding="ascii") as fh:
            fh.write(kb)

    atexit.register(write)


if __name__ == "__main__":
    record_peak_rss(sys.argv[1])
    from explainrank.cli import main

    sys.exit(main(sys.argv[2:]))
