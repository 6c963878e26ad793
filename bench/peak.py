"""Peak resident memory of the current process, read from inside it.

``ru_maxrss`` of a child, as ``os.wait4`` reports it, is at least the
peak of the parent that spawned it: Linux carries the high-water mark
across fork and exec.  So each child of the benchmark reports its own
``VmHWM`` instead, which belongs to the address space made at exec.

    python3 bench/peak.py OUT ARGS...

runs ``surfword ARGS...`` in this process, as ``python3 -m surfword
ARGS...`` does, then writes the process's peak resident memory in MB
to the file OUT and exits with the command's exit code.
"""

from __future__ import annotations

import runpy
import sys


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    out, sys.argv = sys.argv[1], ["surfword", *sys.argv[2:]]
    try:
        runpy.run_module("surfword", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    with open(out, "w") as fh:
        fh.write(repr(peak_rss_mb()))
    sys.exit(code)
