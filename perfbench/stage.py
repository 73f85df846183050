"""Run one `dde` CLI stage exactly as `python -m dde.cli` does, then write the
process's own peak resident set in kB to a file.

    python3 perfbench/stage.py PEAK_RSS_FILE <dde cli arguments...>

The peak is VmHWM of this process's address space.  The rusage of a child
is not used because Linux carries the parent's high-water mark across
fork and exec into it.
"""

import runpy
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    rss_path = sys.argv.pop(1)
    sys.argv[0] = "dde"
    try:
        runpy.run_module("dde.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(rss_path, "w", encoding="ascii") as f:
            f.write(str(peak_rss_kb()))
