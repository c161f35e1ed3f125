"""Run one command in a fresh child process and print its peak resident set
size in MB.

    python tools/peak_rss.py COMMAND [ARG ...]

for example, from the root of a source tree,

    PYTHONPATH=src python tools/peak_rss.py python -m moistpe run --config run.cfg

The figure is the child's ru_maxrss as os.wait4 reports it, divided by 1024,
the unit of the benchmark's peak_rss_mb.  It counts what tracemalloc does
not see: the allocator's heap and pocketfft's scratch.  The child inherits
the environment (set MOISTPE_THREADS=1 and OPENBLAS_NUM_THREADS=1 to match
the benchmark's children), and its standard output goes to standard error,
so standard output holds the one number.  The exit status is the child's.
"""

from __future__ import annotations

import os
import subprocess
import sys


def peak_rss_mb(command: list[str]) -> tuple[float, int]:
    """(peak RSS in MB, exit code) of command run to its end."""
    proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=sys.stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    mb, code = peak_rss_mb(argv[1:])
    print(f"{mb:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
