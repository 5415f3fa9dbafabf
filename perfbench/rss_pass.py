"""Run one pass of CLI commands in a fresh process; print its peak RSS in KiB.

usage: python3 perfbench/rss_pass.py '<JSON list of argv lists>'

Output goes to the null device, as it would to a file or pipe, so the
figure is the program's own footprint, not the benchmark's buffers. The peak
is read from ``VmHWM``: ``ru_maxrss`` survives ``exec`` and would report the
parent's footprint when that is larger.
"""

import contextlib
import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reqlattice import cli  # noqa: E402


def main() -> None:
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    cli.run(argv)
                except Exception:  # the parent's own pass records the failure
                    pass
    print(_peak_kib())


def _peak_kib() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    main()
