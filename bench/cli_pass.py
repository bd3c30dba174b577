"""`python -m ballquot.cli ARGS`, with the machine's speed sampled alongside.

    python3 bench/cli_pass.py report --format json

Runs the module as `python -m` does (runpy, as `__main__`, with `sys.argv`
set), so stdout and the exit code are the CLI's own.  A SIGALRM every 0.25 s
of wall time takes a `speed.timed_sample()` (about 2 % of the time), as do
the start and the exit.  At exit it writes the samples as a JSON list, the
last line of stderr; the parent scales the time between them with
`speed.scaled_time`.
"""

import atexit
import json
import runpy
import signal
import sys

from speed import timed_sample

samples: list[tuple[float, float, float]] = []


def take_sample(*_) -> None:
    samples.append(timed_sample())


def report() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    take_sample()
    sys.stderr.write("\n" + json.dumps(samples) + "\n")


if __name__ == "__main__":
    take_sample()
    atexit.register(report)
    signal.signal(signal.SIGALRM, take_sample)
    signal.setitimer(signal.ITIMER_REAL, 0.25, 0.25)
    sys.argv = ["ballquot"] + sys.argv[1:]
    runpy.run_module("ballquot.cli", run_name="__main__", alter_sys=True)
