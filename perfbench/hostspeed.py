"""How fast the host is running right now, from a fixed calibration kernel.

On a shared machine the host's speed drifts by a factor of up to two over
tens of seconds, independently of the program measured, and every timed
metric drifts with it.  A helper process runs a fixed pure-Python kernel
on request; its time, divided by :data:`REFERENCE_S`, is the host's
*slowdown* at that moment (1.0 is the reference speed, 2.0 half of it).
The runner probes right before and right after each round and divides
the round's wall times by the mean slowdown, which reports them at the
reference speed.

The kernel runs in its own interpreter (``python -I``), so nothing the
program under test does to its own process — collector settings, trace
hooks, imports — can touch the calibration.  The helper sits blocked on
its input while a round runs, so it takes no processor time from it.
"""

from __future__ import annotations

import subprocess
import sys

#: The kernel's best-of-three time, in seconds, at the reference speed:
#: its median on the 2-core host where the baseline was taken.
REFERENCE_S = 0.0104

# Calls, small-object allocation, attribute access, dict and str work —
# the interpreter operations the NTCS layers spend their time on.
_KERNEL = r"""
import sys
import time


class Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel():
    table = {}
    start = time.perf_counter()
    for i in range(25000):
        pair = Pair(i, i * 2)
        table[i & 1023] = (pair.a + pair.b, str(i))
    return time.perf_counter() - start


for _ in sys.stdin:
    print(repr(min(kernel() for _ in range(3))), flush=True)
"""


class HostSpeed:
    """The calibration helper process; use as a context manager."""

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-c", _KERNEL],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def slowdown(self) -> float:
        """The host's slowdown now: kernel time / :data:`REFERENCE_S`."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed helper exited")
        return float(line) / REFERENCE_S

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
