"""The machine-speed calibration every reported time is scaled by.

The benchmark's machine is a 2-vCPU VM on a shared host whose speed drifts
by up to 2x over seconds and by a third over minutes.  Before each call and
set-up the benchmark times :func:`calibration_loop`, its own fixed
pure-Python loop, and scales the call's time by ``REFERENCE_LOOP_S`` over
the loop's time: every figure reads as on a machine that runs the loop in
``REFERENCE_LOOP_S``.

A call that crosses to another process (the shard server) also runs on
the other vCPU, whose speed can differ.  :class:`Peer` is a subprocess that
runs the same loop whenever it is pinged through a pipe; its round trip
measures the other vCPU and the wake-up between processes, as a call to
the server does.  Run this file to be that peer::

    python perfbench/calibration.py
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict

CALIBRATION_LOOP = 12000
"""Iterations of the calibration loop (about 2 ms)."""
REFERENCE_LOOP_S = 0.002
"""The loop time every reported time is scaled to: about the loop's time on
an unloaded 2-vCPU x86-64 VM with Python 3.11."""
SETUP_LOOPS = 5
PEER_STOP_TIMEOUT_S = 30.0


def calibration_loop() -> float:
    """Seconds one run of a fixed pure-Python loop takes: the machine's
    speed at this moment."""
    start = perf_counter()
    counts: Dict[int, int] = {}
    for i in range(CALIBRATION_LOOP):
        counts[i % 512] = counts.get(i % 512, 0) + i
    return perf_counter() - start


def setup_loop_s() -> float:
    """The machine's speed before a set-up: the median of SETUP_LOOPS
    calibration loops, since a set-up lasts far longer than one loop."""
    return statistics.median(calibration_loop() for _ in range(SETUP_LOOPS))


class Peer:
    """A subprocess that runs the calibration loop each time it is pinged."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def _ping(self) -> float:
        assert self.process.stdin is not None
        assert self.process.stdout is not None
        start = perf_counter()
        self.process.stdin.write(b".")
        self.process.stdin.flush()
        if self.process.stdout.read(1) != b".":
            raise RuntimeError("calibration peer exited")
        return perf_counter() - start

    def loop_s(self) -> float:
        """The mean loop time of this process and the peer: the peer's is
        its round trip, loop and wake-ups included."""
        return (calibration_loop() + self._ping()) / 2.0

    def close(self) -> None:
        """Close the pipe (the peer exits at end of input) and wait."""
        assert self.process.stdin is not None
        assert self.process.stdout is not None
        self.process.stdin.close()
        try:
            self.process.wait(timeout=PEER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def _serve_peer() -> None:
    while sys.stdin.buffer.read(1):
        calibration_loop()
        sys.stdout.buffer.write(b".")
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    _serve_peer()
