"""Host speed sampler: times a fixed kernel twenty times a second.

Each vCPU of the small shared hosts this benchmark runs on switches, on its
own, between a fast and a slow speed for fractions of a second to minutes
at a time; at the slow speed passklab takes up to 1.7 times as long.  So
run.py pins its workers and one sampler process to the same CPU (``pin``)
and counts each stretch of a timed interval as ``REF_S / (kernel time
then)`` of its length, which reports every time at one reference speed of
that CPU.  The kernel, a Python loop over float lists, float formatting and
parsing, and a JSON round trip, slows down like passklab's own code; it
does not use passklab, so a change to passklab cannot move it.

    python3 perfbench/hostspeed.py

prints ``ready``, samples until it receives SIGTERM, then prints the samples
as one JSON list of [monotonic start, kernel CPU seconds] pairs.
"""

import bisect
import json
import math
import os
import signal
import subprocess
import sys
import time

PERIOD_S = 0.05
# Kernel time at the fast speed of a 2-vCPU Xeon (2.1 GHz) sandbox.
REF_S = 5.5e-4
# The kernel time at a sample is the mean of the samples this close to it,
# so that a 50 ms step is scaled by about ten samples.
MARGIN_S = 0.25

_FLOATS = [i / 3000 for i in range(3000)]
_DOC = [i / 256 for i in range(256)]


def pin() -> None:
    """Confine this process to the first CPU it may use, as every worker and
    the sampler do, so that the sampler measures the worker's CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def kernel() -> None:
    s = 0.0
    for x, y in zip(_FLOATS, _FLOATS):
        s += x * y
    for x in _DOC:
        float(repr(x * 1.1))
    json.loads(json.dumps(_DOC))


def sample() -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    pin()
    print("ready", flush=True)
    samples = []
    while not stop:
        t, cpu = time.monotonic(), time.thread_time()
        kernel()
        samples.append((t, time.thread_time() - cpu))
        time.sleep(PERIOD_S)
    print(json.dumps(samples))


class SpeedLog:
    """The host speed over time, from the sampler's samples."""

    def __init__(self, samples: list):
        if not samples:
            raise RuntimeError("host speed sampler took no sample")
        self.samples = samples
        times = [t for t, _ in samples]
        sums = [0.0]
        for _, d in samples:
            sums.append(sums[-1] + d)
        # Sample i stands for the time from halfway to the previous sample to
        # halfway to the next; the first and last reach out indefinitely.
        self._edges = [-math.inf] + [(a + b) / 2 for a, b in zip(times, times[1:])] + [math.inf]
        self._speed = []
        for t in times:
            lo = bisect.bisect_left(times, t - MARGIN_S)
            hi = bisect.bisect_right(times, t + MARGIN_S)
            self._speed.append(REF_S * (hi - lo) / (sums[hi] - sums[lo]))

    def scaled(self, intervals) -> float:
        """Total length of the (start, end) intervals at the reference speed."""
        total = 0.0
        for t0, t1 in intervals:
            i = bisect.bisect_right(self._edges, t0) - 1
            while self._edges[i] < t1:
                overlap = min(t1, self._edges[i + 1]) - max(t0, self._edges[i])
                total += overlap * self._speed[i]
                i += 1
        return total


class Sampler:
    """Runs the sampler process for the duration of a ``with`` block, then
    leaves its SpeedLog in ``log``."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE,
                                     text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("host speed sampler did not start")
        return self

    def __exit__(self, *exc) -> None:
        out = self._stop()
        self.log = SpeedLog(json.loads(out) if out else [])

    def _stop(self) -> str:
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("host speed sampler did not stop") from None
        return out


if __name__ == "__main__":
    sample()
