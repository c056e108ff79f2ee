"""Host-speed sampling for the benchmark's timings.

The benchmark shares a few cores of a host whose speed drifts: a fixed
CPU-bound loop runs up to 2x slower for seconds to minutes at a time,
with no steal time to show for it (see README, Noise). A Sampler interrupts
the benchmark every PERIOD_S seconds (SIGALRM) and times one round of a fixed
reference kernel with the same mix of work as sinet: small numpy products
and pure-Python box arithmetic. The rounds are kept off the sampler's clock,
and `factor(a, b)` is how much slower than nominal the host ran between two
clock readings. A timing divided by it is in nominal-host seconds.

The kernel is the benchmark's own code and uses nothing from sinet, so a
change to sinet moves the corrected timings in full. A round runs in the
main thread between two bytecodes of the benchmark or of sinet, so it never
overlaps sinet's work, and sinet runs no threads of its own on one process.
"""

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.5
# About the fastest round seen on the host that recorded baseline.json.
# Corrected timings are in seconds of that host at its fastest.
NOMINAL_ROUND_S = 0.040

_X = np.linspace(-1.0, 1.0, 16 * 32).reshape(16, 32)
_W = np.linspace(-0.1, 0.1, 32 * 48).reshape(32, 48)
_BOXES = [(float(i % 7), float(i % 5), float(i % 7 + 3), float(i % 5 + 4)) for i in range(64)]


def reference_round():
    """A fixed amount of work; returns a checksum so none of it is skipped."""
    x, area = _X, 0.0
    for _ in range(40):
        for _ in range(20):
            x = np.tanh(x @ _W)[:, :32] * 0.5 + x * 0.5
        for a in _BOXES:
            for b in _BOXES[:16]:
                iw = min(a[2], b[2]) - max(a[0], b[0])
                ih = min(a[3], b[3]) - max(a[1], b[1])
                if iw > 0 and ih > 0:
                    area += iw * ih
    return area + float(x.sum())


class Sampler:
    """Times a reference round every PERIOD_S seconds while entered."""

    def __init__(self):
        self.paused = 0.0   # wall seconds spent in rounds
        self.times = []     # clock reading at each round, ascending
        self.rounds = []    # seconds of each round
        self._previous = None
        reference_round()   # first-call costs stay out of the samples

    def clock(self):
        """perf_counter minus the time spent in rounds."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def _round(self, signum, frame):
        start = time.perf_counter()
        reference_round()
        seconds = time.perf_counter() - start
        self.times.append(start - self.paused)
        self.rounds.append(seconds)
        self.paused += seconds

    def __enter__(self):
        self._round(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._round)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start, end):
        """Mean round time over clock interval [start, end], widened by one
        period each side so that a short interval still holds a round, as a
        multiple of the nominal round."""
        lo = bisect.bisect_left(self.times, start - PERIOD_S)
        hi = bisect.bisect_right(self.times, end + PERIOD_S)
        near = self.rounds[lo:hi]
        if not near:
            raise RuntimeError(f"no host-speed sample near clock {start:.3f}-{end:.3f}")
        return sum(near) / len(near) / NOMINAL_ROUND_S
