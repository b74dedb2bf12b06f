"""Machine-speed probe: rescales measured times to a reference speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent within a minute (a fixed pure-Python loop took 0.18 s to 0.41 s
over one minute on a 2-vCPU VM), far more than the changes the benchmark
must resolve.  While a measurement runs, :class:`SpeedProbe` interrupts it
every ``INTERVAL_S`` seconds (``SIGALRM``) and times a fixed loop of
``Fraction`` and dict work, the same kind of work liesplit does.  The
probe's own time is removed from every interval it measures, and the rest
is scaled by ``REF_SAMPLE_S`` over the mean probe sample inside the
interval: seconds the work would take at the reference speed.  The probe
calls no liesplit code, so a change to liesplit moves the rescaled times
exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
LOOPS = 400
# mean probe sample on the machine where the first baseline was recorded
# (2-vCPU VM, Python 3.11.7); it only sets the scale of the rescaled times
REF_SAMPLE_S = 1.25e-3
MIN_SAMPLES = 5


def _probe_work():
    acc = {}
    for i in range(LOOPS):
        k = (i * 7919) % 101
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 97, 1 + i % 13)
    return acc


def speed_now(seconds: float) -> float:
    """Probe back to back for ``seconds``; return the reference-speed factor.

    The factor is the reference sample time over the median sample time.

    Multiply a time measured right after this call by the factor to get
    it at the reference speed.  Used for set-up, which is too short to
    carry its own probe samples.
    """
    durations = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t = time.perf_counter()
        _probe_work()
        durations.append(time.perf_counter() - t)
    durations.sort()
    return REF_SAMPLE_S / durations[len(durations) // 2]


class SpeedProbe:
    """Context manager sampling machine speed while the enclosed work runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        _probe_work()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _inside(self, t0: float, t1: float) -> list[float]:
        return [d for s, d in zip(self.starts, self.durations) if t0 <= s and s + d <= t1]

    def rescale(self, t0: float, t1: float, fallback: tuple | None = None) -> float:
        """Seconds of non-probe work in [t0, t1], rescaled to the reference speed.

        An interval holding fewer than ``MIN_SAMPLES`` probe samples takes
        its speed from the ``fallback`` interval instead.
        """
        inside = self._inside(t0, t1)
        net = (t1 - t0) - sum(inside)
        speed = inside if len(inside) >= MIN_SAMPLES or fallback is None \
            else self._inside(*fallback)
        if not speed:
            raise ValueError("no probe samples to rescale with; interval too short")
        return net * REF_SAMPLE_S / (sum(speed) / len(speed))
