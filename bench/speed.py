"""Machine-speed probe: rescales a pass's times to a reference speed.

The benchmark's host is a shared VM whose speed moves by 20-30% over
minutes and by up to 2x over fractions of a second, with the same work on
the same seed.  Those phases, not the program, decided how long a pass
took.  So while a pass runs, a fixed piece of work (the probe) runs every
``INTERVAL_S`` seconds of wall time from a ``SIGALRM`` handler in the
benchmark's own process, and each time it takes is recorded.  A span of the
pass that took ``raw`` seconds, ``own`` of them inside the probe, is
reported as

    (raw - own) * REFERENCE_S / speed(probe durations within the span)

that is, the time the span would have taken had the machine run the probe
in ``REFERENCE_S``.  ``speed`` is the mean of the fastest nine tenths of the
durations: a probe that a stall lands in takes up to 20x the median, and a
few such probes moved the plain mean by 20% on study-cli while the
program's own time barely moved.

The probe mirrors the program's hot path at this commit: an Adam-style
update loop over numpy scalars (the ``adam_step`` and n = 1 kernel loops)
and a few small dense-layer ``np.dot`` calls.  It uses no vfmlab code, so a
change to the program cannot change the probe.  On a 2-vCPU 2.1 GHz Xeon
VM, in two sets of seeds 0-9 per workload, the raw pass times spread 0.07
to 0.22 (IQR over median) and their medians moved 8-15% between the sets;
rescaled, they spread 0.013 to 0.051 and their medians moved at most 1%.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# about the probe's duration when it runs alone on an idle 2.1 GHz Xeon vCPU
REFERENCE_S = 0.35e-3

_rng = np.random.default_rng(0)
_N = 120
_THETA = _rng.standard_normal(_N)
_GRAD = _rng.standard_normal(_N) * 0.1
_LOWER = np.full(_N, -5.0)
_UPPER = np.full(_N, 5.0)
_LAYERS = ((4, 16), (16, 16), (16, 1))
_NET = _rng.standard_normal(sum(fi * fo + fo for fi, fo in _LAYERS)) * 0.1
_X = _rng.standard_normal((1, 4))


def probe() -> float:
    """The fixed work the probe times; returns a checksum."""
    m = np.zeros(_N)
    v = np.zeros(_N)
    out = np.empty(_N)
    bc1, bc2 = 1.0 - 0.9 ** 3, 1.0 - 0.999 ** 3
    for i in range(_N):
        g = _GRAD[i]
        m[i] = 0.9 * m[i] + 0.1 * g
        v[i] = 0.999 * v[i] + 0.001 * g * g
        val = _THETA[i] - 1e-3 * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + 1e-8)
        if val < _LOWER[i]:
            val = _LOWER[i]
        elif val > _UPPER[i]:
            val = _UPPER[i]
        out[i] = val
    for _ in range(6):
        h, pos = _X, 0
        for fi, fo in _LAYERS:
            w = _NET[pos:pos + fi * fo].reshape(fi, fo)
            pos += fi * fo
            h = np.dot(h, w) + _NET[pos:pos + fo]
            pos += fo
            if fo > 1:
                h = np.maximum(h, 0.0)
        np.dot(np.ascontiguousarray(h.T), np.ones((1, 1)))
    return float(out[0] + h[0, 0])


class SpeedProbe:
    """Times ``probe()`` every ``INTERVAL_S`` s between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._busy = False
        self._previous = None

    def _sample(self, *_) -> None:
        if self._busy:  # a signal that lands inside the probe is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    def start(self) -> None:
        self.samples = []
        self._sample()  # so that even a pass shorter than one interval has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> list[float]:
        """Durations of the samples that started in [t0, t1), or of all
        samples when none did."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        return inside or [d for _, d in self.samples]

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` spent in [t0, t1), less the probe's own time there,
        at the reference speed."""
        own = sum(d for s, d in self.samples if t0 <= s < t1)
        return (seconds - own) * REFERENCE_S / speed(self.window(t0, t1))


def speed(durations: list[float]) -> float:
    """Mean of the fastest nine tenths of the probe's durations."""
    fastest = sorted(durations)[:len(durations) - len(durations) // 10]
    return statistics.fmean(fastest)
