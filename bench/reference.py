"""The host's speed, measured with a fixed computation that the benchmark owns.

The machine the benchmark runs on is shared, and its speed drifts by 20-30 %
over minutes, for all code alike: set-up and campaigns slow down and speed up
together.  ``HostClock`` times short slices of fixed work between
operations, so that a run can state each round's times at a fixed host
speed: measured seconds times ``REFERENCE_S`` over the round's median slice.
The slice calls no spbench code, so no change to the program moves it; it
mixes what the program's campaigns do, Python loops over small numpy arrays
and small dense linear algebra, through the benchmark's own formulas.
"""

from __future__ import annotations

import time

import numpy as np

import checks

REFERENCE_S = 0.02  # nominal slice: about its median on the machine of README.md
EVERY_S = 0.25  # wall seconds per slice, about 8 % of a run

_rng = np.random.default_rng(20150409)
_THOMSON = [_rng.uniform(0.2, 3.0, 9) for _ in range(6)]
_LJ = _rng.uniform(0.8, 2.0, 15)
_XY = _rng.uniform(-np.pi, np.pi, 8)
_COUPLINGS = _rng.choice([-1.0, 1.0], 18)
_GAME = [_rng.uniform(-1.0, 1.0, (3, 3, 3)) for _ in range(3)]
_PROFILE = np.concatenate([np.full(9, 1.0 / 3.0), _rng.uniform(-1.0, 1.0, 3)])
_MATRICES = [_rng.standard_normal((n, n)) for n in (3, 8, 9, 15)]


def reference_slice():
    """One slice of the fixed work; returns a number so nothing is skipped."""
    acc = 0.0
    for _ in range(16):
        for x in _THOMSON:
            acc += checks.thomson_energy(x, 6)
        acc += checks.lj_energy(_LJ, 7)
        acc += float(checks.xy_gradient(_XY, _COUPLINGS, 2, 3).sum())
        acc += float(checks.nash_residual(_GAME, _PROFILE).sum())
        for a in _MATRICES:
            s = a + a.T
            acc += float(np.linalg.eigvalsh(s)[0])
            acc += float(np.linalg.svd(a, compute_uv=False)[0])
            acc += float(np.linalg.lstsq(a, s[0], rcond=None)[0][0])
    return acc


class HostClock:
    """Runs one reference slice for every ``EVERY_S`` of wall time that has
    passed, at the points where ``tick`` is called, so the slices spread
    over the run in proportion to time; ``take`` hands over their durations
    since the last ``take``."""

    def __init__(self):
        self.last = time.perf_counter()
        self.samples = []

    def _slice(self):
        t0 = time.perf_counter()
        reference_slice()
        self.samples.append(time.perf_counter() - t0)

    def tick(self):
        while time.perf_counter() - self.last >= EVERY_S:
            self._slice()
            self.last += EVERY_S

    def take(self):
        if not self.samples:
            self._slice()
        samples, self.samples = self.samples, []
        return samples
