"""The fixed loop that benchmark latencies are measured against.

It does work in the three styles geodisc spends its time in: a bisection
over a tiny numpy membership test (the exit-time loops), whole-array passes
over a few thousand complex pairs (the modulus kernel), and scattered reads
from a table larger than the caches.  A machine that slows one of these
slows the loop alike; on the reference machine this matching cut the
pass-to-pass spread of calibrated flat_geometry time from 0.17 (wall clock)
to 0.045, where a plain arithmetic loop reached 0.07.
"""

from __future__ import annotations

import math

import numpy as np

_RADII = np.array([1.0, 1.3])
_Z = np.array([0.1 + 0.2j, -0.3 + 0.1j])
_U = np.array([0.6 + 0.0j, 0.0 + 0.8j])
_PAIRS = np.exp(0.01j * np.arange(8192)).reshape(4096, 2)
_TABLE = np.random.default_rng(0).random(2_000_000)  # 16 MB
_PICKS = np.random.default_rng(1).integers(0, len(_TABLE), 20_000)


def _gap(z: np.ndarray) -> float:
    return float(np.max(np.abs(z) - _RADII))


def calibration_loop() -> float:
    total = 0.0
    for _ in range(6):
        lo, hi = 0.0, 4.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if _gap(_Z + mid * _U) <= 0.0:
                lo = mid
            else:
                hi = mid
        total += lo + float(np.linalg.norm(_Z)) + math.hypot(lo, hi)
    for lag in range(1, 5):
        diff = _PAIRS - np.roll(_PAIRS, lag, axis=0)
        total += math.sqrt(float(np.max(np.sum(np.abs(diff) ** 2, axis=1))))
    return total + float(np.sum(_TABLE[_PICKS]))
