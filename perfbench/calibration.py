"""Host speed calibration.

The benchmark host shares its cores, and its speed drifts by up to 2x over
seconds to minutes. Between measurements the benchmark times a fixed loop
shaped like the decoder's work (add-compare-select over small NumPy arrays
plus interpreter bit operations) but independent of the library, and scales
each measured time to the reference speed at which that loop takes
REFERENCE_MS. The loop does not call the library, but it runs right after
the library's work, so the decoder's cache and allocator state and the
host's frequency response to it can still reach the loop. The scaling was
checked on the per-frame decode pipeline only (over ten seeds the unscaled
frames/s and median latency spread by 25-50% as the host changed speed,
the scaled ones by under 3%); it has to be checked again when the decoder's
work changes shape, for instance to a batched engine.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Loop time on the slower of the two speeds seen on the 2-core development
# host, so scaled figures read close to measured ones there.
REFERENCE_MS = 2.4

_rng = np.random.default_rng(0)
_FROM = np.repeat(np.arange(16), 4)
_LABEL = _rng.integers(0, 64, 64)
_COST = _rng.integers(0, 5, 64)
_WORDS = [int(x) for x in _rng.integers(0, 64, 150)]
_STATES = np.arange(16)


def _loop() -> int:
    metric = np.zeros(16, dtype=np.int64)
    acc = 0
    for word in _WORDS:
        cand = metric[_FROM] + _COST[_LABEL ^ word]
        by_state = cand.reshape(16, 4)
        arg = by_state.argmin(axis=1)
        metric = by_state[_STATES, arg]
        metric -= metric.min()
        for _ in range(8):
            acc ^= ((acc << 1) | word) & 0xFFFF
    return acc


def calibrate(repeats: int) -> float:
    """Median milliseconds of ``repeats`` calibration loops."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


class SpeedScale:
    """Calibrates at creation and at each ``close``. ``close`` returns the
    factor from measured time to reference-speed time for the interval since
    the previous calibration: the reference over the mean of the two
    calibrations that bracket it."""

    def __init__(self, repeats: int = 1):
        self.repeats = repeats
        self.samples = [calibrate(repeats)]

    def close(self) -> float:
        self.samples.append(calibrate(self.repeats))
        return 2 * REFERENCE_MS / sum(self.samples[-2:])
