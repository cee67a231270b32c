"""Machine-speed calibration.

On a shared host the speed at which this machine runs Python drifts by up
to a third, in spells of seconds to minutes, and can differ between the two
cores.  So every timed unit of work runs between calibration units, a fixed
piece of pure-Python work, on the same core, and its time is scaled to the
speed at which that unit takes REFERENCE_S:

    calibrated seconds = raw seconds * REFERENCE_S / calibration seconds

The unit does what the package does most (small tuples as dict keys,
Fraction arithmetic, a keyed sort), because a plain integer loop tracks the
drift of such code only about half as well.  The raw times are reported
beside the calibrated ones.
"""

import time
from fractions import Fraction

ITEMS = 400
REFERENCE_S = 0.003


def _work() -> None:
    table = {}
    for i in range(ITEMS):
        table[(i, i % 13, i % 7)] = Fraction(i, 7) + Fraction(1, i + 1)
    sorted(table, key=lambda key: (key[1], -key[0]))


def unit() -> float:
    """Seconds of the faster of two runs of the work, so that one interrupt
    does not read as a slow machine."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def factor(*units: float) -> float:
    return REFERENCE_S * len(units) / sum(units)
