"""What every workload pass reports, the fresh import each pass starts
from, and the reference clock that every reported time goes through."""

from __future__ import annotations

import importlib
import statistics
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

PACKAGE_MODULES = ("srgft.quat", "srgft.series", "srgft.classes", "srgft.checks", "srgft.cli")


@dataclass
class PassResult:
    """One complete pass: program time, operation latencies and verdicts.

    ``setup_s`` and ``wall_s`` cover only the package's work (import,
    building inputs, the operations).  A workload's ``run_pass`` returns
    the timings with a ``verify`` callable; the runner calls it once any
    trace is removed, and it returns ``(work, failed, errors)``.
    """

    setup_s: float
    wall_s: float
    ops: list[float]
    work: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def fresh_import() -> SimpleNamespace:
    """Drop every srgft module and import the package again, timed.

    Each pass then starts as a new process would: module-level caches
    (the default grid's points, lru caches) are empty again.
    """
    for name in [n for n in sys.modules if n == "srgft" or n.startswith("srgft.")]:
        del sys.modules[name]
    start = perf_counter()
    mods = {name.split(".")[1]: importlib.import_module(name) for name in PACKAGE_MODULES}
    return SimpleNamespace(import_start=start, import_end=perf_counter(), **mods)


# Bound at import, before a traced pass wraps Fraction's operators to count them.
_ADD, _SUB, _MUL = Fraction.__add__, Fraction.__sub__, Fraction.__mul__
_POINT = (Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3), Fraction(5, 11))
_COEFFS = [(Fraction(i, i + 3), Fraction(-1, 2 * i + 1), Fraction(i, 17), Fraction(2, i + 4))
           for i in range(1, 13)]


def _reference_loop() -> tuple:
    """Exact quaternion Horner on fixed Fractions, the kind of work that
    dominates srgft, written here so that no change to srgft can move it."""
    pw, px, py, pz = _POINT
    aw, ax, ay, az = _COEFFS[-1]
    for cw, cx, cy, cz in reversed(_COEFFS[:-1]):
        aw, ax, ay, az = (
            _ADD(_SUB(_SUB(_SUB(_MUL(pw, aw), _MUL(px, ax)), _MUL(py, ay)), _MUL(pz, az)), cw),
            _ADD(_SUB(_ADD(_ADD(_MUL(pw, ax), _MUL(px, aw)), _MUL(py, az)), _MUL(pz, ay)), cx),
            _ADD(_ADD(_ADD(_SUB(_MUL(pw, ay), _MUL(px, az)), _MUL(py, aw)), _MUL(pz, ax)), cy),
            _ADD(_ADD(_SUB(_ADD(_MUL(pw, az), _MUL(px, ay)), _MUL(py, ax)), _MUL(pz, aw)), cz))
    return aw, ax, ay, az


class HostClock:
    """Elapsed time in seconds of a reference host speed.

    A shared 2-core host drifts by +-20% over seconds to minutes: a fixed
    loop's 2-second medians ranged from 35 to 51 ms within one minute.
    A short probe runs at every operation boundary; each instant between
    two probes is weighted by NOMINAL over the mean duration of the
    probes within WINDOW seconds of it, so a time reads as it would have
    on a host where the probe takes NOMINAL seconds.  Probe time itself
    is excluded.  Of the probes tried (big-integer gcd, float, dict, small
    Fraction, quaternion Horner), the quaternion Horner loop tracked
    srgft's own slowdowns best: quotient evaluation and star_mul slowed
    by 1.02 and 0.93 times its relative slowdown.
    """

    #: median probe duration on the reference host (2 cores, Python 3.11.7)
    NOMINAL = 0.0009
    #: probes this close in time are averaged; shorter windows track the
    #: drift no better and add the probes' own noise
    WINDOW = 2.5

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.lengths: list[float] = []

    def tick(self) -> None:
        """Run the probe: the median of three reference loops."""
        times = []
        start = perf_counter()
        for _ in range(3):
            t = perf_counter()
            _reference_loop()
            times.append(perf_counter() - t)
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.lengths.append(statistics.median(times))

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds in [a, b], a span of perf_counter readings."""
        ends, starts, lengths = self.ends, self.starts, self.lengths
        total = 0.0
        # gap i runs from the end of probe i - 1 to the start of probe i
        for i in range(max(bisect_right(ends, a) - 1, 0), len(starts) + 1):
            lo = ends[i - 1] if i > 0 else a
            hi = starts[i] if i < len(starts) else b
            if lo >= b:
                break
            overlap = min(hi, b) - max(lo, a)
            if overlap > 0:
                mid = (max(lo, a) + min(hi, b)) / 2
                around = lengths[bisect_left(starts, mid - self.WINDOW):
                                 bisect_right(starts, mid + self.WINDOW)] or \
                    lengths[max(i - 1, 0):i + 1]
                total += overlap * self.NOMINAL * len(around) / sum(around)
        return total
