"""Fixed-input microbenchmarks of single kernels, reported in traced runs.

Inputs do not depend on the seed, so the figures compare across
workloads and runs.  Each figure is the median over a few batches.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter


def _per_call(fn, calls: int, batches: int) -> float:
    fn()  # fills lazy caches such as StarQuotient's expanded parts
    times = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    return statistics.median(times)


def run(series, classes, quat) -> dict[str, float]:
    """Kernel timings; the arguments are the package's modules."""
    Q = quat.Quaternion
    a = Q(Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3), Fraction(5, 11))
    b = Q(Fraction(-1, 6), Fraction(4, 9), Fraction(2, 13), Fraction(-7, 8))
    af, bf = a.to_float(), b.to_float()
    h = classes.generate_starlike_small_coeff(1, 48)
    p = classes.generate_caratheodory(2, 48)
    hf = h.to_float()
    exact_point = Q(Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(0))
    float_point = Q(0.5, 0.3, 0.2, 0.1)
    koebe = classes.koebe_quotient(quat.ONE)
    return {
        "quat.mul_exact_us": 1e6 * _per_call(lambda: a * b, 2000, 5),
        "quat.mul_float_us": 1e6 * _per_call(lambda: af * bf, 20000, 5),
        "series.star_mul_d48_ms": 1e3 * _per_call(lambda: series.star_mul(h, p), 1, 5),
        "series.symmetrize_d48_ms": 1e3 * _per_call(lambda: series.symmetrize(p), 1, 5),
        "series.star_reciprocal_d48_ms": 1e3 * _per_call(lambda: series.star_reciprocal(h), 1, 5),
        "eval.quotient_koebe_us": 1e6 * _per_call(lambda: koebe.eval(float_point), 50, 5),
        "eval.series_exact_d48_us": 1e6 * _per_call(lambda: h.eval(exact_point), 20, 5),
        "eval.series_float_d48_us": 1e6 * _per_call(lambda: hf.eval(float_point), 500, 5),
    }
