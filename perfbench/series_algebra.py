"""series-algebra: exact coefficient algebra on generated members at degree 64.

Each pass builds MEMBERS starlike and Caratheodory members and runs seven
series operations on each: star_mul, integrate_radial, symmetrize,
star_reciprocal (of a Laurent and of a unit-constant series),
compose_slice_preserving and StarQuotient.to_series.  No grid point is
evaluated, so point-evaluation changes should not move this workload.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from random import Random
from time import perf_counter

import qref
from common import PassResult

NAME = "series-algebra"
DEGREE = 64
MEMBERS = 12


def _rational_unit(rng: Random):
    """v^2 / 9 for v a signed arrangement of (2, 2, 1, 0) with a nonzero real
    part: an exact non-real unit whose denominator is 9 for every seed."""
    w, a, b = rng.sample((2, 2, 1), 3)
    v = tuple(Fraction(c * rng.choice((-1, 1))) for c in (w, *rng.sample((a, b, 0), 3)))
    return qref.qscale(qref.qmul(v, v), Fraction(1, 9))


class SeriesAlgebra:
    def __init__(self, seed: int, out_dir, mods):
        rng = Random(seed)
        self.members = [(rng.randrange(1 << 30), rng.randrange(1 << 30), _rational_unit(rng))
                        for _ in range(MEMBERS)]

    def _inputs(self, mods):
        S, C, Q = mods.series.SliceSeries, mods.classes, mods.quat.Quaternion
        # w(q) = q/2 + q^2/4: real, vanishes at 0, maps the ball into itself
        w = S.from_coeffs([Q.from_real(Fraction(1, 2)), Q.from_real(Fraction(1, 4))],
                          valuation=1).pad_to(DEGREE)
        return w, [(C.generate_starlike_small_coeff(hs, DEGREE),
                    C.generate_caratheodory(ps, DEGREE),
                    C.koebe_quotient(Q(*u))) for hs, ps, u in self.members]

    def run_pass(self, mods, spans, clock):
        series = mods.series
        w, inputs = spans.run("setup", None, self._inputs, mods)
        setup_end = perf_counter()
        since = len(spans.records)

        def op(label, fn, *args):
            clock.tick()
            return spans.run("op", label, fn, *args)

        out = []
        for h, p, koebe in inputs:
            hp = op("star_mul", series.star_mul, h, p)
            f = op("integrate_radial", series.integrate_radial, hp.shift(-1))
            sym = op("symmetrize", series.symmetrize, f)
            rec_h = op("star_reciprocal", series.star_reciprocal, h)
            rec_p = op("star_reciprocal", series.star_reciprocal, p)
            g = op("compose", series.compose_slice_preserving, f, w)
            ks = op("to_series", koebe.to_series, DEGREE)
            out.append((h, p, hp, f, sym, rec_h, rec_p, g, ks))
        end = perf_counter()
        clock.tick()
        ops = [clock.seconds(a, b) for a, b in spans.intervals("op", since)]
        timing = PassResult(clock.seconds(mods.import_start, setup_end),
                            clock.seconds(mods.import_start, end), ops)
        return timing, lambda: self._verify(out)

    def _verify(self, out):
        errors: list[str] = []
        work = failed = 0
        for (h, p, hp, f, sym, rec_h, rec_p, g, ks), (_, _, u) in zip(out, self.members):
            work += sum(len(s.coeffs) for s in (hp, f, sym, rec_h, rec_p, g, ks))
            wrong = _check_member(h, p, hp, f, sym, rec_h, rec_p, g, ks, u)
            failed += len({op for op, _ in wrong if op is not None})
            errors += [message for _, message in wrong]
        return work, failed, errors


def _window(s):
    """(valuation, coefficient tuples) of a package series."""
    return s.valuation, [(c.w, c.x, c.y, c.z) for c in s.coeffs]


def _check_member(h, p, hp, f, sym, rec_h, rec_p, g, ks, u) -> list[tuple]:
    """(operation, message) for each wrong output; None marks a wrong input."""
    errors = []
    hv, hc = _window(h)
    pv, pc = _window(p)

    # star_mul agrees with the benchmark's own convolution
    v, c = _window(hp)
    if v != hv + pv or c != qref.convolve(hc, pc, min(len(hc), len(pc))):
        errors.append(("star_mul", "star_mul disagrees with the reference convolution"))

    # integrate_radial: n a_n = (h star p)_n, and |a_n|^2 <= n^2 (close-to-convex)
    fv, fc = _window(f)
    if fv != 1 or [qref.qscale(a, fv + i) for i, a in enumerate(fc)] != c[:len(fc)]:
        errors.append(("integrate", "integrate_radial coefficients wrong"))
    if any(qref.qnorm2(a) > (fv + i) ** 2 for i, a in enumerate(fc)):
        errors.append(("integrate", "close-to-convex member breaks |a_n| <= n"))

    # symmetrize(f) = f star f^c coefficient by coefficient
    sv, sc = _window(sym)
    if sv != 2 * fv or sc != qref.convolve(fc, [qref.qconj(a) for a in fc], len(fc)):
        errors.append(("symmetrize", "symmetrize(f) differs from f star f^c"))

    # f star f^(-*) = 1 through the valid degree
    for name, (av, ac), rec in (("h", (hv, hc), rec_h), ("p", (pv, pc), rec_p)):
        rv, rc = _window(rec)
        one = [qref.ONE_Q] + [qref.ZERO_Q] * (len(ac) - 1)
        if rv != -av or len(rc) != len(ac) or qref.convolve(ac, rc, len(one)) != one:
            errors.append((name, f"{name} star {name}^(-*) != 1 through the valid degree"))

    # |p_n| <= 2 for the Caratheodory member
    if pc[0] != qref.ONE_Q or any(qref.qnorm2(a) > 4 for a in pc):
        errors.append((None, "Caratheodory member breaks p_0 = 1 or |p_n| <= 2"))

    # f(q/2 + q^2/4): coefficient m is 2^-m sum_n C(n, m - n) a_n
    gv, gc = _window(g)
    full = [qref.ZERO_Q] * fv + fc
    want = []
    for m in range(gv, gv + len(gc)):
        acc = qref.ZERO_Q
        for n in range((m + 1) // 2, m + 1):
            acc = qref.qadd(acc, qref.qscale(full[n], comb(n, m - n)))
        want.append(qref.qscale(acc, Fraction(1, 2 ** m)))
    if gc != want:
        errors.append(("compose", "compose_slice_preserving differs from the binomial expansion"))

    # koebe_quotient(u).to_series: a_n = n u^(n-1)
    kv, kc = _window(ks)
    power, want = qref.ONE_Q, []
    for n in range(1, len(kc) + 1):
        want.append(qref.qscale(power, n))
        power = qref.qmul(power, u)
    if kv != 1 or len(kc) != DEGREE or kc != want:
        errors.append(("to_series", "koebe to_series differs from n u^(n-1)"))
    return errors
