"""Reference evaluation of series and quotients.

`reference_series_eval` is the quaternion Horner of a series window in
the operands' own modes: exact at an exact point, each mixed operation
promoted to float otherwise.  `reference_eval` evaluates a StarQuotient
by the formula den^s(q)^(-1) (left star den^c star num)(q): it reads only
the quotient's ``num`` and ``den`` and forms den^c, den^s and the
products with the `Quaternion` loops of `series_reference`, so it shares
no polynomial with the code it checks.  An optional ``left`` factor is
applied by the same reference product.

It evaluates both polynomials on integers.  The point is q = P / L with
an integer 4-tuple P and L the lcm of its component denominators, and a
polynomial over its own common denominator runs a plain quaternion
Horner with P multiplying on the left; a negative valuation multiplies
by conj(P) with |P|^2 in the denominator.  The value is S / d_S for den^s
and T / d_T for the top, so the guard |den^s(q)| < n / d is
|S|^2 d^2 < n^2 d_S^2, and the value is conj(S) T d_S / (|S|^2 d_T), one
division per component: a `Fraction` at an exact point, and int / int,
which is correctly rounded, at a float point.  It forms no (W, |V|^2)
pair and reads no integer form of a window, so it shares no kernel with
the package.  Tests compare `SliceSeries.eval` and `StarQuotient.eval`
against them.
"""

import functools
import math
from fractions import Fraction

from series_reference import (reference_conjugate, reference_pad_to, reference_star_mul,
                              reference_trim)
from srgft.errors import DomainError, SingularityError
from srgft.quat import Quaternion
from srgft.series import SliceSeries


def reference_series_eval(f, q):
    if f.valuation < 0 and q.is_zero():
        raise SingularityError("negative-valuation series is singular at 0")
    acc = f.coeffs[-1]
    for c in reversed(f.coeffs[:-1]):
        acc = q * acc + c
    if not f.valuation:
        return acc
    power = q ** f.valuation if f.valuation > 0 else q.inverse() ** -f.valuation
    return power * acc


def _polynomial(s):
    """The exact window of s with its trailing zeros dropped."""
    s = s.to_exact()
    return SliceSeries(*reference_trim((s.valuation, s.coeffs)))


def _full_product(f, g):
    """f star g of two polynomials, each padded to the full support."""
    top = f.degree + g.degree
    return reference_star_mul(
        SliceSeries(*reference_pad_to((f.valuation, f.coeffs), top - g.valuation)),
        SliceSeries(*reference_pad_to((g.valuation, g.coeffs), top - f.valuation)))


def _mul(a, b):
    """The Hamilton product of integer 4-tuples."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _conj(a):
    return (a[0], -a[1], -a[2], -a[3])


def _integer_polynomial(s):
    """(v, D, rows): s = q^v sum_n q^n rows_n / D, rows from the top down."""
    comps = [(c.w, c.x, c.y, c.z) for c in s.coeffs]
    den = math.lcm(*(x.denominator for cs in comps for x in cs))
    return s.valuation, den, [tuple(x.numerator * (den // x.denominator) for x in cs)
                              for cs in reversed(comps)]


def _integer_value(poly, point, scale):
    """(X, d) with X / d the value at q = point / scale of an
    :func:`_integer_polynomial`, d > 0."""
    v, den, rows = poly
    acc, power = rows[0], 1
    for row in rows[1:]:
        power *= scale
        acc = tuple(p + power * c for p, c in zip(_mul(point, acc), row))
    den *= power
    if v < 0:
        if not any(point):
            raise SingularityError("negative-valuation series is singular at 0")
        factor, den = _conj(point), den * sum(x * x for x in point) ** -v
        acc = tuple(scale ** -v * x for x in acc)
    else:
        factor, den = point, den * scale ** v
    for _ in range(abs(v)):
        acc = _mul(factor, acc)
    return acc, den


@functools.lru_cache(maxsize=64)
def _reference_parts(num, den, left):
    """The integer polynomials of den^s and left star den^c star num, for
    exact polynomial parts."""
    den_c = SliceSeries(*reference_conjugate((den.valuation, den.coeffs)))
    out = _full_product(den_c, num)
    if left is not None:
        out = _full_product(left, out)
    return _integer_polynomial(_full_product(den, den_c)), _integer_polynomial(out)


def reference_eval(quot, q, domain=None, left=None):
    domain = domain or quot.ZERO_GUARD
    sym, top = _reference_parts(_polynomial(quot.num), _polynomial(quot.den),
                                None if left is None else _polynomial(left))
    ratios = [Fraction(c).as_integer_ratio() for c in (q.w, q.x, q.y, q.z)]
    scale = math.lcm(*(d for _, d in ratios))
    point = tuple(n * (scale // d) for n, d in ratios)
    s, s_den = _integer_value(sym, point, scale)
    norm = sum(x * x for x in s)
    n, d = Fraction(domain.singular_threshold).as_integer_ratio()
    if norm * d * d < n * n * s_den * s_den:
        raise SingularityError("quotient evaluated too close to a symmetrization zero")
    t, t_den = _integer_value(top, point, scale)
    divisor = norm * t_den
    comps = [s_den * x for x in _mul(_conj(s), t)]
    if q.is_exact:
        return Quaternion(*(Fraction(x, divisor) for x in comps))
    try:
        return Quaternion(*(x / divisor for x in comps))
    except OverflowError:
        raise DomainError("rational component too large for a float") from None
