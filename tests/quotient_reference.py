"""Reference evaluation of series and quotients in `Fraction` arithmetic.

These are the formulas the package evaluated before its integer Horner.
`reference_series_eval` is the quaternion Horner of a series window in
the operands' own modes: exact at an exact point, each mixed operation
promoted to float otherwise.  `reference_eval` evaluates a StarQuotient
with it: den^s(q) by exact Horner, the singular guard on |den^s(q)|
(decided exactly, as |den^s(q)|^2 against the squared threshold), then
den^s(q)^(-1) (left star den^c star num)(q), rounded once at a float
point.  It reads only the quotient's ``num`` and ``den`` and forms den^c,
den^s and the products with the `Quaternion` loops of `series_reference`,
so it shares no polynomial with the code it checks.  An optional
``left`` factor is applied by the same reference product.  Tests compare
`SliceSeries.eval` and `StarQuotient.eval` against them.
"""

import functools
from fractions import Fraction

from series_reference import (reference_conjugate, reference_pad_to, reference_star_mul,
                              reference_trim)
from srgft.errors import SingularityError
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


@functools.lru_cache(maxsize=64)
def _reference_parts(num, den, left):
    """(den^s, left star den^c star num) of exact polynomial parts."""
    den_c = SliceSeries(*reference_conjugate((den.valuation, den.coeffs)))
    out = _full_product(den_c, num)
    if left is not None:
        out = _full_product(left, out)
    return _full_product(den, den_c), out


def reference_eval(quot, q, domain=None, left=None):
    domain = domain or quot.ZERO_GUARD
    qe = q.to_exact()
    sym, top = _reference_parts(_polynomial(quot.num), _polynomial(quot.den),
                                None if left is None else _polynomial(left))
    s = reference_series_eval(sym, qe)
    if s.norm_sq() < Fraction(domain.singular_threshold) ** 2:
        raise SingularityError("quotient evaluated too close to a symmetrization zero")
    value = s.inverse() * reference_series_eval(top, qe)
    return value if q.is_exact else value.to_float()
