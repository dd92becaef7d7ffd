"""Reference evaluation of series and quotients in `Fraction` arithmetic.

These are the formulas the package evaluated before its integer Horner.
`reference_series_eval` is the quaternion Horner of a series window in
the operands' own modes: exact at an exact point, each mixed operation
promoted to float otherwise.  `reference_eval` evaluates a StarQuotient
with it: den^s(q) by exact Horner, the singular guard on |den^s(q)|, then
den^s(q)^(-1) (left star den^c star num)(q), rounded once at a float
point.  Tests compare `SliceSeries.eval` and `StarQuotient.eval` against
them.
"""

from srgft.errors import SingularityError


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


def reference_eval(quot, q, domain=None):
    domain = domain or quot.ZERO_GUARD
    qe = q.to_exact()
    s = reference_series_eval(quot._den_sym, qe)
    if abs(s) < domain.singular_threshold:
        raise SingularityError("quotient evaluated too close to a symmetrization zero")
    value = s.inverse() * reference_series_eval(quot._den_conj_num, qe)
    return value if q.is_exact else value.to_float()
