"""Reference evaluation of a StarQuotient in `Fraction` arithmetic.

This is the formula the package evaluated before its integer Horner:
den^s(q) by exact Horner, the singular guard on |den^s(q)|, then
den^s(q)^(-1) (left star den^c star num)(q), rounded once at a float
point.  Tests compare `StarQuotient.eval` against it.
"""

from srgft.errors import SingularityError


def reference_eval(quot, q, domain=None):
    domain = domain or quot.ZERO_GUARD
    qe = q.to_exact()
    s = quot._den_sym.eval(qe)
    if abs(s) < domain.singular_threshold:
        raise SingularityError("quotient evaluated too close to a symmetrization zero")
    value = s.inverse() * quot._den_conj_num.eval(qe)
    return value if q.is_exact else value.to_float()
