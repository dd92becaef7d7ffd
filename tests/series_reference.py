"""Reference series kernels in `Quaternion` arithmetic.

These are the loops the package ran before its integer kernels: each
operation works on the coefficients in their own scalar mode, so exact
windows run in `Fraction` and a float operand promotes every mixed
operation to float.  Tests compare `star_mul`, `symmetrize`,
`star_reciprocal` and `compose_slice_preserving` against them: exact
windows coefficient for coefficient, float and mixed windows bit for bit.
"""

from srgft.errors import DomainError
from srgft.quat import ZERO, Quaternion
from srgft.series import SliceSeries, regular_conjugate


def _zero_like(exact):
    return ZERO if exact else Quaternion(0.0, 0.0, 0.0, 0.0)


def reference_star_mul(f, g):
    exact = f.is_exact and g.is_exact
    v = f.valuation + g.valuation
    degree = min(f.degree + g.valuation, g.degree + f.valuation)
    if f.is_zero() or g.is_zero():
        return SliceSeries.zero(max(degree, 0), exact)
    length = degree - v + 1
    out = [_zero_like(exact)] * length
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        for j in range(min(len(g.coeffs), length - i)):
            b = g.coeffs[j]
            if b.is_zero():
                continue
            out[i + j] = out[i + j] + a * b
    return SliceSeries(v, tuple(out))


def reference_symmetrize(f):
    if f.is_zero():
        return SliceSeries.zero(max(f.degree + f.valuation, 0), f.is_exact)
    cs = f.coeffs
    out = []
    for t in range(len(cs)):
        acc = 0
        for i in range(t // 2 + 1):
            a, b = cs[i], cs[t - i]
            dot = a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z
            acc = acc + (dot if i == t - i else 2 * dot)
        out.append(Quaternion.from_real(acc))
    return SliceSeries(2 * f.valuation, tuple(out))


def reference_invert_real_series(values):
    inv0 = 1 / values[0]
    out = [inv0]
    for n in range(1, len(values)):
        acc = 0
        for k in range(1, min(n, len(values) - 1) + 1):
            acc = acc + values[k] * out[n - k]
        out.append(-inv0 * acc)
    return out


def reference_star_reciprocal(f):
    if f.is_zero():
        raise DomainError("the zero series has no regular reciprocal")
    fs = reference_symmetrize(f)
    inverted = reference_invert_real_series([c.w for c in fs.coeffs])
    inv_sym = SliceSeries(-2 * f.valuation, tuple(Quaternion.from_real(s) for s in inverted))
    return reference_star_mul(inv_sym, regular_conjugate(f))


def reference_compose_slice_preserving(f, w):
    exact = f.is_exact and w.is_exact
    degree = min(f.degree, w.degree)
    w_scal = [0] * (degree + 1)
    for n, c in w.terms():
        if 0 <= n <= degree:
            w_scal[n] = c.w
    out = [_zero_like(exact)] * (degree + 1)
    power = [1] + [0] * degree  # coefficients of w(q)^n, rebuilt per n
    for n in range(0, degree + 1):
        if f.valuation <= n <= f.degree:
            a = f.coeff(n)
            if not a.is_zero():
                for d in range(degree + 1):
                    if power[d] != 0:
                        out[d] = out[d] + a * power[d]
        if n == degree:
            break
        nxt = [0] * (degree + 1)
        for d1 in range(degree + 1):
            if power[d1] == 0:
                continue
            for d2 in range(1, degree + 1 - d1):
                if w_scal[d2] != 0:
                    nxt[d1 + d2] = nxt[d1 + d2] + power[d1] * w_scal[d2]
        power = nxt
    return SliceSeries(0, tuple(out))
