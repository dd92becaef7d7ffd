"""Reference series kernels in `Quaternion` arithmetic.

These are the loops the package ran before its integer kernels, run here
in `Fraction` on exact windows.  Tests compare `star_mul`, `symmetrize`,
`star_reciprocal`, `compose_slice_preserving`, `integrate_radial` and
`StarQuotient.to_series` against them coefficient for coefficient.  A
float or mixed operand is checked against the reference at the exact
values of its operands, each component of the result rounded once to
float, bit for bit.

The power loops that the generators `mobius`, `caratheodory_extremal`,
`generate_caratheodory`, `koebe` and `rogosinski_extremal` ran before
each became the expansion of its quotient by `StarQuotient.to_series`
stay here as oracles for those windows (the last on the parts |b|, b/|b|
and p; `reference_at_exact` runs the others at the exact value of a
float parameter), and so does `random_exact_unit` in `Fraction`
quaternions.
`reference_geometric`, the series Sigma q^n u^n, serves the tests as a
fixture; the package has no generator of its own for it.  Three loops still run in
float: the old `Quaternion.__pow__`, which the package matches bit for
bit, the float Horner that read `Quaternion` attributes, which reads the
cached float rows of a window as their coefficients, and
`reference_koebe` at a float unit, which rounds at every power and so
misses the correctly rounded window.

The shape and linear operations of a window (``pad_to``, ``trim``,
``shift``, negation, sums, ``regular_conjugate``, ``slice_derivative``
and ``to_float``) are written here on
`Quaternion` coefficients with the canonical form of the old constructor,
for the float and mixed windows that the package runs on float rows.
"""

from fractions import Fraction

from srgft.classes import _rogosinski_parts, caratheodory_mixture_parts
from srgft.errors import DomainError
from srgft.quat import ONE, ZERO, Quaternion
from srgft.series import SliceSeries


def reference_star_mul(f, g):
    v = f.valuation + g.valuation
    degree = min(f.degree + g.valuation, g.degree + f.valuation)
    if f.is_zero() or g.is_zero():
        return SliceSeries.zero(max(degree, 0))
    length = degree - v + 1
    out = [ZERO] * length
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
        return SliceSeries.zero(max(f.degree + f.valuation, 0))
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
    conjugate = SliceSeries(f.valuation, tuple(c.conjugate() for c in f.coeffs))
    return reference_star_mul(inv_sym, conjugate)


def reference_compose_slice_preserving(f, w):
    degree = min(f.degree, w.degree)
    w_scal = [0] * (degree + 1)
    for n, c in w.terms():
        if 0 <= n <= degree:
            w_scal[n] = c.w
    out = [ZERO] * (degree + 1)
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


def reference_integrate_radial(g):
    return SliceSeries(g.valuation + 1, tuple(c * Fraction(1, n + 1) for n, c in g.terms()))


def _reference_pad(s, degree):
    return SliceSeries(s.valuation, s.coeffs + (ZERO,) * max(degree - s.degree, 0))


def reference_to_series(num, den, degree, left=None):
    """The window of left star den^(-*) star num through ``degree``: the
    reciprocal of den times num, then left times that, each padded far
    enough that every coefficient through ``degree`` is known."""
    inner = degree - left.valuation if left is not None else degree
    v_den, v_num = den.valuation, num.valuation
    rec = reference_star_reciprocal(_reference_pad(den, inner + 2 * abs(v_den) + abs(v_num) + 2))
    out = reference_star_mul(rec, _reference_pad(num, inner + abs(v_den) + 2))
    if left is not None:
        out = reference_star_mul(_reference_pad(left, degree - out.valuation), out)
    if degree < out.valuation:
        return SliceSeries.zero(max(degree, 0))
    return SliceSeries(out.valuation, out.coeffs[:degree - out.valuation + 1])


def reference_pow(q, n):
    """Square-and-multiply that also squares after the last bit."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("quaternion power requires a nonnegative integer")
    result = ONE if q.is_exact else ONE.to_float()
    base = q
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def reference_eval_float(cs, q):
    """Float Horner of sum_n q^n c_n over float Quaternions c_0, c_1, ..."""
    qw, qx, qy, qz = q.w, q.x, q.y, q.z
    last = cs[-1]
    aw, ax, ay, az = last.w, last.x, last.y, last.z
    for i in range(len(cs) - 2, -1, -1):
        c = cs[i]
        nw = qw * aw - qx * ax - qy * ay - qz * az + c.w
        nx = qw * ax + qx * aw + qy * az - qz * ay + c.x
        ny = qw * ay - qx * az + qy * aw + qz * ax + c.y
        nz = qw * az + qx * ay - qy * ax + qz * aw + c.z
        aw, ax, ay, az = nw, nx, ny, nz
    return Quaternion(aw, ax, ay, az)


def reference_random_exact_unit(rng):
    while True:
        v = Quaternion(rng.randint(-2, 2), rng.randint(-2, 2),
                       rng.randint(-2, 2), rng.randint(-2, 2))
        if not v.is_zero():
            break
    return (v * v) * Fraction(1, v.norm_sq())


def reference_at_exact(reference, a, degree):
    """The reference generator at the exact value of the parameter a,
    rounded once to float when a is float."""
    out = reference(a.to_exact(), degree)
    return out if a.is_exact else out.to_float()


def reference_geometric(u, degree):
    coeffs = []
    acc = ONE
    for _ in range(degree + 1):
        coeffs.append(acc)
        acc = acc * u
    return SliceSeries(0, tuple(coeffs))


def reference_mobius(a, degree):
    t = 1 - a.norm_sq()
    abar = a.conjugate()
    coeffs = [a]
    power = ONE
    for _ in range(1, degree + 1):
        coeffs.append(power * (-t))
        power = power * abar
    return SliceSeries(0, tuple(coeffs))


def reference_caratheodory_extremal(u, degree):
    coeffs = [ONE]
    power = u
    for _ in range(1, degree + 1):
        coeffs.append(power * 2)
        power = power * u
    return SliceSeries.from_coeffs(coeffs)


def reference_generate_caratheodory(seed, degree, k):
    lambdas, units = caratheodory_mixture_parts(seed, k)
    acc = SliceSeries.zero(degree)
    for lam, u in zip(lambdas, units):
        acc = acc + reference_caratheodory_extremal(u, degree).scale(lam)
    return acc


def reference_koebe(u, degree):
    coeffs = []
    power = ONE
    for n in range(1, degree + 1):
        coeffs.append(power * n)
        power = power * u
    return SliceSeries.from_coeffs(coeffs, valuation=1)


def reference_rogosinski_extremal(b, p, degree):
    return reference_rogosinski_window(*_rogosinski_parts(b, p), degree)


def reference_rogosinski_window(beta, u_b, p, degree):
    """The Rogosinski window of the parts |b|, b/|b| and p."""
    bp = p * beta
    factor = p * (beta * beta - 1)
    coeffs = [u_b * beta]
    power = ONE
    for _ in range(2, degree + 1):
        coeffs.append(power * factor * u_b)
        power = power * bp
    return SliceSeries.from_coeffs(coeffs, valuation=1)


# -- windows of `Quaternion` coefficients -------------------------------------
#
# A window here is (valuation, coefficients), built as `SliceSeries` built
# it before it held rows: every shape and linear operation runs on the
# `Quaternion` coefficients, and `reference_window` puts the result in
# canonical form.


def reference_window(valuation, coeffs):
    """A window with any float coefficient in float, its leading zeros
    folded into the valuation; a window zero throughout starts at 0 and
    repeats its first coefficient."""
    coeffs = tuple(coeffs)
    if not all(c.is_exact for c in coeffs):
        coeffs = tuple(c.to_float() for c in coeffs)
    k = 0
    while k < len(coeffs) and coeffs[k].is_zero():
        k += 1
    if k == len(coeffs):
        return 0, (coeffs[0],) * max(valuation + len(coeffs), 1)
    return valuation + k, coeffs[k:]


def _degree(f):
    return f[0] + len(f[1]) - 1


def _zero_of(f):
    return ZERO if f[1][0].is_exact else Quaternion(0.0, 0.0, 0.0, 0.0)


def _coeff(f, n):
    v, cs = f
    return cs[n - v] if n >= v else _zero_of(f)


def reference_pad_to(f, degree):
    return reference_window(f[0], f[1] + (ZERO,) * max(degree - _degree(f), 0))


def reference_trim(f):
    v, cs = f
    last = len(cs)
    while last > 1 and cs[last - 1].is_zero():
        last -= 1
    return reference_window(v, cs[:last])


def reference_shift(f, k):
    return reference_window(f[0] + k, f[1])


def reference_neg(f):
    return reference_window(f[0], (-c for c in f[1]))


def reference_conjugate(f):
    return reference_window(f[0], (c.conjugate() for c in f[1]))


def reference_add(f, g):
    v, degree = min(f[0], g[0]), min(_degree(f), _degree(g))
    return reference_window(v, (_coeff(f, n) + _coeff(g, n) for n in range(v, degree + 1)))


def reference_sub(f, g):
    return reference_add(f, reference_neg(g))


def reference_slice_derivative(f):
    v, cs = f
    out = [c * n for n, c in enumerate(cs, v)]
    if all(c.is_zero() for c in out):
        return reference_window(0, (_zero_of(f),) * max(_degree(f), 1))
    return reference_window(v - 1, out)


def reference_to_float(f):
    return reference_window(f[0], (c.to_float() for c in f[1]))
