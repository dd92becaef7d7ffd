"""Reference arithmetic for the benchmark's correctness oracles.

Nothing here imports srgft: quaternions are plain 4-tuples (w, x, y, z)
of `Fraction` or `float`, so a fault in the package's own arithmetic
cannot hide itself by also being the oracle.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

ONE_Q = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
ZERO_Q = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))


def qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def qadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def qsub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def qscale(a, s):
    return (a[0] * s, a[1] * s, a[2] * s, a[3] * s)


def qconj(a):
    return (a[0], -a[1], -a[2], -a[3])


def qnorm2(a):
    return a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]


def qinv(a):
    n = qnorm2(a)
    return qscale(qconj(a), (Fraction(1) / n) if isinstance(n, Fraction) else 1.0 / n)


def qfloat(a):
    return tuple(float(c) for c in a)


def qdist(a, b) -> float:
    return math.sqrt(qnorm2(qsub(qfloat(a), qfloat(b))))


def close(a, b, rel: float) -> bool:
    """|a - b| <= rel * max(1, |b|), in floats."""
    return qdist(a, b) <= rel * max(1.0, math.sqrt(qnorm2(qfloat(b))))


# -- literals and JSON ------------------------------------------------------

_TERM = re.compile(r"([+-]?)(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?(?:/\d+)?)?([ijk]?)")


def parse_literal(text: str):
    """Parse the package's printed quaternion form, e.g. ``2-1/3i+0.5e-3k``."""
    text = text.strip()
    comps = {"": 0, "i": 0, "j": 0, "k": 0}
    saw_float = False
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse quaternion literal {text!r}")
        sign, number, basis = m.groups()
        if number is None:
            value = Fraction(1)
        elif "." in number or "e" in number or "E" in number:
            value, saw_float = float(number), True
        else:
            value = Fraction(number)
        comps[basis] = -value if sign == "-" else value
        pos = m.end()
    q = (comps[""], comps["i"], comps["j"], comps["k"])
    return qfloat(q) if saw_float else tuple(Fraction(c) for c in q)


def format_literal(q) -> str:
    """Exact literal accepted by the package's parser."""
    out = []
    for value, basis in zip(q, ("", "i", "j", "k")):
        if value == 0:
            continue
        body = str(abs(value)) + basis
        out.append(("-" if value < 0 else ("+" if out else "")) + body)
    return "".join(out) or "0"


def json_scalar(c):
    return Fraction(c) if isinstance(c, str) else float(c)


def series_from_json(data: dict):
    """(valuation, [coefficient tuples]) from a package series JSON block."""
    return int(data["valuation"]), [tuple(json_scalar(c) for c in q) for q in data["coeffs"]]


# -- series -----------------------------------------------------------------

def horner(valuation: int, coeffs, q):
    """Sum of q^n a_n by left-nested Horner, in the scalar type of the inputs."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = qadd(qmul(q, acc), c)
    for _ in range(valuation):
        acc = qmul(q, acc)
    return acc


def derivative_coeffs(valuation: int, coeffs):
    """Slice derivative of a power series (valuation >= 0) as (valuation, coefficients)."""
    if valuation == 0:
        return 0, [qscale(c, i) for i, c in enumerate(coeffs)][1:]
    return valuation - 1, [qscale(c, valuation + i) for i, c in enumerate(coeffs)]


def _to_integers(coeffs):
    den = 1
    for q in coeffs:
        for c in q:
            den = math.lcm(den, c.denominator)
    return [tuple(int(c * den) for c in q) for q in coeffs], den


def convolve(a, b, length: int):
    """First ``length`` coefficients of the Cauchy product sum a_k b_(n-k).

    Exact, through one common denominator per operand so the inner loop
    runs on Python integers.
    """
    an, ad = _to_integers(a)
    bn, bd = _to_integers(b)
    out = [[0, 0, 0, 0] for _ in range(length)]
    for i, x in enumerate(an[:length]):
        if not any(x):
            continue
        for j, y in enumerate(bn[:length - i]):
            if not any(y):
                continue
            p = qmul(x, y)
            acc = out[i + j]
            acc[0] += p[0]
            acc[1] += p[1]
            acc[2] += p[2]
            acc[3] += p[3]
    den = ad * bd
    return [tuple(Fraction(c, den) for c in acc) for acc in out]


# -- one slice --------------------------------------------------------------

def slice_point(x, y, axis):
    """x + y I for an imaginary unit I given as a 3-tuple."""
    return (x, y * axis[0], y * axis[1], y * axis[2])


def decompose(q):
    """(x, y, I) with q = x + y I and y = |Im q| >= 0, in floats."""
    w, a, b, c = qfloat(q)
    y = math.sqrt(a * a + b * b + c * c)
    if y == 0.0:
        return w, 0.0, (1.0, 0.0, 0.0)
    return w, y, (a / y, b / y, c / y)


def representation_formula(F, x, y, J, I):
    """f(x + yJ) from the restriction F of f to the slice of I.

    f(x + yJ) = 1/2 (1 - JI) F(x + yI) + 1/2 (1 + JI) F(x - yI); F takes
    and returns quaternions on the slice of I.
    """
    Jq = (0 * x, J[0], J[1], J[2])
    Iq = (0 * x, I[0], I[1], I[2])
    ji = qmul(Jq, Iq)
    one = (1 + 0 * x, 0 * x, 0 * x, 0 * x)
    half = Fraction(1, 2) if isinstance(x, Fraction) else 0.5
    plus = F(slice_point(x, y, I))
    minus = F(slice_point(x, -y, I))
    return qadd(qmul(qscale(qsub(one, ji), half), plus),
                qmul(qscale(qadd(one, ji), half), minus))
