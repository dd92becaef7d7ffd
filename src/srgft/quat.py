"""Quaternion arithmetic over exact rationals or binary floats.

A quaternion is stored as four components (w, x, y, z) along the basis
1, i, j, k with the Hamilton rules i^2 = j^2 = k^2 = ijk = -1.  Components
are either all `fractions.Fraction` (exact mode) or all `float` (float
mode); a value never mixes the two.  Mixed-mode *operations* promote the
result to float, mirroring Python's own numeric tower, so library code
writes its constants exactly (``ZERO``, ``ONE``, ``0``, ``Fraction(1, 2)``)
and a float operand alone decides the mode of the result.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError, QuaternionParseError

Scalar = Union[Fraction, float]


def _coerce(value) -> Scalar:
    """Normalize a raw component to Fraction (exact) or finite float."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"non-finite float component: {value!r}")
        return value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"unsupported scalar type: {type(value).__name__}")


def float_components(w, x, y, z) -> tuple[float, float, float, float]:
    """The four components as floats, each converted on its own."""
    try:
        return float(w), float(x), float(y), float(z)
    except OverflowError:
        raise DomainError("rational component too large for a float") from None


def exact_sqrt(value: Fraction) -> Fraction | None:
    """Square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        raise DomainError("square root of negative rational")
    n, d = value.numerator, value.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Immutable quaternion w + x i + y j + z k.

    Construction normalizes the components: ints become `Fraction`s, a
    float anywhere makes all four floats, and a non-finite float or a
    rational too large for a float raises `DomainError`.  Components that
    are already normal (four of type exactly `Fraction`, or four finite
    values of type exactly `float`) are kept as given, without coercion.
    """

    w: Scalar
    x: Scalar
    y: Scalar
    z: Scalar

    def __post_init__(self):
        w, x, y, z = self.w, self.x, self.y, self.z
        # four Fractions, or four finite floats, are already normal
        kind = type(w)
        if kind is type(x) and kind is type(y) and kind is type(z) and (
                kind is Fraction or kind is float and math.isfinite(w)
                and math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            return
        w, x, y, z = _coerce(w), _coerce(x), _coerce(y), _coerce(z)
        if any(isinstance(c, float) for c in (w, x, y, z)):
            w, x, y, z = float_components(w, x, y, z)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    # -- mode ---------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        # a float component is always of type exactly float
        return type(self.w) is not float

    def to_float(self) -> "Quaternion":
        if not self.is_exact:
            return self
        return Quaternion(*float_components(self.w, self.x, self.y, self.z))

    def to_exact(self) -> "Quaternion":
        """Exact image of a float quaternion (binary floats are rational)."""
        if self.is_exact:
            return self
        return Quaternion(Fraction(self.w), Fraction(self.x),
                          Fraction(self.y), Fraction(self.z))

    # -- structure ----------------------------------------------------------

    @classmethod
    def from_real(cls, s) -> "Quaternion":
        return cls(s, 0, 0, 0)

    def imag(self) -> "Quaternion":
        return Quaternion(0, self.x, self.y, self.z)

    def is_zero(self) -> bool:
        return self.w == 0 and self.x == 0 and self.y == 0 and self.z == 0

    def is_real(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> Scalar:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        """sqrt(float(|q|^2)).  An exact q sums the squared numerators over
        one lcm d of its denominators: N / d^2 is int by int true division,
        correctly rounded like ``float(self.norm_sq())``, and an oversized
        value raises `OverflowError` as that does."""
        if not self.is_exact:
            return math.sqrt(self.norm_sq())
        comps = (self.w, self.x, self.y, self.z)
        den = math.lcm(*(c.denominator for c in comps))
        total = sum((c.numerator * (den // c.denominator)) ** 2 for c in comps)
        return math.sqrt(total / (den * den))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b, c, d = self.w, self.x, self.y, self.z
            e, f, g, h = other.w, other.x, other.y, other.z
            return Quaternion(
                a * e - b * f - c * g - d * h,
                a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f,
                a * h + b * g - c * f + d * e,
            )
        s = _coerce(other)
        return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)

    def __rmul__(self, other):
        # real scalars are central, so left and right scaling agree
        s = _coerce(other)
        return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)

    def __pow__(self, n: int) -> "Quaternion":
        if not isinstance(n, int) or n < 0:
            raise DomainError("quaternion power requires a nonnegative integer")
        result = ONE if self.is_exact else _FLOAT_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse, conjugate over the squared modulus."""
        n = self.norm_sq()
        if n == 0:
            raise DomainError("zero quaternion has no inverse")
        return self.conjugate() * (1 / n)

    def decompose(self) -> tuple[Scalar, Scalar, "ImaginaryUnit"]:
        """Split q = x + y I with y = |Im q| >= 0.

        For real q the axis is the canonical unit i, so results are
        reproducible.  Exact inputs stay exact whenever |Im q| is rational;
        otherwise the returned pair (y, I) degrades to float mode.
        """
        ix, iy, iz = self.x, self.y, self.z
        nsq = ix * ix + iy * iy + iz * iz
        if nsq == 0:
            zero = Fraction(0) if self.is_exact else 0.0
            one = Fraction(1) if self.is_exact else 1.0
            return self.w, zero, ImaginaryUnit(one, zero, zero)
        if self.is_exact:
            root = exact_sqrt(nsq)
            if root is not None:
                inv = Fraction(1) / root
                return self.w, root, ImaginaryUnit(ix * inv, iy * inv, iz * inv)
            y = math.sqrt(float(nsq))
            return float(self.w), y, ImaginaryUnit(float(ix) / y, float(iy) / y, float(iz) / y)
        y = math.sqrt(nsq)
        return self.w, y, ImaginaryUnit(ix / y, iy / y, iz / y)

    def __str__(self) -> str:
        return format_quaternion(self)


@dataclass(frozen=True)
class ImaginaryUnit:
    """Unit purely imaginary quaternion; satisfies I² = -1.

    Indexes the complex slice spanned by 1 and I inside the quaternions.
    """

    x: Scalar
    y: Scalar
    z: Scalar

    def __post_init__(self):
        x, y, z = _coerce(self.x), _coerce(self.y), _coerce(self.z)
        if any(isinstance(c, float) for c in (x, y, z)):
            x, y, z = float(x), float(y), float(z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        nsq = x * x + y * y + z * z
        if isinstance(x, Fraction):
            if nsq != 1:
                raise DomainError(f"imaginary unit must have exact unit norm, got |.|^2 = {nsq}")
        elif abs(nsq - 1.0) > 1e-9:
            raise DomainError(f"imaginary unit norm off by {abs(nsq - 1.0):.3e}")

    @classmethod
    def from_vector(cls, x, y, z) -> "ImaginaryUnit":
        """Normalize an arbitrary nonzero imaginary direction (float mode).

        Where x^2 + y^2 + z^2 is not a normal finite float, the vector is
        first scaled by the exact power of two that brings its largest
        component into [1/2, 1), so a tiny or huge direction gives the unit
        of its scaled copy; a normal sum is normalized as it stands."""
        x, y, z = float(x), float(y), float(z)
        try:
            nsq = x ** 2 + y ** 2 + z ** 2
        except OverflowError:
            nsq = math.inf
        if not sys.float_info.min <= nsq < math.inf:
            e = math.frexp(max(abs(x), abs(y), abs(z)))[1]
            x, y, z = math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(z, -e)
            nsq = x ** 2 + y ** 2 + z ** 2
        if nsq == 0.0:
            raise DomainError("cannot normalize the zero direction")
        n = math.sqrt(nsq)
        return cls(x / n, y / n, z / n)

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0, self.x, self.y, self.z)

    def circle_point(self, theta: float, radius: float = 1.0) -> Quaternion:
        """radius * exp(I theta) = r cos(theta) + r sin(theta) I, float mode."""
        c, s = radius * math.cos(theta), radius * math.sin(theta)
        return Quaternion(c, s * float(self.x), s * float(self.y), s * float(self.z))


ZERO = Quaternion(0, 0, 0, 0)
ONE = Quaternion(1, 0, 0, 0)
_FLOAT_ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)

UNIT_I = ImaginaryUnit(1, 0, 0)
UNIT_J = ImaginaryUnit(0, 1, 0)
UNIT_K = ImaginaryUnit(0, 0, 1)

_NUMBER = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+/\d+|\d+)"
_TERM_RE = re.compile(rf"([+-]?)({_NUMBER})?([ijk])?")


def _parse_coefficient(text: str, pos: int) -> Scalar:
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise QuaternionParseError("zero denominator", pos)
        return Fraction(int(num), int(den))
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return Fraction(int(text))


def parse_quaternion(text: str) -> Quaternion:
    """Parse a literal like ``1/2i``, ``-204/225-96/225k`` or ``0.5+0.25i-0.1k``.

    Rational coefficients (``p/q`` or bare integers) give an exact value;
    any decimal or exponent coefficient switches the whole value to float
    mode.  Each basis direction may appear at most once.
    """
    stripped = text.replace(" ", "")
    if not stripped:
        raise QuaternionParseError("empty literal", 0)
    components: dict[str, Scalar] = {}
    pos = 0
    first = True
    while pos < len(stripped):
        m = _TERM_RE.match(stripped, pos)
        if m is None or m.end() == pos:
            raise QuaternionParseError("expected a term", pos)
        sign, coeff, basis = m.groups()
        if coeff is None and basis is None:
            raise QuaternionParseError("expected a coefficient or basis letter", pos)
        if not first and sign == "":
            raise QuaternionParseError("missing sign between terms", pos)
        value = Fraction(1) if coeff is None else _parse_coefficient(coeff, pos)
        if sign == "-":
            value = -value
        key = basis or "1"
        if key in components:
            raise QuaternionParseError(f"duplicate component {key!r}", pos)
        components[key] = value
        pos = m.end()
        first = False
    return Quaternion(components.get("1", 0), components.get("i", 0),
                      components.get("j", 0), components.get("k", 0))


def _format_scalar(value: Scalar) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def format_quaternion(q: Quaternion) -> str:
    """Literal form that round-trips through :func:`parse_quaternion`."""
    parts: list[str] = []
    for value, basis in ((q.w, ""), (q.x, "i"), (q.y, "j"), (q.z, "k")):
        if value == 0:
            continue
        if q.is_exact and basis and abs(value) == 1:
            body = basis
        else:
            body = _format_scalar(abs(value)) + basis
        sign = "-" if value < 0 else "+"
        if not parts and sign == "+":
            parts.append(body)
        else:
            parts.append(sign + body)
    if not parts:
        return "0" if q.is_exact else "0.0"
    return "".join(parts)


def quaternion_to_json(q: Quaternion) -> list:
    """Component array [w,x,y,z]; rationals as "p/q" strings, floats as numbers."""
    if q.is_exact:
        return [str(c) for c in (q.w, q.x, q.y, q.z)]
    return [q.w, q.x, q.y, q.z]


def quaternion_from_json(data) -> Quaternion:
    if not isinstance(data, (list, tuple)) or len(data) != 4:
        raise ValueError("quaternion JSON form must be a 4-element array")
    comps = []
    for c in data:
        if isinstance(c, bool):
            raise ValueError(f"bad scalar in quaternion array: {c!r}")
        if isinstance(c, str):
            try:
                comps.append(Fraction(c))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in quaternion array: {c!r}") from None
        elif isinstance(c, (int, float)):
            try:
                comps.append(float(c))
            except OverflowError:
                raise ValueError("JSON number in quaternion array too large for a float") from None
        else:
            raise ValueError(f"bad scalar in quaternion array: {c!r}")
    return Quaternion(*comps)
