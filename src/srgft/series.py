"""Truncated left power series over the quaternions.

A series is a finite window Sigma_{n=v}^{N} q^n a_n: quaternion
coefficients on the right, central powers of q on the left.  The window
records *knowledge*: the valuation v says every coefficient below v is
zero, the truncation degree N says nothing is known above N.  Every
operation propagates the largest window it can justify, so formal
identities can be asserted "through the valid degree".

Negative valuations (Laurent windows) arise from reciprocals of series
vanishing at 0 and are supported throughout; powers of q are central, so
shifting the valuation is sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, SingularityError
from .quat import (ONE, ZERO, Quaternion, float_components, quaternion_from_json,
                   quaternion_to_json)

DEFAULT_DEGREE = 48
DEFAULT_SINGULAR_THRESHOLD = 1e-8
_FRACTION_ZERO = ZERO.w


@dataclass(frozen=True)
class EvalDomain:
    """Evaluation guard for expressions containing a regular reciprocal.

    Points where the symmetrized denominator has modulus below
    ``singular_threshold`` are refused instead of producing huge values.
    There is one guard: :class:`StarQuotient` decides |den^s(q)| < t on
    integers, and :func:`quotient_transform` and
    ``checks.check_quotient_equivalences`` read it through a quotient.
    """

    singular_threshold: float = DEFAULT_SINGULAR_THRESHOLD

    def __post_init__(self):
        if not self.singular_threshold > 0:
            raise DomainError("singular threshold must be positive")


DEFAULT_DOMAIN = EvalDomain()


def _zero_like(mode_exact: bool) -> Quaternion:
    return ZERO if mode_exact else Quaternion(0.0, 0.0, 0.0, 0.0)


def _integer_point(q: Quaternion) -> tuple[int, int, int, int, int, int]:
    """(L, W, V1, V2, V3, |V|^2), all integers, with q = (W + V1 i + V2 j + V3 k) / L.

    A float component is a dyadic rational, so no point needs ``to_exact``.
    """
    ratios = [c.as_integer_ratio() for c in (q.w, q.x, q.y, q.z)]
    scale = math.lcm(*(d for _, d in ratios))
    w, x, y, z = (n * (scale // d) for n, d in ratios)
    return scale, w, x, y, z, x * x + y * y + z * z


def _horner_xv(rows: tuple[tuple[int, ...], ...], scale: int, w: int, n2: int):
    """(L^k, A, B) with sum_n (W + V)^n L^(k-n) c_n = A + V B, for integer
    5-tuples c listed from c_k down and n2 = |V|^2.  Every (W + V)^n is
    P_n + V Q_n with integers P_n, Q_n that depend on W and |V|^2 alone."""
    a0, a1, a2, a3, a4 = rows[0]
    b0 = b1 = b2 = b3 = b4 = 0
    power = 1
    for c0, c1, c2, c3, c4 in rows[1:]:
        power *= scale
        a0, b0 = w * a0 - n2 * b0 + power * c0, a0 + w * b0
        a1, b1 = w * a1 - n2 * b1 + power * c1, a1 + w * b1
        a2, b2 = w * a2 - n2 * b2 + power * c2, a2 + w * b2
        a3, b3 = w * a3 - n2 * b3 + power * c3, a3 + w * b3
        a4, b4 = w * a4 - n2 * b4 + power * c4, a4 + w * b4
    return power, (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4)


def _horner_fixed(rows: tuple[tuple[int, ...], ...], e: int, w: int, n2: int):
    """(A, B) with A + U B ~ sum_n q^n c_n at q = (W + V) / 2^e, U = V / 2^e,
    in fixed point: w = W and n2 = |V|^2 are the integers of
    :func:`_integer_point`, and the 5-tuples c, listed from c_k down, hold
    c_n 2^p.  Each step multiplies by the exact z = (W + i|V|) / 2^e and
    floors once, so it is the complex Horner in z with one rounding error
    below one unit in each of A and B; a column's leading zero rows step
    exactly, as 0 floors to 0."""
    a0, a1, a2, a3, a4 = rows[0]
    b0 = b1 = b2 = b3 = b4 = 0
    for c0, c1, c2, c3, c4 in rows[1:]:
        a0, b0 = ((w * a0 << e) - n2 * b0 >> 2 * e) + c0, a0 + (w * b0 >> e)
        a1, b1 = ((w * a1 << e) - n2 * b1 >> 2 * e) + c1, a1 + (w * b1 >> e)
        a2, b2 = ((w * a2 << e) - n2 * b2 >> 2 * e) + c2, a2 + (w * b2 >> e)
        a3, b3 = ((w * a3 << e) - n2 * b3 >> 2 * e) + c3, a3 + (w * b3 >> e)
        a4, b4 = ((w * a4 << e) - n2 * b4 >> 2 * e) + c4, a4 + (w * b4 >> e)
    return (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4)


def _plus_v_times(e: tuple[int, ...], f: tuple[int, ...], v1: int, v2: int, v3: int):
    """The components of E + V F for V = v1 i + v2 j + v3 k."""
    e0, e1, e2, e3 = e
    f0, f1, f2, f3 = f
    return (e0 - v1 * f1 - v2 * f2 - v3 * f3,
            e1 + v1 * f0 + v2 * f3 - v3 * f2,
            e2 + v2 * f0 - v1 * f3 + v3 * f1,
            e3 + v3 * f0 + v1 * f2 - v2 * f1)


def _error_plus_v_times(e: tuple[int, ...], f: tuple[int, ...], v1: int, v2: int, v3: int):
    """Bounds on the errors of the components of E + V F, for error
    bounds e and f of E and F and |v1|, |v2|, |v3|."""
    e0, e1, e2, e3 = e
    f0, f1, f2, f3 = f
    return (e0 + v1 * f1 + v2 * f2 + v3 * f3,
            e1 + v1 * f0 + v2 * f3 + v3 * f2,
            e2 + v2 * f0 + v1 * f3 + v3 * f1,
            e3 + v3 * f0 + v1 * f2 + v2 * f1)


def _horner_errors(length: int) -> tuple[int, int]:
    """Bounds (da, db), in units of 2^-p, on the errors of A and B in a
    column of :func:`_horner_fixed` that has ``length`` rows from its first
    nonzero row down: each of its K = length - 1 steps rounds; see
    :meth:`StarQuotient._fixed_part`."""
    k = length - 1
    return (math.isqrt(2 * k * k) + 1 if k else 0), k * k


def _certified(part, v1: int, v2: int, v3: int) -> Quaternion | None:
    """The value at the float point with V = (v1 i + v2 j + v3 k) / L from
    the fixed-point class part of :meth:`StarQuotient._fixed_part`, or None.
    Each component lies in [c - r, c + r] / [low, high]; both ends are
    rounded by correctly rounded int / int division, and the component is
    returned only when the two floats have the same bits, sign of zero
    included.  Rounding is monotone, so every value in the interval, the
    exact one included, then rounds to that float."""
    e, f, de, df, low, high = part
    out = []
    for c, r in zip(_plus_v_times(e, f, v1, v2, v3),
                    _error_plus_v_times(de, df, abs(v1), abs(v2), abs(v3))):
        lo, hi = c - r, c + r
        try:
            a, b = lo / (high if lo >= 0 else low), hi / (low if hi >= 0 else high)
        except OverflowError:
            return None
        if a != b or not a and math.copysign(1.0, a) != math.copysign(1.0, b):
            return None
        out.append(a)
    return Quaternion(*out)


#: fixed-point bits kept beyond those that :func:`_fixed_precision` reads
#: from the form
_FIXED_MARGIN = 24
#: bits lost per degree of den^s where |den^s(q)| is smallest on the grid:
#: (1 - r)^deg at r = 0.99
_BITS_PER_DEN_DEGREE = 7
#: a float point takes the fixed path where the exact Horner's integers
#: would grow by more than this many times p bits, k steps times the bits
#: of L; below it the exact path is faster
_FIXED_GROWTH = 3


def _guard_ratio(domain: EvalDomain, real: bool) -> tuple[int, int]:
    """(n, shift): the guard refuses a measure top / bottom of |den^s(q)|^2,
    or of |den(q)|^2 for a real den, where (top << shift) < n bottom.  The
    float threshold is t = n / 2^s exactly, and the measure is compared
    with t^2, or with t for a real den.  No ratio is rounded to a float, so
    a measure whose square underflows a float is still compared."""
    n, d = float(domain.singular_threshold).as_integer_ratio()
    shift = d.bit_length() - 1
    return (n, shift) if real else (n * n, 2 * shift)


def _fixed_precision(sym_den: int, num_den: int, rows: tuple, sym_degree: int) -> int:
    """The fractional bits p of the fixed-point path for den^s = s / D_s and
    den^c * num = g / D_g, columns 0 and 1-4 of ``rows``, from the sizes
    of the form: twice a float's 53 bits, for a component of the value can
    cancel to the size of the point's smallest part (a float r cos(pi/2)
    is 2^-54 r), and :data:`_FIXED_MARGIN`; :data:`_BITS_PER_DEN_DEGREE`
    per degree of s, which |den^s(q)| can lose near the boundary; twice
    the bits of the number of Horner steps; and the bits by which the
    largest row of s or of g exceeds its denominator, which a value can
    cancel."""
    excess = (max(abs(row[0]) for row in rows).bit_length() - sym_den.bit_length(),
              max(abs(c) for row in rows for c in row[1:]).bit_length() - num_den.bit_length())
    return (2 * 53 + _FIXED_MARGIN + _BITS_PER_DEN_DEGREE * sym_degree
            + 2 * (len(rows) - 1).bit_length() + sum(max(x, 0) for x in excess))


def _plane_horner(pairs, x: float, y: float, v: int) -> tuple[float, float]:
    """(a, b) with a + ib = z^v sum_n z^n (p_n + i s_n) at z = x + iy, over
    float (p, s) pairs listed from the top down: the one float kernel of a
    window.  Each step is written as float operations, z acc + (p + i s),
    so no compiler can fuse a product into a multiply-add and the bits are
    the same on every platform.  The factor z^v is v more products by z,
    or -v by 1/z = (x - iy) / (x^2 + y^2) for v < 0."""
    it = iter(pairs)
    a, b = next(it)
    for p, s in it:
        a, b = x * a - y * b + p, x * b + y * a + s
    if v < 0:
        d = x * x + y * y
        x, y, v = x / d, -y / d, -v
    for _ in range(v):
        a, b = x * a - y * b, x * b + y * a
    return a, b


class PointBatch(tuple):
    """A tuple of points that splits each point into its slice class once.

    By the representation formula f(x + yI) = alpha + I beta, the value at
    a point is a part shared by its class and a tail that reads its axis.
    A batch forms that split on first use, in one plan per evaluation
    path, and keeps it for its own lifetime, so every evaluation of the
    batch (each sweep of a grid's points) reads it:

    * the exact plan (:attr:`_exact_plan`): the distinct classes
      (L, W, |V|^2, L^2 |q|^2) of the integer points of
      :func:`_integer_point`, and per point (class, inside, exact, V1, V2,
      V3), inside meaning |q| < 1;
    * the float plan (:attr:`_float_plan`): the distinct classes (x, s) of
      the float point x + s I, s = |Im q|, and per point (class, unit,
      inside, zero), unit the components of I = Im q / s (None on the real
      axis), inside |q|^2 < 1 in the point's own arithmetic and zero
      whether q is 0.  A point outside the ball has no class.  The sign of
      a zero x is part of the class, as it is of the value.

    Forming a plan raises nothing (a point's components are finite), and
    each point's errors are raised from its plan entry in batch order, so
    a batch raises where a point-by-point loop does.  An evaluator forms
    the float plan only on meeting a point that takes the float path.
    """

    @classmethod
    def of(cls, points: Iterable[Quaternion]) -> "PointBatch":
        return points if isinstance(points, cls) else cls(points)

    @cached_property
    def _exact_plan(self) -> tuple[list, list]:
        classes, index, plan = [], {}, []
        for q in self:
            scale, w, v1, v2, v3, n2 = _integer_point(q)
            r2 = w * w + n2  # L^2 |q|^2
            k = index.setdefault((scale, w, n2), len(classes))
            if k == len(classes):
                classes.append((scale, w, n2, r2))
            plan.append((k, r2 < scale * scale, q.is_exact, v1, v2, v3))
        return classes, plan

    @cached_property
    def _float_plan(self) -> tuple[list, list]:
        classes, index, plan = [], {}, []
        for q in self:
            if q.norm_sq() >= 1:
                plan.append((None, None, False, False))
                continue
            zero, q = q.is_zero(), q.to_float()
            x, s = q.w, math.hypot(q.x, q.y, q.z)
            k = index.setdefault((x, s, math.copysign(1.0, x)), len(classes))
            if k == len(classes):
                classes.append((x, s))
            plan.append((k, (q.x / s, q.y / s, q.z / s) if s else None, True, zero))
        return classes, plan


def _float_row(row: tuple, den: int) -> tuple[float, ...]:
    """The components of the 4-tuple row over den as floats.  Int by int
    true division is correctly rounded, so each equals the float of the
    reduced `Fraction`; a float row over 1 keeps its bits, -0.0 included."""
    try:
        return tuple(x / den for x in row)
    except OverflowError:
        raise DomainError("rational component too large for a float") from None


def _zero_row(exact: bool) -> tuple:
    return (0, 0, 0, 0) if exact else (0.0, 0.0, 0.0, 0.0)


def _rows_from(rows: tuple, low: int, v: int, degree: int) -> tuple:
    """The rows of q^v .. q^degree of ``rows``, which start at q^low for
    v <= low.  The rows below low are integer zeros, which add to a float
    entry with the bits that 0.0 gives."""
    return (((0, 0, 0, 0),) * (low - v) + rows)[:degree - v + 1]


class SliceSeries:
    """Window of a left power series: coefficients a_v .. a_N, inclusive.

    Every window holds one form (D, rows), the window sum_n q^(v+n)
    rows_n / D with 4-tuples rows_n listed from q^v up.  An exact window
    holds integer rows over their least common denominator D, and a float
    window the float components of its coefficients over D = 1.  Every
    constructor brings the form to canonical shape
    (:meth:`_canonicalize`), and each shape and linear operation runs once
    on it, whatever the mode.  The `Quaternion` coefficients (``coeffs``,
    ``coeff``, ``terms``, JSON output) are a view formed from the rows on
    first read and cached in the instance ``__dict__``.  Equality and
    hashing are by value, however the window was built.  Windows are
    immutable.
    """

    def __init__(self, valuation: int, coeffs: Sequence[Quaternion]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series window must hold at least one coefficient")
        comps = [(c.w, c.x, c.y, c.z) for c in coeffs]
        if all(c.is_exact for c in coeffs):
            den = math.lcm(*(x.denominator for cs in comps for x in cs))
            rows = (tuple(x.numerator * (den // x.denominator) for x in cs) for cs in comps)
        else:
            den, rows = 1, (float_components(*cs) for cs in comps)
        self._canonicalize(valuation, den, rows)

    @classmethod
    def _from_rows(cls, valuation: int, den: int, rows) -> "SliceSeries":
        """The window sum_n q^(valuation+n) rows_n / den of 4-sequences:
        integers over a positive den, or floats over 1."""
        out = object.__new__(cls)
        out._canonicalize(valuation, den, rows)
        return out

    def _canonicalize(self, valuation: int, den: int, rows) -> None:
        """Hold sum_n q^(valuation+n) rows_n / den in canonical form.
        Leading zero rows fold into the valuation.  A window that is zero
        throughout starts at 0 and repeats its first row, so a float zero
        keeps the signs of its components.  One gcd over den and every
        entry reduces den to the lcm of the reduced denominators; only an
        exact window has den > 1.  The mode is the type of the entries,
        and a float entry must be finite, as a `Quaternion` component."""
        rows = tuple(map(tuple, rows))
        degree = valuation + len(rows) - 1
        k = 0
        while k < len(rows) and not any(rows[k]):
            k += 1
        if k == len(rows):
            degree = max(degree, 0)
            valuation, den, rows = 0, 1, rows[:1] * (degree + 1)
        else:
            valuation, rows = valuation + k, rows[k:]
            if den > 1:
                g = math.gcd(den, *(x for row in rows for x in row))
                if g > 1:
                    den //= g
                    rows = tuple(tuple(x // g for x in row) for row in rows)
        exact = type(rows[0][0]) is not float
        if not exact:
            for x in (x for row in rows for x in row):
                if not math.isfinite(x):
                    raise DomainError(f"non-finite float component: {x!r}")
        self.__dict__.update(valuation=valuation, degree=degree, is_exact=exact,
                             _form=(den, rows))

    def __setattr__(self, name, value):
        raise AttributeError("a SliceSeries is immutable")

    def __delattr__(self, name):
        raise AttributeError("a SliceSeries is immutable")

    def __eq__(self, other):
        if not isinstance(other, SliceSeries):
            return NotImplemented
        if self.valuation != other.valuation:
            return False
        if self.is_exact == other.is_exact:
            return self._form == other._form
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.valuation, self.coeffs))

    def __repr__(self):
        return f"SliceSeries(valuation={self.valuation!r}, coeffs={self.coeffs!r})"

    # -- construction ---------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Quaternion], valuation: int = 0) -> "SliceSeries":
        return cls(valuation, tuple(coeffs))

    @classmethod
    def zero(cls, degree: int = 0, exact: bool = True) -> "SliceSeries":
        """The zero window, the one constructor that states its mode."""
        return cls._from_rows(0, 1, (_zero_row(exact),) * (max(degree, 0) + 1))

    @classmethod
    def one(cls, degree: int = 0) -> "SliceSeries":
        return cls(0, (ONE,) + (ZERO,) * max(degree, 0))

    @classmethod
    def identity(cls, degree: int = 1) -> "SliceSeries":
        """The series q, padded with known zeros up to ``degree``."""
        return cls(1, (ONE,) + (ZERO,) * max(degree - 1, 0))

    @classmethod
    def constant(cls, c: Quaternion, degree: int = 0) -> "SliceSeries":
        return cls(0, (c,) + (ZERO,) * max(degree, 0))

    # -- shape ------------------------------------------------------------

    def is_zero(self) -> bool:
        # a nonzero window starts with a nonzero row
        return not any(self._form[1][0])

    def is_real(self) -> bool:
        """All coefficients real: the series is slice preserving."""
        return not any(x for row in self._form[1] for x in row[1:])

    @cached_property
    def coeffs(self) -> tuple[Quaternion, ...]:
        """The coefficients a_v .. a_N, formed from the rows on first read."""
        den, rows = self._form
        if self.is_exact:
            return tuple(rational_quaternion(row, den) for row in rows)
        return tuple(Quaternion(*row) for row in rows)

    @cached_property
    def _float_rows(self) -> tuple[tuple[float, float, float, float], ...]:
        """The rows over D as float 4-tuples from a_N down to a_v.  Each
        component is converted on its own, so an a_v that underflows to
        zero keeps its place.  Built on first use and kept in the instance
        ``__dict__``."""
        den, rows = self._form
        return tuple(_float_row(row, den) for row in reversed(rows))

    @cached_property
    def _float_columns(self) -> tuple[int, tuple[tuple[tuple[float, float], ...], ...]]:
        """(v, columns) of the float window (:meth:`to_float`): its valuation,
        and per component c the pairs (a_(n,c), 0.0) from a_N down, whose
        :func:`_plane_horner` is A_c + i B_c = z^v sum_n z^n a_(n,c)."""
        window = self.to_float() if self.is_exact else self
        return window.valuation, tuple(tuple((c, 0.0) for c in column)
                                       for column in zip(*window._float_rows))

    def coeff(self, n: int) -> Quaternion:
        """Coefficient of q^n.  Raises above the truncation degree."""
        if n > self.degree:
            raise IndexError(f"coefficient {n} beyond truncation degree {self.degree}")
        if n < self.valuation:
            return _zero_like(self.is_exact)
        return self.coeffs[n - self.valuation]

    def terms(self) -> Iterator[tuple[int, Quaternion]]:
        for i, c in enumerate(self.coeffs):
            yield self.valuation + i, c

    def pad_to(self, degree: int) -> "SliceSeries":
        """Extend the window with zero coefficients.

        Only sound when the series is fully known up to ``degree``, i.e.
        it is a polynomial; callers assert that knowledge.  Zero rows
        leave a nonzero canonical form canonical, so they are appended
        as they are; a zero window is brought to shape again.
        """
        if degree <= self.degree:
            return self
        den, rows = self._form
        rows += (_zero_row(self.is_exact),) * (degree - self.degree)
        if self.is_zero():
            return SliceSeries._from_rows(self.valuation, den, rows)
        out = object.__new__(SliceSeries)
        out.__dict__.update(valuation=self.valuation, degree=degree, is_exact=self.is_exact,
                            _form=(den, rows))
        return out

    def trim(self) -> "SliceSeries":
        """Drop trailing zero coefficients (values are unchanged)."""
        den, rows = self._form
        last = len(rows)
        while last > 1 and not any(rows[last - 1]):
            last -= 1
        return self if last == len(rows) else SliceSeries._from_rows(
            self.valuation, den, rows[:last])

    def shift(self, k: int) -> "SliceSeries":
        """Multiply by the central power q^k (valuation shift)."""
        return SliceSeries._from_rows(self.valuation + k, *self._form)

    def to_float(self) -> "SliceSeries":
        """The float window; each component of an exact coefficient is
        its row entry divided by D, correctly rounded, and a float window
        keeps its bits."""
        den, rows = self._form
        return SliceSeries._from_rows(self.valuation, 1, (_float_row(row, den) for row in rows))

    def to_exact(self) -> "SliceSeries":
        if self.is_exact:
            return self
        return SliceSeries(self.valuation, tuple(c.to_exact() for c in self.coeffs))

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "SliceSeries") -> "SliceSeries":
        """The sum on the smaller window: the rows add over the lcm of the
        two denominators.  A mixed sum adds in float, each exact
        coefficient rounded on its own."""
        v = min(self.valuation, other.valuation)
        degree = min(self.degree, other.degree)
        (den_a, rows_a), (den_b, rows_b) = self._form, other._form
        if self.is_exact != other.is_exact:
            den_a, rows_a, den_b, rows_b = 1, self._float_rows[::-1], 1, other._float_rows[::-1]
        den = math.lcm(den_a, den_b)
        fa, fb = den // den_a, den // den_b
        return SliceSeries._from_rows(v, den, (
            tuple(fa * x + fb * y for x, y in zip(a, b))
            for a, b in zip(_rows_from(rows_a, self.valuation, v, degree),
                            _rows_from(rows_b, other.valuation, v, degree))))

    def __sub__(self, other: "SliceSeries") -> "SliceSeries":
        return self + (-other)

    def __neg__(self) -> "SliceSeries":
        den, rows = self._form
        return SliceSeries._from_rows(self.valuation, den, (tuple(-x for x in row) for row in rows))

    def times(self, c: Quaternion) -> "SliceSeries":
        """Right-multiply every coefficient: f(q) c."""
        return SliceSeries(self.valuation, tuple(a * c for a in self.coeffs))

    def scale(self, s) -> "SliceSeries":
        """Every coefficient times the real scalar s; an exact window times
        an int or `Fraction` multiplies its rows by s."""
        if self.is_exact and isinstance(s, (int, Fraction)):
            s = Fraction(s)
            den, rows = self._form
            return SliceSeries._from_rows(self.valuation, den * s.denominator, (
                tuple(x * s.numerator for x in row) for row in rows))
        return SliceSeries(self.valuation, tuple(a * s for a in self.coeffs))

    # -- evaluation --------------------------------------------------------

    def values(self, points: Iterable[Quaternion]) -> list[Quaternion]:
        """The values at the points of the open unit ball, in order.

        An exact window at an exact point is the quotient window / 1, and
        the quotient's evaluation of the batch (:meth:`StarQuotient.values`)
        gives its exact value.  Any float operand
        runs the float kernel on the float window at the float point, by
        the representation formula (Colombo, Gentili, Sabadini and Struppa,
        Adv. Math. 2009): with q = x + s I, s = |Im q|, and
        z = x + is, f(q) = A + I B, where each component c has
        A_c + i B_c = z^v sum_n z^n a_(n,c), one :func:`_plane_horner` per
        column.  A and B do not depend on I, so the points of one class
        (x, s), such as the i, j and k points of one (r, theta), share the
        four Horners; a real point (s = 0) is A.  The points are read as a
        :class:`PointBatch` (any other iterable is wrapped in one), whose
        plans hold each point's class and tail; the Horners of a class are
        kept in a list by class for the call.  A rational coefficient too
        large for a float raises `DomainError`, and so does a value that
        is not finite.  The float values are not correctly rounded: each
        component lies within sqrt(2) gamma_k sum_n |a_n| r^n of the exact
        value (``tests/test_series.py::TestPlaneHorner`` derives k).
        """
        batch = PointBatch.of(points)
        # a batch has at most one float class per point
        out, parts, exact_value = [], [None] * len(batch), None
        for i, q in enumerate(batch):
            if self.is_exact and q.is_exact:
                if exact_value is None:
                    exact_value = StarQuotient(self, SliceSeries.one())._point_values(batch)
                out.append(exact_value(i))
                continue
            classes, plan = batch._float_plan
            k, unit, inside, zero = plan[i]
            if not inside:
                raise DomainError("evaluation point must lie in the open unit ball")
            if self.valuation < 0 and zero:
                raise SingularityError("negative-valuation series is singular at 0")
            part = parts[k]
            if part is None:
                x, s = classes[k]
                v, columns = self._float_columns
                if v < 0 and not (x * x + s * s):
                    raise DomainError("evaluation point too close to the pole at 0")
                part = parts[k] = [_plane_horner(column, x, s, v) for column in columns]
            (a0, b0), (a1, b1), (a2, b2), (a3, b3) = part
            if unit is None:
                out.append(Quaternion(a0, a1, a2, a3))
                continue
            i1, i2, i3 = unit
            out.append(Quaternion(a0 - i1 * b1 - i2 * b2 - i3 * b3,
                                  a1 + i1 * b0 + i2 * b3 - i3 * b2,
                                  a2 + i2 * b0 + i3 * b1 - i1 * b3,
                                  a3 + i3 * b0 + i1 * b2 - i2 * b1))
        return out

    def eval(self, q: Quaternion) -> Quaternion:
        """Value at q inside the unit ball; see :meth:`values`."""
        return self.values((q,))[0]

    def slice_values(self, unit: tuple[float, float, float],
                     points: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
        """(Re f(q), <Im f(q), I>) at q = x + y I for each (x, y) of
        ``points``, for the float components of a unit I.  That pair is
        F_I(z) = z^v sum_n z^n (a_(n,0) + i <Im a_n, I>) at z = x + iy, one
        :func:`_plane_horner` per point over the projected rows of the
        float window.  A value that is not finite raises `DomainError`."""
        window = self.to_float() if self.is_exact else self
        ux, uy, uz = unit
        pairs = tuple((r0, r1 * ux + r2 * uy + r3 * uz) for r0, r1, r2, r3 in window._float_rows)
        out = []
        for x, y in points:
            a, b = _plane_horner(pairs, x, y, window.valuation)
            for c in (a, b):
                if not math.isfinite(c):
                    raise DomainError(f"non-finite float component: {c!r}")
            out.append((a, b))
        return out

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "valuation": self.valuation,
            "degree": self.degree,
            "mode": "exact" if self.is_exact else "float",
            "coeffs": [quaternion_to_json(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SliceSeries":
        if not isinstance(data, dict) or type(data.get("valuation")) is not int \
                or not isinstance(data.get("coeffs"), list):
            raise ValueError('a series needs an integer "valuation" and a "coeffs" array')
        mode = data.get("mode")  # files written before the key carry none
        if "mode" in data and mode not in ("exact", "float"):
            raise ValueError(f'a series "mode" must be "exact" or "float", not {mode!r}')
        coeffs = tuple(quaternion_from_json(c) for c in data["coeffs"])
        if mode == "float":
            coeffs = tuple(c.to_float() for c in coeffs)
        elif mode == "exact" and any(not c.is_exact for c in coeffs):
            raise ValueError("exact-mode series carries float coefficients")
        s = cls(data["valuation"], coeffs)
        if data.get("degree", s.degree) != s.degree:
            raise ValueError("degree field inconsistent with coefficient count")
        return s


# ---------------------------------------------------------------------------
# regular-function calculus
# ---------------------------------------------------------------------------


def rational_quaternion(row, den: int) -> Quaternion:
    """The exact quaternion row / den of an integer 4-tuple.  Zero
    components share one `Fraction`, and a zero row is ``ZERO``."""
    r0, r1, r2, r3 = row
    if not (r0 or r1 or r2 or r3):
        return ZERO
    return Quaternion(Fraction(r0, den) if r0 else _FRACTION_ZERO,
                      Fraction(r1, den) if r1 else _FRACTION_ZERO,
                      Fraction(r2, den) if r2 else _FRACTION_ZERO,
                      Fraction(r3, den) if r3 else _FRACTION_ZERO)


def rows_over_lcm(pairs) -> tuple[int, list[tuple[int, ...]]]:
    """(D, rows): the rationals r_n / d_n of (d_n, r_n) pairs, integer
    4-tuples r_n over positive d_n, as integer rows over D = lcm(d_n)."""
    den = math.lcm(*(d for d, _ in pairs))
    return den, [tuple(x * f for x in row) for d, row in pairs for f in (den // d,)]


def slice_derivative(f: SliceSeries) -> SliceSeries:
    """Term rule: q^n a_n maps to q^(n-1) (n a_n); window shrinks by one.

    The n = 0 slot multiplies to zero, so the constant term drops out of
    the normalized result on its own; a zero result is the zero window
    of f's mode.
    """
    den, rows = f._form
    out = SliceSeries._from_rows(f.valuation - 1, den, (
        tuple(n * x for x in row) for n, row in enumerate(rows, f.valuation)))
    return SliceSeries.zero(out.degree, f.is_exact) if out.is_zero() else out


def star_mul(f: SliceSeries, g: SliceSeries) -> SliceSeries:
    """Regular product: Cauchy convolution c_n = sum a_k b_(n-k), order kept.

    The result window is the largest one fully determined by the two
    operand windows: valuation v_f + v_g, degree
    min(N_f + v_g, N_g + v_f).  Exact windows convolve their integer
    forms over D_f D_g: each component of c_n is one integer dot product
    of a_0 .. a_n with b_n .. b_0 under a sign pattern of the quaternion
    product.  A real operand commutes with every quaternion, so each
    component of c_n is then the dot product of its scalars with that
    component of the other operand: four per term, and one when both are
    real.  A float operand is taken exactly, and each component of the
    float result is rounded once from the exact product.
    """
    if not (f.is_exact and g.is_exact):
        return star_mul(f.to_exact(), g.to_exact()).to_float()
    v = f.valuation + g.valuation
    degree = min(f.degree + g.valuation, g.degree + f.valuation)
    if f.is_zero() or g.is_zero():
        return SliceSeries.zero(max(degree, 0))
    length = degree - v + 1
    f_den, f_rows = f._form
    g_den, g_rows = g._form
    f_real, g_real = f.is_real(), g.is_real()
    if f_real or g_real:
        real_rows, rows = (f_rows, g_rows) if f_real else (g_rows, f_rows)
        rev = [row[0] for row in real_rows[length - 1::-1]]
        columns = list(zip(*rows[:length]))[:1 if f_real and g_real else 4]
        sums = [[sum(map(mul, column, rev[length - 1 - n:])) for n in range(length)]
                for column in columns]
        return SliceSeries._from_rows(v, f_den * g_den, (
            zip(*sums) if len(sums) == 4 else ((c, 0, 0, 0) for c in sums[0])))
    flat = [x for row in f_rows[:length] for x in row]
    rev = g_rows[length - 1::-1]
    signed = ([x for b0, b1, b2, b3 in rev for x in (b0, -b1, -b2, -b3)],
              [x for b0, b1, b2, b3 in rev for x in (b1, b0, b3, -b2)],
              [x for b0, b1, b2, b3 in rev for x in (b2, -b3, b0, b1)],
              [x for b0, b1, b2, b3 in rev for x in (b3, b2, -b1, b0)])
    end = 4 * length
    return SliceSeries._from_rows(v, f_den * g_den, (
        [sum(map(mul, flat, b[end - 4 * n - 4:])) for b in signed] for n in range(length)))


def full_star_mul(f: SliceSeries, g: SliceSeries) -> SliceSeries:
    """Product of two *polynomials*, keeping the full support.

    Pads the operand windows first, which is only sound because a
    polynomial is known entirely.
    """
    target = f.degree + g.degree
    return star_mul(f.pad_to(target - g.valuation), g.pad_to(target - f.valuation))


def regular_conjugate(f: SliceSeries) -> SliceSeries:
    """Coefficient-wise quaternion conjugation."""
    den, rows = f._form
    return SliceSeries._from_rows(f.valuation, den,
                                  ((r0, -r1, -r2, -r3) for r0, r1, r2, r3 in rows))


def symmetrize(f: SliceSeries) -> SliceSeries:
    """f star f^c.  Coefficients are real by the pairing a_k conj(a_m) + a_m conj(a_k).

    Computed through real dot products, so the result is real; it agrees
    with star_mul(f, f^c) coefficient by coefficient.  The window takes
    the dot product of its integer rows c_0 .. c_t with c_t .. c_0 over
    D^2.  A float window is taken exactly and rounded once per
    coefficient.
    """
    if not f.is_exact:
        return symmetrize(f.to_exact()).to_float()
    if f.is_zero():
        return SliceSeries.zero(max(f.degree + f.valuation, 0))
    den, rows = f._form
    length = len(rows)  # valid window: t in [0, N - v]
    flat = [x for row in rows for x in row]
    rev = [x for row in reversed(rows) for x in row]
    out = []
    for t in range(length):
        # the pairs i < t - i: rows 0, 1, .. against rows t, t - 1, ..
        start = 4 * (length - 1 - t)
        acc = 2 * sum(map(mul, flat, rev[start:start + 4 * ((t + 1) // 2)]))
        if not t % 2:
            middle = rows[t // 2]
            acc += sum(map(mul, middle, middle))
        out.append((acc, 0, 0, 0))
    return SliceSeries._from_rows(2 * f.valuation, den * den, out)


def _invert_integer_series(s: list[int]) -> tuple[int, list[int]]:
    """(E, u): 1 / sum_n q^n s_n = sum_n q^n u_n / E to the same order, for
    integers s_n with s_0 > 0.  Each new term is reduced before it joins
    the common denominator E, which keeps the integers as small as the
    reduced fractions."""
    s0, tail = s[0], s[1:]
    den, out = s0, [1]
    for _ in range(1, len(s)):
        num, d = -sum(map(mul, tail, reversed(out))), s0 * den
        g = math.gcd(num, d)
        num, d = num // g, d // g
        grow = d // math.gcd(den, d)
        if grow != 1:
            out = [u * grow for u in out]
            den *= grow
        out.append(num * (den // d))
    return den, out


def star_reciprocal(f: SliceSeries) -> SliceSeries:
    """Regular reciprocal: invert the real symmetrization, then star f^c.

    The input's valuation flips sign, so reciprocals of series vanishing
    at 0 come back as Laurent windows.  The window inverts the integer
    form of its symmetrization; a float window is taken exactly and
    rounded once per coefficient.
    """
    if f.is_zero():
        raise DomainError("the zero series has no regular reciprocal")
    if not f.is_exact:
        return star_reciprocal(f.to_exact()).to_float()
    # strip the central q^(2v); the unit part starts with |a_v|^2 > 0
    den, rows = symmetrize(f)._form
    inv_den, inverted = _invert_integer_series([row[0] for row in rows])
    inv_sym = SliceSeries._from_rows(-2 * f.valuation, inv_den,
                                     ((den * u, 0, 0, 0) for u in inverted))
    return star_mul(inv_sym, regular_conjugate(f))


def _quotient_window(num: SliceSeries, den: SliceSeries, degree: int) -> SliceSeries:
    """The window q^v .. q^degree of den^(-1) num, v = v_num - v_den, for
    exact trimmed num and a real, so central, den, by den g = num on
    integer rows: with c the sign of d_0, s = c d_0 and h = D_m g,
    s h_n = c (D_d m_n - sum_(k>=1) d_k h_(n-k)).  Row h_n is over E_n, a
    multiple of E_(n-1), reduced by one gcd with s."""
    v = num.valuation - den.valuation
    length = degree - v + 1
    if length < 1:
        return SliceSeries.zero(max(degree, 0))
    (num_den, num_rows), (den_den, den_rows) = num._form, den._form
    c = 1 if den_rows[0][0] > 0 else -1
    s = c * den_rows[0][0]
    terms = [(k, c * row[0]) for k, row in enumerate(den_rows[1:length], 1) if row[0]]
    rows, scales, scale = [], [], 1
    for n in range(length):
        a0, a1, a2, a3 = ((c * scale * den_den * x for x in num_rows[n])
                          if n < len(num_rows) else (0, 0, 0, 0))
        for k, d in terms:
            if k > n:
                break
            d *= scale // scales[n - k]
            h0, h1, h2, h3 = rows[n - k]
            a0, a1, a2, a3 = a0 - d * h0, a1 - d * h1, a2 - d * h2, a3 - d * h3
        g = math.gcd(s, a0, a1, a2, a3)
        scale *= s // g
        rows.append((a0 // g, a1 // g, a2 // g, a3 // g))
        scales.append(scale)
    out_den, out_rows = rows_over_lcm(list(zip(scales, rows)))
    return SliceSeries._from_rows(v, out_den * num_den, out_rows)


def quotient_transform(f: SliceSeries, points: Iterable[Quaternion],
                       domain: EvalDomain = DEFAULT_DOMAIN) -> list[Quaternion]:
    """The point map q -> f^c(q)^(-1) q f^c(q) at each point, in order;
    it preserves |q|.

    With R = f^(-*) = (f^s)^(-1) star f^c, R(q) = f^s(q)^(-1) f^c(q), and
    f^s(q) lies in the slice of q, so it commutes with q and the map is
    R(q)^(-1) q R(q).  The window is treated as a polynomial, and R is the
    one quotient 1 over f, evaluated at the whole batch by
    :meth:`StarQuotient.values`: its integer guard refuses the first point
    where |f^s(q)| falls below ``domain``'s threshold, at an exact and a
    float point alike.  A zero of f^c is a zero of f^s = f^c star f, so the
    guard refuses it too.  An exact q gives an exact image, whatever the
    mode of f.
    """
    batch = PointBatch.of(points)
    reciprocal = StarQuotient(SliceSeries.one(), f).values(batch, domain)
    return [r.inverse() * q * r for q, r in zip(batch, reciprocal)]


def compose_slice_preserving(f: SliceSeries, w: SliceSeries) -> SliceSeries:
    """Substitution f(w(q)) for slice-preserving w with w(0) = 0.

    Legitimate because w's coefficients are real and therefore central:
    powers of w(q) stay slice regular.  The result window is
    min(N_f, N_w).  Exact windows run on integers: with w = W / D_w, the
    powers W^n have integer coefficients (each one a dot product with the
    reversed W), and sum_n a_n w^n is summed over D_f D_w^N with a_n
    scaled by D_w^(N-n).  A float operand is taken exactly, and each
    component of the float result is rounded once.
    """
    if not w.is_real():
        raise DomainError("inner series must have all-real coefficients")
    if w.valuation < 1 and not w.is_zero():
        raise DomainError("inner series must vanish at 0")
    if f.valuation < 0:
        raise DomainError("cannot substitute into a Laurent window")
    if not (f.is_exact and w.is_exact):
        return compose_slice_preserving(f.to_exact(), w.to_exact()).to_float()
    degree = min(f.degree, w.degree)
    f_den, f_rows = f._form
    w_den, w_rows = w._form
    w_ints = ([0] * w.valuation + [row[0] for row in w_rows])[:degree + 1]
    while len(w_ints) > 1 and not w_ints[-1]:
        w_ints.pop()
    m = len(w_ints) - 1
    a_rows = (((0, 0, 0, 0),) * f.valuation + f_rows)[:degree + 1]
    w_rev = w_ints[::-1]
    power = [1] + [0] * degree
    powers = [power]
    for n in range(1, degree + 1):
        # W^n lives on q^(n v_w) .. q^(n m)
        padded = [0] * m + power
        power = [0] * (degree + 1)
        for d in range(n * w.valuation, min(n * m, degree) + 1):
            power[d] = sum(map(mul, padded[d:d + m + 1], w_rev))
        powers.append(power)
    scaled = [[x * w_den ** (degree - n) for n, x in enumerate(comp)]
              for comp in zip(*a_rows)]
    return SliceSeries._from_rows(0, f_den * w_den ** degree, (
        [sum(map(mul, comp, col)) for comp in scaled] for col in zip(*powers)))


def integrate_radial(g: SliceSeries) -> SliceSeries:
    """Primitive with f(0) = 0: coefficient g_n / (n+1) lands at power n+1.

    A float window is taken exactly and each coefficient rounded once."""
    if g.valuation < 0:
        raise DomainError("cannot integrate a Laurent window term q^-1")
    if not g.is_exact:
        return integrate_radial(g.to_exact()).to_float()
    # a_n / (n + 1) over D L with L = lcm(v + 1, .., N + 1)
    den, rows = g._form
    top = math.lcm(*range(g.valuation + 1, g.degree + 2))
    return SliceSeries._from_rows(g.valuation + 1, den * top, (
        tuple(x * (top // n) for x in row) for n, row in enumerate(rows, g.valuation + 1)))


def outside_closed_ball(a: Quaternion) -> bool:
    """|a| > 1, decided exactly for an exact a and with a 1e-12 allowance
    on |a|^2 for a float one."""
    nsq = a.norm_sq()
    return nsq > 1 if a.is_exact else nsq > 1.0 + 1e-12


def mobius(a: Quaternion, degree: int = DEFAULT_DEGREE) -> SliceSeries:
    """Regular Moebius transform of the unit ball vanishing nowhere inside:

        a - (1 - |a|^2) Sigma_{n>=1} q^n conj(a)^(n-1)

    expanded from :func:`mobius_quotient`, whose parts hold a float a
    exactly, so a float a gives the exact window rounded once."""
    return mobius_quotient(a).to_series(degree)


def mobius_quotient(a: Quaternion) -> "StarQuotient":
    """The Moebius transform as an exact quotient of linear polynomials."""
    if outside_closed_ball(a):
        raise DomainError("moebius parameter must lie in the closed unit ball")
    return StarQuotient(SliceSeries.from_coeffs([a, -ONE]),
                        SliceSeries.from_coeffs([ONE, -a.conjugate()]))


class StarQuotient:
    """Pointwise-exact evaluator for den^(-*) star num with polynomial parts.

    Writing the reciprocal as f^(-*) = (f^s)^(-1) f^c (Gentili, Stoppato
    and Struppa, "Regular Functions of a Quaternionic Variable", Springer
    2013), the value at q is

        value(q) = den^s(q)^(-1) (den^c star num)(q)

    because den^s has real coefficients and collapses pointwise.  Both
    den^s and G = den^c star num are polynomials, so there is no
    truncation error; this is how the built-in extremal functions are
    evaluated near the boundary of the ball.  A real den (as in every
    :class:`QuotientSum`) is its own den^c, so the value is
    den(q)^(-1) num(q), and the guard reads |den^s(q)| = |den(q)|^2.
    Evaluation, :meth:`to_series` and :meth:`derivative` read this one
    real form s^(-1) G (:attr:`_real_form`).  The polynomials are formed
    on first use, from den and num with their trailing zeros trimmed, and
    read through their integer forms: integer coefficients over one
    common denominator each.

    Evaluation runs on integers only.  The point is scaled by the lcm L
    of its component denominators (a binary float is a dyadic rational)
    to (W + V) / L; s and G run through one Horner, :func:`_horner_xv` on
    5-tuple rows (s_n, g_n), and each component is divided once at the
    end.  All of it but the last step E + V F reads only the class
    (L, W, |V|^2), as the representation formula f(x + yI) = alpha + I beta
    says.  :meth:`values` reads each
    point's class from its :class:`PointBatch` and forms that shared part
    (:meth:`_shared_part`) once per class, so the i, j and k points of one
    (r, theta) run one Horner; the parts do not outlive the call.  An
    exact point gives an exact value; at a float point each component is
    the correctly rounded value of the exact one.

    A float point tries a fixed-point path first: the same Horner on the
    same integers L, W and |V|^2 with the rows held at p fractional bits,
    p read from the sizes of the form (:func:`_fixed_precision`), each step
    flooring once, its one source of error (:meth:`_fixed_part`, which
    states the proven bound), and the tail E + V F with V's exact
    components, so a tiny component keeps its relative accuracy.  A
    component is returned only when both ends of its error interval round
    to the same float, sign of zero included (:func:`_certified`);
    rounding is monotone, so that float is the exact path's (Ziv's
    strategy: A. Ziv, ACM TOMS 17(3), 1991).  Any other
    point takes the exact path, which is the oracle: a guard refused or
    ambiguous on the interval of N, a float overflow, a negative
    valuation, a failed certificate.  So does every point of a form whose
    exact Horner would grow its integers by at most :data:`_FIXED_GROWTH`
    p bits (steps times the bits of L), where the exact path is the faster
    one.
    Exactness matters because the symmetrized denominator can be as small
    as (1-|q|)^8 near the boundary, where float Horner would cancel
    catastrophically.  The guard compares |den^s(q)| with its threshold
    on integers.  The default guard only fences off genuine zeros; pass a
    stricter :class:`EvalDomain` to refuse a wider neighbourhood of the
    singular set.  :meth:`SliceSeries.eval` takes an exact window at an
    exact point as the quotient window / 1, so this is the one exact
    point evaluator.
    """

    #: anti-zero guard: den^s vanishing only on the boundary sphere can
    #: legitimately reach ~1e-16 at radius 0.99 inside the ball
    ZERO_GUARD = EvalDomain(1e-250)

    def __init__(self, num: SliceSeries, den: SliceSeries):
        if den.is_zero():
            raise DomainError("quotient denominator is identically zero")
        self.num = num
        self.den = den

    @cached_property
    def _real_form(self) -> tuple[bool, SliceSeries, SliceSeries]:
        """(real, s, G), exact polynomials with the quotient s^(-1) G: s = den
        and G = num for a real den, else s = den^s and G = den^c star num;
        every reader of the quotient's polynomials reads them here."""
        den, num = self.den.to_exact().trim(), self.num.to_exact().trim()
        if den.is_real():
            return True, den, num
        return (False, symmetrize(den.pad_to(2 * den.degree - den.valuation)),
                full_star_mul(regular_conjugate(den), num))

    @cached_property
    def _integer_parts(self):
        """(v, real, D_s, D_g, rows): :attr:`_real_form` as s = q^v s(q) / D_s
        and G = q^v g(q) / D_g, and rows the integer 5-tuples (s_n, g_n)
        from the highest power of either part down, so one Horner runs
        both.  v is the lowest of the two valuations and 0; each part takes
        the rest of its valuation as zero rows at the bottom and the powers
        above its degree at the top."""
        real, sym, num = self._real_form
        low, top = min(sym.valuation, num.valuation, 0), max(sym.degree, num.degree)
        sym_rows, num_rows = (_rows_from(part.pad_to(top)._form[1], part.valuation, low, top)[::-1]
                              for part in (sym, num))
        return (low, real, sym._form[0], num._form[0],
                tuple((s[0], *g) for s, g in zip(sym_rows, num_rows)))

    def _shared_part(self, scale: int, w: int, n2: int, r2: int, guard: tuple[int, int]):
        """(E, F, divisor): everything of the value at (W + V) / L that
        reads only L, W and |V|^2 = n2, so the points x + y I of one
        (r, theta) share it whatever their axis I.

        The value is (E + V F) / divisor componentwise with integer
        4-tuples E and F.  Raises at 0 for a negative valuation.  Where
        |den^s(q)| falls below the threshold that ``guard`` reads
        (:func:`_guard_ratio`) it returns that modulus as a float instead,
        the ratio of its integers rounded once (and its square root for a
        den that is not real)."""
        low, real, sym_den, num_den, rows = self._integer_parts
        if low < 0 and not r2:
            raise SingularityError("negative-valuation series is singular at 0")
        # one Horner: L^k s(q) = x + V y, and L^k g(q) = A + V B componentwise
        power, (x, a0, a1, a2, a3), (y, b0, b1, b2, b3) = _horner_xv(rows, scale, w, n2)
        norm = x * x + n2 * y * y
        # top / bottom is |den^s(q)|^2, or |den^s(q)| = |den(q)|^2 for a
        # real den, and is refused below t^2, or t: the float threshold is
        # t = n / 2^shift, so the comparison scales top by a shift
        top, bottom = norm, (power * sym_den) ** 2
        if low < 0:
            top, bottom = top * scale ** (-2 * low), bottom * r2 ** -low
        n, shift = guard
        if (top << shift) < n * bottom:
            # refused: the measure of |den^s(q)| read from the same integers
            return top / bottom if real else math.sqrt(top / bottom)
        # both parts carry L^k, so the value is D_s (x - V y)(A + V B) / (norm D_g),
        # and D_s (x - V y)(A + V B) = E + V F with E = x' A + |V|^2 y' B and
        # F = x' B - y' A for x' = x D_s, y' = y D_s
        x, y = x * sym_den, y * sym_den
        return ((x * a0 + n2 * y * b0, x * a1 + n2 * y * b1,
                 x * a2 + n2 * y * b2, x * a3 + n2 * y * b3),
                (x * b0 - y * a0, x * b1 - y * a1, x * b2 - y * a2, x * b3 - y * a3),
                norm * num_den)

    @cached_property
    def _fixed(self):
        """The fixed-point plan, or None for a negative valuation:
        (p, bits, rows, mask, errors) with p fractional bits, the fewest
        bits of L with which a float point takes the fixed path, the rows of
        :attr:`_integer_parts` times 2^p, which columns of g are not all
        zero (None when none is), and the error bounds (dx, dy, da, db) of
        :meth:`_fixed_part`, in units of 2^-p: each part's own, over its
        rows from q^deg down to q^0."""
        low, _, sym_den, num_den, rows = self._integer_parts
        if low < 0:
            return None
        _, sym, num = self._real_form
        p = _fixed_precision(sym_den, num_den, rows, sym.degree)
        mask = tuple(map(any, zip(*rows)))[1:]
        return (p, _FIXED_GROWTH * p // (max(len(rows), 2) - 1) + 2,
                tuple(tuple(c << p for c in row) for row in rows),
                None if all(mask) else mask,
                _horner_errors(sym.degree + 1) + _horner_errors(num.degree + 1))

    def _fixed_part(self, scale: int, w: int, n2: int, guard: tuple[int, int]):
        """(E, F, dE, dF, low, high): the class part of the float point
        (W + V) / L, L = 2^e, in fixed point at p fractional bits, or None
        where the guard (:func:`_guard_ratio`) does not accept the low end
        of N.  Each component of the value is (E + V F) / N for some N in
        [low, high], and dE and dF bound the errors of E and F
        componentwise.

        One Horner (:func:`_horner_fixed`) at the exact point gives the
        pair x + V y of s from column 0 and the pairs A + V B of g from
        columns 1-4.  Their proven error bound, in units of 2^-p: a pair
        (a, b) stands for the complex number a + i|U| b, U = V / L, and each
        step multiplies it by z = (W + i|V|) / L exactly and floors a and
        b, an error below one unit in each, so below sqrt(2) in a + i|U| b.
        |z| < 1, so an earlier error does not grow: after K steps, each of
        which rounds (the first as well where p < e), the error of
        a + i|U| b, and so of a, is below sqrt(2) K, and that of b, whose
        step adds the error of a, below K^2 (:func:`_horner_errors`).  The
        zero rows above a part's degree step exactly, as 0 floors to 0, so
        K is each part's own degree: deg s for x and y, deg G for A and B.
        A column of zeros stays an exact 0 with error 0.  E, F and N are exact
        products of the pairs with the exact |V|^2, so their bounds follow
        from |xy - x'y'| <= |x'| dy + |y'| dx + dx dy, with the largest |A|
        and |B| over the columns of num."""
        p, _, rows, mask, (dx, dy, da, db) = self._fixed
        _, _, sym_den, num_den, _ = self._integer_parts
        e = scale.bit_length() - 1
        (x, a0, a1, a2, a3), (y, b0, b1, b2, b3) = _horner_fixed(rows, e, w, n2)
        ax, ay = abs(x), abs(y)
        norm = (x * x << 2 * e) + n2 * y * y
        dnorm = ((2 * ax + dx) * dx << 2 * e) + n2 * (2 * ay + dy) * dy
        # |den^s(q)|^2, or |den(q)|^2 for a real den, is N / (L 2^p D_s)^2
        n, shift = guard
        if ((norm - dnorm) << shift) < n * sym_den * sym_den << 2 * (e + p):
            return None
        aa, ab = max(map(abs, (a0, a1, a2, a3))), max(map(abs, (b0, b1, b2, b3)))
        de = sym_den * (((ax * da + aa * dx + dx * da) << 2 * e)
                        + n2 * (ay * db + ab * dy + dy * db))
        df = sym_den * (ax * db + ab * dx + dx * db + ay * da + aa * dy + dy * da) << e
        # E = D_s (x A + |V|^2 y B) and F = D_s (x B - y A) L, over L^2 2^(2p)
        xe, ye = sym_den * x << 2 * e, sym_den * n2 * y
        xf, yf = sym_den * x << e, sym_den * y << e
        return ((xe * a0 + ye * b0, xe * a1 + ye * b1, xe * a2 + ye * b2, xe * a3 + ye * b3),
                (xf * b0 - yf * a0, xf * b1 - yf * a1, xf * b2 - yf * a2, xf * b3 - yf * a3),
                (de, de, de, de) if mask is None else tuple(de if m else 0 for m in mask),
                (df, df, df, df) if mask is None else tuple(df if m else 0 for m in mask),
                num_den * (norm - dnorm), num_den * (norm + dnorm))

    def values(self, points: Iterable[Quaternion], domain: EvalDomain | None = None,
               skip: bool = False) -> list:
        """The values at the points, in order, with one shared part per class
        (L, W, |V|^2).  Raises at the first point where |den^s(q)| falls
        below the guard's threshold (by default :attr:`ZERO_GUARD`).  With
        ``skip``, such a point raises nothing and yields the guard's
        measure of |den^s(q)| as a float in place of its value.  A float
        point takes the fixed-point class part and its certificate first,
        and the exact shared part only where they do not settle every
        component; both give the same bits (see the class docstring).  The
        points are read as a :class:`PointBatch` (any other iterable is
        wrapped in one), whose exact plan holds each point's class and V."""
        batch = PointBatch.of(points)
        return list(map(self._point_values(batch, domain, skip), range(len(batch))))

    def _point_values(self, batch: PointBatch, domain: EvalDomain | None = None,
                      skip: bool = False):
        """The function i -> the value at ``batch[i]`` of :meth:`values`.  It
        keeps the class parts of the batch's exact plan in lists by class,
        formed where a point first needs them; they live as long as the
        function."""
        guard = _guard_ratio(domain or self.ZERO_GUARD, self._integer_parts[1])
        classes, plan = batch._exact_plan
        shared, fixed = [None] * len(classes), [None] * len(classes)

        def value(i: int):
            k, inside, exact, v1, v2, v3 = plan[i]
            if not inside:
                raise DomainError("evaluation point must lie in the open unit ball")
            scale, w, n2, r2 = classes[k]
            if not exact and self._fixed and scale.bit_length() >= self._fixed[1]:
                part = fixed[k]
                if part is None:
                    # False marks a class that the fixed path's guard did not accept
                    part = fixed[k] = self._fixed_part(scale, w, n2, guard) or False
                if part:
                    out = _certified(part, v1, v2, v3)
                    if out is not None:
                        return out
            part = shared[k]
            if part is None:
                part = shared[k] = self._shared_part(scale, w, n2, r2, guard)
            if type(part) is float:
                if not skip:
                    raise SingularityError("quotient evaluated too close to a symmetrization zero")
                return part
            e, f, divisor = part
            comps = _plus_v_times(e, f, v1, v2, v3)
            return (rational_quaternion(comps, divisor) if exact
                    else Quaternion(*_float_row(comps, divisor)))

        return value

    def eval(self, q: Quaternion, domain: EvalDomain | None = None) -> Quaternion:
        """The value at q; see :meth:`values`."""
        return self.values((q,), domain)[0]

    def to_series(self, degree: int = DEFAULT_DEGREE) -> SliceSeries:
        """The window through ``degree``: s^(-1) G of the real form
        (:attr:`_real_form`) by the recurrence :func:`_quotient_window`.
        Float parts are taken exactly; the float window is rounded once."""
        _, sym, num = self._real_form
        out = _quotient_window(num, sym, degree)
        return out if self.num.is_exact and self.den.is_exact else out.to_float()

    def derivative(self) -> "StarQuotient":
        """f' = (s star s)^(-1) (s star G' - s' star G) for f = s^(-1) G
        (:attr:`_real_form`) and any den: s is real, so central.  The parts
        are exact, so a float form gives the exact f' of its dyadic form,
        and the guard of the real den s star s reads |s(q)|^4, that is
        |den^s(q)|^4, or |den(q)|^4 for a real den."""
        _, sym, num = self._real_form
        return StarQuotient(full_star_mul(sym, slice_derivative(num))
                            - full_star_mul(slice_derivative(sym), num),
                            full_star_mul(sym, sym))


class QuotientSum(StarQuotient):
    """left star sum_k w_k R_k for quotients in their real forms
    R_k = s_k^(-1) G_k (:attr:`StarQuotient._real_form`), as one quotient
    over the real denominator den = prod_k s_k, where a real den_k enters once.

    Real series are central, so sum_k w_k R_k = den^(-1) num_0 with
    num_0 = sum_k w_k (prod_(j != k) s_j) star G_k, and den^(-1) commutes
    with the left factor h (by default 1): the sum is den^(-1) num with
    num = h star num_0, so h folds into num once.  Its value at q is
    sum_m q^m h(q) g_m for num_0 = sum_m q^m g_m, which is not h(q) num_0(q)
    in general, since h(q) need not commute with q.  Both are built on
    first use, exactly.  A sum needs at least one term and one weight per
    term.
    """

    def __init__(self, terms: Sequence[StarQuotient], weights: Sequence,
                 left: SliceSeries | None = None):
        if not terms or len(weights) != len(terms):
            raise DomainError("a quotient sum needs at least one term and one weight per term")
        self.terms, self.weights, self.left = tuple(terms), tuple(weights), left

    @cached_property
    def den(self) -> SliceSeries:
        return reduce(full_star_mul, (t._real_form[1] for t in self.terms))

    @cached_property
    def num(self) -> SliceSeries:
        syms = [t._real_form[1] for t in self.terms]
        parts = [reduce(full_star_mul, syms[:k] + syms[k + 1:], t._real_form[2]).scale(w)
                 for k, (w, t) in enumerate(zip(self.weights, self.terms))]
        # __add__ keeps the smaller window; each part is a polynomial
        degree = max(part.degree for part in parts)
        out = reduce(SliceSeries.__add__, (part.pad_to(degree) for part in parts))
        return out if self.left is None else full_star_mul(self.left.to_exact().trim(), out)
