"""Function-class predicates, certified generators, and the sampling grid.

The classes screened here are the classical ones transplanted to slice
regular functions of a quaternionic variable:

* Caratheodory class: p(0) = 1 and Re p > 0 on the unit ball.
* starlike type (order alpha): f(0) = 0, f'(0) = 1, zero set {0}, and
  Re(f(q)^-1 q f'(q)) > alpha.
* close-to-convex type: Re(h(q)^-1 q f'(q)) > 0 against some certified
  starlike h.
* slice preserving: all-real coefficients (maps every slice into itself).
* one-slice: all coefficients in a single plane R + I R.

"For all q in the ball" is realized at desk scale as "for all grid
points", and verdicts carry their certificate: analytic-sufficient when
an exact coefficient criterion guarantees membership, sampled when only
the grid was consulted, refuted with a witness otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Iterable, Optional, Union

from .errors import DomainError, PreconditionError
from .quat import (ONE, ZERO, ImaginaryUnit, Quaternion, UNIT_I, UNIT_J, UNIT_K,
                   exact_sqrt, quaternion_to_json)
from .series import (DEFAULT_DEGREE, DEFAULT_SINGULAR_THRESHOLD, PointBatch,
                     QuotientSum, SliceSeries, StarQuotient, full_star_mul, integrate_radial,
                     outside_closed_ball, rational_quaternion, rows_over_lcm,
                     slice_derivative, star_mul)

DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
DEFAULT_ANGLE_COUNT = 8


def _extra_units(count: int) -> list[ImaginaryUnit]:
    """Deterministic low-discrepancy directions beyond the canonical i, j, k."""
    units = []
    for m in range(count):
        z = 1.0 - (2.0 * m + 1.0) / count
        r = math.sqrt(max(1.0 - z * z, 0.0))
        phi = m * math.pi * (3.0 - math.sqrt(5.0))
        units.append(ImaginaryUnit.from_vector(r * math.cos(phi), r * math.sin(phi), z))
    return units


@dataclass(frozen=True)
class SamplingGrid:
    """Deterministic finite subset of the open unit ball.

    Points are r * exp(I theta) for every radius, unit axis and angle;
    the derived boundary directions exp(I theta) are shared by all radial
    checks so that maxima at different radii are comparable.
    """

    radii: tuple[float, ...]
    units: tuple[ImaginaryUnit, ...]
    angles: tuple[float, ...]

    def __post_init__(self):
        if not self.radii or not self.units or not self.angles:
            raise DomainError("grid must carry radii, units and angles")
        if any(not 0.0 < r < 1.0 for r in self.radii):
            raise DomainError("grid radii must lie in (0, 1)")
        if list(self.radii) != sorted(set(self.radii)):
            raise DomainError("grid radii must be strictly increasing")

    @classmethod
    def default(cls, radii=DEFAULT_RADII, unit_count: int = 3,
                angle_count: int = DEFAULT_ANGLE_COUNT) -> "SamplingGrid":
        if unit_count < 1:
            raise DomainError("grid needs at least one slice axis")
        units = [UNIT_I, UNIT_J, UNIT_K][:unit_count]
        if unit_count > 3:
            units += _extra_units(unit_count - 3)
        angles = tuple(2.0 * math.pi * m / angle_count for m in range(angle_count))
        return cls(tuple(float(r) for r in radii), tuple(units), angles)

    @cached_property
    def directions(self) -> tuple[Quaternion, ...]:
        """Unit directions exp(I theta), deduplicated (reals coincide)."""
        seen = set()
        out = []
        for unit in self.units:
            for theta in self.angles:
                u = unit.circle_point(theta)
                key = (round(u.w, 12), round(u.x, 12), round(u.y, 12), round(u.z, 12))
                if key not in seen:
                    seen.add(key)
                    out.append(u)
        return tuple(out)

    @cached_property
    def points(self) -> PointBatch:
        """The points r * exp(I theta), radius-major, as one
        :class:`PointBatch`: the grid keeps it, so every sweep of the grid
        reads one split of its points into slice classes."""
        return PointBatch(u * r for r in self.radii for u in self.directions)


DEFAULT_GRID = SamplingGrid.default()


@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of a membership screen."""

    class_name: str
    member: bool
    certificate: str  # analytic-sufficient | sampled | refuted
    margin: Optional[float] = None
    witness: Optional[dict] = None

    def __post_init__(self):
        if self.certificate == "refuted" and self.witness is None:
            raise ValueError("refuted verdicts must carry a witness")
        if self.certificate == "sampled" and self.margin is None:
            raise ValueError("sampled verdicts must carry the worst margin")

    def to_json_dict(self) -> dict:
        return {
            "class": self.class_name,
            "member": self.member,
            "certificate": self.certificate,
            "margin": self.margin,
            "witness": self.witness,
        }


def _point_witness(q: Quaternion, margin: float) -> dict:
    return {"q": quaternion_to_json(q.to_float()), "margin": margin}


def _coeff_witness(n: int, c: Quaternion) -> dict:
    return {"n": n, "coeff": quaternion_to_json(c)}


@dataclass
class FunctionUnderTest:
    """A function handed to predicates and theorem checks.

    Carries the coefficient window plus, when available, an exact point
    form of f that stays accurate near the boundary of the ball (the
    truncated window of an infinite extremal is useless at radius 0.99),
    or only one of f' (``derivative_form``).  Each form is one
    :class:`StarQuotient`, evaluated exactly and rounded once; f' of
    ``form`` is its derivative quotient, built on first use.  Without a
    form, points are evaluated on a float copy of the window.  ``values``
    and ``derivative_values`` evaluate a sweep on one evaluator each, picked
    once: ``form`` or the window for f, and for f' ``derivative_form``, else
    the derivative of ``form``, else that of the window.
    ``sweep`` and ``derivative_sweep`` are those sweeps over a whole grid,
    evaluated on first use and kept per grid, so every check and screen
    that reads the same grid shares one sweep.  ``certificates`` lists
    class names established by construction, so checks need not
    re-screen them.
    """

    fid: str
    series: SliceSeries
    form: Optional[StarQuotient] = None
    derivative_form: Optional[StarQuotient] = None
    certificates: tuple[str, ...] = ()

    @cached_property
    def _evaluator(self) -> StarQuotient | SliceSeries:
        return self.form if self.form is not None else self.series.to_float().trim()

    @cached_property
    def _derivative_evaluator(self) -> StarQuotient | SliceSeries:
        if self.derivative_form is not None:
            return self.derivative_form
        return slice_derivative(self._evaluator) if self.form is None else self.form.derivative()

    def values(self, points: Iterable[Quaternion]) -> list[Quaternion]:
        return self._evaluator.values(points)

    def derivative_values(self, points: Iterable[Quaternion]) -> list[Quaternion]:
        return self._derivative_evaluator.values(points)

    @cached_property
    def _sweeps(self) -> dict:
        return {}

    def _grid_sweep(self, kind: str, evaluate, grid: SamplingGrid) -> tuple[Quaternion, ...]:
        key = (kind, grid)
        out = self._sweeps.get(key)
        if out is None:
            out = self._sweeps[key] = tuple(evaluate(grid.points))
        return out

    def sweep(self, grid: SamplingGrid) -> tuple[Quaternion, ...]:
        """f at every point of ``grid.points``, evaluated once per grid."""
        return self._grid_sweep("f", self.values, grid)

    def derivative_sweep(self, grid: SamplingGrid) -> tuple[Quaternion, ...]:
        """f' at every point of ``grid.points``, evaluated once per grid."""
        return self._grid_sweep("f'", self.derivative_values, grid)

    def value(self, q: Quaternion) -> Quaternion:
        return self.values((q,))[0]

    def derivative_value(self, q: Quaternion) -> Quaternion:
        return self.derivative_values((q,))[0]

    def coeff(self, n: int) -> Quaternion:
        return self.series.coeff(n)

    def certifies(self, class_name: str) -> bool:
        return class_name in self.certificates


FunctionLike = Union[SliceSeries, FunctionUnderTest]


def as_function(f: FunctionLike, fid: str = "series") -> FunctionUnderTest:
    if isinstance(f, FunctionUnderTest):
        return f
    return FunctionUnderTest(fid, f)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def _sampled(name: str, points: Iterable[Quaternion],
             margins: Iterable[float]) -> ClassVerdict:
    """The verdict of a grid screen: refuted at the first point of least
    margin when that margin is <= 0, else sampled with that margin."""
    worst = math.inf
    argmin = None
    for q, margin in zip(points, margins):
        if margin < worst:
            worst, argmin = margin, q
    if worst <= 0.0:
        return ClassVerdict(name, False, "refuted", worst, _point_witness(argmin, worst))
    return ClassVerdict(name, True, "sampled", worst)


def _require_class(fut: FunctionUnderTest, class_name: str,
                   grid: SamplingGrid, predicate) -> None:
    if fut.certifies(class_name):
        return
    verdict = predicate(fut, grid)
    if not verdict.member:
        raise PreconditionError(
            f"{fut.fid} failed the {class_name} screen: {verdict.witness}")


def is_caratheodory(p: FunctionLike, grid: SamplingGrid = DEFAULT_GRID) -> ClassVerdict:
    """p(0) = 1 and Re p > 0 screened over the grid."""
    name = "caratheodory"
    fut = as_function(p)
    s = fut.series
    # a pole at 0 is refuted at its lowest coefficient, a zero at 0 at p(0) = 0
    n0 = min(s.valuation, 0)
    if s.valuation or not _is_one(s.coeff(n0)):
        return ClassVerdict(name, False, "refuted", None, _coeff_witness(n0, s.coeff(n0)))
    return _sampled(name, grid.points, (float(value.w) for value in fut.sweep(grid)))


def is_self_map(f: FunctionLike, grid: SamplingGrid = DEFAULT_GRID) -> ClassVerdict:
    """|f| < 1 screened over the grid, with the margin 1 - |f|."""
    return _sampled("ball-self-map", grid.points,
                    (1.0 - abs(value) for value in as_function(f).sweep(grid)))


def _is_one(c: Quaternion) -> bool:
    if c.is_exact:
        return c == ONE
    return abs(c - ONE.to_float()) <= 1e-12


def is_starlike(f: FunctionLike, grid: SamplingGrid = DEFAULT_GRID,
                alpha: float = 0.0) -> ClassVerdict:
    """Starlike-type screen of order alpha.

    Requires normalization f(0) = 0, f'(0) = 1, no grid zero away from
    the origin, and Re(f(q)^-1 q f'(q)) > alpha at every grid point.  A
    grid zero is a sweep value of modulus below
    ``DEFAULT_SINGULAR_THRESHOLD``.  The sweep values are floats, whose
    modulus raises no overflow, and one that underflows lies below the
    threshold anyway.
    """
    name = f"starlike({alpha})" if alpha else "starlike"
    if not float(alpha) < 1.0:
        raise DomainError("the class is empty for order >= 1")
    fut = as_function(f)
    s = fut.series
    if s.valuation != 1 or not _is_one(s.coeff(1)):
        witness = _coeff_witness(1, s.coeff(1) if s.valuation <= 1 <= s.degree else s.coeffs[0])
        return ClassVerdict(name, False, "refuted", None, witness)
    values = fut.sweep(grid)
    zero = next((n for n, value in enumerate(values)
                 if abs(value) < DEFAULT_SINGULAR_THRESHOLD), None)
    if zero is not None:
        return ClassVerdict(name, False, "refuted", None,
                            _point_witness(grid.points[zero], abs(values[zero])))
    return _sampled(name, grid.points, (
        float((value.inverse() * (q * derivative)).w) - float(alpha)
        for q, value, derivative in zip(grid.points, values, fut.derivative_sweep(grid))))


def is_close_to_convex(f: FunctionLike, h: FunctionLike,
                       grid: SamplingGrid = DEFAULT_GRID) -> ClassVerdict:
    """Screen Re(h(q)^-1 q f'(q)) > 0 against a certified starlike h."""
    name = "close-to-convex"
    hf = as_function(h, "h")
    _require_class(hf, "starlike", grid, is_starlike)
    fut = as_function(f)
    return _sampled(name, grid.points, (
        float((hv.inverse() * (q * derivative)).w)
        for q, hv, derivative in zip(grid.points, hf.sweep(grid), fut.derivative_sweep(grid))))


def is_slice_preserving(f: FunctionLike) -> ClassVerdict:
    """All-real coefficients; the exact series criterion, no sampling."""
    name = "slice-preserving"
    for n, c in as_function(f).series.terms():
        if not c.is_real():
            return ClassVerdict(name, False, "refuted", None, _coeff_witness(n, c))
    return ClassVerdict(name, True, "analytic-sufficient")


def _cross(a: tuple, b: tuple) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def is_one_slice(f: FunctionLike) -> ClassVerdict:
    """All coefficients inside one plane R + I R; reports the axis I."""
    name = "one-slice"
    series = as_function(f).series
    axis = first = None
    for n, c in series.terms():
        if series.is_exact:
            # skip only an exact zero; scale by the power of two that brings the
            # largest component near 1, so the direction's floats cannot underflow
            if not (c.x or c.y or c.z):
                continue
            big = max(abs(c.x), abs(c.y), abs(c.z))
            scale = Fraction(2) ** (big.denominator.bit_length() - big.numerator.bit_length())
            ix, iy, iz = float(c.x * scale), float(c.y * scale), float(c.z * scale)
        else:
            ix, iy, iz = c.x, c.y, c.z
        norm = math.sqrt(ix * ix + iy * iy + iz * iz)
        if norm == 0.0:
            continue
        if axis is None:
            axis, first = (ix / norm, iy / norm, iz / norm), (c.x, c.y, c.z)
            continue
        if series.is_exact:  # the exact cross product with the first imaginary part
            off = any(_cross(first, (c.x, c.y, c.z)))
        else:
            cx, cy, cz = _cross(axis, (ix, iy, iz))
            off = math.sqrt(cx * cx + cy * cy + cz * cz) > 1e-9 * norm
        if off:
            return ClassVerdict(name, False, "refuted", None, _coeff_witness(n, c))
    if axis is None:
        return ClassVerdict(name, True, "analytic-sufficient",
                            witness={"axis": [1.0, 0.0, 0.0]})
    return ClassVerdict(name, True, "analytic-sufficient",
                        witness={"axis": list(axis)})


# ---------------------------------------------------------------------------
# deterministic random material
# ---------------------------------------------------------------------------


def _random_unit_row(rng: Random) -> tuple[int, tuple[int, int, int, int]]:
    """(|v|^2, v^2) for a random nonzero integer v: the rational unit
    v^2 / |v|^2 as an integer row over its denominator.

    The square of v = v0 + V is v0^2 - |V|^2 + 2 v0 V, taken on integers.
    """
    while True:
        v0, v1, v2, v3 = (rng.randint(-2, 2) for _ in range(4))
        if v0 or v1 or v2 or v3:
            break
    return (v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3,
            (v0 * v0 - v1 * v1 - v2 * v2 - v3 * v3, 2 * v0 * v1, 2 * v0 * v2, 2 * v0 * v3))


def random_exact_unit(rng: Random) -> Quaternion:
    """Rational point of the unit 3-sphere: v^2 / |v|^2 for integer v."""
    den, row = _random_unit_row(rng)
    return rational_quaternion(row, den)


def random_float_unit(rng: Random) -> Quaternion:
    """Uniform-ish direction on the 3-sphere from normalized Gaussians.
    The squares add left to right, as written: the builtin ``sum`` of
    floats compensates since Python 3.12, which would move the last bits
    between the supported Python versions."""
    while True:
        c0, c1, c2, c3 = (rng.gauss(0.0, 1.0) for _ in range(4))
        n = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3)
        if n > 1e-6:
            return Quaternion(c0 / n, c1 / n, c2 / n, c3 / n)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def generate_starlike_small_coeff(seed: int, degree: int = DEFAULT_DEGREE) -> SliceSeries:
    """f = q + Sigma q^n a_n with Sigma n |a_n| < 1, hence starlike.

    Each a_n is a rational-modulus multiple of a rational unit direction,
    so the defining sum is exactly rational and stays below 255/512.
    """
    if degree < 2:
        raise DomainError("need degree >= 2")
    rng = Random(seed)
    pairs = [(1, (1, 0, 0, 0))]
    scale = 512 * (degree - 1)
    for n in range(2, degree + 1):
        weight = rng.randrange(256)
        if weight == 0:
            pairs.append((1, (0, 0, 0, 0)))
            continue
        den, row = _random_unit_row(rng)
        pairs.append((den * scale * n, tuple(weight * x for x in row)))
    return SliceSeries._from_rows(1, *rows_over_lcm(pairs))


def small_coeff_margin(f: SliceSeries) -> Fraction:
    """Exact slack 1 - Sigma_{n>=2} n |a_n|; positive certifies membership."""
    total = Fraction(0)
    for n, c in f.terms():
        if n < 2:
            continue
        modulus = exact_sqrt(c.norm_sq())
        if modulus is None:
            raise DomainError("coefficient modulus is not rational")
        total += n * modulus
    return Fraction(1) - total


def certify_small_coeff(f: SliceSeries) -> ClassVerdict:
    margin = small_coeff_margin(f)
    if margin >= 0:
        return ClassVerdict("starlike", True, "analytic-sufficient", float(margin))
    return ClassVerdict("starlike", False, "refuted", float(margin),
                        {"sum_excess": str(-margin)})


def caratheodory_extremal(u: Quaternion, degree: int = DEFAULT_DEGREE) -> SliceSeries:
    """1 + 2 Sigma q^n u^n, the maximal-coefficient member for |u| = 1: the
    expansion of :func:`caratheodory_extremal_quotient`, whose parts hold a
    float u exactly, so a float u gives the exact window rounded once."""
    _require_unit(u)
    return caratheodory_extremal_quotient(u).to_series(degree)


def caratheodory_extremal_quotient(u: Quaternion) -> StarQuotient:
    return StarQuotient(SliceSeries.from_coeffs([ONE, u]),
                        SliceSeries.from_coeffs([ONE, -u]))


def caratheodory_mixture_parts(seed: int, k: int = 3) -> tuple[list[Fraction], list[Quaternion]]:
    """Deterministic convex weights and unit directions for one seed."""
    if k < 1:
        raise DomainError("need at least one extremal component")
    rng = Random(seed)
    weights = [rng.randint(1, 16) for _ in range(k)]
    total = sum(weights)
    units = [random_exact_unit(rng) for _ in range(k)]
    return [Fraction(w, total) for w in weights], units


def generate_caratheodory(seed: int, degree: int = DEFAULT_DEGREE,
                          k: int = 3) -> SliceSeries:
    """sum_k lambda_k (1 + 2 Sigma q^n u_k^n), a convex combination of
    extremal members and so in the class: the expansion of
    :func:`caratheodory_mixture_form`."""
    return caratheodory_mixture_form(seed, k).to_series(degree)


def caratheodory_mixture_form(seed: int, k: int = 3) -> QuotientSum:
    """Exact point form of the mixture that generate_caratheodory expands."""
    lambdas, units = caratheodory_mixture_parts(seed, k)
    return QuotientSum([caratheodory_extremal_quotient(u) for u in units], lambdas)


def generate_close_to_convex(h: FunctionLike, p: FunctionLike,
                             grid: SamplingGrid = DEFAULT_GRID) -> SliceSeries:
    """Integrate f'(q) = q^-1 h(q) star p(q) for certified h and p.

    The coefficients then satisfy the convolution identity
    n a_n = p_(n-1) + h_2 p_(n-2) + ... + h_(n-1) p_1 + h_n.
    """
    hf, pf = as_function(h, "h"), as_function(p, "p")
    _require_class(hf, "starlike", grid, is_starlike)
    _require_class(pf, "caratheodory", grid, is_caratheodory)
    derivative = star_mul(hf.series, pf.series).shift(-1)
    return integrate_radial(derivative)


def koebe(u: Quaternion, degree: int = DEFAULT_DEGREE) -> SliceSeries:
    """Coefficients a_n = n u^(n-1): the extremal for the coefficient,
    growth and distortion bounds, expanded from :func:`koebe_quotient` at
    the exact value of u and rounded once for a float u."""
    _require_unit(u)
    out = koebe_quotient(u.to_exact()).to_series(degree)
    return out if u.is_exact else out.to_float()


def koebe_quotient(u: Quaternion) -> StarQuotient:
    lin = SliceSeries.from_coeffs([ONE, -u])
    return StarQuotient(SliceSeries.identity(), full_star_mul(lin, lin))


def convex_reference(degree: int = DEFAULT_DEGREE) -> SliceSeries:
    """q (1 - q)^(-star): half-plane image Re > -1/2, derivative 1 at 0."""
    return convex_reference_quotient().to_series(degree)


def convex_reference_quotient() -> StarQuotient:
    return StarQuotient(SliceSeries.identity(),
                        SliceSeries.from_coeffs([ONE, -ONE]))


def odd_reference(degree: int = DEFAULT_DEGREE) -> SliceSeries:
    """q (1 - q^2)^(-star) = q + q^3 + q^5 + ...; gap-2 starlike example."""
    return odd_reference_quotient().to_series(degree)


def odd_reference_quotient() -> StarQuotient:
    return StarQuotient(SliceSeries.identity(),
                        SliceSeries.from_coeffs([ONE, ZERO, -ONE]))


def bloch_series(degree: int = DEFAULT_DEGREE) -> SliceSeries:
    """Sigma q^(2n+1) / (2n+1); image is the strip |Im| < pi/4."""
    coeffs = [Quaternion.from_real(Fraction(1, n)) if n % 2 == 1 else ZERO
              for n in range(1, degree + 1)]
    return SliceSeries.from_coeffs(coeffs, valuation=1)


def bloch_eval(q: Quaternion) -> Quaternion:
    """Closed-form slice transplant of arctanh; exactness near the boundary."""
    x, y, unit = q.to_float().decompose()
    w = cmath.atanh(complex(x, y))
    return Quaternion(w.real, 0.0, 0.0, 0.0) + unit.as_quaternion() * w.imag


def rogosinski_extremal(b: Quaternion, p: Quaternion,
                        degree: int = DEFAULT_DEGREE) -> SliceSeries:
    """Self-map of the ball with f(0) = 0, f'(0) = b filling the value ball:

        f(q) = q (1 - q |b| p)^(-star) star (|b| - q p) b/|b|

    expanded from its quotient.  The window is exact when b has a rational
    |b| and p is exact.  Otherwise |b|, b/|b| and p are the floats of
    `_rogosinski_parts`, expanded at their exact values and rounded once.
    The family needs b != 0; for b = 0 use the monomials q^2 u instead.
    """
    beta, u_b, p = _rogosinski_parts(b, p)
    out = _rogosinski_quotient(Fraction(beta), u_b.to_exact(), p.to_exact()).to_series(degree)
    return out if u_b.is_exact and p.is_exact else out.to_float()


def rogosinski_extremal_form(b: Quaternion, p: Quaternion) -> StarQuotient:
    """The point form, on the parts of `_rogosinski_parts` as they are."""
    return _rogosinski_quotient(*_rogosinski_parts(b, p))


def _rogosinski_quotient(beta, u_b: Quaternion, p: Quaternion) -> StarQuotient:
    """(1 - q beta p)^(-*) star q (beta - q p) u_b; q is central."""
    num = SliceSeries.from_coeffs([u_b * beta, (-p) * u_b], valuation=1)
    den = SliceSeries.from_coeffs([ONE, (-p) * beta])
    return StarQuotient(num, den)


def _rogosinski_parts(b: Quaternion, p: Quaternion):
    if b.is_zero():
        raise DomainError("derivative parameter must be nonzero for this family")
    if outside_closed_ball(p):
        raise DomainError("free parameter must lie in the closed unit ball")
    nsq = b.norm_sq()
    if nsq >= 1:
        raise DomainError("derivative parameter must lie inside the unit ball")
    if b.is_exact:
        root = exact_sqrt(nsq)
        if root is not None:
            return root, b * (1 / root), p
    bf = b.to_float()
    beta = abs(bf)
    return beta, bf * (1.0 / beta), p.to_float()


def _require_unit(u: Quaternion):
    nsq = u.norm_sq()
    if u.is_exact:
        if nsq != 1:
            raise DomainError("direction must have exact unit modulus")
    elif abs(float(nsq) - 1.0) > 1e-12:
        raise DomainError("direction modulus differs from 1 beyond tolerance")
