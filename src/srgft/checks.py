"""Registry of named theorem checks.

Each check consumes a function (built-in extremal or generated member),
a sampling grid and a tolerance, and produces a :class:`CheckReport`
stating whether the corresponding inequality or identity held, with the
worst margin and witnesses for any violation.  Checks are pure: same
inputs, same report.

Every sample of a check is one inequality lhs <= rhs at a point or a
coefficient: its margin is rhs - lhs, and it fails below -tol.  A band
a_0 <= a_1 <= ... <= a_k is one sample per adjacent pair.  A sample is an
equality when |rhs - lhs| <= 1e-9 max(|lhs|, |rhs|, 1), a relative band
of 1e-9, and equalities are reported in the parameter block; only the
forward direction (the extremal attains equality) is asserted, never the
uniqueness converse.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable, Optional

from .classes import (DEFAULT_GRID, FunctionLike, FunctionUnderTest,
                      SamplingGrid, _require_class, as_function, bloch_eval, bloch_series,
                      caratheodory_extremal, caratheodory_extremal_quotient,
                      caratheodory_mixture_form, convex_reference,
                      convex_reference_quotient, generate_close_to_convex,
                      generate_starlike_small_coeff,
                      is_caratheodory, is_self_map, is_slice_preserving, is_starlike,
                      koebe, koebe_quotient, odd_reference,
                      odd_reference_quotient, random_exact_unit,
                      random_float_unit, rogosinski_extremal,
                      rogosinski_extremal_form)
from .errors import DomainError, PreconditionError
from .quat import (ONE, ZERO, I, J, K, Quaternion, format_quaternion,
                   quaternion_to_json)
from .series import (DEFAULT_DEGREE, DEFAULT_DOMAIN, EvalDomain, QuotientSum,
                     SliceSeries, StarQuotient, compose_slice_preserving,
                     integrate_radial, mobius_quotient, slice_derivative)

EQUALITY_BAND = 1e-9
POINT_TOL = 1e-9
COEFF_TOL = 1e-12


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one theorem check: ``status`` is "pass", "fail" or
    "inconclusive", and ``passed`` reads it."""

    check_id: str
    function_id: str
    worst_margin: float
    samples: int
    witnesses: tuple[dict, ...]
    valid_degree: int
    status: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.passed and not self.witnesses:
            raise ValueError("reports that do not pass must carry at least one witness")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_id,
            "function": self.function_id,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "samples": self.samples,
            "valid_degree": self.valid_degree,
            "status": self.status,
            "witnesses": list(self.witnesses),
            "params": self.params,
        }


class _Collector:
    """Accumulates samples lhs <= rhs.  A sample's slack is rhs - lhs, and
    it passes when its slack is at least -tol.

    A sample's key is a quaternion (a float point, or an exact scalar such
    as a Fekete-Szego lambda), written under ``quaternion_key``, or a
    coefficient label, written under "n".
    """

    def __init__(self, tol: float, quaternion_key: str = "q"):
        self.tol = tol
        self.quaternion_key = quaternion_key
        self.worst = math.inf
        self.samples = 0
        self.violations: list[tuple] = []
        self.equalities: list[dict] = []

    def check(self, key, lhs: float, rhs: float):
        """Record the sample lhs <= rhs at ``key``.  The witnesses are the
        first 16 violations, the last replaced by any later one worse than
        every sample before it, so the worst violation is always a witness.
        A sample is an equality when |rhs - lhs| <= 1e-9 max(|lhs|, |rhs|, 1);
        the first 64 are kept.  An entry is formed only for a kept sample."""
        slack = rhs - lhs
        self.samples += 1
        worse = slack < self.worst
        if worse:
            self.worst = slack
        if slack < -self.tol:
            sample = (key, lhs, rhs, slack)
            if len(self.violations) < 16:
                self.violations.append(sample)
            elif worse:
                self.violations[-1] = sample
        if abs(slack) <= EQUALITY_BAND * max(abs(lhs), abs(rhs), 1.0) and len(self.equalities) < 64:
            self.equalities.append(self._entry(key, lhs, rhs, slack))

    def chain(self, key, *band: float):
        """The band band[0] <= band[1] <= ... as one sample per adjacent pair."""
        for lhs, rhs in zip(band, band[1:]):
            self.check(key, lhs, rhs)

    def _entry(self, key, lhs: float, rhs: float, margin: float) -> dict:
        """The witness or equality entry of a kept sample."""
        if isinstance(key, Quaternion):
            return {self.quaternion_key: quaternion_to_json(key), "lhs": lhs, "rhs": rhs,
                    "margin": margin}
        return {"n": key, "lhs": lhs, "rhs": rhs, "margin": margin}

    def report(self, check_id: str, fut_id: str, valid_degree: int,
               params: Optional[dict] = None) -> CheckReport:
        all_params = dict(params or {})
        if self.equalities:
            all_params["equalities"] = self.equalities
        return CheckReport(
            check_id=check_id,
            function_id=fut_id,
            worst_margin=self.worst if self.samples else 0.0,
            samples=self.samples,
            witnesses=tuple(self._entry(*sample) for sample in self.violations),
            valid_degree=valid_degree,
            status="fail" if self.violations else "pass",
            params=all_params,
        )


def _by_radius(grid: SamplingGrid, values: list):
    """(r, its points, their values) per radius of the radius-major grid.points."""
    n = len(grid.directions)
    return ((r, grid.points[i * n:(i + 1) * n], values[i * n:(i + 1) * n])
            for i, r in enumerate(grid.radii))


def _is_derivative_starlike(fut: FunctionUnderTest, grid: SamplingGrid):
    """The starlike screen of q f'(q)."""
    return is_starlike(slice_derivative(fut.series).shift(1), grid)


# ---------------------------------------------------------------------------
# coefficient checks
# ---------------------------------------------------------------------------


def check_bieberbach(f: FunctionLike, grid: SamplingGrid = DEFAULT_GRID,
                     tol: float = COEFF_TOL) -> CheckReport:
    """|a_n| <= n for every stored n >= 2, equality flagged."""
    fut = as_function(f)
    if not (fut.certifies("close-to-convex") or fut.certifies("starlike")):
        _require_class(fut, "starlike", grid, is_starlike)
    col = _Collector(tol)
    for n, a in fut.series.terms():
        if n < 2:
            continue
        col.check(n, abs(a), float(n))
    return col.report("bieberbach", fut.fid, fut.series.degree)


def check_convex_coefficients(f: FunctionLike, grid: SamplingGrid = DEFAULT_GRID,
                              tol: float = COEFF_TOL) -> CheckReport:
    """|a_n| <= 1 for all n when q f'(q) is starlike."""
    fut = as_function(f)
    _require_class(fut, "derivative-starlike", grid, _is_derivative_starlike)
    col = _Collector(tol)
    for n, a in fut.series.terms():
        if n < 2:
            continue
        col.check(n, abs(a), 1.0)
    return col.report("convex-coefficients", fut.fid, fut.series.degree)


def check_fekete_szego(f: FunctionLike, lambdas: list[Quaternion],
                       grid: SamplingGrid = DEFAULT_GRID,
                       tol: float = COEFF_TOL) -> CheckReport:
    """|a_3 - lambda a_2^2| <= max(1, |4 lambda - 3|) for each lambda.

    The scalar multiplies from the left, matching the left-series
    convention.  For real lambda with |4 lambda - 3| >= 1 the extremal
    family attains equality, recorded in the equality block.
    """
    fut = as_function(f)
    _require_class(fut, "starlike", grid, is_starlike)
    a2, a3 = fut.series.coeff(2), fut.series.coeff(3)
    col = _Collector(tol, quaternion_key="lambda")
    for lam in lambdas:
        four_lam = lam * 4 - Quaternion.from_real(3)
        col.check(lam, abs(a3 - lam * (a2 * a2)), max(1.0, abs(four_lam)))
    return col.report("fekete-szego", fut.fid, fut.series.degree,
                      params={"lambda_count": len(lambdas)})


def check_sharper_caratheodory(p: FunctionLike, grid: SamplingGrid = DEFAULT_GRID,
                               tol: float = COEFF_TOL) -> CheckReport:
    """|a_2 - a_1^2 / 2| <= 2 - |a_1|^2 / 2 for Caratheodory-class p."""
    fut = as_function(p)
    _require_class(fut, "caratheodory", grid, is_caratheodory)
    a1, a2 = fut.series.coeff(1), fut.series.coeff(2)
    col = _Collector(tol)
    col.check(2, abs(a2 - (a1 * a1) * Fraction(1, 2)), 2.0 - float(a1.norm_sq()) / 2.0)
    return col.report("sharper-caratheodory", fut.fid, fut.series.degree)


# ---------------------------------------------------------------------------
# pointwise growth family
# ---------------------------------------------------------------------------


def check_caratheodory_bounds(p: FunctionLike, grid: SamplingGrid = DEFAULT_GRID,
                              tol: float = POINT_TOL) -> CheckReport:
    """(1-r)/(1+r) <= Re p <= |p| <= (1+r)/(1-r) on the grid; |p_n| <= 2."""
    fut = as_function(p)
    _require_class(fut, "caratheodory", grid, is_caratheodory)
    col = _Collector(tol)
    max_by_radius: list[list[float]] = []
    for r, points, values in _by_radius(grid, fut.sweep(grid)):
        lower = (1.0 - r) / (1.0 + r)
        upper = (1.0 + r) / (1.0 - r)
        max_abs = 0.0
        for q, value in zip(points, values):
            re, mod = float(value.w), abs(value)
            max_abs = max(max_abs, mod)
            col.chain(q, lower, re, mod, upper)
        max_by_radius.append([r, max_abs])
    for n, a in fut.series.terms():
        if n < 1:
            continue
        col.check(n, abs(a), 2.0)
    return col.report("caratheodory-bounds", fut.fid, fut.series.degree,
                      params={"max_abs_by_radius": max_by_radius})


def check_growth_distortion(f: FunctionLike, grid: SamplingGrid = DEFAULT_GRID,
                            tol: float = POINT_TOL) -> CheckReport:
    """All six bands: |f|, |f'| and the ratio |q f'| / |f|."""
    fut = as_function(f)
    _require_class(fut, "starlike", grid, is_starlike)
    col = _Collector(tol)
    pairs = list(zip(fut.sweep(grid), fut.derivative_sweep(grid)))
    for r, points, values in _by_radius(grid, pairs):
        f_lo, f_hi = r / (1 + r) ** 2, r / (1 - r) ** 2
        d_lo, d_hi = (1 - r) / (1 + r) ** 3, (1 + r) / (1 - r) ** 3
        q_lo, q_hi = (1 - r) / (1 + r), (1 + r) / (1 - r)
        for q, (value, derivative) in zip(points, values):
            fv, dv = abs(value), abs(derivative)
            col.chain(q, f_lo, fv, f_hi)
            col.chain(q, d_lo, dv, d_hi)
            if fv:  # the ratio is undefined at a zero of f, which the |f| band fails
                col.chain(q, q_lo, r * dv / fv, q_hi)
    return col.report("growth-distortion", fut.fid, fut.series.degree)


def check_growth_order_m(f: FunctionLike, m: int,
                         grid: SamplingGrid = DEFAULT_GRID,
                         variant: str = "growth",
                         tol: float = POINT_TOL) -> CheckReport:
    """Order-m bands for gap series f = q + Sigma_{n > m} q^n a_n.

    variant "growth" asserts r/(1+r^m)^(2/m) <= |f| <= r/(1-r^m)^(2/m)
    and needs f starlike; variant "distortion" asserts the same bands
    without the leading r for |f'| and needs q f' starlike.
    """
    fut = as_function(f)
    for n in range(2, min(m, fut.series.degree) + 1):
        if not fut.series.coeff(n).is_zero():
            raise PreconditionError(f"gap form violated: a_{n} != 0")
    if variant == "growth":
        _require_class(fut, "starlike", grid, is_starlike)
    elif variant == "distortion":
        _require_class(fut, "derivative-starlike", grid, _is_derivative_starlike)
    else:
        raise DomainError(f"unknown variant {variant!r}")
    col = _Collector(tol)
    sweep = fut.sweep if variant == "growth" else fut.derivative_sweep
    for r, points, values in _by_radius(grid, sweep(grid)):
        denom_lo = (1 + r ** m) ** (2.0 / m)
        denom_hi = (1 - r ** m) ** (2.0 / m)
        if variant == "growth":
            lo, hi = r / denom_lo, r / denom_hi
        else:
            lo, hi = 1.0 / denom_lo, 1.0 / denom_hi
        for q, value in zip(points, map(abs, values)):
            col.chain(q, lo, value, hi)
    return col.report(f"growth-order-{m}-{variant}", fut.fid, fut.series.degree)


# ---------------------------------------------------------------------------
# Schwarz family
# ---------------------------------------------------------------------------


def check_schwarz(f: FunctionLike, m: int, grid: SamplingGrid = DEFAULT_GRID,
                  tol: float = POINT_TOL) -> CheckReport:
    """|f(q)| <= |q|^m and |f^(m)(0)| <= m! for self-maps vanishing to order m."""
    fut = as_function(f)
    for n in range(0, m):
        if fut.series.valuation <= n <= fut.series.degree and not fut.series.coeff(n).is_zero():
            raise PreconditionError(f"coefficient a_{n} must vanish")
    _require_class(fut, "ball-self-map", grid, is_self_map)
    col = _Collector(tol)
    for r, points, values in _by_radius(grid, fut.sweep(grid)):
        bound = r ** m
        for q, mod in zip(points, map(abs, values)):
            col.check(q, mod, bound)
    a_m = abs(fut.series.coeff(m)) if fut.series.degree >= m else 0.0
    col.check(m, a_m, 1.0)
    params = {"order": m, "extremal_form": col.worst >= -tol and abs(col.worst) <= EQUALITY_BAND}
    return col.report("schwarz", fut.fid, fut.series.degree, params=params)


def check_schwarz_pick_coefficient(f: FunctionLike, grid: SamplingGrid = DEFAULT_GRID,
                                   tol: float = POINT_TOL) -> CheckReport:
    """|f'(0)| <= 1 - |f(0)|^2 for self-maps of the ball."""
    fut = as_function(f)
    _require_class(fut, "ball-self-map", grid, is_self_map)
    s = fut.series
    a0 = s.coeff(0) if s.valuation <= 0 else ZERO
    a1 = s.coeff(1) if s.valuation <= 1 <= s.degree else ZERO
    col = _Collector(tol)
    col.check(1, abs(a1), 1.0 - float(a0.norm_sq()))
    return col.report("schwarz-pick-coefficient", fut.fid, s.degree)


def check_schwarz_pick_counterexample() -> CheckReport:
    """Exact-arithmetic failure of the classical two-point Schwarz-Pick bound.

    The regular Moebius transform with parameter i/2, evaluated at j/2,
    has |f'|^2 = 50832/50625, strictly above the square of the classical
    bound (1 - |f(q0)|^2) / (1 - |q0|^2) = 68/75.  The check takes no
    input, so no function can make it fail: it fails only where the
    program computes one of these exact identities wrongly.
    """
    a = Quaternion(0, Fraction(1, 2), 0, 0)
    q0 = Quaternion(0, 0, Fraction(1, 2), 0)
    phi = mobius_quotient(a)
    value = phi.eval(q0)
    derivative = phi.derivative().eval(q0)
    expected_value = Quaternion(0, Fraction(2, 5), Fraction(-2, 5), 0)
    expected_derivative = Quaternion(Fraction(-204, 225), 0, 0, Fraction(-96, 225))
    derivative_sq = derivative.norm_sq()
    bound = (1 - value.norm_sq()) / (1 - q0.norm_sq())
    identities = [
        ("value", value == expected_value),
        ("derivative", derivative == expected_derivative),
        ("derivative_modulus_sq", derivative_sq == Fraction(50832, 50625)),
        ("classical_bound", bound == Fraction(68, 75)),
        ("bound_violated", derivative_sq > bound * bound),
    ]
    failures = tuple({"identity": name, "lhs": 0.0, "rhs": 0.0}
                     for name, ok in identities if not ok)
    return CheckReport(
        check_id="schwarz-pick-counterexample",
        function_id="mobius(1/2i)",
        worst_margin=float(derivative_sq - bound * bound),
        samples=len(identities),
        witnesses=failures,
        valid_degree=0,
        status="fail" if failures else "pass",
        params={
            "value": quaternion_to_json(value),
            "derivative": quaternion_to_json(derivative),
            "derivative_modulus_sq": str(derivative_sq),
            "classical_bound": str(bound),
        },
    )


def check_rogosinski(f: FunctionLike, q0: Quaternion,
                     grid: SamplingGrid = DEFAULT_GRID,
                     tol: float = POINT_TOL) -> CheckReport:
    """f(q0) lies in the closed value ball B(c, rho) fixed by b = f'(0):

        c = q0 b (1-|q0|^2) / (1-|q0 b|^2),  rho = |q0|^2 (1-|b|^2) / (1-|q0 b|^2).
    """
    fut = as_function(f)
    if fut.series.valuation < 1:
        raise PreconditionError("function must vanish at 0")
    if q0.norm_sq() >= 1:
        raise PreconditionError("evaluation point must lie inside the ball")
    _require_class(fut, "ball-self-map", grid, is_self_map)
    b = fut.series.coeff(1).to_float()
    q0f = q0.to_float()
    q0b_sq = float((q0f * b).norm_sq())
    scale = (1.0 - float(q0f.norm_sq())) / (1.0 - q0b_sq)
    center = (q0f * b) * scale
    radius = float(q0f.norm_sq()) * (1.0 - float(b.norm_sq())) / (1.0 - q0b_sq)
    # at q0 itself: an exact q0 inside the ball can round onto the sphere
    value = fut.value(q0).to_float()
    distance = abs(value - center)
    col = _Collector(tol)
    col.check(q0f, distance, radius)
    boundary = abs(radius - distance) <= 1e-6
    return col.report("rogosinski", fut.fid, fut.series.degree,
                      params={"center": quaternion_to_json(center),
                              "radius": radius,
                              "boundary_attained": boundary})


def check_bohr(f: FunctionLike, grid: SamplingGrid = DEFAULT_GRID,
               tol: float = POINT_TOL) -> CheckReport:
    """Sigma |a_n| / 3^n <= 1 for self-maps, or for Re f <= 1 with a real
    a_0 >= 0 (then |a_n| <= 2 (1 - a_0) for n >= 1).  a_0 is read exactly
    but |f| and Re f on the grid only, so a violator can pass the screen:
    q^8 = r^8 at the default grid's eight angles, so 1/2 - 10^5 q^8 does."""
    fut = as_function(f)
    max_mod, max_re = 0.0, -math.inf
    for value in fut.sweep(grid):
        max_mod = max(max_mod, abs(value))
        max_re = max(max_re, float(value.w))
    if max_mod >= 1.0 + tol:
        a0 = fut.series.coeff(0)
        if max_re > 1.0 + tol or not (a0.is_real() and a0.w >= 0):
            raise PreconditionError("needs |f| < 1, or Re f <= 1 and a real f(0) >= 0")
    total = 0.0
    for n, a in fut.series.terms():
        if n >= 0:
            total += abs(a) / 3.0 ** n
    col = _Collector(tol)
    col.check("sum", total, 1.0)
    screen = "modulus" if max_mod < 1.0 + tol else "real-part"
    return col.report("bohr", fut.fid, fut.series.degree,
                      params={"radius": "1/3", "screen": screen})


# ---------------------------------------------------------------------------
# radial monotonicity family
# ---------------------------------------------------------------------------


def check_monotone_modulus(f: FunctionLike, alpha: float = 0.0,
                           grid: SamplingGrid = DEFAULT_GRID,
                           tol: float = 1e-12) -> CheckReport:
    """M(r) = |f(r u)| / r^alpha strictly increases along every direction."""
    fut = as_function(f)
    # an order-0 certificate says nothing about a positive order
    _require_class(fut, f"starlike({alpha})" if alpha else "starlike", grid,
                   lambda g, gr: is_starlike(g, gr, alpha))
    col = _Collector(tol)
    values, n = fut.sweep(grid), len(grid.directions)
    for k in range(n):
        previous = None
        for r, q, value in zip(grid.radii, grid.points[k::n], values[k::n]):
            m_r = abs(value) / r ** alpha
            if previous is not None:
                col.check(q, previous, m_r)
            previous = m_r
    return col.report("monotone-modulus", fut.fid, fut.series.degree,
                      params={"alpha": alpha})


def check_hayman(f: FunctionLike, grid: SamplingGrid = DEFAULT_GRID,
                 tol: float = 1e-6) -> CheckReport:
    """phi(r) = (1-r)^2 M(r) / r is non-increasing and ends in [0, 1].

    M(r) maximizes |f| over the shared grid directions, so the chain of
    maxima is monotone exactly, and each slack passes down to -tol.
    For a valuation of at least 1 the chain starts at the exact
    phi(0+) = |a_1|, so a rise before the first radius is caught.
    """
    fut = as_function(f)
    _require_class(fut, "starlike", grid, is_starlike)
    col = _Collector(tol)
    phis = [abs(fut.coeff(1))] if fut.series.valuation >= 1 else []
    for r, _, values in _by_radius(grid, fut.sweep(grid)):
        m_inf = max(map(abs, values))
        phis.append((1.0 - r) ** 2 * m_inf / r)
    for i in range(1, len(phis)):
        col.check(i, phis[i], phis[i - 1])
    col.check("limit>=0", 0.0, phis[-1])
    col.check("limit<=1", phis[-1], 1.0)
    constant = max(phis) - min(phis) <= tol
    return col.report("hayman", fut.fid, fut.series.degree,
                      params={"phi": phis, "constant": constant,
                              "limit_estimate": phis[-1]})


# ---------------------------------------------------------------------------
# covering family
# ---------------------------------------------------------------------------


def check_koebe_quarter(f: FunctionLike, grid: SamplingGrid = DEFAULT_GRID,
                        tol: float = 1e-6,
                        check_omitted_slit: bool = False) -> CheckReport:
    """Lower-bound proxy for the quarter-ball covering.

    Asserts min |f(r u)| >= r/(1+r)^2 at the largest radius (the proof
    mechanism).  For the reference function q (1-q)^(-star 2), which
    omits exactly the slice ray (-inf, -1/4], additionally asserts that
    the sampled image keeps its distance from the omitted point -1/4 - d.
    """
    fut = as_function(f)
    _require_class(fut, "starlike", grid, is_starlike)
    col = _Collector(tol)
    values, n = fut.sweep(grid), len(grid.directions)
    r_max, points, at_max = grid.radii[-1], grid.points[-n:], values[-n:]
    bound = r_max / (1.0 + r_max) ** 2
    min_mod = math.inf
    argmin = None
    for q, mod in zip(points, map(abs, at_max)):
        if mod < min_mod:
            min_mod, argmin = mod, q
    col.check(argmin, bound, min_mod)
    params: dict = {"largest_radius": r_max, "min_modulus": min_mod,
                    "proxy_bound": bound}
    if check_omitted_slit:
        delta = 1e-3
        target = Quaternion(-0.25 - delta, 0.0, 0.0, 0.0)
        floors = []
        for r, _, at_r in _by_radius(grid, values):
            floor = 0.25 - r / (1.0 + r) ** 2
            closest = math.inf
            for value in at_r:
                closest = min(closest, abs(value + Quaternion(0.25, 0.0, 0.0, 0.0)))
            col.check(Quaternion(-r, 0.0, 0.0, 0.0), floor, closest)
            floors.append([r, floor, closest])
        omitted_min = min(abs(value - target) for value in values)
        col.check("omitted-point", delta / 2, omitted_min)
        params["quarter_point_floors"] = floors
        params["omitted_point_min_residual"] = omitted_min
    return col.report("koebe-quarter", fut.fid, fut.series.degree, params=params)


def check_convex_covering_examples(f: FunctionLike,
                                   grid: SamplingGrid = DEFAULT_GRID,
                                   tol: float = POINT_TOL) -> CheckReport:
    """Half-plane and strip images certifying the 1/2 covering bound.

    f, the half-plane example q (1-q)^(-star) of ``convex_function``, keeps
    Re f > -1/2 with margin shrinking to 0 along the negative real axis;
    the odd logarithmic series keeps |Im f| strictly below pi/4.
    """
    fut = as_function(f)
    col = _Collector(tol)
    if fut.series.coeff(1) != ONE:
        raise DomainError("reference normalization broke")
    for q, value in zip(grid.points, fut.sweep(grid)):
        col.check(q, -0.5, float(value.w))
    witness_sequence = []
    previous = None
    on_axis = fut.values([Quaternion(-r, 0.0, 0.0, 0.0) for r in grid.radii])
    for r, value in zip(grid.radii, on_axis):
        re = float(value.w)
        margin = re + 0.5
        col.check(f"r={r}", -0.5, re)
        if previous is not None:
            col.check(f"shrinks@r={r}", margin, previous)
        witness_sequence.append([r, margin])
        previous = margin
    if bloch_series(1).coeff(1) != ONE:
        raise DomainError("strip-example normalization broke")
    quarter_pi = math.pi / 4.0
    for q in grid.points:
        im = abs(bloch_eval(q).imag())
        col.check(q, im, quarter_pi)
    return col.report("convex-covering", "convex-reference+strip-reference", fut.series.degree,
                      params={"half_plane_margins": witness_sequence})


def check_subordination_growth(f: FunctionLike, w: FunctionLike,
                               grid: SamplingGrid = DEFAULT_GRID,
                               tol: float = POINT_TOL) -> CheckReport:
    """Composition g = f(w(q)) obeys the upper growth and distortion bands;
    g is the composed window, and it and w are read through grid sweeps."""
    fut, inner = as_function(f), as_function(w)
    if not (fut.certifies("close-to-convex") or fut.certifies("starlike")):
        raise PreconditionError("outer function must be certified close-to-convex")
    if not is_slice_preserving(inner).member:
        raise PreconditionError("inner function must be slice preserving")
    if not inner.series.is_zero() and inner.series.valuation < 1:
        raise PreconditionError("inner function must vanish at 0")
    _require_class(inner, "ball-self-map", grid, is_self_map)
    g = FunctionUnderTest(fut.fid, compose_slice_preserving(fut.series, inner.series))
    col = _Collector(tol)
    pairs = list(zip(g.sweep(grid), g.derivative_sweep(grid)))
    for r, points, values in _by_radius(grid, pairs):
        g_hi = r / (1.0 - r) ** 2
        d_hi = (1.0 + r) / (1.0 - r) ** 3
        for q, (value, derivative) in zip(points, values):
            col.check(q, abs(value), g_hi)
            col.check(q, abs(derivative), d_hi)
    return col.report("subordination-growth", fut.fid, g.series.degree)


def check_quotient_equivalences(f: SliceSeries, g: SliceSeries,
                                grid: SamplingGrid = DEFAULT_GRID,
                                domain: EvalDomain = DEFAULT_DOMAIN) -> CheckReport:
    """Verdict agreement between pointwise and star-quotient formulations.

    Checks that min Re(f^-1 g) > 0 iff min Re(f^(-star) star g) > 0, and
    max |g|/|f| < 1 iff max |f^(-star) star g| < 1, over the sampled
    grid.  The points that the quotient's own guard refuses at ``domain``
    (|f^s(q)| below its threshold, decided on integers) are skipped and
    counted, with the guard's measure of |f^s(q)| as the witness lhs; so
    is a point where the float |f(q)|^2 falls below the smallest normal
    float, where the pointwise side cannot divide by f(q).  Above 10
    percent skipped the report is inconclusive.
    """
    quotient = StarQuotient(g, f)
    f_values, g_values = as_function(f).sweep(grid), as_function(g).sweep(grid)
    min_re_point = math.inf
    min_re_star = math.inf
    max_ratio = 0.0
    max_star = 0.0
    skipped: list[dict] = []
    kept = 0
    stars = quotient.values(grid.points, domain, skip=True)
    for q, star, fv, gv in zip(grid.points, stars, f_values, g_values):
        measure = star if type(star) is float else fv.norm_sq()
        if type(star) is float or measure < sys.float_info.min:
            if len(skipped) < 16:
                skipped.append({"q": quaternion_to_json(q), "lhs": measure,
                                "rhs": domain.singular_threshold})
            continue
        kept += 1
        min_re_point = min(min_re_point, float((fv.inverse() * gv).w))
        min_re_star = min(min_re_star, float(star.w))
        max_ratio = max(max_ratio, abs(gv) / abs(fv))
        max_star = max(max_star, abs(star))
    total = len(grid.points)
    skipped_count = total - kept
    params = {
        "min_re_pointwise": min_re_point,
        "min_re_star": min_re_star,
        "max_ratio_pointwise": max_ratio,
        "max_star_modulus": max_star,
        "skipped": skipped_count,
    }
    if skipped_count > 0.1 * total:
        return CheckReport("quotient-equivalences", "pair", 0.0,
                           kept, tuple(skipped) or ({"n": "all-skipped", "lhs": 0.0, "rhs": 0.0},),
                           min(f.degree, g.degree), "inconclusive", params)
    re_agree = (min_re_point > 0.0) == (min_re_star > 0.0)
    mod_agree = (max_ratio < 1.0) == (max_star < 1.0)
    margin = min(abs(min_re_point), abs(min_re_star),
                 abs(1.0 - max_ratio), abs(1.0 - max_star))
    # one witness per verdict pair that disagrees
    witnesses = tuple({"n": name, "lhs": lhs, "rhs": rhs} for name, agree, lhs, rhs in (
        ("real-part-verdicts", re_agree, min_re_point, min_re_star),
        ("modulus-verdicts", mod_agree, max_ratio, max_star)) if not agree)
    return CheckReport("quotient-equivalences", "pair", -margin if witnesses else margin,
                       kept, witnesses, min(f.degree, g.degree),
                       "fail" if witnesses else "pass", params)


# ---------------------------------------------------------------------------
# built-in functions under test
# ---------------------------------------------------------------------------


def koebe_function(u: Quaternion, degree: int = DEFAULT_DEGREE) -> FunctionUnderTest:
    return FunctionUnderTest(
        f"koebe({format_quaternion(u)})", koebe(u, degree),
        koebe_quotient(u),
        certificates=("starlike", "close-to-convex"))


def caratheodory_extremal_function(u: Quaternion,
                                   degree: int = DEFAULT_DEGREE) -> FunctionUnderTest:
    return FunctionUnderTest(
        f"caratheodory-extremal({format_quaternion(u)})",
        caratheodory_extremal(u, degree),
        caratheodory_extremal_quotient(u),
        certificates=("caratheodory",))


def convex_function(degree: int = DEFAULT_DEGREE) -> FunctionUnderTest:
    return FunctionUnderTest(
        "convex-reference", convex_reference(degree),
        convex_reference_quotient(),
        certificates=("starlike", "close-to-convex", "derivative-starlike",
                      "slice-preserving"))


def odd_reference_function(degree: int = DEFAULT_DEGREE) -> FunctionUnderTest:
    return FunctionUnderTest(
        "odd-reference", odd_reference(degree),
        odd_reference_quotient(),
        certificates=("starlike", "slice-preserving"))


def mobius_function(a: Quaternion, degree: int = DEFAULT_DEGREE,
                    u: Optional[Quaternion] = None) -> FunctionUnderTest:
    """The Moebius transform of parameter a, times the constant u on the
    right: one quotient and its expansion."""
    fid, quot = f"mobius({format_quaternion(a)})", mobius_quotient(a)
    if u is not None:
        fid += f"*{format_quaternion(u)}"
        quot = StarQuotient(quot.num.times(u), quot.den)
    return FunctionUnderTest(fid, quot.to_series(degree), quot)


def identity_function(degree: int = DEFAULT_DEGREE) -> FunctionUnderTest:
    return FunctionUnderTest(
        "identity", SliceSeries.identity(degree),
        certificates=("starlike", "close-to-convex", "derivative-starlike",
                      "slice-preserving"))


def monomial_function(c: Quaternion, n: int,
                      degree: int = DEFAULT_DEGREE) -> FunctionUnderTest:
    series = SliceSeries.from_coeffs([c] + [ZERO] * max(degree - n, 0), valuation=n)
    return FunctionUnderTest(f"{format_quaternion(c)}q^{n}", series)


def constant_function(c: Quaternion, degree: int = 0) -> FunctionUnderTest:
    return FunctionUnderTest(f"const({format_quaternion(c)})",
                             SliceSeries.constant(c, degree))


def rogosinski_function(b: Quaternion, p: Quaternion,
                        degree: int = DEFAULT_DEGREE) -> FunctionUnderTest:
    return FunctionUnderTest(
        f"rogosinski(b={format_quaternion(b)},p={format_quaternion(p)})",
        rogosinski_extremal(b, p, degree), rogosinski_extremal_form(b, p))


# ---------------------------------------------------------------------------
# generated members
# ---------------------------------------------------------------------------


def starlike_member(seed: int, degree: int = DEFAULT_DEGREE) -> FunctionUnderTest:
    series = generate_starlike_small_coeff(seed, degree)
    return FunctionUnderTest(f"starlike-member(seed={seed})", series,
                             certificates=("starlike", "close-to-convex"))


def caratheodory_member(seed: int, degree: int = DEFAULT_DEGREE,
                        k: int = 3) -> FunctionUnderTest:
    form = caratheodory_mixture_form(seed, k)
    return FunctionUnderTest(f"caratheodory-member(seed={seed})", form.to_series(degree),
                             form, certificates=("caratheodory",))


def close_to_convex_reference(seed: int, degree: int = DEFAULT_DEGREE) -> FunctionUnderTest:
    """The certified starlike h of ``close_to_convex_member(seed, degree)``."""
    return starlike_member(1000003 * seed + 1, degree)


def close_to_convex_member(seed: int, degree: int = DEFAULT_DEGREE,
                           k: int = 3) -> FunctionUnderTest:
    """f' = q^-1 h star p for a certified starlike h and Caratheodory mixture p.

    f' keeps the exact form (h / q) star sum_k w_k (1-qu_k)^(-star) star
    (1+qu_k), one quotient sum with p's terms and the left factor h / q,
    which the sum folds into its num.
    """
    h = close_to_convex_reference(seed, degree)
    p = caratheodory_member(1000003 * seed + 2, degree, k)
    derivative = QuotientSum(p.form.terms, p.form.weights, left=h.series.shift(-1))
    return FunctionUnderTest(
        f"close-to-convex-member(seed={seed})", generate_close_to_convex(h, p),
        derivative_form=derivative, certificates=("close-to-convex",))


def convex_member(seed: int, h: FunctionUnderTest) -> FunctionUnderTest:
    """f with q f' = h, for h the certified ``starlike_member`` of ``seed``."""
    series = integrate_radial(h.series.shift(-1))
    return FunctionUnderTest(f"convex-member(seed={seed})", series,
                             certificates=("derivative-starlike",))


def sample_lambdas(seed: int, count: int) -> list[Quaternion]:
    """Real rationals plus quaternionic scalars with |lambda| <= 4."""
    fixed = [Quaternion.from_real(Fraction(v)) for v in
             (0, 1, 2, -1, Fraction(3, 4), Fraction(7, 4), Fraction(-1, 2), 4)]
    rng = Random(seed)
    out = list(fixed)
    while len(out) < count:
        if rng.random() < 0.5:
            out.append(Quaternion.from_real(Fraction(rng.randint(-64, 64), 16)))
        else:
            u = random_exact_unit(rng)
            out.append(u * Fraction(rng.randint(0, 64), 16))
    return out[:count]


def quotient_pair(seed: int, degree: int = 4) -> tuple[SliceSeries, SliceSeries]:
    """Polynomial pair with |f^s| bounded away from 0 and a clear verdict."""
    rng = Random(seed)
    f_coeffs = [ONE]
    for n in range(1, degree + 1):
        f_coeffs.append(random_exact_unit(rng) * Fraction(rng.randrange(8), 160 * degree * n))
    sign = 1 if rng.random() < 0.5 else -1
    scale = Fraction(1, 2) if rng.random() < 0.5 else Fraction(2)
    g_coeffs = [ONE * sign]
    for n in range(1, degree + 1):
        g_coeffs.append(random_exact_unit(rng) * Fraction(rng.randrange(8), 160 * degree * n))
    g = SliceSeries.from_coeffs(g_coeffs).scale(scale)
    return SliceSeries.from_coeffs(f_coeffs), g


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


@dataclass
class SuiteConfig:
    """Shared knobs for a suite run; all randomness flows from the seed.

    ``build`` keeps every function it makes, so the suites built from one
    config share their members; ``run_suites`` drops them once every
    suite is built.
    """

    degree: int = DEFAULT_DEGREE
    tol: float = POINT_TOL
    seed: int = 7
    random_count: int = 5
    grid: SamplingGrid = DEFAULT_GRID

    def __post_init__(self):
        if self.degree < 8:
            raise DomainError("degree must be at least 8")
        if not self.tol > 0:
            raise DomainError("tolerance must be positive")
        if self.random_count < 0:
            raise DomainError("random count must not be negative")
        self._built: dict = {}

    def member_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def build(self, make: Callable[..., FunctionUnderTest], *args) -> FunctionUnderTest:
        """make(*args, self.degree), made once per config and shared."""
        key = (make, args)
        fut = self._built.get(key)
        if fut is None:
            fut = self._built[key] = make(*args, self.degree)
        return fut


def _diagonal_float_unit() -> Quaternion:
    s = 1.0 / math.sqrt(2.0)
    return Quaternion(0.0, s, s, 0.0)


Task = Callable[[], CheckReport]


def _members(cfg: SuiteConfig, make: Callable[[int, int], FunctionUnderTest],
             count: Optional[int] = None) -> list[FunctionUnderTest]:
    """The shared make(seed, cfg.degree) for the first ``count`` member
    seeds (default ``cfg.random_count``)."""
    count = cfg.random_count if count is None else count
    return [cfg.build(make, cfg.member_seed(i)) for i in range(count)]


def _suite_bieberbach(cfg: SuiteConfig) -> list[Task]:
    futs = [cfg.build(koebe_function, u) for u in (ONE, I, _diagonal_float_unit())]
    futs += _members(cfg, close_to_convex_member)
    return [partial(check_bieberbach, fut, cfg.grid) for fut in futs]


def _suite_fekete_szego(cfg: SuiteConfig) -> list[Task]:
    lambdas = sample_lambdas(cfg.seed, max(25, cfg.random_count * 5))
    return [partial(check_fekete_szego, cfg.build(koebe_function, u), lambdas, cfg.grid)
            for u in (ONE, I)]


def _suite_caratheodory(cfg: SuiteConfig) -> list[Task]:
    futs = [caratheodory_extremal_function(I, cfg.degree)]
    futs += _members(cfg, caratheodory_member)
    return [task for fut in futs
            for task in (partial(check_caratheodory_bounds, fut, cfg.grid, cfg.tol),
                         partial(check_sharper_caratheodory, fut, cfg.grid))]


def _suite_growth(cfg: SuiteConfig) -> list[Task]:
    kb = cfg.build(koebe_function, ONE)
    tasks: list[Task] = [
        partial(check_growth_distortion, kb, cfg.grid, cfg.tol),
        partial(check_monotone_modulus, kb, 0.0, cfg.grid),
        partial(check_growth_distortion, cfg.build(identity_function), cfg.grid, cfg.tol),
        partial(check_growth_order_m, cfg.build(convex_function), 1, cfg.grid,
                "distortion", cfg.tol),
        partial(check_growth_order_m, odd_reference_function(cfg.degree), 2, cfg.grid,
                "growth", cfg.tol),
    ]
    for fut in _members(cfg, starlike_member):
        tasks += [partial(check_growth_distortion, fut, cfg.grid, cfg.tol),
                  partial(check_monotone_modulus, fut, 0.0, cfg.grid)]
    return tasks


def _suite_schwarz(cfg: SuiteConfig) -> list[Task]:
    half = Quaternion.from_real(Fraction(1, 2))
    half_i = Quaternion(0, Fraction(1, 2), 0, 0)
    vanishing = [(monomial_function(K, 2, cfg.degree), 2),
                 (monomial_function(half, 2, cfg.degree), 2),
                 (cfg.build(rogosinski_function, half_i, ONE), 1)]
    self_maps = [mobius_function(half_i, cfg.degree, J), constant_function(half),
                 monomial_function(half, 1, cfg.degree)]
    return ([partial(check_schwarz, fut, m, cfg.grid, cfg.tol) for fut, m in vanishing]
            + [partial(check_schwarz_pick_coefficient, fut, cfg.grid, cfg.tol)
               for fut in self_maps])


def _suite_counterexample(cfg: SuiteConfig) -> list[Task]:
    return [check_schwarz_pick_counterexample]


def _suite_rogosinski(cfg: SuiteConfig) -> list[Task]:
    b = Quaternion(0, Fraction(1, 2), 0, 0)
    q0s = [Quaternion.from_real(Fraction(1, 2)), Quaternion(0, 0, Fraction(1, 2), 0)]
    futs = [cfg.build(rogosinski_function, b, p) for p in (ONE, -ONE, I)]
    cases = [(fut, q0) for fut in futs for q0 in q0s]
    rng = Random(cfg.seed)
    for _ in range(cfg.random_count):
        bb = random_float_unit(rng) * rng.uniform(0.1, 0.8)
        q0 = random_float_unit(rng) * rng.uniform(0.1, 0.9)
        cases.append((monomial_function(bb, 1, cfg.degree), q0))
    return [partial(check_rogosinski, fut, q0, cfg.grid, cfg.tol) for fut, q0 in cases]


def _suite_bohr(cfg: SuiteConfig) -> list[Task]:
    half = Quaternion.from_real(Fraction(1, 2))
    a = Quaternion(0, Fraction(1, 2), 0, 0)
    futs = [cfg.build(identity_function), constant_function(half),
            mobius_function(a, cfg.degree)]
    return [partial(check_bohr, fut, cfg.grid, cfg.tol) for fut in futs]


def _suite_hayman(cfg: SuiteConfig) -> list[Task]:
    futs = [cfg.build(koebe_function, ONE), cfg.build(identity_function)]
    futs += _members(cfg, starlike_member)
    return [partial(check_hayman, fut, cfg.grid) for fut in futs]


def _suite_koebe(cfg: SuiteConfig) -> list[Task]:
    kb = cfg.build(koebe_function, ONE)
    futs = [cfg.build(identity_function)] + _members(cfg, starlike_member)
    return ([partial(check_koebe_quarter, kb, cfg.grid, check_omitted_slit=True)]
            + [partial(check_koebe_quarter, fut, cfg.grid) for fut in futs])


def _suite_convex(cfg: SuiteConfig) -> list[Task]:
    futs = [cfg.build(convex_function), cfg.build(identity_function)]
    members = [convex_member(cfg.member_seed(i), h)
               for i, h in enumerate(_members(cfg, starlike_member))]
    return ([partial(check_convex_coefficients, fut, cfg.grid) for fut in futs]
            + [partial(check_convex_covering_examples, cfg.build(convex_function),
                       cfg.grid, cfg.tol)]
            + [partial(check_convex_coefficients, fut, cfg.grid) for fut in members])


def _suite_subordination(cfg: SuiteConfig) -> list[Task]:
    w_square = SliceSeries.from_coeffs([ONE], valuation=2).pad_to(cfg.degree)
    w_half = SliceSeries.from_coeffs([Quaternion.from_real(Fraction(1, 2))],
                                     valuation=1).pad_to(cfg.degree)
    w_id = cfg.build(identity_function)  # shared, so swept once for its three tasks
    kb = cfg.build(koebe_function, ONE)
    cases = [(kb, w_square), (kb, w_half)]
    cases += [(fut, w_id) for fut in
              _members(cfg, close_to_convex_member, min(cfg.random_count, 3))]
    return [partial(check_subordination_growth, fut, w, cfg.grid, cfg.tol) for fut, w in cases]


def _suite_quotient(cfg: SuiteConfig) -> list[Task]:
    pairs = [(SliceSeries.one(cfg.degree),
              SliceSeries.from_coeffs([ONE, Quaternion.from_real(Fraction(1, 2))])),
             (SliceSeries.from_coeffs([ONE, -I]), SliceSeries.from_coeffs([ONE, I]))]
    pairs += [quotient_pair(cfg.member_seed(i)) for i in range(cfg.random_count)]
    return [partial(check_quotient_equivalences, f, g, cfg.grid) for f, g in pairs]


SUITES: dict[str, Callable[[SuiteConfig], list[Task]]] = {
    "bieberbach": _suite_bieberbach,
    "fekete-szego": _suite_fekete_szego,
    "caratheodory": _suite_caratheodory,
    "growth": _suite_growth,
    "schwarz": _suite_schwarz,
    "schwarz-pick-counterexample": _suite_counterexample,
    "rogosinski": _suite_rogosinski,
    "bohr": _suite_bohr,
    "hayman": _suite_hayman,
    "koebe": _suite_koebe,
    "convex": _suite_convex,
    "subordination": _suite_subordination,
    "quotient": _suite_quotient,
}


def run_suites(names: list[str], cfg: SuiteConfig) -> list[CheckReport]:
    """Build every named suite's tasks, then run them in declaration order.

    The suites share each member through ``cfg.build``, and a member's
    grid sweeps are kept on it, so one run builds each member once and
    sweeps each function's grid once.  The config forgets its members once
    every suite is built, and each task is dropped once it has run, so a
    member and its sweeps are freed after its last task.
    """
    tasks: deque[Task] = deque()
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        tasks.extend(SUITES[name](cfg))
    cfg._built.clear()
    reports = []
    while tasks:
        reports.append(tasks.popleft()())
    return reports
