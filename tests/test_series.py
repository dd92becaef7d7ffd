"""Series calculus: operation examples, formal identities, sampled laws."""

import copy
import functools
import math
from collections import Counter
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from quotient_reference import reference_eval, reference_series_eval
from series_reference import (reference_add, reference_at_exact,
                              reference_compose_slice_preserving, reference_conjugate,
                              reference_eval_float, reference_geometric,
                              reference_integrate_radial, reference_mobius, reference_neg,
                              reference_pad_to, reference_shift,
                              reference_slice_derivative, reference_star_mul,
                              reference_star_reciprocal, reference_sub, reference_symmetrize,
                              reference_to_float, reference_to_series, reference_trim,
                              reference_window)
from srgft.checks import close_to_convex_member
from srgft.classes import (DEFAULT_GRID, SamplingGrid, caratheodory_extremal,
                           caratheodory_extremal_quotient,
                           caratheodory_mixture_form, generate_caratheodory,
                           generate_starlike_small_coeff, koebe,
                           koebe_quotient, random_exact_unit,
                           rogosinski_extremal, rogosinski_extremal_form)
from srgft.errors import DomainError, SingularityError
from srgft.quat import I, J, K, ONE, UNIT_J, ZERO, Quaternion
from srgft.series import (EvalDomain, PointBatch, QuotientSum, SliceSeries, StarQuotient,
                          compose_slice_preserving, full_star_mul,
                          integrate_radial, mobius, mobius_quotient,
                          quotient_transform, regular_conjugate,
                          slice_derivative, star_mul, star_reciprocal,
                          symmetrize, _float_row, _horner_errors, _horner_fixed,
                          _horner_xv, _integer_point, _plane_horner)


def exact(w=0, x=0, y=0, z=0):
    return Quaternion(F(w), F(x), F(y), F(z))


def series(coeffs, valuation=0):
    return SliceSeries.from_coeffs([c if isinstance(c, Quaternion) else exact(c)
                                    for c in coeffs], valuation)


def rand_series(rng: Random, degree: int, valuation: int = 0,
                scale: int = 4) -> SliceSeries:
    coeffs = []
    for _ in range(degree - valuation + 1):
        coeffs.append(Quaternion(F(rng.randint(-scale, scale), 8),
                                 F(rng.randint(-scale, scale), 8),
                                 F(rng.randint(-scale, scale), 8),
                                 F(rng.randint(-scale, scale), 8)))
    if coeffs[0].is_zero():
        coeffs[0] = ONE
    return SliceSeries.from_coeffs(coeffs, valuation)


def _count_horners(monkeypatch) -> list:
    """The rows of every class Horner that evaluation runs from now on, each
    on the 5-tuples of s and G: the exact `_horner_xv` and the fixed-point
    `_horner_fixed`."""
    calls = []
    for name, kernel in (("_horner_xv", _horner_xv), ("_horner_fixed", _horner_fixed)):
        monkeypatch.setattr(f"srgft.series.{name}",
                            lambda coeffs, *args, kernel=kernel: calls.append(coeffs)
                            or kernel(coeffs, *args))
    return calls


def with_left(quot: StarQuotient, left: SliceSeries) -> QuotientSum:
    """left star quot as a one-term sum, the one form with a left factor."""
    return QuotientSum((quot,), (F(1),), left=left)


class TestWindow:
    def test_normalized_valuation(self):
        s = series([0, 0, 5], valuation=0)
        assert s.valuation == 2
        assert s.degree == 2

    def test_zero_window(self):
        s = SliceSeries.zero(5)
        assert s.is_zero()
        assert s.degree == 5

    def test_coeff_beyond_window_raises(self):
        s = series([1, 2])
        with pytest.raises(IndexError):
            s.coeff(2)

    def test_mode_unified(self):
        s = SliceSeries.from_coeffs([ONE, Quaternion(0.5, 0, 0, 0)])
        assert not s.is_exact

    def test_json_round_trip(self):
        s = series([1, 2, 0, 3], valuation=1)
        assert SliceSeries.from_json_dict(s.to_json_dict()) == s
        sf = s.to_float()
        assert SliceSeries.from_json_dict(sf.to_json_dict()) == sf

    def test_json_mode_mismatch_rejected(self):
        data = series([1, 2]).to_json_dict()
        data["coeffs"][0] = [1.0, 0.0, 0.0, 0.0]  # float inside "exact"
        with pytest.raises(ValueError):
            SliceSeries.from_json_dict(data)

    @pytest.mark.parametrize("data", [
        None, [1, 2], {}, {"coeffs": [["1", "0", "0", "0"]]},
        {"valuation": "0", "coeffs": [["1", "0", "0", "0"]]},
        {"valuation": 0, "coeffs": 5},
        {"valuation": 0, "coeffs": [["1/0", "0", "0", "0"]]},
        {"valuation": 0, "coeffs": [["1", "0", "0", "0"]], "degree": None},
        {"valuation": 0, "coeffs": [["1", "0", "0", "0"]], "mode": "banana"},
        {"valuation": 0, "coeffs": [["1", "0", "0", "0"]], "mode": None},
    ])
    def test_json_missing_or_ill_typed_field_rejected(self, data):
        with pytest.raises(ValueError):
            SliceSeries.from_json_dict(data)

    def test_json_without_mode_still_loads(self):
        for s in (series([1, F(1, 2)], valuation=1), series([1, F(1, 2)]).to_float()):
            data = s.to_json_dict()
            del data["mode"]
            assert SliceSeries.from_json_dict(data) == s


class TestEval:
    def test_identity_series(self):
        f = SliceSeries.identity(4)
        q = exact(0, 0, F(1, 2), 0)
        assert f.eval(q) == q

    def test_geometric_sum(self):
        f = reference_geometric(ONE, 60).to_float()
        value = f.eval(Quaternion(0.5, 0.0, 0.0, 0.0))
        assert abs(value - Quaternion(2.0, 0.0, 0.0, 0.0)) < 1e-12

    def test_koebe_truncation_is_exact_and_quotient_is_sharp(self):
        # the truncated window evaluates exactly to 2 - 50/2^48; the
        # closed quotient form attains the growth bound 2 on the nose
        from srgft.classes import koebe, koebe_quotient
        half = exact(F(1, 2))
        truncated = koebe(ONE, 48).eval(half)
        assert truncated == Quaternion.from_real(F(2) - F(50, 2 ** 48))
        assert koebe_quotient(ONE).eval(half) == exact(2)

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            SliceSeries.identity(2).eval(exact(1))

    def test_negative_valuation_at_zero_rejected(self):
        laurent = series([1], valuation=-1)
        with pytest.raises(SingularityError):
            laurent.eval(exact(0))

    def test_laurent_evaluation(self):
        laurent = series([1], valuation=-1)  # q^-1
        assert laurent.eval(exact(0, F(1, 2))) == exact(0, -2)

    def test_laurent_window_at_a_tiny_exact_point_is_exact(self):
        # q^-2 (1 + q) at 10^-200 is 10^400 + 10^200, far beyond a float
        window = series([1, 1], valuation=-2)
        q, value = exact(F(1, 10 ** 200)), exact(10 ** 400 + 10 ** 200)
        assert window.eval(q) == value
        assert StarQuotient(window, SliceSeries.one()).eval(q) == value
        # |den^s(q)| = 10^400 for den q^-1: the guard decides it on integers
        assert StarQuotient(window, series([1], valuation=-1)).eval(q) == \
            exact(10 ** 200 + 1)

    def test_float_value_too_large_for_a_float_is_a_domain_error(self):
        quot = StarQuotient(series([1, 1], valuation=-2), SliceSeries.one())
        with pytest.raises(DomainError, match="too large for a float"):
            quot.eval(Quaternion(1e-160, 0.0, 0.0, 0.0))


class TestDerivative:
    def test_term_rule(self):
        f = series([K], valuation=2)
        df = slice_derivative(f)
        assert df.valuation == 1
        assert df.coeff(1) == exact(0, 0, 0, 2)

    def test_koebe_coefficients(self):
        from srgft.classes import koebe
        df = slice_derivative(koebe(ONE, 10))
        for n in range(1, 10):
            assert df.coeff(n - 1) == exact(n * n)

    def test_constant_to_zero(self):
        assert slice_derivative(SliceSeries.one(3)).is_zero()

    def test_laurent_slots_preserved(self):
        f = series([2, 3, 5], valuation=-1)  # 2/q + 3 + 5q
        df = slice_derivative(f)
        assert df.valuation == -2
        assert df.coeff(-2) == exact(-2)
        assert df.coeff(-1) == exact(0)
        assert df.coeff(0) == exact(5)


class TestStarProduct:
    def test_noncommutative_square(self):
        f = series([I], valuation=1)
        g = series([J], valuation=1)
        fg = star_mul(f, g)
        assert fg.coeff(2) == K
        gf = star_mul(g, f)
        assert gf.coeff(2) == -K

    def test_unit_identity(self):
        rng = Random(5)
        f = rand_series(rng, 6)
        one = SliceSeries.one(6)
        assert star_mul(f, one) == f
        assert star_mul(one, f) == f

    def test_geometric_square_counts(self):
        u = exact(0, F(3, 5), F(4, 5), 0)
        g = reference_geometric(u, 12)
        sq = star_mul(g, g)
        power = ONE
        for n in range(0, sq.degree + 1):
            assert sq.coeff(n) == power * (n + 1)
            power = power * u

    def test_window_rule(self):
        f = rand_series(Random(1), 5, valuation=1)
        g = rand_series(Random(2), 7, valuation=2)
        fg = star_mul(f, g)
        assert fg.valuation == 3
        assert fg.degree == min(5 + 2, 7 + 1)

    @given(st.integers(0, 9999))
    @settings(max_examples=30)
    def test_associative_and_distributive(self, seed):
        rng = Random(seed)
        f, g, h = (rand_series(rng, 4) for _ in range(3))
        assert star_mul(star_mul(f, g), h) == star_mul(f, star_mul(g, h))
        assert star_mul(f, g + h) == star_mul(f, g) + star_mul(f, h)


class TestConjugateSymmetrize:
    def test_conjugate_examples(self):
        f = series([I], valuation=1)
        assert regular_conjugate(f).coeff(1) == -I
        real = series([1, 2, 3])
        assert regular_conjugate(real) == real
        m = mobius(exact(0, F(1, 2)), 8)
        mc = regular_conjugate(m)
        for n, c in m.terms():
            assert mc.coeff(n) == c.conjugate()

    def test_symmetrize_examples(self):
        f = series([I], valuation=1)
        assert symmetrize(f) == series([1], valuation=2)
        u = exact(0, F(3, 5), 0, F(4, 5))
        lin = series([ONE, -u]).pad_to(2)
        sym = symmetrize(lin)
        assert sym.coeff(0) == exact(1)
        assert sym.coeff(1) == exact(0)  # -2 Re(u) = 0
        assert sym.coeff(2) == exact(1)
        assert symmetrize(SliceSeries.zero(4)).is_zero()

    @given(st.integers(0, 9999))
    @settings(max_examples=30)
    def test_symmetrize_real_and_matches_star(self, seed):
        rng = Random(seed)
        f = rand_series(rng, 5, valuation=rng.choice([0, 1]))
        sym = symmetrize(f)
        for _, c in sym.terms():
            assert c.x == 0 and c.y == 0 and c.z == 0
        direct = star_mul(f, regular_conjugate(f))
        assert sym == direct
        assert star_mul(regular_conjugate(f), f) == direct


class TestReciprocal:
    def test_linear_reciprocal_is_geometric(self):
        u = exact(0, F(3, 5), F(4, 5), 0)
        f = series([ONE, -u]).pad_to(10)
        rec = star_reciprocal(f)
        expected = reference_geometric(u, rec.degree)
        for n in range(0, rec.degree + 1):
            assert rec.coeff(n) == expected.coeff(n)
        back = star_mul(rec, f)
        assert back == SliceSeries.one(back.degree)

    def test_identity_series(self):
        rec = star_reciprocal(SliceSeries.identity(1))
        assert rec.valuation == -1
        assert rec.coeff(-1) == ONE

    def test_koebe_denominator(self):
        den = full_star_mul(series([1, -1]), series([1, -1])).pad_to(10)
        rec = star_reciprocal(den)
        for n in range(0, rec.degree + 1):
            assert rec.coeff(n) == exact(n + 1)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            star_reciprocal(SliceSeries.zero(3))

    @given(st.integers(0, 9999))
    @settings(max_examples=30)
    def test_multiply_back(self, seed):
        rng = Random(seed)
        v = rng.choice([0, 0, 1, 2])
        f = rand_series(rng, v + 4, valuation=v).pad_to(12)
        rec = star_reciprocal(f)
        prod = star_mul(rec, f)
        assert prod.degree >= f.degree - 2 * abs(v)
        assert prod == SliceSeries.one(prod.degree)


@st.composite
def transform_cases(draw):
    """(f, q): an exact f of valuation 0..2, one time in two with the root
    factor q - a on its left, so that f^s vanishes on the sphere of a, and
    an exact q of the ball: random, 0, a itself, or a plus a rational of
    size 10^-k that puts |f^s(q)| on either side of either threshold."""
    rng = Random(draw(st.integers(0, 10 ** 6)))
    h = rand_series(rng, draw(st.integers(0, 3)))
    a = Quaternion(*(F(rng.randint(-4, 4), 10) for _ in range(4)))
    kind = draw(st.sampled_from(("random", "zero", "root", "near-root")))
    f = h if kind in ("random", "zero") else full_star_mul(series([-a, ONE]), h)
    f = f.shift(draw(st.integers(0, 2)))
    if kind == "random":
        return f, draw(exact_ball_points(zero=False))
    if kind == "zero":
        return f, ZERO
    if kind == "root":
        return f, a
    delta = Quaternion(*(F(rng.randint(-9, 9), 10 ** draw(st.integers(2, 260)))
                         for _ in range(4)))
    return f, a + delta


@pytest.mark.fuzz
class TestQuotientTransform:
    @given(transform_cases())
    @settings(max_examples=6 * settings.default.max_examples // 5, deadline=None)
    def test_is_the_conjugate_action_refused_by_the_exact_guard(self, case):
        """quotient_transform(f, [q]) is [c^(-1) q c] with c = f^c(q),
        refused exactly where |f^s(q)|^2 < t^2 as rationals, by the
        `Fraction` oracles on the polynomial f."""
        f, q = case
        rf = (f.valuation, f.coeffs)
        fc = SliceSeries(*reference_conjugate(rf))
        top = 2 * f.degree - f.valuation
        fs = reference_star_mul(SliceSeries(*reference_pad_to(rf, top)),
                                SliceSeries(*reference_pad_to((fc.valuation, fc.coeffs), top)))
        s = reference_series_eval(fs, q)
        for t in (1e-8, 1e-250):
            if s.norm_sq() < F(t) ** 2:
                with pytest.raises(SingularityError):
                    quotient_transform(f, [q], EvalDomain(t))
            else:
                c = reference_series_eval(fc, q)
                assert quotient_transform(f, [q], EvalDomain(t)) == [c.inverse() * q * c]

    @given(transform_cases(), st.booleans(), st.data())
    @settings(deadline=None)
    def test_a_batch_maps_each_point_as_a_one_point_call(self, case, to_float, data):
        """Bit for bit and in batch order, or the error of the first refused
        point; an exact point's image is exact whatever the mode of f."""
        f, q = case
        f = f.to_float() if to_float else f
        points = [q] + list(data.draw(point_batches()))
        want = _point_by_point(lambda p: quotient_transform(f, [p])[0], points)
        assert _batch_outcome(lambda ps: quotient_transform(f, ps), points) == want
        if isinstance(want, list):
            images = quotient_transform(f, points)
            assert [image.is_exact for image in images] == [p.is_exact for p in points]

    def test_real_coefficients_fix_points(self):
        f = series([1, -1]).pad_to(4)
        points = DEFAULT_GRID.points[:40]
        for q, image in zip(points, quotient_transform(f, points)):
            assert abs(image - q) < 1e-12

    def test_real_points_fixed(self):
        f = series([ONE, I, J], valuation=0)
        q = Quaternion(0.3, 0.0, 0.0, 0.0)
        assert abs(quotient_transform(f, [q])[0] - q) < 1e-15

    def test_norm_preserved(self):
        f = series([ONE, exact(0, F(-1, 2))])
        q = Quaternion(0.0, 0.0, 0.5, 0.0)
        [image] = quotient_transform(f, [q])
        assert abs(abs(image) - 0.5) < 1e-14

    def test_singular_guard(self):
        f = series([1, -2])  # symmetrization vanishes at 1/2
        points = [exact(F(1, 4)), Quaternion(0.5, 0.0, 0.0, 0.0), exact(F(1, 3))]
        # one refused point refuses the batch, as the quotient 1 over f does
        with pytest.raises(SingularityError):
            quotient_transform(f, points)
        with pytest.raises(SingularityError):
            StarQuotient(SliceSeries.one(), f).values(points, EvalDomain())

    def test_tiny_exact_symmetrization_is_measured_not_refused(self):
        # f^s = q^4 (1 + q^2 / 4), so |f^s(q)| is about 1e-180 at q = 1e-45 i,
        # far below the smallest float square root of a norm
        f = series([ONE, exact(0, F(1, 2))], valuation=2)
        q = exact(0, F(1, 10 ** 45))
        [image] = quotient_transform(f, [q], EvalDomain(1e-250))
        assert image.is_exact and image.norm_sq() == q.norm_sq()
        with pytest.raises(SingularityError):
            quotient_transform(f, [q], EvalDomain(1e-179))

    def test_exact_zero_of_the_symmetrization_is_refused(self):
        with pytest.raises(SingularityError):
            quotient_transform(series([1, -2]), [exact(F(1, 2))])

    def test_mutual_inverse_on_grid(self):
        rng = Random(11)
        f = rand_series(rng, 4)
        fc = regular_conjugate(f)
        for q in DEFAULT_GRID.points[::7]:
            try:
                [image] = quotient_transform(f, [q])
                [back] = quotient_transform(fc, [image])
            except SingularityError:
                continue
            assert abs(abs(image) - abs(q)) < 1e-12
            assert abs(back - q) < 1e-9


class TestCompose:
    def test_identity_inner(self):
        f = rand_series(Random(3), 6)
        w = SliceSeries.identity(6)
        assert compose_slice_preserving(f, w) == f

    def test_square_inner(self):
        f = series([5, 7], valuation=1).pad_to(8)
        w = series([1], valuation=2).pad_to(8)
        g = compose_slice_preserving(f, w)
        assert g.coeff(2) == exact(5)
        assert g.coeff(4) == exact(7)

    def test_pointwise_oracle(self):
        # substituting w = q/2 into the Koebe window agrees with
        # evaluating the same window at w(q): identical truncations
        from srgft.classes import koebe
        f = koebe(ONE, 8)
        w = series([F(1, 2)], valuation=1).pad_to(8)
        g = compose_slice_preserving(f, w).to_float()
        for n in range(1, 9):
            assert g.coeff(n) == exact(F(n, 2 ** n)).to_float()
        for q in (Quaternion(0.3, 0.1, 0.0, 0.0), Quaternion(0.0, 0.2, 0.2, 0.1)):
            inner = w.to_float().eval(q)
            direct = f.to_float().eval(inner)
            assert abs(g.eval(q) - direct) < 1e-12

    def test_non_real_inner_rejected(self):
        f = rand_series(Random(4), 4)
        w = series([I], valuation=1)
        with pytest.raises(DomainError):
            compose_slice_preserving(f, w)

    def test_nonvanishing_inner_rejected(self):
        f = rand_series(Random(4), 4)
        w = series([1, 1])
        with pytest.raises(DomainError):
            compose_slice_preserving(f, w)


class TestIntegrate:
    def test_constant(self):
        assert integrate_radial(SliceSeries.one(0)) == SliceSeries.identity(1)

    def test_geometric_shift(self):
        u = exact(0, 0, F(1, 2), 0)
        g = star_mul(reference_geometric(u, 10), reference_geometric(u, 10))  # (n+1) u^n
        f = integrate_radial(g)
        power = ONE
        for n in range(1, f.degree + 1):
            assert f.coeff(n) == power
            power = power * u

    def test_inverse_pair(self):
        f = rand_series(Random(9), 6, valuation=1)
        assert integrate_radial(slice_derivative(f)) == f

    def test_laurent_rejected(self):
        with pytest.raises(DomainError):
            integrate_radial(series([1], valuation=-1))


class TestMobius:
    def test_zero_parameter(self):
        m = mobius(exact(0), 6)
        assert m == series([-1], valuation=1).pad_to(6)

    def test_reference_point_values_exact(self):
        a = exact(0, F(1, 2))
        q0 = exact(0, 0, F(1, 2))
        quot = mobius_quotient(a)
        assert quot.eval(q0) == exact(0, F(2, 5), F(-2, 5))
        dval = quot.derivative().eval(q0)
        assert dval == exact(F(-204, 225), 0, 0, F(-96, 225))
        assert dval.norm_sq() == F(50832, 50625)

    def test_series_agrees_with_quotient(self):
        a = exact(0, F(1, 3), F(1, 4), 0)
        m = mobius(a, 80).to_float()
        quot = mobius_quotient(a)
        for q in (Quaternion(0.2, 0.1, 0.0, 0.3), Quaternion(0.0, -0.4, 0.2, 0.0)):
            assert abs(m.eval(q) - quot.eval(q)) < 1e-12

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            mobius(exact(2))

    def test_closed_ball_test_is_exact_for_an_exact_parameter(self):
        above = exact(1 + F(1, 10 ** 13))
        for build in (mobius, mobius_quotient):
            with pytest.raises(DomainError):
                build(above)
            build(exact(1))
            build(above.to_float())  # a float keeps its 1e-12 allowance


class TestStarQuotient:
    def test_to_series_round_trip(self):
        u = exact(0, F(3, 5), F(4, 5), 0)
        quot = StarQuotient(series([ONE, u]), series([ONE, -u]))
        s = quot.to_series(12)
        # 1 + 2 sum q^n u^n
        power = u
        assert s.coeff(0) == ONE
        for n in range(1, 13):
            assert s.coeff(n) == power * 2
            power = power * u

    def test_window_reaches_the_degree_asked_for(self):
        """A numerator of valuation -3 still gives every coefficient
        through the degree asked for, as a polynomial over den = 1."""
        num = series([1, 1], valuation=-3)
        window = StarQuotient(num, SliceSeries.one()).to_series(5)
        assert (window.valuation, window.degree) == (-3, 5)
        assert window == num.pad_to(5)

    def test_float_quotient_window_is_rounded_once(self):
        """(1 - qu)^(-*) (1 + qu) at a float u: each coefficient through
        degree 30 is the exact coefficient at the dyadic u, rounded once."""
        u = Quaternion(0.1, 0.7, 0.3, 0.2)
        window = caratheodory_extremal_quotient(u).to_series(30)
        exact_window = caratheodory_extremal_quotient(u.to_exact()).to_series(30)
        assert not window.is_exact and window.degree == 30
        assert _repr_window(window) == _repr_window(exact_window.to_float())
        assert exact_window == reference_to_series(series([ONE, u.to_exact()]),
                                                   series([ONE, -u.to_exact()]), 30)

    @given(st.integers(0, 9999), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_trailing_zeros_leave_values_unchanged(self, seed, pad_num, pad_den):
        rng = Random(seed)
        num = rand_series(rng, 3)
        # |den - 1| < 1 on the points below, so den^s never vanishes there
        den = SliceSeries.from_coeffs([ONE, *rand_series(rng, 1, scale=1).coeffs])
        plain = StarQuotient(num, den)
        padded_num = StarQuotient(num.pad_to(num.degree + pad_num), den)
        padded_den = StarQuotient(num, den.pad_to(den.degree + pad_den))
        q = Quaternion(*(F(rng.randint(-4, 4), 10) for _ in range(4)))
        for point in (q, q.to_float()):
            value = plain.eval(point)
            assert padded_num.eval(point) == value
            assert padded_den.eval(point) == value

    def test_left_factor(self):
        """A one-term sum with a left factor h is h star den^(-*) star num,
        over a real den and over any den."""
        rng = Random(5)
        left = rand_series(rng, 4, valuation=1)
        num = rand_series(rng, 2)
        u = exact(0, F(3, 10), F(4, 10), 0)
        term = StarQuotient(num, series([ONE, -u]))
        quot = with_left(term, left)
        # a real denominator commutes with the left factor
        real_den = series([1, F(-1, 2)])
        moved = StarQuotient(full_star_mul(left, num), real_den)
        over_real = with_left(StarQuotient(num, real_den), left)
        q = exact(F(1, 5), F(-1, 10), F(3, 10), F(1, 10))
        assert over_real.eval(q) == moved.eval(q)
        assert over_real.derivative().eval(q) == moved.derivative().eval(q)
        assert over_real.to_series(12) == moved.to_series(12)
        # any denominator: the window and the float path agree with eval
        window = quot.to_series(60)
        assert window == star_mul(left.pad_to(60), term.to_series(60))
        derivative_window = slice_derivative(window).to_float()
        for point in (Quaternion(0.2, 0.1, 0.0, -0.1), Quaternion(0.0, 0.0, 0.3, 0.0)):
            assert abs(quot.eval(point) - window.to_float().eval(point)) < 1e-12
            assert quot.eval(point) == reference_eval(term, point, left=left)
            assert abs(quot.derivative().eval(point) - derivative_window.eval(point)) < 1e-12

    def test_left_factor_over_a_real_den_is_not_symmetrized(self):
        """A left factor folds into the numerator over a real den itself,
        not over den^s = den star den: the class-c f' form (den degree 6)
        has a derivative over degree 12, not 24, with the same values."""
        form = close_to_convex_member(2).derivative_form
        derivative = form.derivative()
        den_sym = symmetrize(form.den.pad_to(2 * form.den.degree - form.den.valuation))
        over_sym = StarQuotient(full_star_mul(regular_conjugate(form.den), form.num),
                                den_sym).derivative()
        assert (form.den.degree, derivative.den.degree, over_sym.den.degree) == (6, 12, 24)
        for q in (exact(F(1, 5), F(-1, 10), F(3, 10), F(1, 10)),
                  Quaternion(0.3, 0.1, -0.2, 0.4)):
            want = reference_eval(over_sym, q)
            assert reference_eval(derivative, q) == want
            assert derivative.eval(q) == want

    def test_float_inputs_round_to_exact(self):
        quot = StarQuotient(SliceSeries.identity(),
                            full_star_mul(series([1, -1]), series([1, -1])))
        value = quot.eval(Quaternion(0.99, 0.0, 0.0, 0.0))
        assert not value.is_exact
        assert abs(value.w - 0.99 / 0.01 ** 2) < 1e-9 * 9900


def _quotient(kind: str, seed: int) -> StarQuotient:
    """A quotient of the given kind, with exact parameters drawn from seed."""
    rng = Random(seed)
    u, w = random_exact_unit(rng), random_exact_unit(rng)
    if kind == "koebe":
        return koebe_quotient(u)
    if kind == "mobius":
        return mobius_quotient(u * F(rng.randint(0, 9), 10))
    if kind == "caratheodory":
        return caratheodory_extremal_quotient(u)
    if kind == "rogosinski":
        return rogosinski_extremal_form(u * F(5, 8), w * F(3, 4))
    if kind == "real":
        # 1 + a q + b q^2 with |a| + |b| < 1 vanishes nowhere in the ball
        den = series([1, F(rng.randint(-4, 4), 10), F(rng.randint(-4, 4), 10)],
                     rng.randint(0, 1))
        left = rand_series(rng, 3, valuation=rng.randint(0, 1)) if rng.random() < 0.5 else None
        quot = StarQuotient(rand_series(rng, 3, valuation=rng.randint(0, 2)), den)
        return quot if left is None else with_left(quot, left)
    if kind == "mixture":
        terms = [caratheodory_extremal_quotient(random_exact_unit(rng)) if rng.random() < 0.5
                 else StarQuotient(rand_series(rng, 2),
                                   series([1, *rand_series(rng, 1, scale=1).coeffs]))
                 for _ in range(rng.randint(1, 3))]
        weights = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in terms]
        left = rand_series(rng, 2, valuation=rng.randint(0, 1)) if rng.random() < 0.5 else None
        return QuotientSum(terms, weights, left=left)
    if kind in ("long-num", "long-den"):
        # a Horner row of s and G pads the shorter part with zero rows at
        # the top: G 11 degrees above s, or q a over (1 - q u / 2)^11, whose
        # s lies 10 degrees above G
        lin = series([ONE, -u * F(1, 2)])
        if kind == "long-num":
            return StarQuotient(rand_series(rng, 12, valuation=rng.randint(0, 2)), lin)
        return StarQuotient(rand_series(rng, 1, valuation=1),
                            functools.reduce(full_star_mul, [lin] * 11))
    # |den / q^v - 1| < 1 in the ball, so den^s vanishes there only at 0
    den = SliceSeries.from_coeffs([ONE, *rand_series(rng, 1, scale=1).coeffs],
                                  rng.randint(0, 2) if kind == "den-valuation" else
                                  rng.randint(1, 2) if kind == "left-den-valuation" else 0)
    if kind.startswith("left"):
        # a one-term sum with left valuation 0, 1 or 2, over a non-real den
        left = rand_series(rng, 4, valuation=rng.randint(0, 2))
        if kind == "left-float":
            left = left.to_float()
        return with_left(StarQuotient(rand_series(rng, 2), den), left)
    return StarQuotient(rand_series(rng, 3, valuation=rng.randint(0, 2)), den)


QUOTIENT_KINDS = ("koebe", "mobius", "caratheodory", "rogosinski", "random",
                  "den-valuation", "left", "left-float", "left-den-valuation", "real",
                  "mixture", "long-num", "long-den")


@st.composite
def quotients(draw):
    quot = _quotient(draw(st.sampled_from(QUOTIENT_KINDS)), draw(st.integers(0, 10 ** 6)))
    return quot.derivative() if draw(st.booleans()) else quot


def _assert_derivative_window(quot: StarQuotient, degree: int) -> None:
    """f' through ``degree`` is the term-rule derivative of the exact
    window of f through degree + 1: a float form's derivative is that of
    its dyadic form, with exact parts."""
    exact_parts = StarQuotient(quot.num.to_exact(), quot.den.to_exact())
    want = slice_derivative(exact_parts.to_series(degree + 1))
    assert quot.derivative().to_series(degree) == want


@pytest.mark.fuzz
class TestQuotientDerivative:
    """f' = (s star s)^(-1) (s star G' - s' star G) for the real form
    f = s^(-1) G, whatever den's coefficients."""

    @given(quotients(), st.booleans(), st.integers(0, 16))
    @settings(deadline=None)
    def test_matches_the_window_derivative(self, quot, float_parts, degree):
        if float_parts:
            quot = StarQuotient(quot.num.to_float(), quot.den.to_float())
        _assert_derivative_window(quot, degree)

    def test_non_commuting_den(self):
        quot = StarQuotient(SliceSeries.one(), series([ONE, I, J]))
        _assert_derivative_window(quot, 12)
        assert quot.derivative().den.is_real()

    def test_tiny_commutator_den(self):
        """The commutator 2k / 10^10 of this den's coefficients is tiny,
        yet the commuting quotient rule gives another f'; the real form
        gives the true f' of the exact den and of its float copy."""
        t = F(1, 10 ** 5)
        den = series([ONE, exact(0, t), exact(0, 0, t)])
        for quot in (StarQuotient(SliceSeries.one(), den),
                     StarQuotient(SliceSeries.one(), den.to_float())):
            _assert_derivative_window(quot, 12)
        commuting_rule = StarQuotient(-slice_derivative(den), full_star_mul(den, den))
        assert commuting_rule.to_series(12) != \
            StarQuotient(SliceSeries.one(), den).derivative().to_series(12)


ball_rationals = st.fractions(F(-9, 20), F(9, 20), max_denominator=60)
ball_floats = st.floats(-0.45, 0.45)


@st.composite
def points(draw):
    """Rational, dyadic, real, zero and near-boundary points of the ball."""
    kind = draw(st.sampled_from(("rational", "dyadic", "real", "zero", "near-one")))
    if kind == "rational":
        return Quaternion(*draw(st.tuples(*[ball_rationals] * 4)))
    if kind == "dyadic":
        return Quaternion(*draw(st.tuples(*[ball_floats] * 4)))
    if kind == "real":
        return Quaternion.from_real(draw(st.one_of(ball_rationals, ball_floats)))
    if kind == "zero":
        return draw(st.sampled_from((ZERO, ZERO.to_float())))
    # |q|^2 = (1 - 1/n)^2: den^s can be as small as (1 - |q|)^4 here
    u = random_exact_unit(Random(draw(st.integers(0, 10 ** 6))))
    q = u * (1 - F(1, draw(st.integers(2, 10 ** 6))))
    return q.to_float() if draw(st.booleans()) else q


def _outcome(evaluate, q):
    """Each component's repr (type, value, sign of zero) or the error type."""
    try:
        value = evaluate(q)
    except DomainError as exc:
        return type(exc)
    return tuple(repr(c) for c in (value.w, value.x, value.y, value.z))


@pytest.mark.fuzz
class TestIntegerEval:
    # the example counts follow the profile: 300 and 150 by default, ten
    # times as many under --hypothesis-profile=ci (tests/conftest.py)
    @given(quotients(), points(), st.sampled_from((None, EvalDomain(1e-3))))
    @settings(max_examples=3 * settings.default.max_examples, deadline=None)
    def test_matches_the_fraction_reference(self, quot, q, domain):
        assert _outcome(lambda p: quot.eval(p, domain), q) == \
            _outcome(lambda p: reference_eval(quot, p, domain), q)

    @given(quotients(), st.lists(points(), min_size=1, max_size=6),
           st.sampled_from((None, EvalDomain(1e-3), EvalDomain(0.5), EvalDomain(4.0))))
    @settings(max_examples=3 * settings.default.max_examples // 2, deadline=None)
    def test_skip_puts_the_guards_measure_in_place_of_a_refusal(self, quot, qs, domain):
        """values(points, domain, skip=True) is each point's own value where
        the guard accepts it, and a float below the threshold where it
        refuses; the other errors stay errors."""
        t = (domain or quot.ZERO_GUARD).singular_threshold
        outcomes = [_outcome(lambda p: quot.eval(p, domain), q) for q in qs]
        try:
            got = quot.values(qs, domain, skip=True)
        except DomainError as exc:
            # only a Laurent quotient at 0 raises for a point of the ball
            assert type(exc) in outcomes
            return
        for q, value, want in zip(qs, got, outcomes):
            if want is SingularityError:
                assert type(value) is float and 0.0 <= value <= t * (1 + 1e-15)
            else:
                assert _outcome(lambda p: value, q) == want

    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_den_vanishing_at_zero_is_singular_there(self, seed, v):
        rng = Random(seed)
        den = SliceSeries.from_coeffs([ONE, random_exact_unit(rng)], v)
        quot = StarQuotient(rand_series(rng, 2), den)
        for zero in (ZERO, ZERO.to_float()):
            for evaluate in (quot.eval, lambda p: reference_eval(quot, p)):
                with pytest.raises(SingularityError):
                    evaluate(zero)

    def test_stricter_domain_refuses_the_same_points(self):
        quot = koebe_quotient(ONE)
        strict = EvalDomain(1e-3)
        # |den^s| = |1 - q|^4: 6.25e-6 at 0.95, 1/4 at (1 + i)/2
        points = (Quaternion(0.95, 0.0, 0.0, 0.0), Quaternion(F(1, 2), F(1, 2), 0, 0))
        outcomes = [_outcome(lambda p: quot.eval(p, strict), q) for q in points]
        assert outcomes == [_outcome(lambda p: reference_eval(quot, p, strict), q)
                            for q in points]
        assert outcomes[0] is SingularityError
        assert outcomes[1] == tuple(repr(F(c)) for c in (-1, 1, 0, 0))  # koebe = -1 + i

    def test_boundary_and_outside_are_refused(self):
        quot = koebe_quotient(ONE)
        for q in (exact(1), exact(F(3, 5), F(4, 5)), Quaternion(0.6, 0.8, 0.0, 0.0)):
            with pytest.raises(DomainError):
                quot.eval(q)


class TestIntegerGuard:
    def test_threshold_is_met_exactly_for_real_and_non_real_dens(self):
        """At x = 3/4, |den^s| is exactly the threshold: (1 - x)^4 = 2^-8
        for Koebe u = 1 at x (a real den), and (1 - x^2)^2 = 49/256 for
        u = j at x j.  The threshold itself is accepted, and a point just
        beyond it refused."""
        tiny = F(1, 10 ** 30)
        for u, at, t in ((ONE, lambda x: exact(x), 2.0 ** -8),
                         (J, lambda x: exact(0, 0, x), 49 / 256)):
            quot, domain = koebe_quotient(u), EvalDomain(t)
            assert quot.eval(at(F(3, 4)), domain) == reference_eval(quot, at(F(3, 4)), domain)
            with pytest.raises(SingularityError):
                quot.eval(at(F(3, 4) + tiny), domain)

    def test_tiny_den_above_the_threshold_is_accepted(self):
        """|den^s| is about 10^-200 at 10^-50 k, above the default 1e-250,
        though its square underflows a float."""
        q = exact(0, 0, 0, F(1, 10 ** 50))
        for den in (series([1], valuation=2), series([1, exact(0, 0, F(1, 2))], valuation=2)):
            quot = StarQuotient(series([1, 1]), den)
            assert quot.eval(q) == reference_eval(quot, q)


def _reference_sum_value(form: QuotientSum, q: Quaternion) -> Quaternion:
    """The weighted sum, in term order, of each term's exact reference value
    with the form's left factor applied by the reference product, rounded
    once at a float point."""
    qe = q.to_exact()
    acc = ZERO
    for w, t in zip(form.weights, form.terms):
        acc = acc + reference_eval(t, qe, left=form.left) * w
    return acc if q.is_exact else acc.to_float()


def _quotient_sums() -> tuple[QuotientSum, ...]:
    """The close-to-convex f' form, whose three terms share h / q, a random
    sum with a left factor and negative weights, and the same sum without
    its left factor."""
    rng = Random(17)
    h = rand_series(rng, 6)

    def den():
        return SliceSeries.from_coeffs([ONE, *rand_series(rng, 1, scale=1).coeffs])

    terms = tuple(StarQuotient(rand_series(rng, 2), den()) for _ in range(4))
    weights = (F(1, 3), F(1), F(1, 4), F(-2, 7))
    return (close_to_convex_member(3).derivative_form,
            QuotientSum(terms, weights, left=h), QuotientSum(terms, weights))


# i, j, k and two Fibonacci axes of the five-axis grid, every third angle
_AXIS_POINTS = SamplingGrid.default((0.3, 0.7, 0.95), 5, 8).points[::3]
_SIGNED_ZERO_POINTS = (Quaternion(0.25, -0.0, 0.5, 0.0), Quaternion(-0.0, 0.3, -0.0, -0.2),
                       Quaternion(-0.5, 0.0, -0.0, 0.0), Quaternion(0.0, -0.0, 0.0, 0.6))
_EXACT_POINTS = (exact(F(1, 3)), exact(F(-1, 5), F(1, 4), F(-1, 6), F(2, 7)),
                 exact(0, F(3, 5), F(-4, 5) * F(9, 10)), exact(F(1, 2), F(1, 2), F(1, 2)))


class TestSharedLeftFactor:
    """A quotient sum is one quotient: its terms share the left factor,
    folded once into its num, and its value is the exact weighted sum of
    its terms, rounded once."""

    @pytest.mark.parametrize("index", range(3))
    def test_form_matches_the_per_term_references(self, index):
        form = _quotient_sums()[index]
        points = _EXACT_POINTS + _SIGNED_ZERO_POINTS + _AXIS_POINTS
        values = [_outcome(form.eval, q) for q in points]
        # the real denominator is evaluated as it is, never symmetrized
        real, s, _ = form._real_form
        assert real and s == form.den
        assert values == [_outcome(lambda p: _reference_sum_value(form, p), q) for q in points]

    def test_one_left_horner_per_point(self, monkeypatch):
        """h is folded into num, so a point runs one Horner, on the rows of
        s and num: the exact one at an exact point, the fixed-point one, on
        those rows times 2^p, at a float point."""
        form = close_to_convex_member(4, 24).derivative_form
        calls = _count_horners(monkeypatch)
        for q, rows in ((exact(F(1, 3), F(1, 4)), form._integer_parts[4]),
                        (Quaternion(0.2, 0.0, 0.3, 0.0), form._fixed[2])):
            calls.clear()
            form.eval(q)
            assert len(calls) == 1 and calls[0] is rows


@functools.cache
def _memo_sums() -> tuple[QuotientSum, ...]:
    """A sum with a left factor, the same sum without it, and a
    close-to-convex f' form, built once and kept across examples."""
    return _quotient_sums()[1:] + (close_to_convex_member(5, 16).derivative_form,)


@st.composite
def memo_forms(draw):
    if draw(st.booleans()):
        return draw(quotients())
    return _memo_sums()[draw(st.integers(0, 2))]


@st.composite
def slice_classes(draw):
    """The points x + y e of one (r, theta), e = ±i, ±j, ±k, as floats and
    their exact twins, with a few signed-zero copies of the float points."""
    coord = st.one_of(signed_zeros, st.floats(-0.68, 0.68).map(lambda t: round(t, 6)))
    x, y = draw(coord), draw(coord)
    out = []
    for axis in (1, 2, 3):
        for s in (y, -y):
            comps = [x, 0.0, 0.0, 0.0]
            comps[axis] = s
            out += [Quaternion(*comps), Quaternion(*comps).to_exact()]
    signs = draw(st.lists(zero_signs, max_size=3))
    return out + [_float_with_signed_zeros(q.to_exact(), sign)
                  for q, sign in zip(out[::2], signs)]


class TestSharedParts:
    """The points of one (r, theta) share the Horner of s and G and the
    guard, whatever their slice axis, sign of zero or mode."""

    @given(memo_forms(), st.lists(slice_classes(), min_size=1, max_size=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cold_and_warm_memo_match_the_reference(self, form, classes, data):
        guards = (None, EvalDomain(1e-3))
        points = [q for cls in classes for q in cls] + [ZERO.to_float()]
        calls = [(q, data.draw(st.sampled_from(guards))) for q in points]
        # one reference per exact point and guard; a float point rounds it once
        expected = {}
        for q, domain in calls:
            key = (q.to_exact(), domain)
            if key not in expected:
                try:
                    expected[key] = reference_eval(form, key[0], domain)
                except DomainError as exc:
                    expected[key] = type(exc)

        def want(q, domain):
            value = expected[q.to_exact(), domain]
            if isinstance(value, type):
                return value
            return _outcome(lambda p: value if p.is_exact else value.to_float(), q)

        def batch(points, domain):
            """The outcomes of one values call: a refused point refuses it."""
            try:
                values = form.values(points, domain)
            except DomainError as exc:
                return type(exc)
            return [_outcome(lambda p: v, q) for q, v in zip(points, values)]

        # per point, then one batch per guard, each in its own order
        for order in (data.draw(st.permutations(calls)), data.draw(st.permutations(calls))):
            for q, domain in order:
                assert _outcome(lambda p: form.eval(p, domain), q) == want(q, domain)
            for domain in guards:
                batch_points = [q for q, d in order if d == domain]
                wants = [want(q, domain) for q in batch_points]
                refused = [w for w in wants if isinstance(w, type)]
                assert batch(batch_points, domain) == (refused[0] if refused else wants)

    def test_stricter_domain_on_a_hit_is_refused(self):
        quot = koebe_quotient(ONE)
        strict = EvalDomain(1e-3)
        # |den^s| = |1 - q|^4: 6.25e-6 at 0.95, 2.2e-4 at 0.93 + 0.1e on each axis
        points = [Quaternion(0.95, 0.0, 0.0, 0.0), Quaternion(0.93, 0.1, 0.0, 0.0),
                  Quaternion(0.93, 0.0, -0.1, 0.0), Quaternion(0.93, 0.0, 0.0, 0.1)]
        points += [q.to_exact() for q in points]
        assert [_outcome(lambda p: v, q) for q, v in zip(points, quot.values(points))] == \
            [_outcome(lambda p: reference_eval(quot, p), q) for q in points]
        with pytest.raises(SingularityError):
            quot.values(points, strict)
        for q in points:
            for evaluate in (lambda p: quot.values([p], strict), lambda p: quot.eval(p, strict)):
                with pytest.raises(SingularityError):
                    evaluate(q)

    @pytest.mark.parametrize("form", [koebe_quotient(ONE), _quotient_sums()[1]],
                             ids=["koebe", "left-sum"])
    def test_evaluation_leaves_no_state(self, form):
        # slice-image: 12 radii by 96 angles on one slice
        points = [UNIT_J.circle_point(2 * math.pi * m / 96, 0.05 + 0.07 * k)
                  for k in range(12) for m in range(96)]
        form.eval(points[0])
        keys = set(form.__dict__)
        for q in points:
            form.eval(q)
        form.values(points)
        assert set(form.__dict__) == keys

    @pytest.mark.parametrize("form", [koebe_quotient(ONE), _quotient_sums()[1]],
                             ids=["koebe", "left-sum"])
    def test_grid_sweep_runs_one_horner_per_class(self, form, monkeypatch):
        """One Horner on s and num per class: the exact one where the growth
        rule keeps the form on the exact path (koebe), else the fixed-point
        one, which certifies every point of these grids."""
        rows = (form._integer_parts[4], form._fixed[2])
        calls = _count_horners(monkeypatch)
        # past 16 angles, and on axes beyond i, j and k
        for grid in (DEFAULT_GRID, SamplingGrid.default(angle_count=32),
                     SamplingGrid.default((0.5, 0.99), 5, 32)):
            calls.clear()
            form.values(grid.points)
            classes = {(scale, w, n2) for scale, w, *_, n2 in map(_integer_point, grid.points)}
            assert sum(coeffs in rows for coeffs in calls) == len(classes)
            if len(grid.units) <= 3:
                assert len(classes) <= len(grid.radii) * len(grid.angles)
            # a left factor is folded into num, so it adds no Horner
            assert len(calls) == len(classes)


def _reprs(value) -> tuple | str:
    """Each component's repr (type, value, sign of zero), or the repr of a
    skipped point's float measure."""
    if type(value) is float:
        return repr(value)
    return tuple(repr(c) for c in (value.w, value.x, value.y, value.z))


def _batch_outcome(values, points) -> list | tuple:
    """The reprs of one values call, or the type and message it raised."""
    try:
        return [_reprs(v) for v in values(points)]
    except DomainError as exc:
        return type(exc), str(exc)


def _point_by_point(evaluate, points) -> list | tuple:
    """The reprs of each point evaluated alone, up to the first that raises,
    whose error type and message stand for the whole batch."""
    out = []
    for q in points:
        try:
            out.append(_reprs(evaluate(q)))
        except DomainError as exc:
            return type(exc), str(exc)
    return out


# outside the ball, on the sphere, at 0, and so near 0 that |q|^2 underflows
_BAD_POINTS = (Quaternion(0.6, 0.6, 0.6, 0.0), exact(F(3, 5), F(4, 5)), ZERO, ZERO.to_float(),
               Quaternion(-0.0, 0.0, -0.0, 0.0), Quaternion(1e-200, 0.0, 0.0, 0.0),
               Quaternion(-0.0, 0.0, 5e-324, 0.0))


@st.composite
def point_batches(draw):
    """Exact and float points, signed zeros, axis and off-axis points, the
    members of up to two slice classes, points of one L and |V|^2 with
    another W, duplicates, and one time in two a bad point, in any order."""
    out = [q for members in draw(st.lists(slice_classes(), max_size=2)) for q in members]
    for q in draw(st.lists(st.one_of(points(), float_points()), max_size=6)):
        out += [q, Quaternion(-q.w, q.z, q.x, q.y)] if draw(st.booleans()) else [q]
    if out:
        out += draw(st.lists(st.sampled_from(out), max_size=3))
    if draw(st.booleans()):
        out.append(draw(st.sampled_from(_BAD_POINTS)))
    return draw(st.permutations(out))


# float windows whose values carry the sign of a zero x: q, and a window
# with zero components, of valuations -1 to 2
_SIGNED_ZERO_WINDOWS = (series([0, 1]).to_float(),) + tuple(
    SliceSeries.from_coeffs([Quaternion(-0.0, 0.5, -0.0, 0.0), Quaternion(1.0, -0.0, 0.0, -0.0)],
                            v) for v in (-1, 0, 1, 2))


@st.composite
def batch_evaluators(draw):
    """(values, eval) of an exact or float window, or of a quotient or a
    quotient sum under the zero guard or a strict one, with or without
    ``skip``."""
    kind = draw(st.sampled_from(("exact-window", "float-window", "signed-zero-window",
                                 "quotient", "sum")))
    if kind.endswith("window"):
        f = (draw(st.sampled_from(_SIGNED_ZERO_WINDOWS)) if kind == "signed-zero-window"
             else draw(exact_windows()))
        f = f.to_float() if kind == "float-window" else f
        return f.values, f.eval
    form = draw(quotients() if kind == "quotient" else mixed_sums())
    domain, skip = draw(st.sampled_from((None, EvalDomain(1e-3)))), draw(st.booleans())
    return (lambda qs: form.values(qs, domain, skip),
            lambda q: form.values((q,), domain, skip)[0])


@pytest.mark.fuzz
class TestPointBatch:
    """A batch splits each point into its slice class once, and evaluating
    it gives what evaluating its points one by one gives."""

    @given(batch_evaluators(), point_batches())
    @settings(deadline=None)
    def test_batch_values_are_the_point_values(self, evaluators, points):
        values, evaluate = evaluators
        want = _point_by_point(evaluate, points)
        batch = PointBatch(points)
        # a list is wrapped in a batch; a batch is read again from its plans
        for given_points in (points, batch, batch):
            assert _batch_outcome(values, given_points) == want

    def test_points_differing_in_the_sign_of_a_zero_real_part_do_not_share_a_class(self):
        """f(q) = q at -0.0 + 0.5i has real part -0.0; a batch that meets
        0.0 + 0.5i first must not hand it that point's Horners."""
        f = series([0, 1]).to_float()
        points = [Quaternion(0.0, 0.5, 0.0, 0.0), Quaternion(-0.0, 0.5, 0.0, 0.0)]
        assert [_reprs(v) for v in f.values(points)] == [_reprs(f.eval(q)) for q in points]
        assert repr(f.values(points)[1].w) == "-0.0"

    def test_each_path_forms_only_its_own_plan(self):
        exact_points = PointBatch([exact(F(1, 3)), exact(0, F(1, 4), F(1, 5))])
        float_points_ = PointBatch([q.to_float() for q in exact_points])
        window = koebe(ONE, 12)
        window.values(exact_points)
        koebe_quotient(ONE).values(float_points_)
        assert "_float_plan" not in exact_points.__dict__
        assert "_float_plan" not in float_points_.__dict__
        window.to_float().values(float_points_)
        plans = dict(float_points_.__dict__)
        assert set(plans) == {"_exact_plan", "_float_plan"}
        window.values(float_points_)
        koebe_quotient(ONE).values(float_points_)
        assert all(float_points_.__dict__[name] is plan for name, plan in plans.items())

    def test_a_suite_all_pass_splits_each_grid_point_once(self, tmp_path, monkeypatch):
        """Every sweep of the pass's grid reads one split of its points, and
        the work per class is what it was: the counts of one seed-7 pass."""
        from srgft import series as series_module
        from srgft.cli import main
        splits, parts = Counter(), Counter()
        monkeypatch.setattr(series_module, "_integer_point",
                            lambda q: splits.update([(q.is_exact, q)]) or _integer_point(q))
        monkeypatch.setattr(series_module, "_plane_horner",
                            lambda *args: parts.update(["plane"]) or _plane_horner(*args))
        for name in ("_shared_part", "_fixed_part"):
            method = getattr(StarQuotient, name)
            monkeypatch.setattr(StarQuotient, name, lambda self, *args, name=name, method=method:
                                parts.update([name]) or method(self, *args))
        assert main(["check", "--suite", "all", "--seed", "7",
                     "--out", str(tmp_path / "report.json")]) == 0
        assert all(splits[False, q] == 1 for q in DEFAULT_GRID.points)
        # beyond the 220 grid points: the 11 points -r of the convex covering
        # check, and one-point calls at j/2 (Schwarz-Pick's f and f', and
        # three Rogosinski functions) and at 1/2 (the same three functions)
        assert {q: n for (_, q), n in splits.items() if n > 1} == {exact(0, 0, F(1, 2)): 5,
                                                                   exact(F(1, 2)): 3}
        assert (sum(splits.values()), len(splits)) == (239, 233)
        assert parts == {"_shared_part": 1782, "_fixed_part": 261, "plane": 16916}


def _exact_twin(form: StarQuotient) -> StarQuotient:
    """The same form with the fixed-point path off: every point takes the
    exact integer path, the oracle of the fixed one."""
    twin = copy.copy(form)
    twin.__dict__["_fixed"] = None
    return twin


def _batch(form: StarQuotient, points, domain, skip) -> list | type:
    """Each outcome of one values call, a skipped point's float measure by
    its repr, or the error type the call raised."""
    try:
        values = form.values(points, domain, skip)
    except DomainError as exc:
        return type(exc)
    return [repr(v) if type(v) is float else _outcome(lambda p: v, q)
            for q, v in zip(points, values)]


tiny_floats = st.sampled_from((5e-324, -5e-324, 2.4e-287, -1e-300, 3e-310, 1e-200,
                               2.2250738585072014e-308))


@st.composite
def float_points(draw):
    """Float points of the ball: dyadic, near one, with signed zeros, on an
    axis, and with one tiny or subnormal component."""
    kind = draw(st.sampled_from(("dyadic", "near-one", "signed-zero", "axis", "tiny")))
    if kind == "dyadic":
        return Quaternion(*draw(st.tuples(*[ball_floats] * 4)))
    if kind == "near-one":
        u = random_exact_unit(Random(draw(st.integers(0, 10 ** 6))))
        return (u * (1 - F(1, draw(st.integers(2, 10 ** 6))))).to_float()
    comps = [draw(st.one_of(signed_zeros, ball_floats)) for _ in range(4)]
    if kind == "axis":
        comps[1:] = [0.0, 0.0, 0.0]
        comps[draw(st.integers(1, 3))] = draw(st.floats(-0.68, 0.68))
        comps[0] = draw(st.floats(-0.68, 0.68))
    elif kind == "tiny":
        comps[draw(st.integers(0, 3))] = draw(tiny_floats)
    return _float_with_signed_zeros(Quaternion(*comps).to_exact(), draw(zero_signs))


def _exact_path_points(monkeypatch) -> list:
    """The float points that take the exact integer path from now on: each
    rounds its exact value by `_float_row` once."""
    from srgft import series as series_module
    calls = []
    monkeypatch.setattr(series_module, "_float_row",
                        lambda row, den: calls.append(row) or _float_row(row, den))
    return calls


def _adversarial_polynomial(rng: Random, terms: int) -> StarQuotient:
    """num / 1 for a real integer num whose fixed Horner at 8 bits and the
    point 255/256 drops 255/256 of a unit at every rounding step: the low
    byte of each coefficient makes the next accumulator 1 mod 256, and
    (255 a) >> 8 then drops (255 a mod 256) / 256.  The low byte of c_1 is
    random instead, which sets the last accumulator's fraction, so the
    value of about 2^51 falls anywhere between two floats."""
    coeffs, t = [], 0
    for n in range(terms - 1, -1, -1):
        low = rng.getrandbits(8) if n == 1 else ((255 * t) >> 8) - 1
        c = rng.getrandbits(39) << 8 | low % 256
        coeffs.append(c)
        t = (255 * (t + (c << 8))) >> 8
    return StarQuotient(series(coeffs[::-1]), SliceSeries.one())


def _one_step_quotient(rng: Random, in_den: bool) -> StarQuotient:
    """c_0 + c_1 q over 1, or 1 over it, for random integers c_0 in
    [2^48, 2^49) and |c_1| < 2^47: one part takes a single Horner step.
    At a point w / 2^40 with 8 fractional bits that step floors, and its
    error, below one unit of 2^-8, is up to a sixteenth of an ulp of the
    value, so a bound one step short, 0, certifies wrong floats."""
    part = series([rng.randrange(2 ** 48, 2 ** 49), rng.randrange(-2 ** 47, 2 ** 47)])
    one = SliceSeries.one()
    return StarQuotient(one, part) if in_den else StarQuotient(part, one)


@pytest.mark.fuzz
class TestFixedPath:
    """At a float point the class part runs in fixed point at p bits, and a
    component is returned only where its proven error interval rounds to
    one float; every other point takes the exact integer path.  The values
    are the exact path's, bit for bit."""

    @given(quotients(), st.lists(float_points(), min_size=1, max_size=6),
           st.sampled_from((None, EvalDomain(1e-3), EvalDomain(0.5))), st.booleans(),
           st.booleans())
    @settings(deadline=None)
    def test_matches_the_exact_path(self, quot, qs, domain, skip, every_form):
        """`every_form` lets the small forms that the growth rule keeps on
        the exact path take the fixed path too."""
        from srgft import series as series_module
        with pytest.MonkeyPatch.context() as patch:
            if every_form:
                patch.setattr(series_module, "_FIXED_GROWTH", 0)
            got = _batch(quot, qs, domain, skip)
        assert got == _batch(_exact_twin(quot), qs, domain, skip)

    def test_tiny_components_certify(self, monkeypatch):
        """The class Horner reads the exact point and the tail multiplies by
        V exactly, so a tiny component keeps its relative accuracy and no
        point takes the exact path."""
        form = caratheodory_mixture_form(5)
        points = [Quaternion(2.4e-287, 0.5, 0.0, 0.0), Quaternion(0.25, 5e-324, 0.5, 0.0)]
        want = _batch(_exact_twin(form), points, None, False)
        calls = _exact_path_points(monkeypatch)
        assert _batch(form, points, None, False) == want
        assert not calls

    @pytest.mark.parametrize("u", [ONE, K], ids=["1", "k"])
    def test_structural_zeros_certify(self, u, monkeypatch):
        """A component whose inputs are all exact zeros is an exact 0 with
        error 0, so koebe(1) and koebe(k) certify the whole default grid.
        The growth rule keeps these small forms on the exact path; here
        they take the fixed one."""
        from srgft import series as series_module
        monkeypatch.setattr(series_module, "_FIXED_GROWTH", 0)
        form = koebe_quotient(u)
        want = _batch(_exact_twin(form), DEFAULT_GRID.points, None, False)
        calls = _exact_path_points(monkeypatch)
        assert _batch(form, DEFAULT_GRID.points, None, False) == want
        assert not calls

    def test_class_c_derivative_certifies_the_default_grid(self, monkeypatch):
        form = close_to_convex_member(7).derivative_form
        want = _batch(_exact_twin(form), DEFAULT_GRID.points, None, False)
        calls = _exact_path_points(monkeypatch)
        assert _batch(form, DEFAULT_GRID.points, None, False) == want
        assert len(calls) <= 1

    def test_exact_points_never_take_the_fixed_path(self, monkeypatch):
        form = close_to_convex_member(7).derivative_form
        calls = _count_horners(monkeypatch)
        form.values([q.to_exact() for q in DEFAULT_GRID.points[:12]])
        assert calls and all(coeffs is form._integer_parts[4] for coeffs in calls)

    def test_low_precision_certifies_only_exact_values(self, monkeypatch):
        """At 8 fractional bits the certificate refuses what the error bound
        cannot settle, and every value is still the exact path's.  The
        polynomials drop almost a unit at each rounding step, so a bound
        half as large as the proven one certifies wrong floats here; on
        the one-step parts of num and of den, so does each part's bound
        one step short."""
        from srgft import series as series_module
        monkeypatch.setattr(series_module, "_fixed_precision", lambda *parts: 8)

        def certified(form, point) -> bool:
            want = _batch(_exact_twin(form), point, None, False)
            calls = _exact_path_points(monkeypatch)
            assert _batch(form, point, None, False) == want
            return not calls

        rng = Random(25)
        point = [Quaternion(255 / 256, 0.0, 0.0, 0.0)]
        assert sum(certified(_adversarial_polynomial(rng, 32), point) for _ in range(200))
        for in_den in (False, True):
            forms = [_one_step_quotient(rng, in_den) for _ in range(200)]
            points = [[Quaternion(rng.randrange(2 ** 39, 2 ** 40) / 2 ** 40, 0.0, 0.0, 0.0)]
                      for _ in forms]
            assert sum(map(certified, forms, points))
        # random quotients and points too
        for seed in range(40):
            quot = _quotient(QUOTIENT_KINDS[seed % len(QUOTIENT_KINDS)], seed)
            points = [Quaternion(0.5, 0.25, 0.0, 0.0), Quaternion(-0.375, 0.0, 0.0, 0.5),
                      Quaternion(0.3, -0.2, 0.1, 0.4), Quaternion(0.25, 5e-324, 0.5, 0.0)]
            assert _batch(quot, points, None, False) == \
                _batch(_exact_twin(quot), points, None, False)


@st.composite
def kernel_points(draw):
    """(e, W, |V|^2) of a point (W + V) / 2^e of the ball: a float point,
    with tiny and subnormal components among them, or a dyadic point with
    e up to 1126 whose components take any size down to 2^-e."""
    if draw(st.booleans()):
        scale, w, *_, n2 = _integer_point(draw(float_points()))
        return scale.bit_length() - 1, w, n2
    e = draw(st.integers(0, 1126))
    # each component below 2^(e-1), so W^2 + |V|^2 < 4^e
    w, v1, v2 = (draw(st.integers(-(1 << bits) + 1, (1 << bits) - 1))
                 for bits in [draw(st.integers(0, max(e - 1, 0))) for _ in range(3)])
    return e, w, v1 * v1 + v2 * v2


@pytest.mark.fuzz
class TestFixedHorner:
    """The lemma of the fixed-point path: `_horner_fixed` at the exact point
    is the complex Horner in z = (W + i|V|) / 2^e with one floor per step,
    and a column's leading zero rows step exactly, so each column's A and B
    lie within `_horner_errors(n)` of the exact sums, n the column's rows
    from its first nonzero row down.  The per-part bounds of
    `StarQuotient._fixed` rest on this."""

    @given(st.lists(st.tuples(*[st.integers(-2 ** 64, 2 ** 64)] * 5), min_size=1, max_size=12),
           st.tuples(*[st.integers(0, 12)] * 5), st.integers(1, 200), kernel_points())
    @settings(deadline=None)
    def test_within_the_proven_bound(self, rows, leading, p, point):
        e, w, n2 = point
        # column c starts with leading[c] zero rows, all of it where that is every row
        rows = tuple(tuple(0 if n < zeros else c << p for c, zeros in zip(row, leading))
                     for n, row in enumerate(rows))
        a_fixed, b_fixed = _horner_fixed(rows, e, w, n2)
        # the pair (a, b) stands for a + i|U| b, U = V / 2^e
        x, u2 = F(w, 1 << e), F(n2, 1 << 2 * e)
        ratios = [0.0]
        for column, a_got, b_got in zip(zip(*rows), a_fixed, b_fixed):
            a, b = F(column[0]), F(0)
            for c in column[1:]:
                a, b = x * a - u2 * b + c, a + x * b
            if not any(column):
                assert a_got == b_got == 0
                continue
            first = next(n for n, c in enumerate(column) if c)
            da, db = _horner_errors(len(column) - first)
            assert abs(a_got - a) <= da and abs(b_got - b) <= db
            ratios += [float(abs(a_got - a) / da) if da else 0.0,
                       float(abs(b_got - b) / db) if db else 0.0]
        target(max(ratios), label="error / bound")


class TestQuotientSum:
    def test_every_term_needs_one_weight(self):
        koebe_1, mobius_half = koebe_quotient(ONE), mobius_quotient(exact(F(1, 2)))
        # 3/4 + 1/5 at 1/3
        assert QuotientSum((koebe_1, mobius_half), (F(1), F(1))).eval(exact(F(1, 3))) == \
            exact(F(19, 20))
        for form in (lambda: QuotientSum((koebe_1, mobius_half), (F(1),)),
                     lambda: QuotientSum((koebe_1,), (F(1, 2), F(1, 2))),
                     lambda: QuotientSum((), ())):
            with pytest.raises(DomainError):
                form()
        # a term may itself be a sum with a left factor, folded into its num
        inner = with_left(koebe_1, series([1, I]))
        q = exact(F(1, 5), F(1, 4), F(-1, 6))
        assert QuotientSum((mobius_half, inner), (F(1), F(1))).eval(q) == \
            mobius_half.eval(q) + reference_eval(koebe_1, q, left=series([1, I]))

    def test_sum_is_one_quotient_over_a_real_denominator(self):
        form = _quotient_sums()[2]
        assert all(c.is_real() for c in form.den.coeffs)
        assert form.to_series(24) == functools.reduce(
            lambda a, b: a + b, (t.to_series(24).scale(w)
                                 for w, t in zip(form.weights, form.terms)))

    def test_a_real_term_den_enters_once(self):
        """(1 - q)/(1 + q) enters with its real den 1 + q, not (1 + q)^2,
        so with the i-extremal, over (1 - q i)^s of degree 2, the den has
        degree 3."""
        form = QuotientSum((caratheodory_extremal_quotient(-ONE),
                            caratheodory_extremal_quotient(I)), (F(1, 2), F(1, 2)))
        assert form.den.degree == 3
        q = exact(F(1, 3), F(1, 4), F(-1, 5))
        assert form.eval(q) == _reference_sum_value(form, q)


def _sum_term(kind: str, rng: Random) -> StarQuotient:
    """A term of a quotient sum: over a real den, over a den that is not
    real, with float parts, or a nested sum with a left factor."""
    # |den - 1| < 1 in the ball, so den^s vanishes nowhere there
    real_den = series([1, F(rng.randint(-4, 4), 10), F(rng.randint(-4, 4), 10)])
    den = SliceSeries.from_coeffs([ONE, *rand_series(rng, 1, scale=1).coeffs])
    num = rand_series(rng, 2, valuation=rng.randint(0, 1))
    if kind == "real":
        return StarQuotient(num, real_den)
    if kind == "non-real":
        return StarQuotient(num, den)
    if kind == "float":
        return StarQuotient(num.to_float(), (den if rng.random() < 0.5 else real_den).to_float())
    return QuotientSum((StarQuotient(num, real_den), StarQuotient(rand_series(rng, 1), den)),
                       (F(rng.randint(-9, 9), 7), F(1)), left=rand_series(rng, 2))


@st.composite
def mixed_sums(draw):
    rng = Random(draw(st.integers(0, 10 ** 6)))
    kinds = draw(st.lists(st.sampled_from(("real", "non-real", "float", "nested")),
                          min_size=1, max_size=4))
    terms = [_sum_term(kind, rng) for kind in kinds]
    return QuotientSum(terms, [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in terms])


def _exact_window(quot: StarQuotient, degree: int) -> SliceSeries:
    """The window of quot's exact parts: a float part is taken exactly."""
    return StarQuotient(quot.num.to_exact(), quot.den.to_exact()).to_series(degree)


@pytest.mark.fuzz
class TestSumOfRealForms:
    """A quotient sum over its terms' real forms s_k^(-1) G_k is the
    weighted sum of its terms, as a window and at every point."""

    @given(mixed_sums(), st.integers(0, 24))
    @settings(deadline=None)
    def test_window_is_the_weighted_sum_of_the_term_windows(self, form, degree):
        assert form.to_series(degree) == functools.reduce(
            SliceSeries.__add__, (_exact_window(t, degree).scale(w)
                                  for w, t in zip(form.weights, form.terms)))

    @given(mixed_sums(), st.lists(points(), min_size=1, max_size=4))
    @settings(deadline=None)
    def test_values_match_the_per_term_references(self, form, qs):
        # each component's repr: its type, value and sign of zero
        got, want = form.values(qs), [_reference_sum_value(form, q) for q in qs]
        assert [[repr(c) for c in (v.w, v.x, v.y, v.z)] for v in got] == \
            [[repr(c) for c in (v.w, v.x, v.y, v.z)] for v in want]


# a nonzero coefficient that rounds to 0.0 as a float
TINY = Quaternion(F(1, 10 ** 400), 0, 0, 0)


@st.composite
def exact_windows(draw):
    """Exact windows of valuation -3..3 and degree 0..48 above it, with
    interior zero coefficients and a leading one that may underflow."""
    rng = Random(draw(st.integers(0, 10 ** 6)))
    zeros = draw(st.sampled_from((0.0, 0.3, 0.7)))
    den = draw(st.sampled_from((1, 8, 12, 105)))
    lead = draw(st.sampled_from((ONE, ONE, TINY)))
    coeffs = [lead if i == 0 else
              ZERO if rng.random() < zeros else
              Quaternion(*(F(rng.randint(-9, 9), den) for _ in range(4)))
              for i in range(draw(st.integers(1, 49)))]
    return SliceSeries.from_coeffs(coeffs, draw(st.integers(-3, 3)))


@st.composite
def exact_ball_points(draw, zero=True):
    """Zero, real, dyadic, rational and |q| = 1 - 1/n exact points."""
    kind = draw(st.sampled_from(("zero", "real", "dyadic", "rational", "near-one")
                                if zero else ("real", "dyadic", "rational", "near-one")))
    if kind == "zero":
        return ZERO
    if kind == "real":
        return Quaternion.from_real(draw(ball_rationals))
    if kind == "dyadic":
        return Quaternion(*(F(draw(st.integers(-2 ** 20, 2 ** 20)), 2 ** 22) for _ in range(4)))
    if kind == "rational":
        return Quaternion(*draw(st.tuples(*[ball_rationals] * 4)))
    u = random_exact_unit(Random(draw(st.integers(0, 10 ** 6))))
    return u * (1 - F(1, draw(st.integers(2, 10 ** 6))))


def _float_with_signed_zeros(q: Quaternion, signs) -> Quaternion:
    """q in float mode, its zero components given the signs drawn."""
    return Quaternion(*(float(c) or math.copysign(0.0, s)
                        for c, s in zip((q.w, q.x, q.y, q.z), signs)))


zero_signs = st.tuples(*[st.sampled_from((1.0, -1.0))] * 4)


class TestSeriesEval:
    @given(exact_windows(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_exact_matches_the_fraction_horner(self, f, data):
        q = data.draw(exact_ball_points(zero=f.valuation >= 0))
        assume(f.valuation >= 0 or not q.is_zero())
        # the reprs compare the Fraction type of every component too
        assert _outcome(f.eval, q) == _outcome(lambda p: reference_series_eval(f, p), q)

    @given(exact_windows(), exact_ball_points(zero=False), zero_signs, zero_signs,
           st.sampled_from(("float-window", "float-point", "both-float")))
    @settings(max_examples=200, deadline=None)
    def test_mixed_modes_match_the_promoted_horner_bit_for_bit(self, f, q, window_signs,
                                                               point_signs, pairing):
        if pairing != "float-point":
            f = SliceSeries(f.valuation, tuple(_float_with_signed_zeros(c, window_signs)
                                               for c in f.coeffs))
        if pairing != "float-window":
            q = _float_with_signed_zeros(q, point_signs)
        assume(f.valuation >= 0 or not q.is_zero())
        # every pairing runs the float kernel on the float window at the float point
        assert _outcome(f.eval, q) == _outcome(lambda p: f.to_float().eval(p.to_float()), q)

    @given(exact_windows(), zero_signs)
    @settings(max_examples=30, deadline=None)
    def test_laurent_window_is_singular_at_zero(self, f, signs):
        assume(f.coeffs[0] != TINY)  # its float window would start higher
        f = f.shift(-1 - max(f.valuation, 0))
        for window in (f, f.to_float()):
            for zero in (ZERO, _float_with_signed_zeros(ZERO, signs)):
                with pytest.raises(SingularityError):
                    window.eval(zero)

    @pytest.mark.parametrize("q", [exact(F(9999999999999999999, 10 ** 19)),
                                   exact(F(3, 5), F(4, 5) - F(1, 10 ** 20))])
    def test_unit_ball_test_is_exact(self, q):
        assert float(q.norm_sq()) == 1.0 and q.norm_sq() < 1
        f = series([1, 2, 3], valuation=1)
        assert f.eval(q) == reference_series_eval(f, q)
        assert koebe_quotient(ONE).eval(q) == reference_eval(koebe_quotient(ONE), q)


# rational points of the unit 2-sphere, up to signs and order
_AXES = ((1, 0, 0, 1), (3, 4, 0, 5), (1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9))


@st.composite
def imaginary_units(draw):
    a, b, c, n = draw(st.sampled_from(_AXES))
    comps = list(draw(st.permutations((a, b, c))))
    signs = draw(st.tuples(*[st.sampled_from((-1, 1))] * 3))
    return Quaternion(0, *(F(s * v, n) for s, v in zip(signs, comps)))


@functools.cache
def _exact_forms() -> tuple[StarQuotient, ...]:
    """Every built-in kind of exact point form, built once."""
    rng = Random(3)
    u, w = random_exact_unit(rng), random_exact_unit(rng)
    return (koebe_quotient(u),
            mobius_quotient(u * F(1, 2)),
            caratheodory_mixture_form(5),
            rogosinski_extremal_form(u * F(5, 8), w * F(3, 4)),
            close_to_convex_member(2).derivative_form)


@functools.cache
def _form_derivative(index: int) -> StarQuotient:
    return _exact_forms()[index].derivative()


class TestRepresentationFormula:
    @given(st.integers(0, 4), imaginary_units(), imaginary_units(),
           st.fractions(F(-3, 5), F(3, 5), max_denominator=12),
           st.fractions(F(1, 12), F(3, 5), max_denominator=12))
    @settings(max_examples=60, deadline=None)
    def test_one_slice_determines_every_slice(self, index, i_unit, j_unit, x, y):
        """f(x+yJ) = 1/2 (1-JI) f(x+yI) + 1/2 (1+JI) f(x-yI), exactly."""
        f = _exact_forms()[index].eval
        ji = j_unit * i_unit
        lhs = f(ONE * x + j_unit * y)
        rhs = ((ONE - ji) * f(ONE * x + i_unit * y) +
               (ONE + ji) * f(ONE * x - i_unit * y)) * F(1, 2)
        assert lhs.is_exact
        assert lhs == rhs


class TestSampledLaws:
    def test_quotient_relation(self):
        # f^(-*) star g evaluated as a truncated window must match the
        # pointwise transform route at every grid point
        rng = Random(21)
        for _ in range(4):
            f_coeffs = [ONE]
            for n in range(1, 5):
                f_coeffs.append(random_exact_unit(rng) * F(rng.randint(0, 10), 800))
            f = SliceSeries.from_coeffs(f_coeffs).pad_to(32)
            g = rand_series(rng, 4, scale=2).pad_to(32)
            lhs_series = star_mul(star_reciprocal(f), g).to_float()
            ff, gf = f.to_float(), g.to_float()
            points = DEFAULT_GRID.points[::5]
            for q, t in zip(points, quotient_transform(f, points)):
                rhs = ff.eval(t).inverse() * gf.eval(t)
                assert abs(lhs_series.eval(q) - rhs) < 1e-9

    def test_slice_preserving_collapse(self):
        # real-coefficient f: the full polynomial star product evaluates
        # to the pointwise product
        rng = Random(33)
        f = series([1, F(1, 3), F(-1, 4), F(1, 8)])
        g = rand_series(rng, 3)
        prod = full_star_mul(f, g).to_float()
        ff, gf = f.to_float(), g.to_float()
        for q in DEFAULT_GRID.points[::9]:
            assert abs(prod.eval(q) - ff.eval(q) * gf.eval(q)) < 1e-10

    def test_derivative_vs_finite_difference(self):
        rng = Random(44)
        f = rand_series(rng, 8, valuation=0).to_float()
        df = slice_derivative(f)
        h = 1e-5
        for r in (0.3, 0.6):
            for unit_axis in (I, J):
                x, y = r * 0.6, r * 0.8
                q = Quaternion(x, 0.0, 0.0, 0.0) + unit_axis.to_float() * y
                qp = Quaternion(x + h, 0.0, 0.0, 0.0) + unit_axis.to_float() * y
                qm = Quaternion(x - h, 0.0, 0.0, 0.0) + unit_axis.to_float() * y
                fd = (f.eval(qp) - f.eval(qm)) * (1.0 / (2 * h))
                exact_d = df.eval(q)
                assert abs(fd - exact_d) < 1e-6 * max(1.0, abs(exact_d))

    def test_convex_combination_identity(self):
        # coefficients confined to the i-slice
        f = mobius(exact(0, F(1, 2)), 24).to_float()
        unit_i = I.to_float()
        for J_axis in (J.to_float(), (J + K).to_float() * (1 / math.sqrt(2))):
            ip = -((unit_i * J_axis).w)
            lam_plus, lam_minus = (1 + ip) / 2, (1 - ip) / 2
            for r in (0.3, 0.7):
                for theta in (0.4, 2.0):
                    qj = Quaternion(r * math.cos(theta), 0, 0, 0) + J_axis * (r * math.sin(theta))
                    qi_plus = Quaternion(r * math.cos(theta), 0, 0, 0) + unit_i * (r * math.sin(theta))
                    qi_minus = Quaternion(r * math.cos(theta), 0, 0, 0) - unit_i * (r * math.sin(theta))
                    lhs = float(f.eval(qj).norm_sq())
                    rhs = lam_plus * float(f.eval(qi_plus).norm_sq()) + \
                        lam_minus * float(f.eval(qi_minus).norm_sq())
                    assert abs(lhs - rhs) < 1e-9


def _component_types(s: SliceSeries) -> set:
    return {type(v) for c in s.coeffs for v in (c.w, c.x, c.y, c.z)}


def _windows_from(u: Quaternion) -> list[SliceSeries]:
    """Every window built from the unit u (the Koebe quotient's numerator
    is the exact q in both modes, so only its denominator is listed)."""
    half = u * F(1, 2)
    lin = SliceSeries.from_coeffs([ONE, -u])
    rogo = rogosinski_extremal_form(half, u)
    quotients = (caratheodory_extremal_quotient(u), mobius_quotient(half), rogo)
    return ([koebe(u, 8), koebe_quotient(u).den, caratheodory_extremal(u, 8),
             reference_at_exact(reference_geometric, half, 8), mobius(half, 8),
             rogosinski_extremal(half, u, 8),
             integrate_radial(koebe(u, 8)), symmetrize(koebe(u, 8)),
             star_reciprocal(lin.pad_to(8))]
            + [part for quot in quotients for part in (quot.num, quot.den)])


class TestScalarMode:
    """Constants are written exactly; the operands alone decide the mode."""

    @pytest.mark.parametrize("u, kind", [
        (Quaternion(0, F(3, 5), F(4, 5), 0), F),
        (Quaternion(0.0, 0.6, 0.8, 0.0), float),
    ], ids=["exact", "float"])
    def test_every_component_keeps_the_operand_mode(self, u, kind):
        for window in _windows_from(u):
            assert _component_types(window) == {kind}

    float_quats = st.builds(Quaternion, *[st.floats(-4, 4, allow_nan=False)] * 4)

    @given(st.lists(float_quats, min_size=1, max_size=8), st.integers(0, 3))
    @settings(max_examples=80)
    def test_integrate_matches_float_constants_bit_for_bit(self, coeffs, valuation):
        """A float window's primitive is the exact one, rounded once."""
        g = SliceSeries.from_coeffs(coeffs, valuation)
        want = SliceSeries(g.valuation + 1, tuple(
            Quaternion(*(F(v) / (n + 1) for v in (c.w, c.x, c.y, c.z))).to_float()
            for n, c in g.terms()))
        assert _repr_window(integrate_radial(g)) == _repr_window(want)

    @given(st.lists(float_quats, min_size=1, max_size=8), st.integers(-2, 3))
    @settings(max_examples=80)
    def test_symmetrize_matches_float_constants_bit_for_bit(self, coeffs, valuation):
        """A float window's symmetrization is the exact one, rounded once."""
        f = SliceSeries.from_coeffs(coeffs, valuation)
        assert _repr_window(symmetrize(f)) == _repr_window(_rounded(reference_symmetrize, f))


@st.composite
def kernel_windows(draw, max_length=20, valuations=(-3, 3), real=False):
    """Exact windows for the series kernels: the zero series one time in
    eight, else zero, one or two leading zero coefficients (which the
    window folds into its valuation), a body with interior zeros and
    mixed denominators, and zero, one or two trailing zeros."""
    if draw(st.integers(0, 7)) == 0:
        return SliceSeries.zero(draw(st.integers(0, max_length - 1)))
    rng = Random(draw(st.integers(0, 10 ** 6)))
    den = draw(st.sampled_from((1, 6, 8, 105)))
    zeros = draw(st.sampled_from((0.0, 0.3)))

    def coefficient():
        if rng.random() < zeros:
            return ZERO
        parts = [F(rng.randint(-9, 9), rng.choice((1, den, 3 * den))) for _ in range(4)]
        return Quaternion.from_real(parts[0] or 1) if real else Quaternion(*parts)

    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    body = [coefficient() for _ in range(draw(st.integers(1, max_length - 4)))]
    return SliceSeries.from_coeffs([ZERO] * lead + body + [ZERO] * trail,
                                   draw(st.integers(*valuations)))


def _same_exact_window(got: SliceSeries, want: SliceSeries) -> None:
    assert (got.valuation, got.degree) == (want.valuation, want.degree)
    assert got == want
    assert _component_types(got) == {F}


inner_windows = kernel_windows(valuations=(1, 3), real=True)


def _rounded(reference, *windows: SliceSeries) -> SliceSeries:
    """The Fraction reference run on the exact values of the windows, each
    component rounded once to float."""
    return reference(*(w.to_exact() for w in windows)).to_float()


class TestIntegerKernels:
    """The integer kernels agree with the Quaternion loops they replace on
    exact windows, coefficient for coefficient; a float or mixed operand
    gives the exact result of its exact values, rounded once, bit for bit."""

    @given(kernel_windows(), kernel_windows())
    @settings(max_examples=150, deadline=None)
    def test_star_mul_matches_the_reference(self, f, g):
        _same_exact_window(star_mul(f, g), reference_star_mul(f, g))

    @given(kernel_windows(real=True), kernel_windows(), kernel_windows(real=True),
           st.sampled_from(("exact", "real", "other", "all")), zero_signs)
    @settings(max_examples=150, deadline=None)
    def test_star_mul_with_a_real_operand_matches_the_reference(self, r, g, s, floats, signs):
        """A real operand on the left, on the right and on both sides:
        Laurent, zero and truncated exact windows agree with the reference,
        and a float or mixed pair gives the exact product rounded once, bit
        for bit."""
        def to_float(w):
            return SliceSeries(w.valuation, tuple(_float_with_signed_zeros(c, signs)
                                                  for c in w.coeffs))

        if floats in ("real", "all"):
            r, s = to_float(r), to_float(s)
        if floats in ("other", "all"):
            g = to_float(g)
        assert r.is_real() and s.is_real()
        for a, b in ((r, g), (g, r), (r, s)):
            if a.is_exact and b.is_exact:
                _same_exact_window(star_mul(a, b), reference_star_mul(a, b))
            else:
                assert _repr_window(star_mul(a, b)) == \
                    _repr_window(_rounded(reference_star_mul, a, b))

    @pytest.mark.parametrize("length", [1, 2, 7, 20])
    def test_a_real_operand_takes_one_product_per_component_and_term(self, length,
                                                                    monkeypatch):
        """Real times quaternion windows of length L take 4 L(L+1)/2 integer
        products, and real times real L(L+1)/2: the general path takes 16
        per pair of terms."""
        import srgft.series as series_module
        rng = Random(length)
        real = SliceSeries.from_coeffs([exact(F(rng.randint(1, 9), rng.randint(1, 4)))
                                        for _ in range(length)])
        quat = SliceSeries.from_coeffs((exact(1, F(1, 2), -1, 2),)
                                       + rand_series(rng, length - 1).coeffs[1:])
        calls = []

        def counting(a, b):
            calls.append(None)
            return a * b

        monkeypatch.setattr(series_module, "mul", counting)
        pairs = length * (length + 1) // 2
        for a, b, products in ((real, quat, 4 * pairs), (quat, real, 4 * pairs),
                               (real, real, pairs)):
            calls.clear()
            got = star_mul(a, b)
            assert len(calls) == products
            _same_exact_window(got, reference_star_mul(a, b))

    @given(kernel_windows())
    @settings(max_examples=150, deadline=None)
    def test_symmetrize_matches_the_reference(self, f):
        _same_exact_window(symmetrize(f), reference_symmetrize(f))

    @given(kernel_windows(max_length=14))
    @settings(max_examples=80, deadline=None)
    def test_star_reciprocal_matches_the_reference(self, f):
        assume(not f.is_zero())
        _same_exact_window(star_reciprocal(f), reference_star_reciprocal(f))

    @given(kernel_windows(max_length=14, valuations=(0, 3)), inner_windows)
    @settings(max_examples=80, deadline=None)
    def test_compose_matches_the_reference(self, f, w):
        _same_exact_window(compose_slice_preserving(f, w),
                           reference_compose_slice_preserving(f, w))

    @given(kernel_windows(max_length=8), kernel_windows(max_length=8, valuations=(0, 1)),
           st.sampled_from((ONE, exact(-1), exact(F(3, 7)), exact(F(1, 2), F(-2, 3), 0, F(5, 4)),
                            exact(0, 1, F(1, 3), -2))),
           st.one_of(st.none(), kernel_windows(max_length=6, valuations=(-2, 2))),
           st.integers(0, 12), st.sampled_from(("exact", "num", "den", "left", "all")),
           zero_signs)
    @settings(max_examples=120, deadline=None)
    def test_to_series_matches_the_reference(self, num, den, d0, left, degree, floats, signs):
        """The recurrence against the reciprocal and products of the
        reference: d_0 = 1, real or not, den of valuation 0..3 and a
        left factor on a one-term sum, each part with trailing zeros.  A
        float part gives the window of the exact values rounded once, bit
        for bit, and a sum, which takes every part exactly, an exact one."""
        assume(not den.is_zero())
        den = SliceSeries.from_coeffs((d0,) + den.coeffs[1:], den.valuation)
        parts = {"num": num, "den": den, "left": left}
        for name in parts:
            if parts[name] is not None and floats in (name, "all"):
                parts[name] = SliceSeries(parts[name].valuation, tuple(
                    _float_with_signed_zeros(c, signs) for c in parts[name].coeffs))
        num, den, left = parts["num"], parts["den"], parts["left"]
        quot = StarQuotient(num, den)
        window = (quot if left is None else with_left(quot, left)).to_series(degree)
        want = reference_to_series(num.to_exact(), den.to_exact(), degree,
                                   left.to_exact() if left is not None else None)
        # a sum takes every part exactly, so its window is exact
        if left is not None or all(p is None or p.is_exact for p in parts.values()):
            _same_exact_window(window, want)
        else:
            assert _repr_window(window) == _repr_window(want.to_float())

    def test_zero_series_operands(self):
        zero, f = SliceSeries.zero(5), rand_series(Random(5), 7, valuation=-2)
        _same_exact_window(star_mul(zero, f), reference_star_mul(zero, f))
        _same_exact_window(symmetrize(zero), reference_symmetrize(zero))
        _same_exact_window(compose_slice_preserving(f.shift(2), zero),
                           reference_compose_slice_preserving(f.shift(2), zero))

    @given(kernel_windows(max_length=12), kernel_windows(max_length=12),
           inner_windows, zero_signs, zero_signs,
           st.sampled_from(("float-float", "exact-float", "float-exact")))
    @settings(max_examples=150, deadline=None)
    def test_float_and_mixed_windows_match_the_reference_bit_for_bit(
            self, f, g, w, f_signs, g_signs, pairing):
        if pairing != "exact-float":
            f = SliceSeries(f.valuation, tuple(_float_with_signed_zeros(c, f_signs)
                                               for c in f.coeffs))
        if pairing != "float-exact":
            g = SliceSeries(g.valuation, tuple(_float_with_signed_zeros(c, g_signs)
                                               for c in g.coeffs))
            w = w.to_float()
        assert _repr_window(star_mul(f, g)) == _repr_window(_rounded(reference_star_mul, f, g))
        assert _repr_window(star_mul(g, f)) == _repr_window(_rounded(reference_star_mul, g, f))
        for window in (f, g):
            if window.is_exact:
                continue
            assert _repr_window(symmetrize(window)) == \
                _repr_window(_rounded(reference_symmetrize, window))
            if not window.is_zero():
                assert _repr_window(star_reciprocal(window)) == \
                    _repr_window(_rounded(reference_star_reciprocal, window))
        if f.valuation >= 0:
            assert _repr_window(compose_slice_preserving(f, w)) == \
                _repr_window(_rounded(reference_compose_slice_preserving, f, w))


def _repr_window(s: SliceSeries) -> tuple:
    """Valuation and each component's repr: type, value and sign of zero."""
    return s.valuation, [tuple(repr(v) for v in (c.w, c.x, c.y, c.z)) for c in s.coeffs]


@st.composite
def ball_parameters(draw):
    """Exact parameters of the closed unit ball, the unit sphere included,
    and their float images with drawn signs of zero."""
    u = random_exact_unit(Random(draw(st.integers(0, 10 ** 6))))
    kind = draw(st.sampled_from(("unit", "scaled", "rational", "zero")))
    if kind == "unit":
        a = u
    elif kind == "scaled":
        m = draw(st.integers(1, 12))
        a = u * F(draw(st.integers(0, m)), m)
    elif kind == "rational":
        a = Quaternion(*draw(st.tuples(*[ball_rationals] * 4)))
    else:
        a = ZERO
    if draw(st.booleans()):
        return _float_with_signed_zeros(a, draw(zero_signs))
    return a


class TestScalarPaths:
    """The cached float rows are the float coefficients, so the reference
    float Horner reads the same window from either, and every exact point
    form is its exact value rounded once.  The family windows, expanded
    from their quotients, agree with the `Quaternion` power loops on an
    exact parameter, and give the exact window rounded once on a float
    one."""

    @given(exact_windows(), st.booleans(), zero_signs, exact_ball_points(zero=False),
           zero_signs)
    @settings(max_examples=150, deadline=None)
    def test_float_horner_reads_the_cached_rows(self, f, float_window, window_signs,
                                                q, point_signs):
        if float_window:
            f = SliceSeries(f.valuation, tuple(_float_with_signed_zeros(c, window_signs)
                                               for c in f.coeffs))
        q = _float_with_signed_zeros(q, point_signs)
        want = reference_eval_float(tuple(c.to_float() for c in f.coeffs), q)
        rows = tuple(Quaternion(*row) for row in reversed(f._float_rows))
        assert _outcome(lambda p: reference_eval_float(rows, p), q) == \
            _outcome(lambda p: want, q)

    def test_float_rows_of_a_huge_rational_raise_domain_error(self):
        f = series([1, 10 ** 400])
        with pytest.raises(DomainError, match="too large for a float"):
            f.eval(Quaternion(0.5, 0.0, 0.0, 0.0))
        with pytest.raises(DomainError, match="too large for a float"):
            f.to_float()
        with pytest.raises(DomainError, match="too large for a float"):
            f + SliceSeries(0, [Quaternion(1.0, 0.0, 0.0, 0.0)])
        assert f.eval(exact(F(1, 2))) == exact(1 + F(10 ** 400, 2))

    @given(st.integers(0, 4), points())
    @settings(max_examples=150, deadline=None)
    def test_form_value_is_rounded_once(self, index, q):
        """A mixture, a Rogosinski q C(q) and a class-c f' are one quotient
        each: at a float point each component of a value and of a
        derivative is the exact value rounded once, not a float sum or
        product of rounded parts.  TestIntegerEval checks the exact values
        against the `Fraction` reference."""
        forms = [_exact_forms()[index]]
        if index < 4:  # nothing differentiates the class-c f' form
            forms.append(_form_derivative(index))
        for form in forms:
            assert _outcome(form.eval, q) == \
                _outcome(lambda p: form.eval(p) if p.is_exact else
                         form.eval(p.to_exact()).to_float(), q)

    @given(ball_parameters(), st.integers(0, 24))
    @settings(max_examples=150, deadline=None)
    def test_mobius_matches_the_reference(self, a, degree):
        assert _repr_window(mobius(a, degree)) == \
            _repr_window(reference_at_exact(reference_mobius, a, degree))


@st.composite
def integer_rows(draw):
    """(valuation, D, rows): integer 4-tuples over a D that may share a
    factor with every entry, with up to two leading zero rows, interior
    zero rows, and all rows zero one time in eight."""
    rng = Random(draw(st.integers(0, 10 ** 6)))
    common = draw(st.sampled_from((1, 2, 6, 35)))
    den = common * draw(st.sampled_from((1, 3, 8, 105)))
    zero = draw(st.integers(0, 7)) == 0

    def row():
        if zero or rng.random() < 0.3:
            return (0, 0, 0, 0)
        return tuple(common * rng.randint(-20, 20) for _ in range(4))

    rows = [(0, 0, 0, 0)] * draw(st.integers(0, 2)) + \
        [row() for _ in range(draw(st.integers(1, 12)))]
    return draw(st.integers(-3, 3)), den, rows


def _row_windows(rng: Random) -> list[SliceSeries]:
    """Outputs of every kernel, generator and shape operation that builds
    an exact window from integer rows."""
    f, g = rand_series(rng, 6), rand_series(rng, 5, valuation=1)
    w = series([F(1, 2), F(1, 4)], valuation=1).pad_to(6)
    u = random_exact_unit(rng)
    product = star_mul(f, g)
    return [product, symmetrize(f), star_reciprocal(f), integrate_radial(f),
            compose_slice_preserving(f, w), compose_slice_preserving(f, series([F(1, 2)], 1)),
            StarQuotient(g, f).to_series(6), regular_conjugate(f), product.shift(2),
            product.pad_to(20), product.pad_to(20).trim(), -product,
            koebe(u, 8), mobius(u * F(1, 2), 8),
            caratheodory_extremal(u, 8), generate_caratheodory(1, 8),
            generate_starlike_small_coeff(1, 8), rogosinski_extremal(u * F(5, 8), u, 8)]


class TestRowWindows:
    """An exact window built from integer rows is the window of its
    `Fraction` coefficients, which it forms only when they are read, and
    a chain of kernels on such windows agrees with the `Fraction`
    references coefficient by coefficient."""

    @given(integer_rows())
    @settings(max_examples=150, deadline=None)
    def test_row_window_is_the_window_of_its_fractions(self, form):
        v, den, rows = form
        s = SliceSeries._from_rows(v, den, rows)
        fractions = SliceSeries(v, [Quaternion(*(F(x, den) for x in row)) for row in rows])
        rebuilt = SliceSeries(s.valuation, s.coeffs)
        # the rebuilt window forms the same integer rows with one lcm
        assert s._form == rebuilt._form
        for other in (fractions, rebuilt):
            assert s == other and other == s
            assert hash(s) == hash(other)
            assert (s.valuation, s.degree, s.is_zero()) == \
                (other.valuation, other.degree, other.is_zero())
        assert _repr_window(s.to_float()) == \
            _repr_window(SliceSeries(s.valuation, [c.to_float() for c in s.coeffs]))
        if not s.is_zero():
            assert s != s.shift(1) and s != -s

    def test_kernel_outputs_form_no_coefficients_until_read(self):
        for s in _row_windows(Random(4)):
            assert s.is_exact and not s.is_zero()
            assert "coeffs" not in s.__dict__
            coeffs = s.coeffs
            assert "coeffs" in s.__dict__ and s.coeffs is coeffs
            assert _component_types(s) == {F}

    @given(kernel_windows(max_length=10, valuations=(0, 2)),
           kernel_windows(max_length=10, valuations=(0, 2)), inner_windows)
    @settings(max_examples=60, deadline=None)
    def test_chained_kernels_match_the_references(self, f, g, w):
        product = star_mul(f, g)
        assume(not product.is_zero())
        primitive = integrate_radial(product)
        square = symmetrize(primitive)
        inverse = star_reciprocal(square.shift(-square.valuation))
        composed = compose_slice_preserving(inverse, w)
        window = StarQuotient(composed, primitive).to_series(8)
        ref_product = reference_star_mul(f, g)
        ref_primitive = reference_integrate_radial(ref_product)
        ref_square = reference_symmetrize(ref_primitive)
        ref_inverse = reference_star_reciprocal(SliceSeries(0, ref_square.coeffs))
        ref_composed = reference_compose_slice_preserving(ref_inverse, w)
        ref_window = reference_to_series(ref_composed, ref_primitive, 8)
        for got, want in ((product, ref_product), (primitive, ref_primitive),
                          (square, ref_square), (inverse, ref_inverse),
                          (composed, ref_composed), (window, ref_window)):
            _same_exact_window(got, want)

    @given(kernel_windows(max_length=14, valuations=(0, 3)), st.integers(1, 5),
           st.fractions(F(-3), F(3), max_denominator=12).filter(bool), st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_monomial_inner_series_match_the_reference(self, f, k, c, pad):
        w = SliceSeries.from_coeffs([Quaternion.from_real(c)], valuation=k).pad_to(k + pad)
        _same_exact_window(compose_slice_preserving(f, w),
                           reference_compose_slice_preserving(f, w))


class TestLinearRows:
    """Sums and real multiples of exact windows run on their integer rows
    and give the window of the `Fraction` arithmetic they replace."""

    @given(kernel_windows(), kernel_windows())
    @settings(max_examples=150, deadline=None)
    def test_sum_matches_the_fraction_sum(self, f, g):
        v, degree = min(f.valuation, g.valuation), min(f.degree, g.degree)
        want = SliceSeries(v, tuple(f.coeff(n) + g.coeff(n) for n in range(v, degree + 1)))
        _same_exact_window(f + g, want)
        _same_exact_window(f - g, SliceSeries(v, tuple(f.coeff(n) - g.coeff(n)
                                                       for n in range(v, degree + 1))))

    @given(kernel_windows(), st.one_of(st.integers(-5, 5),
                                       st.fractions(F(-4), F(4), max_denominator=30)))
    @settings(max_examples=150, deadline=None)
    def test_scale_matches_the_fraction_product(self, f, s):
        _same_exact_window(f.scale(s), SliceSeries(f.valuation, tuple(a * s for a in f.coeffs)))

    def test_rows_stay_rows(self):
        f, g = generate_caratheodory(1, 8), generate_starlike_small_coeff(2, 8)
        for out in (f + g, f.scale(F(3, 7)), caratheodory_mixture_form(4).num):
            assert "coeffs" not in out.__dict__

    def test_float_operands_keep_the_float_arithmetic(self):
        f, g = koebe(ONE, 6), koebe(I, 6).to_float()
        assert (f + g).coeffs == tuple(a + b for a, b in zip(f.coeffs, g.coeffs))
        assert f.scale(0.5).coeffs == tuple(a * 0.5 for a in f.coeffs)
        assert not f.scale(0.5).is_exact


# float components that cancel, vanish with either sign, or overflow
float_entries = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 1.7e308)),
                          st.floats(-2, 2))
signed_zeros = st.sampled_from((0.0, -0.0))


@st.composite
def float_windows(draw):
    """Float windows of 1, 2, 3 or 49 rows, real or quaternionic, whose
    lowest coefficient a_v often has -0.0 components; the zero window is a
    row of signed zeros repeated."""
    length = draw(st.sampled_from((1, 2, 3, 49)))
    if draw(st.integers(0, 7)) == 0:
        zero = Quaternion(*draw(st.tuples(*[signed_zeros] * 4)))
        return SliceSeries(0, (zero,) * length)
    real = draw(st.booleans())
    rows = [Quaternion(draw(float_entries),
                       *draw(st.tuples(*[signed_zeros if real else float_entries] * 3)))
            for _ in range(length)]
    if draw(st.booleans()):
        rows[0] = Quaternion(rows[0].w or 1.0, *draw(st.tuples(*[signed_zeros] * 3)))
    return SliceSeries(draw(st.integers(0, 2)), rows)


@st.composite
def plane_windows(draw):
    """Windows of valuation -1 to 3: exact ones with rational coefficients,
    and float ones, real or quaternionic, with signed zeros and entries of
    sizes 2^-30 to 10^6."""
    v = draw(st.integers(-1, 3))
    if draw(st.booleans()):
        f = draw(exact_windows())
        return f.shift(v - f.valuation)
    entries = st.one_of(signed_zeros, st.floats(-2, 2, allow_subnormal=False),
                        st.sampled_from((1.0, -1.0, 2.0 ** -30, 1e6)))
    real = draw(st.booleans())
    rows = [Quaternion(draw(entries), *draw(st.tuples(*[signed_zeros if real else entries] * 3)))
            for _ in range(draw(st.sampled_from((1, 2, 3, 5, 49))))]
    return SliceSeries(v, rows)


def _plane_error_bound(f: SliceSeries, q: Quaternion) -> float:
    """A bound on the error of each component of ``f.values([q])``, from
    the float window (valuation v, degree N, K = N - v Horner steps).

    With u = 2^-53 and gamma_k = k u / (1 - k u) (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., Lemma 3.1 and 3.3):
    - each coefficient is rounded once to a float: gamma_1;
    - s = |Im q| by `math.hypot` is within one ulp, |s' - s| <= gamma_2 s,
      so |z'^n - z^n| <= gamma_(2|n|) r^n for z' = x + is' and r = |q|;
    - a complex product by z' written as four float products and two sums
      is z' w (1 + e) with |e| <= sqrt(2) gamma_2 <= gamma_3 (Lemma 3.5),
      and adding a real coefficient to it is (1 + d), |d| <= u.  As in
      Higham's Horner analysis (section 5.1), each term a_n z^n of the
      column Horner takes at most K products and K sums, and z^v at most
      |v| more products; 1 / z' = (x - is') / (x^2 + s'^2) costs gamma_3
      more per factor for v < 0.  So each A_c + i B_c is within
      gamma_kP sum_n |a_(n,c)| r^n of its exact value, with
      kP = 4K + 3|v| + 3|v|[v < 0] + 1 + 2 max(N, |v|);
    - I = Im q / s' is within gamma_3 per component, and
      A_c +- I_1 B_m1 +- I_2 B_m2 +- I_3 B_m3 adds three rounded products
      in three sums: gamma_7 on every term.  The four components
      c, m1, m2, m3 differ, so sum_k |I_k| |a_(n,m_k)| + |a_(n,c)| <=
      sqrt(2) |a_n| (Cauchy-Schwarz, |I| = 1).
    Together: sqrt(2) gamma_(kP + 7) sum_n |a_n| r^n.  Underflow adds at
    most one unit 2^-1074 per product, which later products by |z| < 1 do
    not grow and 1 / z grows by at most r^v: k 2^-1074 max(1, r^v).  A
    subnormal s' is within one unit 2^-1074 of s, which moves z' and,
    through I, the term I B by at most 2^-1074 sum_(n>=1) n |a_n| r^(n-1)
    each (for n = -1 the test keeps r >= 2^-200, where the relative term
    covers it many times over).  The sums are evaluated in floats and widened by 2^-40
    relative, far above their own rounding."""
    window = f.to_float()
    v, n = window.valuation, window.degree
    k = 4 * (n - v) + 3 * abs(v) + (3 * abs(v) if v < 0 else 0) + 1 + 2 * max(n, abs(v)) + 7
    u = 2.0 ** -53
    gamma = math.sqrt(2) * k * u / (1 - k * u)
    r = math.hypot(q.w, q.x, q.y, q.z)
    norms = [(m, math.hypot(*map(float, (c.w, c.x, c.y, c.z))))
             for m, c in enumerate(f.coeffs, f.valuation) if not c.is_zero()]
    total = sum(a * r ** m for m, a in norms)
    slope = sum(m * a * r ** (m - 1) for m, a in norms if m >= 1)
    underflow = k * max(1.0, r ** v) + 2 * slope
    return (gamma * total + underflow * 2.0 ** -1074) * (1 + 2.0 ** -40)


@pytest.mark.fuzz
class TestPlaneHorner:
    """The float kernel: at float points on and off the axes, every
    component of `SliceSeries.values` lies within a stated Horner error
    bound (:func:`_plane_error_bound`) of the exact value, which the exact
    quotient path gives at the point taken exactly."""

    @given(plane_windows(), st.lists(float_points(), min_size=1, max_size=4))
    @settings(deadline=None)
    def test_values_lie_within_the_horner_bound(self, f, qs):
        if f.valuation < 0:
            assume(all(abs(q) >= 2.0 ** -200 for q in qs))
        exact = StarQuotient(f.to_exact(), SliceSeries.one())
        ratios = []
        for q, got in zip(qs, f.values(qs)):
            want = exact.eval(q.to_exact())
            bound = F(_plane_error_bound(f, q))
            worst = max(abs(F(g) - w) for g, w in zip((got.w, got.x, got.y, got.z),
                                                     (want.w, want.x, want.y, want.z)))
            assert worst <= bound
            ratios.append(float(worst / bound))
        target(max(ratios), label="error / bound")

    def test_the_points_of_one_class_share_the_column_horners(self, monkeypatch):
        """The i, j and k points of one (r, theta), of either sign, run the
        four column Horners once."""
        import srgft.series as series_module
        calls = []
        kernel = series_module._plane_horner
        monkeypatch.setattr(series_module, "_plane_horner",
                            lambda *args: calls.append(args[1:3]) or kernel(*args))
        f = generate_starlike_small_coeff(3, 12).to_float()
        points = [Quaternion(0.25, 0.5, 0.0, 0.0), Quaternion(0.25, 0.0, -0.5, 0.0),
                  Quaternion(0.25, -0.0, 0.0, 0.5), Quaternion(0.25, 0.3, 0.4, 0.0),
                  Quaternion(0.5, 0.0, 0.0, 0.0)]
        values = f.values(points)
        assert calls == [(0.25, 0.5)] * 4 + [(0.5, 0.0)] * 4
        assert values == [f.eval(q) for q in points]


def _window_outcome(build):
    """Valuation, degree and each component's repr of a `SliceSeries` or a
    reference window, or the error with its message."""
    try:
        window = build()
    except DomainError as exc:
        return type(exc), str(exc)
    if isinstance(window, SliceSeries):
        v, coeffs, degree = window.valuation, window.coeffs, window.degree
    else:
        (v, coeffs), degree = window, window[0] + len(window[1]) - 1
    return v, degree, [tuple(repr(x) for x in (c.w, c.x, c.y, c.z)) for c in coeffs]


# exact components that round to a float zero of either sign, or just do not
tiny_rationals = st.sampled_from((F(0), F(1, 10 ** 400), F(-1, 10 ** 400), F(1, 2 ** 1075),
                                  F(-3, 2 ** 1077), F(1, 2 ** 1074), F(-1, 2 ** 1074)))


class TestFloatRows:
    """A float window holds float rows, and each shape and linear operation
    on them gives the window of the `Quaternion` arithmetic it replaced
    (`series_reference`), signed zeros, folded leading zeros and overflow
    included; a mixed sum runs in float."""

    @given(float_windows(), float_windows(), exact_windows(), st.integers(-2, 52),
           st.integers(-3, 3))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_quaternion_reference(self, f, g, e, degree, k):
        assert (f.is_zero(), f.is_real()) == \
            (f.coeffs[0].is_zero(), all(c.is_real() for c in f.coeffs))
        rebuilt = SliceSeries(f.valuation, f.coeffs)
        assert f == rebuilt and hash(f) == hash(rebuilt) and f == f.to_exact()
        rf, rg, re = ((s.valuation, s.coeffs) for s in (f, g, e))
        cases = [
            (lambda: SliceSeries(k, f.coeffs + g.coeffs),
             lambda: reference_window(k, f.coeffs + g.coeffs)),
            (lambda: SliceSeries(k, e.coeffs + f.coeffs),
             lambda: reference_window(k, e.coeffs + f.coeffs)),
            (lambda: f.pad_to(degree), lambda: reference_pad_to(rf, degree)),
            (lambda: f.trim(), lambda: reference_trim(rf)),
            (lambda: f.pad_to(degree).trim(), lambda: reference_trim(reference_pad_to(rf, degree))),
            (lambda: f.shift(k), lambda: reference_shift(rf, k)),
            (lambda: -f, lambda: reference_neg(rf)),
            (lambda: regular_conjugate(f), lambda: reference_conjugate(rf)),
            (lambda: f + g, lambda: reference_add(rf, rg)),
            (lambda: f - g, lambda: reference_sub(rf, rg)),
            (lambda: f + f, lambda: reference_add(rf, rf)),
            (lambda: f - f, lambda: reference_sub(rf, rf)),
            (lambda: f + e, lambda: reference_add(rf, re)),
            (lambda: e - f, lambda: reference_sub(re, rf)),
            (lambda: slice_derivative(f), lambda: reference_slice_derivative(rf)),
        ]
        for got, want in cases:
            assert _window_outcome(got) == _window_outcome(want)

    @given(st.lists(st.tuples(*[tiny_rationals] * 4), min_size=1, max_size=3),
           exact_windows(), st.booleans(), st.integers(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_to_float_folds_the_coefficients_that_underflow(self, low, e, tiny_only, k):
        coeffs = [Quaternion(*c) for c in low] + ([] if tiny_only else list(e.coeffs))
        s = SliceSeries(k, coeffs)
        assert _window_outcome(s.to_float) == \
            _window_outcome(lambda: reference_to_float((s.valuation, s.coeffs)))
