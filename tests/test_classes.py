"""Membership predicates, generators and the sampling grid."""

import functools
import math
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from series_reference import (reference_at_exact, reference_caratheodory_extremal,
                              reference_generate_caratheodory, reference_koebe,
                              reference_random_exact_unit,
                              reference_rogosinski_extremal, reference_rogosinski_window)

from srgft.checks import (_diagonal_float_unit, caratheodory_member, close_to_convex_member,
                          koebe_function, starlike_member)
from srgft.classes import (DEFAULT_GRID, FunctionUnderTest, SamplingGrid,
                           caratheodory_extremal, caratheodory_extremal_quotient,
                           caratheodory_mixture_form,
                           caratheodory_mixture_parts, certify_small_coeff,
                           generate_caratheodory,
                           generate_close_to_convex,
                           generate_starlike_small_coeff, is_caratheodory,
                           is_close_to_convex, is_one_slice,
                           is_slice_preserving, is_starlike, koebe,
                           koebe_quotient, random_exact_unit, random_float_unit,
                           rogosinski_extremal, rogosinski_extremal_form,
                           small_coeff_margin, _rogosinski_parts)
from srgft.errors import DomainError, PreconditionError
from srgft.quat import I, J, K, ONE, ZERO, Quaternion, quaternion_to_json
from srgft.series import (SliceSeries, StarQuotient, integrate_radial,
                          slice_derivative)


def exact(w=0, x=0, y=0, z=0):
    return Quaternion(F(w), F(x), F(y), F(z))


def series(coeffs, valuation=0):
    return SliceSeries.from_coeffs([c if isinstance(c, Quaternion) else exact(c)
                                    for c in coeffs], valuation)


class TestGrid:
    def test_default_shape(self):
        g = DEFAULT_GRID
        for required in (0.1, 0.5, 0.9, 0.95, 0.99):
            assert required in g.radii
        assert len(g.units) == 3
        assert len(g.angles) == 8
        assert all(float(q.norm_sq()) < 1.0 for q in g.points)

    def test_directions_are_units(self):
        for u in DEFAULT_GRID.directions:
            assert abs(float(u.norm_sq()) - 1.0) < 1e-12

    def test_negative_real_direction_present(self):
        assert any(abs(u + ONE.to_float()) < 1e-12 for u in DEFAULT_GRID.directions)

    def test_extra_units(self):
        g = SamplingGrid.default(unit_count=6)
        assert len(g.units) == 6

    def test_no_axis_rejected(self):
        with pytest.raises(DomainError):
            SamplingGrid.default(unit_count=0)

    def test_invalid_radii(self):
        with pytest.raises(DomainError):
            SamplingGrid.default(radii=(0.5, 0.2))
        with pytest.raises(DomainError):
            SamplingGrid.default(radii=(1.2,))


class TestFunctionUnderTest:
    @given(st.integers(0, 9999), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_zero_padding_leaves_window_values_unchanged(self, seed, pad):
        rng = Random(seed)
        coeffs = [exact(*(F(rng.randint(-9, 9), 40) for _ in range(4)))
                  for _ in range(rng.randint(0, 6))]
        window = series([ONE] + coeffs, valuation=rng.randint(0, 1))
        padded = window.pad_to(window.degree + pad)
        plain = FunctionUnderTest("plain", window)
        fut = FunctionUnderTest("padded", padded)
        # the untrimmed float Horner over the padded window is the reference
        ref = padded.to_float()
        ref_derivative = slice_derivative(ref)
        for q in DEFAULT_GRID.points[::7]:
            assert fut.value(q) == plain.value(q) == ref.eval(q)
            assert fut.derivative_value(q) == plain.derivative_value(q) \
                == ref_derivative.eval(q)


@functools.cache
def _sweep_functions() -> tuple[FunctionUnderTest, ...]:
    """A quotient form with its derivative quotient, a quotient sum, an f'
    form alone, a window alone, and a form refused at the grid point 1/2."""
    singular = StarQuotient(SliceSeries.identity(), series([1, -2]))
    return (koebe_function(ONE, 12), caratheodory_member(3, 12),
            close_to_convex_member(3, 12), starlike_member(3, 12),
            FunctionUnderTest("singular", SliceSeries.identity(12), singular))


def _sweep_outcome(evaluate):
    """Each value's component reprs, or the error type and message."""
    try:
        return [tuple(repr(c) for c in (v.w, v.x, v.y, v.z)) for v in evaluate()]
    except DomainError as exc:
        return type(exc), str(exc)


class TestSweeps:
    @given(st.integers(0, 4), st.integers(1, 5), st.integers(1, 40),
           st.lists(st.sampled_from((0.1, 0.5, 0.9, 0.99)), min_size=1, max_size=3,
                    unique=True).map(sorted))
    @settings(max_examples=40, deadline=None)
    def test_a_sweep_equals_its_points_one_by_one(self, index, unit_count, angle_count, radii):
        fut = _sweep_functions()[index]
        points = SamplingGrid.default(radii, unit_count, angle_count).points
        assert _sweep_outcome(lambda: fut.values(points)) == \
            _sweep_outcome(lambda: [fut.value(q) for q in points])
        assert _sweep_outcome(lambda: fut.derivative_values(points)) == \
            _sweep_outcome(lambda: [fut.derivative_value(q) for q in points])


class TestGridSweeps:
    def test_a_grid_sweep_is_evaluated_once_and_equals_values(self, monkeypatch):
        grid = SamplingGrid.default((0.3, 0.9), 2, 4)
        calls = []
        for name in ("values", "derivative_values"):
            original = getattr(FunctionUnderTest, name)
            monkeypatch.setattr(FunctionUnderTest, name,
                                lambda fut, points, _o=original, _n=name:
                                calls.append(_n) or _o(fut, points))
        for fut in _sweep_functions.__wrapped__()[:4]:  # fresh, with no sweep kept
            calls.clear()
            values, derivatives = fut.sweep(grid), fut.derivative_sweep(grid)
            assert fut.sweep(grid) is values and fut.derivative_sweep(grid) is derivatives
            assert fut.sweep(SamplingGrid.default((0.3, 0.9), 2, 4)) is values
            assert calls == ["values", "derivative_values"]
            assert list(values) == fut.values(grid.points)
            assert list(derivatives) == fut.derivative_values(grid.points)
            assert fut.sweep(DEFAULT_GRID) == tuple(fut.values(DEFAULT_GRID.points))

    def test_the_largest_radius_block_is_the_directions_at_r_max(self):
        # check_koebe_quarter reads its r_max block from the sweep
        n = len(DEFAULT_GRID.directions)
        r_max = DEFAULT_GRID.radii[-1]
        block = tuple(u * r_max for u in DEFAULT_GRID.directions)
        assert DEFAULT_GRID.points[-n:] == block
        for fut in _sweep_functions()[:4]:
            assert fut.sweep(DEFAULT_GRID)[-n:] == tuple(fut.values(block))


class TestCaratheodoryPredicate:
    def test_constant_one(self):
        v = is_caratheodory(SliceSeries.one(4))
        assert v.member and v.certificate == "sampled"
        assert abs(v.margin - 1.0) < 1e-12

    def test_extremal_member(self):
        quot = caratheodory_extremal_quotient(I)
        fut = FunctionUnderTest("extremal", caratheodory_extremal(I, 24), quot)
        v = is_caratheodory(fut)
        assert v.member
        # sharp lower bound (1-r)/(1+r) at the largest radius
        assert abs(v.margin - (1 - 0.99) / (1 + 0.99)) < 1e-9

    def test_refuted_with_witness(self):
        v = is_caratheodory(series([1, 3]).pad_to(4))
        assert not v.member and v.certificate == "refuted"
        assert v.witness is not None
        # worst point is on the negative real axis at the largest radius
        assert v.witness["q"][0] < -0.9

    def test_wrong_constant_refuted(self):
        v = is_caratheodory(series([2, 1]))
        assert not v.member and v.witness["n"] == 0

    @pytest.mark.parametrize("exact_mode", [True, False])
    def test_zero_at_zero_refuted_at_its_constant_term(self, exact_mode):
        p = SliceSeries.identity(4)
        p = p if exact_mode else p.to_float()
        v = is_caratheodory(p)
        assert not v.member and v.certificate == "refuted"
        zero = ZERO if exact_mode else ZERO.to_float()
        assert v.witness == {"n": 0, "coeff": quaternion_to_json(zero)}

    def test_pole_at_zero_refuted_at_its_lowest_coefficient(self):
        # q^-1 / 1000 + 1 has p's constant term 1 but no value at 0
        v = is_caratheodory(series([F(1, 1000), 1], valuation=-1))
        assert not v.member and v.certificate == "refuted"
        assert v.witness["n"] == -1 and v.witness["coeff"] == \
            quaternion_to_json(exact(F(1, 1000)))


class TestStarlikePredicate:
    def test_identity_member(self):
        v = is_starlike(SliceSeries.identity(4))
        assert v.member and v.margin > 0.9

    def test_half_square_member(self):
        f = series([ONE, exact(F(1, 2))], valuation=1)
        assert is_starlike(f).member

    def test_zero_inside_refuted(self):
        f = series([ONE, exact(2)], valuation=1)  # q + 2 q^2 vanishes at -1/2
        v = is_starlike(f)
        assert not v.member and v.certificate == "refuted"

    def test_a_grid_zero_is_refuted_before_f_prime_is_read(self, monkeypatch):
        read = []
        original = FunctionUnderTest.derivative_values
        monkeypatch.setattr(FunctionUnderTest, "derivative_values",
                            lambda fut, points: read.append(points) or original(fut, points))
        v = is_starlike(series([1, -2], valuation=1))  # q - 2 q^2 vanishes at 1/2
        assert not v.member and v.certificate == "refuted" and v.margin is None
        assert v.witness == {"q": [0.5, 0.0, 0.0, 0.0], "margin": 0.0}
        assert read == []

    def test_orders(self):
        with pytest.raises(DomainError):
            is_starlike(SliceSeries.identity(4), alpha=1.0)
        assert is_starlike(SliceSeries.identity(4), alpha=0.9).member

    def test_bad_normalization(self):
        assert not is_starlike(series([2], valuation=1)).member
        assert not is_starlike(series([1, 1])).member


# Re(h^-1 q h') = -8 at q = -0.3 for h = q + 3q^2, and Re p(-0.99) = -1.97
NOT_STARLIKE = series([1, 3], valuation=1).pad_to(8)
NOT_CARATHEODORY = series([1, 3]).pad_to(8)


class TestCloseToConvexPredicate:
    def test_starlike_subset(self):
        f = generate_starlike_small_coeff(3, 16)
        assert is_close_to_convex(f, f).member

    def test_refuted(self):
        f = series([-1], valuation=1).pad_to(4)  # -q against h = q
        h = SliceSeries.identity(4)
        v = is_close_to_convex(f, h)
        assert not v.member and v.margin < 0

    def test_uncertified_reference_rejected(self):
        with pytest.raises(PreconditionError):
            is_close_to_convex(SliceSeries.identity(4), series([1, 1]))

    @pytest.mark.parametrize("refused, prefix, screen", [
        (lambda: is_close_to_convex(SliceSeries.identity(8), NOT_STARLIKE),
         "h failed the starlike screen", lambda: is_starlike(NOT_STARLIKE)),
        (lambda: generate_close_to_convex(NOT_STARLIKE, SliceSeries.one(8)),
         "h failed the starlike screen", lambda: is_starlike(NOT_STARLIKE)),
        (lambda: generate_close_to_convex(SliceSeries.identity(8), NOT_CARATHEODORY),
         "p failed the caratheodory screen", lambda: is_caratheodory(NOT_CARATHEODORY)),
    ], ids=["close-to-convex-h", "generate-h", "generate-p"])
    def test_an_uncertified_argument_is_refused_with_its_screen_witness(self, refused, prefix,
                                                                        screen):
        witness = screen().witness
        assert witness["margin"] < 0
        with pytest.raises(PreconditionError) as refusal:
            refused()
        assert str(refusal.value) == f"{prefix}: {witness}"


class TestSlicePredicates:
    def test_slice_preserving(self):
        assert is_slice_preserving(koebe(ONE, 12)).member
        assert not is_slice_preserving(series([I], valuation=1)).member
        assert is_slice_preserving(SliceSeries.zero(3)).member

    def test_one_slice(self):
        v = is_one_slice(series([1, I, exact(0, 3)]))
        assert v.member and v.witness["axis"] == [1.0, 0.0, 0.0]
        assert not is_one_slice(series([I, J])).member
        v_real = is_one_slice(series([1, 2, 3]))
        assert v_real.member and v_real.witness["axis"] == [1.0, 0.0, 0.0]

    def test_exact_coefficients_on_one_axis_are_members(self):
        u = exact(0, F(2, 29), F(3, 29), F(7, 29))
        v = is_one_slice(series([u, ONE + u]))
        # the axis is still reported from the float components of u
        comps = (2 / 29, 3 / 29, 7 / 29)
        norm = math.sqrt(sum(c * c for c in comps))
        assert v.member and v.witness["axis"] == [c / norm for c in comps]
        # one part in 29^3 off the axis is refuted
        assert not is_one_slice(series([u, ONE + u + exact(0, 0, 0, F(1, 29 ** 3))])).member

    def test_exact_parts_that_underflow_a_float_keep_their_direction(self):
        """An exact window skips only exact-zero imaginary parts, and reads
        its axis from the part scaled by a power of two, so a part whose
        floats underflow is neither skipped nor divided by zero."""
        tiny = F(1, 10 ** 400)
        assert not is_one_slice(series([I, exact(0, 0, tiny)])).member
        v = is_one_slice(series([exact(0, 0, tiny), exact(0, 0, 3 * tiny)]))
        assert v.member and v.witness["axis"] == [0.0, 1.0, 0.0]
        v = is_one_slice(series([exact(1, 0, 0, -tiny), exact(0, 0, 0, tiny / 7)]))
        assert v.member and v.witness["axis"] == [0.0, 0.0, -1.0]

    @given(st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
           st.lists(st.tuples(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=40)),
                    min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_rational_multiples_of_one_direction_are_members(self, d, parts):
        coeffs = [exact(w, *(t * c for c in d)) for w, t in parts]
        assert is_one_slice(series(coeffs)).member

    def test_koebe_directions(self):
        assert is_one_slice(koebe(I, 16)).member
        diag = (I + J).to_float() * (1 / math.sqrt(2))
        assert is_one_slice(koebe(diag, 16)).member


class TestGenerators:
    def test_small_coeff_certificate(self):
        f = generate_starlike_small_coeff(42, 32)
        margin = small_coeff_margin(f)
        assert margin >= F(257, 512)  # sum n|a_n| <= 255/512 by construction
        assert certify_small_coeff(f).certificate == "analytic-sufficient"
        assert is_starlike(f).member

    def test_small_coeff_deterministic(self):
        assert generate_starlike_small_coeff(7, 16) == generate_starlike_small_coeff(7, 16)
        assert generate_starlike_small_coeff(7, 16) != generate_starlike_small_coeff(8, 16)

    def test_caratheodory_extremal_coefficients(self):
        p = caratheodory_extremal(I, 16)
        power = I
        for n in range(1, 17):
            assert p.coeff(n) == power * 2
            assert p.coeff(n).norm_sq() == 4
            power = power * I

    def test_mixture_form_weights_in_order(self):
        lams, units = caratheodory_mixture_parts(9, 3)
        form = caratheodory_mixture_form(9, 3)
        quotients = [caratheodory_extremal_quotient(u) for u in units]
        q = exact(F(1, 4), F(-1, 3), 0, F(1, 6))
        want = sum((quot.eval(q) * lam for quot, lam in zip(quotients, lams)), exact(0))
        assert form.eval(q) == want
        # at a float point the exact sum is rounded once
        qf = q.to_float()
        want = sum((quot.eval(qf.to_exact()) * lam for quot, lam in zip(quotients, lams)),
                   exact(0))
        assert _reprs(form.eval(qf)) == _reprs(want.to_float())

    def test_caratheodory_mixture_member(self):
        lams, units = caratheodory_mixture_parts(9, 3)
        assert sum(lams) == 1
        p = generate_caratheodory(9, 24, 3)
        fut = FunctionUnderTest("p", p, caratheodory_mixture_form(9, 3))
        assert is_caratheodory(fut).member
        # averaging conjugate extremals gives real coefficients
        u = random_exact_unit(Random(1))
        mix = caratheodory_extremal(u, 12).scale(F(1, 2)) + \
            caratheodory_extremal(u.conjugate(), 12).scale(F(1, 2))
        assert is_slice_preserving(mix).member

    def test_close_to_convex_identity_case(self):
        f = generate_close_to_convex(SliceSeries.identity(8), SliceSeries.one(8))
        assert f == SliceSeries.identity(8)

    def test_close_to_convex_koebe_factorization(self):
        # h = Koebe, p = its own radial quotient: reproduces Koebe
        u = I
        quot_k = koebe_quotient(u)
        h = FunctionUnderTest("koebe", koebe(u, 16), quot_k, certificates=("starlike",))
        quot_p = caratheodory_extremal_quotient(u)
        p = FunctionUnderTest("extremal", caratheodory_extremal(u, 16), quot_p,
                              certificates=("caratheodory",))
        f = generate_close_to_convex(h, p)
        expected = koebe(u, 16)
        for n in range(1, 16):
            assert f.coeff(n) == expected.coeff(n)

    def test_close_to_convex_coefficient_identity(self):
        h = generate_starlike_small_coeff(5, 20)
        p = generate_caratheodory(6, 20, 2)
        fut_p = FunctionUnderTest("p", p, caratheodory_mixture_form(6, 2))
        f = generate_close_to_convex(h, fut_p)
        for n in range(2, 20):
            acc = p.coeff(n - 1)
            for k in range(2, n):
                acc = acc + h.coeff(k) * p.coeff(n - k)
            acc = acc + h.coeff(n)
            assert f.coeff(n) * n == acc

    def test_close_to_convex_requires_certified_inputs(self):
        bad_h = series([ONE, exact(2)], valuation=1)
        with pytest.raises(PreconditionError):
            generate_close_to_convex(bad_h, SliceSeries.one(8))
        with pytest.raises(PreconditionError):
            generate_close_to_convex(SliceSeries.identity(8), series([1, 3]).pad_to(8))


class TestKoebe:
    def test_unit_one(self):
        f = koebe(ONE, 12)
        for n in range(1, 13):
            assert f.coeff(n) == exact(n)

    def test_unit_k_powers(self):
        f = koebe(K, 6)
        assert f.coeff(3) == exact(-3)  # 3 k^2 = -3

    def test_modulus_exact(self):
        u = random_exact_unit(Random(3))
        f = koebe(u, 24)
        for n in range(1, 25):
            assert f.coeff(n).norm_sq() == F(n * n)

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            koebe(exact(F(1, 2)), 8)
        with pytest.raises(DomainError):
            koebe(Quaternion(0.0, 0.7, 0.7, 0.0), 8)


class TestRogosinskiExtremal:
    def test_p_zero_collapses_to_linear(self):
        b = exact(0, F(1, 2))
        f = rogosinski_extremal(b, exact(0), 12)
        assert f.coeff(1) == b
        for n in range(2, 13):
            assert f.coeff(n).is_zero()

    def test_derivative_at_zero(self):
        rng = Random(14)
        for _ in range(5):
            u = random_exact_unit(rng)
            b = u * F(rng.randint(1, 7), 16)
            p = random_exact_unit(rng) * F(rng.randint(0, 8), 8)
            f = rogosinski_extremal(b, p, 10)
            assert f.coeff(1) == b

    def test_shift_one_form_is_exact(self):
        """The form q C(q) is one quotient, with q folded into its numerator."""
        b, p = exact(0, F(1, 2)), exact(0, 0, F(3, 5), F(4, 5))
        form = rogosinski_extremal_form(b, p)
        beta, u_b, p = _rogosinski_parts(b, p)
        core = StarQuotient(series([u_b * beta, (-p) * u_b]), form.den)
        derivative, dcore = form.derivative(), core.derivative()
        for q in (exact(F(1, 3), F(1, 4)), exact(0, 0, F(-1, 2)),
                  exact(F(-1, 5), F(1, 5), F(1, 5), F(1, 5))):
            assert form.eval(q) == q * core.eval(q)
            assert derivative.eval(q) == core.eval(q) + q * dcore.eval(q)

    def test_self_map_on_grid(self):
        b = exact(0, F(1, 2))
        form = rogosinski_extremal_form(b, ONE)
        for q in DEFAULT_GRID.points[::5]:
            assert abs(form.eval(q)) < 1.0

    def test_zero_derivative_rejected(self):
        with pytest.raises(DomainError):
            rogosinski_extremal(exact(0), ONE, 8)

    def test_ball_tests_are_exact_for_exact_parameters(self):
        below, above = 1 - F(1, 10 ** 19), 1 + F(1, 10 ** 13)
        assert rogosinski_extremal(exact(below), ONE, 8).coeff(1) == exact(below)
        with pytest.raises(DomainError):
            rogosinski_extremal(exact(1), ONE, 8)
        with pytest.raises(DomainError):
            rogosinski_extremal(exact(0, F(1, 2)), exact(above), 8)
        # a float parameter keeps its 1e-12 allowance
        rogosinski_extremal(exact(0, F(1, 2)), exact(above).to_float(), 8)


class TestOddPartBridge:
    def test_bridge(self):
        # f = q + c q^2 with small c: the half-difference screen holds,
        # the odd part (f(q) - f(-q)) / 2 = q is starlike and f is
        # close-to-convex against it
        f = series([ONE, exact(F(1, 4))], valuation=1).pad_to(8)
        half_diff = SliceSeries.identity(8)
        ff = f.to_float()
        df = slice_derivative(ff)
        hf = half_diff.to_float()
        for q in DEFAULT_GRID.points:
            lhs = hf.eval(q).inverse() * (q * df.eval(q))
            assert lhs.w > 0
        assert is_starlike(half_diff).member
        assert is_close_to_convex(f, half_diff).member


def _reprs(q: Quaternion) -> tuple:
    """Each component's repr: type, value and sign of zero."""
    return tuple(repr(v) for v in (q.w, q.x, q.y, q.z))


def _repr_window(s: SliceSeries) -> tuple:
    """Valuation and each component's repr: type, value and sign of zero."""
    return s.valuation, [_reprs(c) for c in s.coeffs]


zero_signs = st.tuples(*[st.sampled_from((1.0, -1.0))] * 4)


def _to_float(q: Quaternion, signs) -> Quaternion:
    """q in float mode, its zero components given the signs drawn."""
    return Quaternion(*(float(c) or math.copysign(0.0, s)
                        for c, s in zip((q.w, q.x, q.y, q.z), signs)))


@st.composite
def units(draw, allow_float=True):
    """Exact rational units, or their float images with drawn signs of zero."""
    u = random_exact_unit(Random(draw(st.integers(0, 10 ** 6))))
    if allow_float and draw(st.booleans()):
        return _to_float(u, draw(zero_signs))
    return u


@st.composite
def rogosinski_parameters(draw):
    """(b, p): b inside the ball with rational or irrational |b|, p in the
    closed ball, each exact or float."""
    b = draw(units(allow_float=False))
    if draw(st.integers(0, 3)):
        m = draw(st.integers(2, 16))
        b = b * F(draw(st.integers(1, m - 1)), m)
    else:  # |b|^2 = 2/9: the family degrades to float
        b = exact(F(1, 3), F(1, 3))
    p = draw(units(allow_float=False)) * F(draw(st.sampled_from((0, 1, 2, 3))), 3)
    if draw(st.booleans()):
        b = _to_float(b, draw(zero_signs))
    if draw(st.booleans()):
        p = _to_float(p, draw(zero_signs))
    return b, p


class TestGeneratorReferences:
    """The family windows, each the expansion of its quotient, agree with
    the `Quaternion` power loops on exact parameters; a float parameter
    gives the exact window of its exact value, rounded once, bit for bit."""

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200)
    def test_random_exact_unit_matches_the_reference(self, seed):
        rng, ref = Random(seed), Random(seed)
        for _ in range(3):
            u, want = random_exact_unit(rng), reference_random_exact_unit(ref)
            assert u == want and u.is_exact and u.norm_sq() == 1
        assert rng.getstate() == ref.getstate()

    # the first draw of Random(seed); the squares of seeds 20, 26 and 28
    # round differently under the compensated `sum` of Python 3.12+
    FLOAT_UNITS = {
        7: (-0.3703262354984863, 0.7401762280892634, -0.32722075652153576,
            -0.4559870690869908),
        20: (0.4766614674351874, -0.3211457909861122, 0.0847335085356236,
             -0.8139284114255266),
        26: (-0.007571565313364112, -0.44483356092435883, 0.2490017647342314,
             0.8602696644850956),
        28: (0.48982929998305724, 0.4207931243204661, -0.6253527229556614,
             -0.4381031559971563),
    }

    @pytest.mark.parametrize("seed", FLOAT_UNITS)
    def test_random_float_unit_is_pinned(self, seed):
        u = random_float_unit(Random(seed))
        assert (u.w, u.x, u.y, u.z) == self.FLOAT_UNITS[seed]

    @given(units(), st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_caratheodory_extremal_matches_the_reference(self, u, degree):
        assert _repr_window(caratheodory_extremal(u, degree)) == \
            _repr_window(reference_at_exact(reference_caratheodory_extremal, u, degree))

    @given(units(), st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_koebe_matches_the_reference(self, u, degree):
        assert _repr_window(koebe(u, degree)) == \
            _repr_window(reference_at_exact(reference_koebe, u, degree))

    def test_diagonal_float_koebe_is_rounded_once(self):
        """Each coefficient of the bieberbach suite's float Koebe function is
        float() of the exact n u^(n-1) at the dyadic u; the old float loop,
        which rounded at every power, missed that value from n = 3 on."""
        u = _diagonal_float_unit()
        exact_u = u.to_exact()
        f, old = koebe(u, 48), reference_koebe(u, 48)
        missed = []
        for n in range(1, 49):
            power = exact_u ** (n - 1) * n
            want = _reprs(power.to_float())
            assert _reprs(f.coeff(n)) == want
            if _reprs(old.coeff(n)) != want:
                missed.append(n)
        assert {3, 6, 9, 10} <= set(missed)
        assert f.coeff(3).w == -2.9999999999999996  # the old loop gave -2.999999999999999

    def test_integrate_radial_of_a_float_window_is_rounded_once(self):
        """Each coefficient of the primitive of a float window is float() of
        the exact a_n / (n + 1); multiplying by the float 1 / (n + 1) rounds
        twice and misses it for 15 of these 48."""
        g = koebe(_diagonal_float_unit(), 48)
        f = integrate_radial(g)
        for n, c in g.terms():
            want = Quaternion(*(F(v) / (n + 1) for v in (c.w, c.x, c.y, c.z))).to_float()
            assert _reprs(f.coeff(n + 1)) == _reprs(want)
        assert f.coeff(10).w == 0.8999999999999992  # rounding twice gave 0.8999999999999994

    @given(st.integers(0, 10 ** 6), st.integers(0, 30), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_generate_caratheodory_matches_the_reference(self, seed, degree, k):
        assert _repr_window(generate_caratheodory(seed, degree, k)) == \
            _repr_window(reference_generate_caratheodory(seed, degree, k))

    @given(rogosinski_parameters(), st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_rogosinski_extremal_matches_the_reference(self, params, degree):
        b, p = params
        beta, u_b, q = _rogosinski_parts(b, p)
        if u_b.is_exact and q.is_exact:
            want = reference_rogosinski_extremal(b, p, degree)
        else:  # the float parts taken exactly, each coefficient rounded once
            want = reference_rogosinski_window(F(beta), u_b.to_exact(), q.to_exact(),
                                               degree).to_float()
        assert _repr_window(rogosinski_extremal(b, p, degree)) == _repr_window(want)
