"""Theorem checks against their documented extremal and trivial cases."""

import hashlib
import inspect
import json
import struct
import sys
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srgft.checks import (SuiteConfig, SUITES, caratheodory_extremal_function,
                          check_bieberbach, check_bohr,
                          check_caratheodory_bounds,
                          check_convex_coefficients,
                          check_convex_covering_examples, check_fekete_szego,
                          check_growth_distortion, check_growth_order_m,
                          check_hayman, check_koebe_quarter,
                          check_monotone_modulus, check_quotient_equivalences,
                          check_rogosinski, check_schwarz,
                          check_schwarz_pick_coefficient,
                          check_schwarz_pick_counterexample,
                          check_sharper_caratheodory,
                          check_subordination_growth, close_to_convex_member,
                          constant_function, convex_function, convex_member,
                          identity_function, koebe_function, mobius_function,
                          monomial_function,
                          odd_reference_function, quotient_pair,
                          rogosinski_function, run_suites, sample_lambdas,
                          starlike_member, caratheodory_member)
from srgft import checks as checks_module
from srgft import classes as classes_module
from srgft.classes import (DEFAULT_GRID, FunctionUnderTest, SamplingGrid,
                           caratheodory_extremal_quotient)
from srgft.errors import DomainError, PreconditionError
from srgft.quat import I, J, K, ONE, Quaternion, quaternion_to_json
from srgft.series import EvalDomain, QuotientSum, SliceSeries, StarQuotient, slice_derivative

SMALL_GRID = SamplingGrid.default(radii=(0.2, 0.5, 0.8, 0.95), angle_count=4)


def exact(w=0, x=0, y=0, z=0):
    return Quaternion(F(w), F(x), F(y), F(z))


class TestBieberbach:
    def test_koebe_all_equalities(self):
        report = check_bieberbach(koebe_function(ONE, 24))
        assert report.passed
        assert len(report.params["equalities"]) == 23

    def test_small_members_strict(self):
        report = check_bieberbach(starlike_member(3, 24))
        assert report.passed
        assert "equalities" not in report.params
        assert report.worst_margin > 1.0

    def test_identity_margins(self):
        report = check_bieberbach(identity_function(8))
        assert report.passed and report.worst_margin == 2.0

    def test_close_to_convex_members(self):
        report = check_bieberbach(close_to_convex_member(1, 24))
        assert report.passed

    def test_close_to_convex_derivative_form_matches_window(self):
        fut = close_to_convex_member(2, 48)
        form = fut.derivative_form
        window = slice_derivative(fut.series.to_float())
        points = [q for q in DEFAULT_GRID.points if abs(q) <= 0.3 + 1e-12]
        assert points
        for q in points:
            assert abs(fut.derivative_value(q) - window.eval(q)) <= 1e-12
        # evaluation reads h folded into the numerator, and the real
        # denominator is evaluated as it is, never symmetrized
        assert "_integer_parts" in form.__dict__ and "num" in form.__dict__
        real, s, _ = form._real_form
        assert real and s == form.den

    # sha256 of the component reprs of the class-c f' values, one line per
    # point, on the default grid (3 axes) and on 5 slice axes: gen sees
    # these values only through its screen's worst margin
    PINNED_DERIVATIVE_VALUES = {
        (1, 3): "df598a63bf482368b2e43e7c44f9d30bf978495f5ff648400439037aa383c7ca",
        (1, 5): "cb96dba1ec90c3c22efc0f50efe36f287f67149310d8a8158a4a5723c52189b9",
        (2, 3): "abd586c9c6e835acc5c19e8f48c158ca682b42d1d19aee361cf258a908594fbb",
        (2, 5): "f46955470e739e3587df59e6a578a5adc582ab74be92bf8cc81a6c3b1aaf6c27",
        (3, 3): "64763e0dc74d49bc6adf01541988e62501632a1ee145dfa268be7c19054d4ed5",
        (3, 5): "8ef99bea58367205ea92a40245b3a30902668e4f681654a2d69aeea1c1f5834c",
    }

    @pytest.mark.parametrize("seed, units", sorted(PINNED_DERIVATIVE_VALUES))
    def test_close_to_convex_derivative_values_are_pinned(self, seed, units):
        form = close_to_convex_member(seed).derivative_form
        values = form.values(SamplingGrid.default(unit_count=units).points)
        text = "\n".join(" ".join(repr(c) for c in (v.w, v.x, v.y, v.z)) for v in values)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            self.PINNED_DERIVATIVE_VALUES[seed, units]

    def test_building_a_member_forms_only_its_window(self):
        """A mixture's num and den are formed once, for its window, and kept
        for evaluation; its integer parts, and a class-c f''s num, den and
        integer parts, are built on first evaluation, not with the member.
        The f' sum shares p's terms, so it reuses their cached real forms."""
        mixture = caratheodory_member(5, 48).form
        derivative = close_to_convex_member(2, 48).derivative_form
        assert "num" in mixture.__dict__ and "den" in mixture.__dict__
        assert "_integer_parts" not in mixture.__dict__
        assert not any(name in derivative.__dict__ for name in ("num", "den", "_integer_parts"))
        for form in (mixture, derivative):
            assert all("_real_form" in t.__dict__ and "_integer_parts" not in t.__dict__
                       for t in form.terms)


class TestConvexCoefficients:
    def test_reference_equalities(self):
        report = check_convex_coefficients(convex_function(16))
        assert report.passed
        assert len(report.params["equalities"]) == 15

    def test_identity(self):
        report = check_convex_coefficients(identity_function(8))
        assert report.passed and report.worst_margin == 1.0

    def test_members_strict(self):
        report = check_convex_coefficients(convex_member(4, starlike_member(4, 16)))
        assert report.passed and report.worst_margin > 0.5


class TestFeketeSzego:
    def test_koebe_lambda_zero(self):
        report = check_fekete_szego(koebe_function(ONE, 8), [exact(0)])
        assert report.passed
        assert report.params["equalities"]  # |a_3| = 3 = max(1, 3)

    def test_koebe_lambda_three_quarters(self):
        report = check_fekete_szego(koebe_function(ONE, 8), [exact(F(3, 4))])
        assert report.passed
        assert report.worst_margin == 1.0  # |3 - 3| = 0 <= 1

    def test_real_lambda_equalities(self):
        fut = koebe_function(I, 8)
        for lam in (exact(0), exact(2), exact(-1)):
            report = check_fekete_szego(fut, [lam])
            gap = abs(4 * float(lam.w) - 3)
            assert report.passed
            if gap >= 1:
                assert report.params["equalities"]

    def test_quaternionic_lambdas(self):
        report = check_fekete_szego(koebe_function(I, 8), sample_lambdas(3, 40))
        assert report.passed

    def test_a_window_without_a_3_is_refused(self):
        """A window says nothing above its degree, so q + q^2/8 has no a_3."""
        short = SliceSeries.from_coeffs([exact(1), exact(F(1, 8))], valuation=1)
        fut = FunctionUnderTest("short", short, certificates=("starlike",))
        with pytest.raises(PreconditionError, match="needs a_3"):
            check_fekete_szego(fut, [exact(0)], SMALL_GRID)


class TestSharperCaratheodory:
    def test_constant_one(self):
        report = check_sharper_caratheodory(constant_function(ONE, 4))
        assert report.passed and report.worst_margin == 2.0

    def test_extremal_equality(self):
        report = check_sharper_caratheodory(caratheodory_extremal_function(I, 8))
        assert report.passed
        assert abs(report.worst_margin) <= 1e-12
        assert report.params["equalities"]

    def test_members(self):
        report = check_sharper_caratheodory(caratheodory_member(5, 16))
        assert report.passed

    def test_a_window_without_a_2_is_refused(self):
        short = SliceSeries.from_coeffs([exact(1), exact(F(1, 2))])
        fut = FunctionUnderTest("short", short, certificates=("caratheodory",))
        with pytest.raises(PreconditionError, match="needs a_2"):
            check_sharper_caratheodory(fut, SMALL_GRID)


class TestCaratheodoryBounds:
    def test_extremal_attains_three_at_half(self):
        report = check_caratheodory_bounds(caratheodory_extremal_function(I, 24),
                                           DEFAULT_GRID)
        assert report.passed
        by_radius = dict((r, m) for r, m in report.params["max_abs_by_radius"])
        assert abs(by_radius[0.5] - 3.0) < 1e-12

    def test_constant(self):
        report = check_caratheodory_bounds(constant_function(ONE, 4), SMALL_GRID)
        assert report.passed and report.worst_margin >= 0.0

    def test_members(self):
        report = check_caratheodory_bounds(caratheodory_member(8, 16), SMALL_GRID)
        assert report.passed


class TestGrowthDistortion:
    def test_koebe_equalities_at_half(self):
        report = check_growth_distortion(koebe_function(ONE, 16), DEFAULT_GRID)
        assert report.passed
        assert abs(report.worst_margin) <= 1e-9

        def attained(x):
            return any(abs(e["q"][0] - x) < 1e-12
                       and max(abs(c) for c in e["q"][1:]) < 1e-12
                       for e in report.params["equalities"])

        assert attained(0.5) and attained(-0.5)

    def test_identity_inside_bands(self):
        report = check_growth_distortion(identity_function(8), SMALL_GRID)
        assert report.passed and report.worst_margin > 0

    def test_members(self):
        report = check_growth_distortion(starlike_member(11, 24), SMALL_GRID)
        assert report.passed

    def test_a_grid_zero_fails_the_modulus_band_without_a_ratio_sample(self):
        """q - 2q^2 vanishes at the grid point 1/2; forced past the starlike
        gate, it fails |f| >= r / (1 + r)^2 there, and the ratio |q f'| / |f|,
        undefined at that point, is not sampled."""
        grid = SamplingGrid.default(radii=(0.5,))
        report = check_growth_distortion(_violator([1, -2], 1, "starlike"), grid)
        assert report.status == "fail"
        worst = min(report.witnesses, key=lambda w: w["margin"])
        assert worst["q"] == quaternion_to_json(Quaternion(0.5, 0.0, 0.0, 0.0))
        assert (worst["lhs"], worst["rhs"]) == (0.5 / 1.5 ** 2, 0.0)
        assert worst["margin"] == report.worst_margin == -0.5 / 1.5 ** 2
        # two |f| and two |f'| samples at each point, and two ratio samples
        # at every point but the zero
        assert report.samples == 6 * len(grid.points) - 2


class TestGrowthOrderM:
    def test_convex_reference_distortion(self):
        report = check_growth_order_m(convex_function(16), 1, DEFAULT_GRID, "distortion")
        assert report.passed
        assert abs(report.worst_margin) <= 1e-9  # sharp on the real axis

    def test_odd_reference_growth(self):
        report = check_growth_order_m(odd_reference_function(16), 2, DEFAULT_GRID, "growth")
        assert report.passed
        assert abs(report.worst_margin) <= 1e-9

    def test_identity_all_orders(self):
        for m in (1, 2, 3):
            report = check_growth_order_m(identity_function(8), m, SMALL_GRID, "growth")
            assert report.passed

    def test_gap_violation_rejected(self):
        fut = starlike_member(2, 16)  # generic: a_2 != 0
        with pytest.raises(PreconditionError):
            check_growth_order_m(fut, 2, SMALL_GRID, "growth")

    def test_distortion_violator_fails_at_its_worst_point(self):
        """q + 3q^2, falsely certified: |f'(r)| = 1 + 6r breaks the upper
        band 1/(1 - r)^2 most on the grid at r = 0.3, a violation past
        the first 16, and the report keeps it as a witness."""
        report = check_growth_order_m(_order_one_violator(), 1, DEFAULT_GRID, "distortion")
        assert report.status == "fail" and len(report.witnesses) == 16
        assert abs(report.worst_margin - (1 / 0.7 ** 2 - 2.8)) < 1e-12
        worst = [w for w in report.witnesses if w["margin"] == report.worst_margin]
        assert [w["q"] for w in worst] == [[0.3, 0.0, 0.0, 0.0]]


class TestSchwarz:
    def test_monomial_equality(self):
        report = check_schwarz(monomial_function(K, 2, 8), 2, SMALL_GRID)
        assert report.passed
        assert report.params["extremal_form"]

    def test_half_monomial_strict(self):
        report = check_schwarz(monomial_function(exact(F(1, 2)), 2, 8), 2, SMALL_GRID)
        assert report.passed
        assert not report.params["extremal_form"]
        # worst margin is r^2/2 at the smallest radius
        assert abs(report.worst_margin - 0.2 ** 2 / 2) < 1e-12

    def test_rogosinski_extremal_order_one(self):
        fut = rogosinski_function(exact(0, F(1, 2)), ONE, 16)
        report = check_schwarz(fut, 1, SMALL_GRID)
        assert report.passed

    def test_low_order_coefficient_rejected(self):
        with pytest.raises(PreconditionError):
            check_schwarz(identity_function(8), 2, SMALL_GRID)


class TestSchwarzPick:
    def test_mobius_times_unit_equality(self):
        fut = mobius_function(exact(0, F(1, 2)), 16, J)
        report = check_schwarz_pick_coefficient(fut, SMALL_GRID)
        assert report.passed
        assert abs(report.worst_margin) <= 1e-9

    def test_constant(self):
        report = check_schwarz_pick_coefficient(constant_function(exact(F(1, 2))),
                                                SMALL_GRID)
        assert report.passed and abs(report.worst_margin - 0.75) < 1e-12

    def test_half_identity(self):
        fut = monomial_function(exact(F(1, 2)), 1, 8)
        report = check_schwarz_pick_coefficient(fut, SMALL_GRID)
        assert report.passed and abs(report.worst_margin - 0.5) < 1e-12

    def test_counterexample_exact(self):
        report = check_schwarz_pick_counterexample()
        assert report.passed
        assert report.params["derivative_modulus_sq"] == "5648/5625"
        assert report.params["classical_bound"] == "68/75"
        assert F(report.params["derivative_modulus_sq"]) == F(50832, 50625)
        assert report.worst_margin > 0  # classical bound strictly violated


class TestRogosinski:
    def test_monomial_b_zero_analogue(self):
        fut = monomial_function(K, 2, 8)
        q0 = Quaternion(0.4, 0.1, 0.0, 0.0)
        report = check_rogosinski(fut, q0, SMALL_GRID)
        assert report.passed
        assert report.params["boundary_attained"]  # |f| = |q0|^2 exactly

    def test_extremal_boundary(self):
        fut = rogosinski_function(exact(0, F(1, 2)), ONE, 24)
        report = check_rogosinski(fut, Quaternion(0.0, 0.0, 0.5, 0.0), SMALL_GRID)
        assert report.passed
        assert report.params["boundary_attained"]

    def test_unit_ball_test_is_exact(self):
        # |q0|^2 < 1 exactly, though it rounds to 1.0: the value is taken at
        # q0 itself, where the extremal attains the boundary of its ball
        fut = rogosinski_function(exact(0, F(1, 2)), ONE, 12)
        q0 = exact(F(9999999999999999999, 10 ** 19))
        assert float(q0.norm_sq()) == 1.0
        report = check_rogosinski(fut, q0, SMALL_GRID)
        assert report.passed
        assert report.params["boundary_attained"]
        with pytest.raises(PreconditionError):
            check_rogosinski(fut, exact(1), SMALL_GRID)

    def test_linear_interior(self):
        b = Quaternion(0.0, 0.3, 0.2, 0.0)
        fut = monomial_function(b, 1, 8)
        report = check_rogosinski(fut, Quaternion(0.5, 0.0, 0.1, 0.0), SMALL_GRID)
        assert report.passed
        assert not report.params["boundary_attained"]
        assert report.worst_margin > 0

    def test_a_map_past_the_largest_radius_fails(self):
        """1.02 q^2 maps only the ball of radius 1/sqrt(1.02) = 0.9901 into
        the unit ball, and the self-map screen reads radii up to 0.99, so
        it admits the map; at q0 = 0.9 its value 1.02 |q0|^2 leaves the
        ball of radius |q0|^2 about 0 that b = 0 fixes."""
        fut = monomial_function(exact(F(51, 50)), 2, 8)
        report = check_rogosinski(fut, Quaternion(0.9, 0.0, 0.0, 0.0), DEFAULT_GRID)
        assert report.status == "fail" and report.witnesses
        assert [w["q"] for w in report.witnesses] == [[0.9, 0.0, 0.0, 0.0]]
        assert report.witnesses[0]["margin"] == report.worst_margin
        assert abs(report.worst_margin + 0.02 * 0.81) < 1e-12


class TestBohr:
    def test_identity(self):
        report = check_bohr(identity_function(8), SMALL_GRID)
        assert report.passed
        assert abs(report.worst_margin - 2.0 / 3.0) < 1e-12

    def test_constant(self):
        report = check_bohr(constant_function(exact(F(1, 2))), SMALL_GRID)
        assert report.passed and abs(report.worst_margin - 0.5) < 1e-12

    def test_mobius(self):
        report = check_bohr(mobius_function(exact(0, F(1, 2)), 32), SMALL_GRID)
        assert report.passed
        assert abs(report.worst_margin - 0.2) < 1e-6

    @pytest.mark.parametrize("a0", [exact(-5), exact(0, 2), exact(F(1, 2), 2)],
                             ids=["negative", "imaginary", "non-real"])
    def test_real_part_screen_needs_a_real_nonnegative_constant(self, a0):
        """Re f <= 1 alone does not bound the sum: the constant -5 would
        pass it and fail with margin -4."""
        with pytest.raises(PreconditionError):
            check_bohr(constant_function(a0), SMALL_GRID)

    def test_one_minus_the_caratheodory_extremal_is_sharp(self):
        """f = 1 - p for p = (1 - q i)^(-*) star (1 + q i), as a quotient
        sum: |f| is unbounded, so only the real-part screen admits it
        (Re f = 1 - Re p < 1, a_0 = 0), and sum_(n=1..16) 2 / 3^n =
        1 - 3^(-16) makes the radius 1/3 sharp."""
        form = QuotientSum((StarQuotient(SliceSeries.one(), SliceSeries.one()),
                            caratheodory_extremal_quotient(I)), (F(1), F(-1)))
        report = check_bohr(FunctionUnderTest("1-p", form.to_series(16), form), DEFAULT_GRID)
        assert report.passed and report.params["screen"] == "real-part"
        assert abs(report.worst_margin - 3.0 ** -16) < 1e-15

    def test_a_violator_between_the_angles_fails(self):
        """1/2 - 10^5 q^8 breaks Re f <= 1 off the grid (Re f > 1 at
        theta = pi/8), but q^8 = r^8 at each of the default grid's eight
        angles, so the screen admits it; its sum 1/2 + 10^5 / 3^8 fails."""
        series = SliceSeries.from_coeffs([exact(F(1, 2))] + [exact(0)] * 7 + [exact(-10 ** 5)])
        report = check_bohr(FunctionUnderTest("violator", series), DEFAULT_GRID)
        assert report.status == "fail" and report.params["screen"] == "real-part"
        assert report.witnesses == ({"n": "sum", "lhs": 0.5 + 10 ** 5 / 3 ** 8, "rhs": 1.0,
                                     "margin": report.worst_margin},)
        assert abs(report.worst_margin + (10 ** 5 / 3 ** 8 - 0.5)) < 1e-12


class TestMonotoneHayman:
    def test_identity_monotone(self):
        report = check_monotone_modulus(identity_function(8), 0.0, SMALL_GRID)
        assert report.passed

    def test_koebe_monotone(self):
        report = check_monotone_modulus(koebe_function(ONE, 16), 0.0, DEFAULT_GRID)
        assert report.passed

    def test_members_monotone(self):
        report = check_monotone_modulus(starlike_member(17, 16), 0.0, SMALL_GRID)
        assert report.passed

    def test_an_order_zero_certificate_skips_only_the_order_zero_screen(self, monkeypatch):
        screened = []
        original = checks_module.is_starlike
        monkeypatch.setattr(checks_module, "is_starlike",
                            lambda *args: screened.append(args[2:]) or original(*args))
        assert check_monotone_modulus(koebe_function(ONE, 16), 0.0, SMALL_GRID).passed
        assert screened == []
        # the identity is starlike of every order below 1, and |q| / r^(1/2) increases
        assert check_monotone_modulus(identity_function(8), 0.5, SMALL_GRID).passed
        assert screened == [(0.5,)]

    def test_koebe_is_not_starlike_of_order_one_half(self):
        """Koebe's certificate is of order 0; at order 1/2 the screen refutes
        it, certified or not."""
        for fut in (koebe_function(ONE, 16),
                    FunctionUnderTest("koebe-window", koebe_function(ONE, 16).series)):
            with pytest.raises(PreconditionError, match=r"starlike\(0\.5\) screen"):
                check_monotone_modulus(fut, 0.5, SMALL_GRID)

    def test_koebe_phi_constant_one(self):
        report = check_hayman(koebe_function(ONE, 16), DEFAULT_GRID)
        assert report.passed
        assert report.params["constant"]
        assert all(abs(phi - 1.0) < 1e-9 for _, phi in
                   zip(DEFAULT_GRID.radii, report.params["phi"]))

    def test_identity_phi_decreasing(self):
        report = check_hayman(identity_function(8), DEFAULT_GRID)
        assert report.passed
        phis = report.params["phi"]
        # the chain starts at phi(0+) = |a_1| = 1
        assert all(abs(phi - (1 - r) ** 2) < 1e-12
                   for r, phi in zip((0.0,) + DEFAULT_GRID.radii, phis))
        assert not report.params["constant"]

    def test_members(self):
        report = check_hayman(starlike_member(23, 16), DEFAULT_GRID)
        assert report.passed

    def test_a_rise_before_the_first_radius_fails(self):
        """q + 3q^2 has phi(r) = (1 - r)^2 (1 + 3r), which rises from
        phi(0+) = 1 to 1.0535 at r = 1/9 and has fallen to 1.053 by the
        first radius; only the link from the exact phi(0+) sees it."""
        bad = FunctionUnderTest("bad", SliceSeries.from_coeffs([ONE, exact(3)], valuation=1),
                                certificates=("starlike",))
        report = check_hayman(bad, DEFAULT_GRID)
        assert report.status == "fail" and report.witnesses
        first = report.witnesses[0]
        assert first["n"] == 1 and first["rhs"] == 1.0
        assert report.worst_margin == first["margin"]
        r = DEFAULT_GRID.radii[0]
        assert abs(first["margin"] + ((1 - r) ** 2 * (1 + 3 * r) - 1)) < 1e-12


class TestKoebeQuarter:
    def test_reference_with_slit(self):
        report = check_koebe_quarter(koebe_function(ONE, 16), DEFAULT_GRID,
                                     check_omitted_slit=True)
        assert report.passed
        assert abs(report.params["min_modulus"] - 0.99 / 1.99 ** 2) < 1e-9
        assert report.params["omitted_point_min_residual"] >= 5e-4

    def test_identity(self):
        report = check_koebe_quarter(identity_function(8), DEFAULT_GRID)
        assert report.passed
        assert abs(report.params["min_modulus"] - 0.99) < 1e-12

    def test_members(self):
        report = check_koebe_quarter(starlike_member(29, 16), DEFAULT_GRID)
        assert report.passed

    def test_a_falsely_certified_map_fails(self):
        """A starlike map keeps |f(q)| >= r/(1 + r)^2, so a violator is not
        starlike: q - q^2 (|f(0.99)| = 0.0099, f'(1/2) = 0) fails the
        starlike screen and runs here under a false certificate."""
        series = SliceSeries.from_coeffs([ONE, exact(-1)], valuation=1).pad_to(8)
        report = check_koebe_quarter(
            FunctionUnderTest("bad", series, certificates=("starlike",)), DEFAULT_GRID)
        assert report.status == "fail" and report.witnesses
        assert [w["q"] for w in report.witnesses] == [[0.99, 0.0, 0.0, 0.0]]
        assert report.witnesses[0]["margin"] == report.worst_margin
        assert abs(report.worst_margin - (0.99 * 0.01 - 0.99 / 1.99 ** 2)) < 1e-12


class TestConvexCovering:
    def test_examples(self):
        report = check_convex_covering_examples(convex_function(), DEFAULT_GRID)
        assert report.passed
        margins = report.params["half_plane_margins"]
        assert all(m > 0 for _, m in margins)
        # margins shrink towards the boundary along the negative real axis
        values = [m for _, m in margins]
        assert values == sorted(values, reverse=True)
        expected = (1 - 0.99) / (2 * (1 + 0.99))
        assert abs(values[-1] - expected) < 1e-12

    def test_a_map_leaving_the_half_plane_fails(self):
        """q - q^2 is not convex: f(-0.99) = -1.9701 lies 1.4701 past the
        half plane Re f > -1/2, the largest violation on the grid."""
        series = SliceSeries.from_coeffs([ONE, exact(-1)], valuation=1).pad_to(48)
        report = check_convex_covering_examples(FunctionUnderTest("bad", series), DEFAULT_GRID)
        assert report.status == "fail" and report.witnesses
        assert abs(report.worst_margin + 1.4701) < 1e-12
        worst = next(w for w in report.witnesses if w["margin"] == report.worst_margin)
        assert abs(worst["q"][0] + 0.99) < 1e-15 and max(map(abs, worst["q"][1:])) < 1e-15


class TestSubordination:
    def test_square_inner(self):
        w = SliceSeries.from_coeffs([ONE], valuation=2).pad_to(16)
        report = check_subordination_growth(koebe_function(ONE, 16), w, SMALL_GRID)
        assert report.passed and report.worst_margin > 0

    def test_half_inner(self):
        w = SliceSeries.from_coeffs([exact(F(1, 2))], valuation=1).pad_to(16)
        report = check_subordination_growth(koebe_function(ONE, 16), w, SMALL_GRID)
        assert report.passed

    def test_identity_inner_member(self):
        w = SliceSeries.identity(16)
        report = check_subordination_growth(close_to_convex_member(2, 16), w, SMALL_GRID)
        assert report.passed

    def test_non_slice_preserving_rejected(self):
        w = SliceSeries.from_coeffs([I], valuation=1)
        with pytest.raises(PreconditionError):
            check_subordination_growth(koebe_function(ONE, 8), w, SMALL_GRID)


class TestQuotientEquivalences:
    def test_trivial_pair(self):
        f = SliceSeries.one(8)
        g = SliceSeries.from_coeffs([ONE, exact(F(1, 2))])
        report = check_quotient_equivalences(f, g, SMALL_GRID)
        assert report.passed
        assert report.params["min_re_pointwise"] > 0
        assert report.params["min_re_star"] > 0

    def test_extremal_pair(self):
        f = SliceSeries.from_coeffs([ONE, -I])
        g = SliceSeries.from_coeffs([ONE, I])
        report = check_quotient_equivalences(f, g, DEFAULT_GRID)
        assert report.passed

    def test_random_pairs(self):
        for seed in range(6):
            f, g = quotient_pair(seed)
            report = check_quotient_equivalences(f, g, SMALL_GRID)
            assert report.passed, (seed, report.params)

    @pytest.mark.parametrize("threshold", [1e-8, 0.3, 0.9])
    def test_skipped_points_are_the_exact_guards_refusals(self, threshold):
        """f = 1 - 2q has f^s = (1 - 2q)^2, so the guard refuses q exactly
        where |1 - 2q|^4 < t^2 as rationals; those are the skipped points,
        and their witnesses carry |f^s(q)|, rounded once."""
        f = SliceSeries.from_coeffs([ONE, exact(-2)])
        g = SliceSeries.from_coeffs([ONE, exact(0, F(1, 4))])
        measures = [(ONE - q.to_exact() * 2).norm_sq() for q in DEFAULT_GRID.points]
        refused = [(q, m) for q, m in zip(DEFAULT_GRID.points, measures)
                   if m * m < F(threshold) ** 2]
        report = check_quotient_equivalences(f, g, DEFAULT_GRID, EvalDomain(threshold))
        assert report.params["skipped"] == len(refused) > 0
        assert report.samples == len(DEFAULT_GRID.points) - len(refused)
        if report.status == "inconclusive":
            assert [(w["q"], w["lhs"]) for w in report.witnesses] == \
                [(quaternion_to_json(q), float(m)) for q, m in refused[:16]]
        else:
            assert report.passed

    @pytest.mark.parametrize("threshold", [1e-300, 1e-8])
    def test_a_float_zero_of_f_beside_the_guard_is_skipped(self, threshold):
        """f(1/2) = 10^-140 exactly, so the guard at 1e-300 accepts q = 1/2,
        where the float window of f rounds to 0; the pointwise side cannot
        divide there, so the point is skipped, as the guard at 1e-8 skips
        it."""
        f = SliceSeries.from_coeffs([ONE, exact(-2), exact(F(4, 10 ** 140))])
        g = SliceSeries.from_coeffs([ONE, exact(0, F(1, 4))])
        grid = SamplingGrid.default(radii=(0.25, 0.5))
        report = check_quotient_equivalences(f, g, grid, EvalDomain(threshold))
        assert report.passed and report.params["skipped"] == 1

    def test_a_subnormal_float_modulus_of_f_is_skipped(self):
        """|f|^2 = 10^-310 passes a guard at 1e-320 but is subnormal as a
        float, where 1 / |f(q)|^2 overflows: every point is skipped."""
        f = SliceSeries.from_coeffs([exact(F(1, 10 ** 155))])
        g = SliceSeries.from_coeffs([ONE, exact(0, F(1, 4))])
        report = check_quotient_equivalences(f, g, SMALL_GRID, EvalDomain(1e-320))
        assert report.status == "inconclusive"
        assert report.params["skipped"] == len(SMALL_GRID.points)

    def test_disagreeing_modulus_verdicts_fail(self):
        """max |g| / |f| = 0.998 < 1 pointwise but max |f^(-*) star g| =
        1.048 > 1 for this pair, so the modulus verdicts disagree; the real
        part verdicts agree (both minima negative), and the one witness
        carries the two maxima."""
        f = SliceSeries.from_coeffs([ONE, exact(F(1, 16), F(-1, 8), F(-1, 8))])
        g = SliceSeries.from_coeffs([exact(F(-1, 2)),
                                     exact(F(-7, 80), F(-7, 40), F(-7, 20), F(-7, 40))])
        report = check_quotient_equivalences(f, g, DEFAULT_GRID)
        params = report.params
        assert report.status == "fail" and params["skipped"] == 0
        ratio, star = params["max_ratio_pointwise"], params["max_star_modulus"]
        assert 0.998 < ratio < 1.0 < 1.047 < star < 1.048
        assert params["min_re_pointwise"] < 0 and params["min_re_star"] < 0
        assert report.witnesses == ({"n": "modulus-verdicts", "lhs": ratio, "rhs": star},)
        assert report.worst_margin == -(1.0 - ratio)

    def test_inconclusive_when_guard_dominates(self):
        f, g = quotient_pair(0)
        report = check_quotient_equivalences(f, g, SMALL_GRID,
                                             domain=EvalDomain(1e6))
        assert report.status == "inconclusive"
        assert not report.passed
        assert report.witnesses


class TestWitnessEntries:
    """A check forms a witness entry only for a sample its report keeps."""

    @pytest.mark.parametrize("make", [
        lambda: check_growth_distortion(starlike_member(3, 16), SMALL_GRID),
        lambda: check_caratheodory_bounds(caratheodory_member(5, 16), SMALL_GRID),
        lambda: check_hayman(starlike_member(23, 16), SMALL_GRID),
        lambda: check_growth_distortion(koebe_function(I, 30), DEFAULT_GRID),
        lambda: check_koebe_quarter(koebe_function(ONE, 16), DEFAULT_GRID,
                                    check_omitted_slit=True),
        lambda: check_bieberbach(koebe_function(ONE, 24)),
        lambda: check_fekete_szego(_uncertified_violator(), sample_lambdas(3, 12), SMALL_GRID),
        lambda: check_growth_distortion(_uncertified_violator(), SMALL_GRID),
        lambda: check_growth_order_m(_order_one_violator(), 1, DEFAULT_GRID, "distortion"),
        lambda: check_subordination_growth(_uncertified_violator(),
                                           SliceSeries.identity(12), SMALL_GRID),
    ], ids=["growth-member", "caratheodory-member", "hayman-member", "growth-koebe-i",
            "koebe-quarter", "bieberbach-koebe", "fekete-szego-violator",
            "growth-violator", "order-one-violator", "subordination-violator"])
    def test_k_kept_entries_form_k_entries(self, make, monkeypatch):
        formed = []
        original = checks_module._Collector._entry
        monkeypatch.setattr(checks_module._Collector, "_entry",
                            lambda self, *args: formed.append(args) or original(self, *args))
        report = make()
        kept = len(report.witnesses) + len(report.params.get("equalities", ()))
        assert len(formed) == kept


# every class a check can ask for, so that no screen stops a drawn window
_ALL_CLASSES = ("starlike", "close-to-convex", "derivative-starlike", "caratheodory",
                "ball-self-map")

# every check that samples lhs <= rhs through the collector
_SAMPLE_CHECKS = {
    "bieberbach": lambda f, g: check_bieberbach(f, SMALL_GRID),
    "convex-coefficients": lambda f, g: check_convex_coefficients(f, SMALL_GRID),
    "fekete-szego": lambda f, g: check_fekete_szego(f, sample_lambdas(5, 12), SMALL_GRID),
    "sharper-caratheodory": lambda f, g: check_sharper_caratheodory(f, SMALL_GRID),
    "caratheodory-bounds": lambda f, g: check_caratheodory_bounds(f, SMALL_GRID),
    "growth-distortion": lambda f, g: check_growth_distortion(f, SMALL_GRID),
    "growth-order-1-growth": lambda f, g: check_growth_order_m(f, 1, SMALL_GRID, "growth"),
    "growth-order-1-distortion":
        lambda f, g: check_growth_order_m(f, 1, SMALL_GRID, "distortion"),
    "schwarz": lambda f, g: check_schwarz(f, f.series.valuation, SMALL_GRID),
    "schwarz-pick-coefficient": lambda f, g: check_schwarz_pick_coefficient(f, SMALL_GRID),
    "rogosinski": lambda f, g: check_rogosinski(f, Quaternion(0.5, 0.1, 0.0, 0.3), SMALL_GRID),
    "bohr": lambda f, g: check_bohr(f, SMALL_GRID),
    "monotone-modulus": lambda f, g: check_monotone_modulus(f, 0.0, SMALL_GRID),
    "hayman": lambda f, g: check_hayman(f, SMALL_GRID),
    "koebe-quarter": lambda f, g: check_koebe_quarter(f, SMALL_GRID, check_omitted_slit=True),
    "convex-covering": lambda f, g: check_convex_covering_examples(g, SMALL_GRID),
    "subordination-growth":
        lambda f, g: check_subordination_growth(f, SliceSeries.identity(6), SMALL_GRID),
}


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def _drawn_windows(draw):
    """An exact window with small rational coefficients and every class
    certificate forced, and the same tail after q, normalized so that the
    convex covering check takes it."""
    component = st.integers(-12, 12).map(lambda n: F(n, 4))
    coeffs = draw(st.lists(st.builds(Quaternion, component, component, component, component),
                           min_size=1, max_size=4))
    valuation = draw(st.integers(0, 1))
    f = SliceSeries.from_coeffs(coeffs, valuation=valuation).pad_to(6)
    g = SliceSeries.from_coeffs([ONE] + coeffs, valuation=1).pad_to(6)
    return (FunctionUnderTest("drawn", f, certificates=_ALL_CLASSES),
            FunctionUnderTest("drawn-normalized", g, certificates=_ALL_CLASSES))


@pytest.mark.fuzz
class TestSampleForm:
    """Every collector sample is one lhs <= rhs: its margin is rhs - lhs,
    a failing report's worst margin is its least witness margin, and a
    sample is an equality entry exactly when |rhs - lhs| <=
    1e-9 max(|lhs|, |rhs|, 1) (while fewer than 64 are kept)."""

    @given(_drawn_windows())
    @settings(max_examples=settings.default.max_examples // 2, deadline=None)
    def test_every_sample_is_lhs_at_most_rhs(self, windows):
        original = checks_module._Collector.check

        def spy(col, key, lhs, rhs):
            kept = len(col.equalities)
            original(col, key, lhs, rhs)
            band = abs(rhs - lhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)
            assert (len(col.equalities) > kept) == (band and kept < 64), (key, lhs, rhs)

        reports = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks_module._Collector, "check", spy)
            for run in _SAMPLE_CHECKS.values():
                try:
                    reports.append(run(*windows))
                # the window breaks a precondition outside the class gates
                except (PreconditionError, DomainError):
                    pass
        for report in reports:
            for entry in report.witnesses + tuple(report.params.get("equalities", ())):
                assert _bits(entry["margin"]) == _bits(entry["rhs"] - entry["lhs"]), entry
            if report.status == "fail":
                assert report.worst_margin == min(w["margin"] for w in report.witnesses)

    def test_the_property_runs_every_collector_check(self):
        sampled = {name for name, f in inspect.getmembers(checks_module, inspect.isfunction)
                   if "_Collector(" in inspect.getsource(f)}
        run = {name for f in _SAMPLE_CHECKS.values() for name in f.__code__.co_names}
        assert len(sampled) == 16 and sampled <= run


class TestSelfMapGate:
    """c q with c 0.99 = 1 + 5e-10 leaves the ball at the grid's largest
    radius by less than the point tolerance, so only a gate without slack
    refuses it."""

    C = F(2000000001, 2000000000) / F(99, 100)

    @pytest.mark.parametrize("run", [
        lambda f: check_schwarz(f, 1),
        lambda f: check_schwarz_pick_coefficient(f),
        lambda f: check_rogosinski(f, Quaternion(0.5, 0.0, 0.0, 0.0)),
        lambda f: check_subordination_growth(koebe_function(ONE, 8), f.series),
    ], ids=["schwarz", "schwarz-pick-coefficient", "rogosinski", "subordination-inner"])
    def test_every_self_map_check_refuses_it(self, run):
        fut = monomial_function(exact(self.C), 1, 8)
        assert 1.0 < max(map(abs, fut.sweep(DEFAULT_GRID))) < 1.0 + 1e-9
        with pytest.raises(PreconditionError, match=r"failed the ball-self-map screen: "
                                                    r"\{'q': \[0\.99, 0\.0, 0\.0, 0\.0\]"):
            run(fut)

    def test_the_screen_is_a_sampled_verdict(self):
        verdict = classes_module.is_self_map(monomial_function(exact(F(1, 2)), 1, 8))
        assert verdict.member and verdict.certificate == "sampled"
        assert verdict.margin == 1.0 - 0.99 / 2


def _order_one_violator() -> FunctionUnderTest:
    """q + 3q^2, falsely certified so that q f' counts as starlike."""
    series = SliceSeries.from_coeffs([ONE, exact(3)], valuation=1)
    return FunctionUnderTest("violator", series, certificates=("derivative-starlike",))


def _uncertified_violator() -> FunctionUnderTest:
    """a_2 = 3, a_3 = 2i, falsely certified so that the checks run on it."""
    series = SliceSeries.from_coeffs([ONE, exact(3), exact(0, 2)], valuation=1).pad_to(12)
    return FunctionUnderTest("violator", series,
                             certificates=("starlike", "close-to-convex"))


def _violator(coeffs, valuation: int, *certificates: str) -> FunctionUnderTest:
    """A window that breaks a check's bound, with the certificates forced
    so that the class gate admits it."""
    series = SliceSeries.from_coeffs([exact(c) for c in coeffs], valuation=valuation)
    return FunctionUnderTest("violator", series.pad_to(8), certificates=certificates)


def _scaled_koebe(scale: F) -> FunctionUnderTest:
    """Koebe(1) times a scale just above 1, with its exact form: starlike,
    but it leaves the bounds of the normalized class by the factor."""
    koebe = koebe_function(ONE, 16)
    return FunctionUnderTest("violator", koebe.series.scale(scale),
                             StarQuotient(koebe.form.num.scale(scale), koebe.form.den),
                             certificates=("starlike",))


class TestEveryCheckCanFail:
    """Each check fails its violator, and the worst violation is a witness.
    The expected margins are the bounds' values at the worst sample."""

    @pytest.mark.parametrize("make, worst_margin", [
        # |a_2| = 3 against 1
        (lambda: check_convex_coefficients(_order_one_violator()), 1 - 3),
        # lambda = 4: |0 - 4 * 9| against |16 - 3|
        (lambda: check_fekete_szego(_violator([1, 3], 1, "starlike"), sample_lambdas(7, 25)),
         13 - 36),
        # the ratio r |f'| / |f| = 0.24 / 0.03 at q = -0.3 against 1.3 / 0.7
        (lambda: check_growth_distortion(_violator([1, 3], 1, "starlike")),
         1.3 / 0.7 - 8),
        # |g'(0.1)| = 1.6 against 1.1 / 0.9^3
        (lambda: check_subordination_growth(_violator([1, 3], 1, "starlike"),
                                            SliceSeries.identity(8)),
         1.1 / 0.9 ** 3 - 1.6),
        # Re p(-0.99) = -1.97 against 0.01 / 1.99
        (lambda: check_caratheodory_bounds(_violator([1, 3], 0, "caratheodory")),
         -1.97 - 0.01 / 1.99),
        # |0 - 9 / 2| against 2 - 9 / 2
        (lambda: check_sharper_caratheodory(_violator([1, 3], 0, "caratheodory")),
         -7),
        # |f(0.6i)| = 0.6 - 3 * 0.216 against 0.6 / 1.36
        (lambda: check_growth_order_m(_violator([1, 0, 3], 1, "starlike"), 2),
         0.048 - 0.6 / 1.36),
        # |f(0.9)| = 0.171 after |f(0.8)| = 0.224
        (lambda: check_monotone_modulus(_violator([1, F(-9, 10)], 1, "starlike")),
         0.171 - 0.224),
        # |a_1| = 1.001 against 1
        (lambda: check_schwarz(_violator([F(1001, 1000)], 1), 1),
         1 - 1.001),
        (lambda: check_schwarz_pick_coefficient(_violator([F(1001, 1000)], 1)),
         1 - 1.001),
        # phi = 1 + 1.5e-6 throughout against the limit 1: a violation of
        # 1.5 tol, which the check admitted while it added tol to the slack
        (lambda: check_hayman(_scaled_koebe(F(2000003, 2000000))), -1.5e-6),
        # |f(-0.99) + 1/4| lies 6e-6 r / (1 + r)^2 below the slit floor at
        # r = 0.99, again 1.5 tol
        (lambda: check_koebe_quarter(_scaled_koebe(F(500003, 500000)), check_omitted_slit=True),
         -6e-6 * 0.99 / 1.99 ** 2),
    ], ids=["convex-coefficients", "fekete-szego", "growth-distortion",
            "subordination-growth", "caratheodory-bounds", "sharper-caratheodory",
            "growth-order-2-growth", "monotone-modulus", "schwarz",
            "schwarz-pick-coefficient", "hayman", "koebe-quarter"])
    def test_the_violator_fails_at_its_worst_sample(self, make, worst_margin, request):
        report = make()
        assert report.check_id == request.node.callspec.id
        assert report.status == "fail" and report.witnesses
        assert min(w["margin"] for w in report.witnesses) == report.worst_margin
        assert abs(report.worst_margin - worst_margin) < 1e-12


class TestSuitesAndReports:
    def test_all_suites_pass_small(self):
        cfg = SuiteConfig(degree=16, seed=3, random_count=1, grid=SMALL_GRID)
        reports = run_suites(list(SUITES), cfg)
        assert reports and all(r.passed for r in reports)

    @pytest.mark.parametrize("setting", [{"degree": 7}, {"tol": 0}, {"random_count": -1}])
    def test_config_rejects_out_of_range_settings(self, setting):
        with pytest.raises(DomainError):
            SuiteConfig(**setting)

    def test_report_json_contract(self):
        report = check_bieberbach(koebe_function(ONE, 8))
        data = report.to_json_dict()
        for key in ("check", "function", "passed", "worst_margin", "samples",
                    "valid_degree", "witnesses"):
            assert key in data
        json.dumps(data)  # serializable

    def test_failed_reports_carry_witnesses(self):
        fut = koebe_function(ONE, 8)
        bad = SliceSeries.from_coeffs([ONE, exact(5)], valuation=1).pad_to(8)
        # coefficient 5 breaks the bound; screen bypassed via certificates
        from srgft.classes import FunctionUnderTest
        cheat = FunctionUnderTest("bad", bad, certificates=("starlike",))
        report = check_bieberbach(cheat)
        assert not report.passed and report.witnesses
        assert report.status == "fail"


class TestOneEvaluator:
    def test_the_subordination_and_quotient_windows_are_read_through_sweeps(self, monkeypatch):
        """Every window value of these suites comes from a FunctionUnderTest
        sweep, the inner identity is swept once for its three tasks, and a
        seed-7 pass stays within its evaluation and Horner-step budgets."""
        cfg = SuiteConfig()
        evaluators = {FunctionUnderTest.values.__code__,
                      FunctionUnderTest.derivative_values.__code__}
        strays, evaluations, steps = [], Counter(), Counter()
        suite = [None]
        original_series_values = SliceSeries.values

        def spied(series, points):
            # the caller, or the caller of `SliceSeries.eval`
            frame = sys._getframe(1)
            if not {frame.f_code, frame.f_back.f_code} & evaluators:
                strays.append(frame.f_code.co_name)
            points = tuple(points)
            evaluations[suite[0]] += len(points)
            steps[suite[0]] += len(points) * (len(series.coeffs) - 1)
            return original_series_values(series, points)

        swept = Counter()
        original_values = FunctionUnderTest.values
        monkeypatch.setattr(SliceSeries, "values", spied)
        monkeypatch.setattr(FunctionUnderTest, "values", lambda fut, points:
                            swept.update([id(fut)]) or original_values(fut, points))
        for name in ("subordination", "quotient"):
            tasks = SUITES[name](cfg)
            suite[0] = name
            assert all(task().passed for task in tasks)
        identity = cfg.build(identity_function)
        assert sum(task.args[1] is identity for task in SUITES["subordination"](cfg)) == 3
        assert swept[id(identity)] == 1
        assert strays == []
        assert evaluations["subordination"] <= 2860 and steps["subordination"] <= 102960
        assert steps["quotient"] <= 9460


def _json_bytes(reports) -> bytes:
    return json.dumps([r.to_json_dict() for r in reports], indent=2).encode()


def _wrap_tasks(monkeypatch, wrap):
    """Replace every suite builder by one that wraps each task it builds."""
    for name, build in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, lambda cfg, _build=build:
                            [wrap(task) for task in _build(cfg)])


class TestSharedBuilds:
    """One run builds each member once and sweeps each function's grid once,
    and no suite sees another's state through the shared members."""

    def test_each_suite_alone_equals_its_slice_of_the_full_run(self):
        full = run_suites(list(SUITES), SuiteConfig())
        start = 0
        for name in SUITES:
            alone = run_suites([name], SuiteConfig())
            assert _json_bytes(alone) == _json_bytes(full[start:start + len(alone)]), name
            start += len(alone)
        assert start == len(full)

    def test_one_build_per_member_and_one_sweep_per_function(self, monkeypatch):
        cfg = SuiteConfig()
        running = [False]
        generated = []
        # the certified generators and every built-in function or member
        makers = [(module, name) for module in (checks_module, classes_module)
                  for name in ("generate_starlike_small_coeff", "generate_caratheodory",
                               "generate_close_to_convex") if hasattr(module, name)]
        makers += [(checks_module, name) for name, fn in vars(checks_module).items()
                   if inspect.isfunction(fn) and fn.__module__ == checks_module.__name__
                   and inspect.signature(fn).return_annotation == "FunctionUnderTest"]
        assert len(makers) > 15
        for module, name in makers:
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _o=original, _n=name:
                                generated.append((_n, running[0])) or _o(*args))
        sweeps: dict[tuple[int, str], list] = {}  # (id, kind) -> [function, count]
        for kind in ("values", "derivative_values"):
            original = getattr(FunctionUnderTest, kind)

            def counted(fut, points, _o=original, _kind=kind):
                if len(points) == len(cfg.grid.points):
                    sweeps.setdefault((id(fut), _kind), [fut, 0])[1] += 1
                return _o(fut, points)

            monkeypatch.setattr(FunctionUnderTest, kind, counted)

        def flagged(task):
            def run():
                running[0] = True
                try:
                    return task()
                finally:
                    running[0] = False
            return run

        _wrap_tasks(monkeypatch, flagged)
        reports = run_suites(list(SUITES), cfg)
        assert all(r.passed for r in reports)
        starlike = [n for n, _ in generated if n == "generate_starlike_small_coeff"]
        assert len(starlike) == 10
        assert not [n for n, in_task in generated if in_task]
        assert sweeps and all(count == 1 for _, count in sweeps.values())

    def test_a_member_is_freed_after_its_last_task(self, monkeypatch):
        order: list[list] = []

        def recorded(task):
            refs = [weakref.ref(arg) for arg in getattr(task, "args", ())
                    if isinstance(arg, FunctionUnderTest)]
            order.append(refs)
            index = len(order) - 1

            def run():
                used_later = {id(ref()) for refs in order[index:] for ref in refs}
                for refs in order[:index]:
                    for ref in refs:
                        assert ref() is None or id(ref()) in used_later
                return task()
            return run

        _wrap_tasks(monkeypatch, recorded)
        run_suites(list(SUITES), SuiteConfig())
        assert sum(map(len, order)) > 50
        assert all(ref() is None for refs in order for ref in refs)
