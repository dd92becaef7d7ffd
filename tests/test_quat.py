"""Quaternion arithmetic, parsing and algebraic invariants."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from series_reference import reference_pow
from srgft.errors import DomainError, QuaternionParseError
from srgft.quat import (I, J, K, ONE, ImaginaryUnit, Quaternion,
                        format_quaternion, parse_quaternion,
                        quaternion_from_json, quaternion_to_json)

# Independent oracle: hand-derived basis product table from
# i^2 = j^2 = k^2 = ijk = -1. Entries: table[a][b] = (sign, basis index).
_BASIS_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def oracle_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    out = [F(0)] * 4
    pc = (p.w, p.x, p.y, p.z)
    qc = (q.w, q.x, q.y, q.z)
    for a in range(4):
        for b in range(4):
            sign, target = _BASIS_TABLE[(a, b)]
            out[target] += sign * pc[a] * qc[b]
    return Quaternion(*out)


def exact(w=0, x=0, y=0, z=0):
    return Quaternion(F(w), F(x), F(y), F(z))


exact_scalars = st.fractions(min_value=-4, max_value=4, max_denominator=64)
exact_quats = st.builds(Quaternion, exact_scalars, exact_scalars,
                        exact_scalars, exact_scalars)
float_scalars = st.floats(min_value=-4, max_value=4, allow_nan=False)
float_quats = st.builds(Quaternion, float_scalars, float_scalars,
                        float_scalars, float_scalars)


class TestMultiplication:
    def test_basis_rules(self):
        assert I * J == K
        assert J * K == I
        assert K * I == J
        assert J * I == -K
        assert I * I == -ONE

    def test_identity(self):
        q = exact(1, 2, 3, 4)
        assert q * ONE == q
        assert ONE * q == q

    def test_half_units_against_oracle(self):
        a = exact(0, F(1, 2), 0, 0)
        q = exact(0, 0, F(1, 2), 0)
        assert a * q == exact(0, 0, 0, F(1, 4))
        assert a * q == oracle_mul(a, q)

    @given(exact_quats, exact_quats)
    @settings(max_examples=60)
    def test_matches_oracle(self, p, q):
        assert p * q == oracle_mul(p, q)

    @given(exact_quats, exact_quats)
    @settings(max_examples=60)
    def test_norm_multiplicative_exact(self, p, q):
        assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()

    @given(float_quats, float_quats)
    @settings(max_examples=60)
    def test_norm_multiplicative_float(self, p, q):
        lhs = float((p * q).norm_sq())
        rhs = float(p.norm_sq()) * float(q.norm_sq())
        assert abs(lhs - rhs) <= 2.0 ** -40 * max(1.0, abs(rhs))

    @given(exact_quats, exact_quats, exact_quats)
    @settings(max_examples=40)
    def test_associative_distributive_exact(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(float_quats, float_quats, float_quats)
    @settings(max_examples=40)
    def test_associative_float(self, p, q, r):
        a = (p * q) * r
        b = p * (q * r)
        scale = max(1.0, abs(a), abs(b))
        assert abs(a - b) <= 2.0 ** -40 * scale

    @given(exact_quats, exact_quats)
    @settings(max_examples=60)
    def test_conjugation_antihomomorphism(self, p, q):
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()


class TestInverse:
    def test_examples(self):
        assert ONE.inverse() == ONE
        assert I.inverse() == -I
        q = exact(1, 1, 1, 1)
        assert q.inverse() == exact(F(1, 4), F(-1, 4), F(-1, 4), F(-1, 4))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            exact(0).inverse()

    @given(exact_quats)
    @settings(max_examples=60)
    def test_round_trip(self, q):
        if q.is_zero():
            return
        assert q * q.inverse() == ONE
        assert q.inverse() * q == ONE


class TestDecompose:
    def test_simple(self):
        x, y, unit = exact(3, 4).decompose()
        assert (x, y) == (F(3), F(4))
        assert unit == ImaginaryUnit(F(1), F(0), F(0))

    def test_real_convention(self):
        x, y, unit = exact(5).decompose()
        assert (x, y) == (F(5), F(0))
        assert unit == ImaginaryUnit(F(1), F(0), F(0))

    def test_irrational_modulus(self):
        x, y, unit = exact(0, 0, 1, -1).decompose()
        assert x == 0.0
        assert abs(y - math.sqrt(2)) < 1e-15
        assert abs(float(unit.y) - 1 / math.sqrt(2)) < 1e-15
        assert abs(float(unit.z) + 1 / math.sqrt(2)) < 1e-15

    @given(exact_quats)
    @settings(max_examples=60)
    def test_recompose_identity(self, q):
        x, y, unit = q.decompose()
        rebuilt = Quaternion.from_real(x) + unit.as_quaternion() * y
        if q.is_exact and rebuilt.is_exact:
            assert rebuilt == q
        else:
            assert abs(rebuilt - q.to_float()) < 1e-12


class TestParsing:
    def test_rational_terms(self):
        assert parse_quaternion("1/2i") == exact(0, F(1, 2))
        phi = parse_quaternion("-204/225-96/225k")
        assert phi == exact(F(-204, 225), 0, 0, F(-96, 225))
        assert phi.is_exact

    def test_float_mode(self):
        q = parse_quaternion("0.5+0.25i-0.1k")
        assert not q.is_exact
        assert q == Quaternion(0.5, 0.25, 0.0, -0.1)

    def test_bare_units(self):
        assert parse_quaternion("i") == I
        assert parse_quaternion("-j+k") == -J + K
        assert parse_quaternion("3") == exact(3)

    @pytest.mark.parametrize("bad", ["", "1++2", "1i2", "qq", "1/0i", "i+i"])
    def test_errors_carry_position(self, bad):
        with pytest.raises(QuaternionParseError) as err:
            parse_quaternion(bad)
        assert err.value.position >= 0

    @given(exact_quats)
    @settings(max_examples=80)
    def test_round_trip_exact(self, q):
        assert parse_quaternion(format_quaternion(q)) == q

    @given(float_quats)
    @settings(max_examples=80)
    def test_round_trip_float(self, q):
        back = parse_quaternion(format_quaternion(q))
        if q.is_zero():
            assert back.is_zero()
        else:
            assert not back.is_exact
            assert back == q

    @given(exact_quats)
    @settings(max_examples=40)
    def test_json_round_trip(self, q):
        assert quaternion_from_json(quaternion_to_json(q)) == q
        qf = q.to_float()
        assert quaternion_from_json(quaternion_to_json(qf)) == qf


class TestImaginaryUnit:
    def test_square_is_minus_one(self):
        for unit in (ImaginaryUnit(1, 0, 0), ImaginaryUnit(0, 1, 0),
                     ImaginaryUnit(F(3, 5), F(4, 5), 0)):
            q = unit.as_quaternion()
            assert q * q == -ONE

    def test_norm_enforced(self):
        with pytest.raises(DomainError):
            ImaginaryUnit(F(1), F(1), F(0))
        with pytest.raises(DomainError):
            ImaginaryUnit(0.5, 0.5, 0.5)

    @pytest.mark.parametrize("v", [(1.0, 2.0, 2.0), (-3.0, 0.0, 4.0), (0.0, 0.0, -1.0),
                                   (1 / 3, 2 ** -20, -5.5), (1e6, -7.25, 2 ** 19)])
    @pytest.mark.parametrize("k", [600, -600, 1000, -1000])
    def test_from_vector_is_invariant_under_a_power_of_two(self, v, k):
        """A vector whose squared norm overflows or underflows normalizes
        to the unit of the vector itself, bit for bit."""
        want = ImaginaryUnit.from_vector(*v)
        got = ImaginaryUnit.from_vector(*(math.ldexp(c, k) for c in v))
        assert (got.x, got.y, got.z) == (want.x, want.y, want.z)

    def test_from_vector_of_tiny_and_huge_directions(self):
        """Squares that are subnormal, underflow or overflow; a normal sum
        keeps its bits."""
        third = ImaginaryUnit.from_vector(1, 2, 2)
        for scale in (1e-155, 1e-170, 1e-300, 1e150, 1e200):
            u = ImaginaryUnit.from_vector(scale, 2 * scale, 2 * scale)
            assert abs(u.x - third.x) <= 2.5e-16 and abs(u.y - third.y) <= 2.5e-16
        assert ImaginaryUnit.from_vector(1e-170, 1e-170, 0) == \
            ImaginaryUnit.from_vector(1e-170 * 2 ** 600, 1e-170 * 2 ** 600, 0)
        assert ImaginaryUnit.from_vector(0, 1e200, 0) == ImaginaryUnit(0.0, 1.0, 0.0)
        assert ImaginaryUnit.from_vector(5e-324, 0, 0) == ImaginaryUnit(1.0, 0.0, 0.0)
        u = ImaginaryUnit.from_vector(1 / 3, 2 / 3, 2 / 3)
        n = math.sqrt((1 / 3) ** 2 + (2 / 3) ** 2 + (2 / 3) ** 2)
        assert (u.x, u.y, u.z) == ((1 / 3) / n, (2 / 3) / n, (2 / 3) / n)
        for zero in ((0, 0, 0), (0.0, -0.0, 0.0)):
            with pytest.raises(DomainError, match="zero direction"):
                ImaginaryUnit.from_vector(*zero)

    def test_circle_point(self):
        unit = ImaginaryUnit(0, 1, 0)
        q = unit.circle_point(math.pi / 2, 0.5)
        assert abs(q - Quaternion(0.0, 0.0, 0.5, 0.0)) < 1e-15


class TestNonFinite:
    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            Quaternion(float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            Quaternion(0.0, float("inf"), 0.0, 0.0)

    def test_mixed_mode_promotes(self):
        q = Quaternion(F(1, 2), 0.5, F(0), F(0))
        assert not q.is_exact
        assert q.w == 0.5


def _kinds(q: Quaternion) -> set:
    return {type(v) for v in (q.w, q.x, q.y, q.z)}


class TestScalarMode:
    """Exactly written constants take the mode of the operand."""

    @pytest.mark.parametrize("q, kind", [
        (Quaternion(F(1, 2), F(-1, 3), 0, F(2)), F),
        (Quaternion(0.5, -0.25, 0.0, 2.0), float),
    ], ids=["exact", "float"])
    def test_constructors_keep_the_operand_mode(self, q, kind):
        for value in (Quaternion.from_real(q.w), q.imag(), q.inverse()):
            assert _kinds(value) == {kind}

    @pytest.mark.parametrize("text, kind", [("0.5i", float), ("1/2i", F)])
    def test_parsed_literal_has_one_mode(self, text, kind):
        assert _kinds(parse_quaternion(text)) == {kind}


def _reprs(q: Quaternion) -> tuple:
    return tuple(repr(v) for v in (q.w, q.x, q.y, q.z))


class TestPower:
    @given(exact_quats, st.integers(0, 40))
    @settings(max_examples=100)
    def test_exact_power_matches_the_reference(self, q, n):
        assert _reprs(q ** n) == _reprs(reference_pow(q, n))

    @given(float_quats, st.integers(0, 40))
    @settings(max_examples=200)
    def test_float_power_matches_the_reference_bit_for_bit(self, q, n):
        assert _reprs(q ** n) == _reprs(reference_pow(q, n))

    @pytest.mark.parametrize("n", [-1, 1.0, F(2)])
    def test_power_needs_a_nonnegative_int(self, n):
        with pytest.raises(DomainError):
            ONE ** n


# one component of each kind the constructor meets
COMPONENTS = {
    "fraction": F(-3, 7),
    "int": 5,
    "bool": True,
    "float": -0.0,
    "inf": float("inf"),
    "nan": float("nan"),
    "huge": F(10 ** 400, 3),
    "str": "1",
}


def _expected(kinds):
    """Error type, or the component types and values, by the mode rules."""
    values = [COMPONENTS[k] for k in kinds]
    for k in kinds:  # components are coerced in order; the first bad one raises
        if k == "str":
            return TypeError
        if k in ("inf", "nan"):
            return DomainError
    if any(type(v) is float for v in values):
        if "huge" in kinds:
            return DomainError
        return [(float, float(v)) for v in values]
    return [(F, F(v)) for v in values]


class TestConstructorModes:
    """The fast path for normal components keeps every rule of coercion."""

    @given(st.lists(st.sampled_from(sorted(COMPONENTS)), min_size=4, max_size=4))
    @settings(max_examples=300)
    def test_mode_rules(self, kinds):
        want = _expected(kinds)
        if isinstance(want, type):
            with pytest.raises(want):
                Quaternion(*(COMPONENTS[k] for k in kinds))
            return
        q = Quaternion(*(COMPONENTS[k] for k in kinds))
        got = [(type(v), v) for v in (q.w, q.x, q.y, q.z)]
        assert [t for t, _ in got] == [t for t, _ in want]
        assert [repr(v) for _, v in got] == [repr(v) for _, v in want]

    def test_normal_components_are_kept_as_given(self):
        comps = (0.5, -0.0, 1e-300, 2.0)
        q = Quaternion(*comps)
        assert all(a is b for a, b in zip((q.w, q.x, q.y, q.z), comps))
        exact_comps = (F(1, 2), F(0), F(-5, 3), F(7))
        q = Quaternion(*exact_comps)
        assert all(a is b for a, b in zip((q.w, q.x, q.y, q.z), exact_comps))
        assert q.is_exact and not q.to_float().is_exact

    def test_subclasses_take_the_coercion_path(self):
        class Half(float):
            pass

        q = Quaternion(Half(0.5), 0.0, 0.0, 0.0)
        assert type(q.w) is float and not q.is_exact

    def test_huge_rational_to_float_is_a_domain_error(self):
        with pytest.raises(DomainError, match="too large for a float"):
            Quaternion(F(10 ** 400), 0, 0, 0).to_float()


def _abs_outcome(evaluate):
    """The repr of the float, or the error type."""
    try:
        return repr(evaluate())
    except OverflowError as exc:
        return type(exc)


# numerators and denominators from 1 to about 10^300 digits in size
huge_ints = st.integers(0, 300).flatmap(lambda e: st.integers(-10 ** e, 10 ** e))
huge_fractions = st.builds(F, huge_ints, huge_ints.filter(bool))


class TestModulus:
    """abs of an exact quaternion sums squared numerators over one lcm; it
    is bit for bit sqrt(float(|q|^2)), overflow included."""

    @given(st.tuples(*[huge_fractions] * 4).map(lambda c: Quaternion(*c)))
    @settings(max_examples=300)
    def test_exact_matches_the_float_of_the_norm(self, q):
        assert _abs_outcome(lambda: abs(q)) == \
            _abs_outcome(lambda: math.sqrt(float(q.norm_sq())))

    @pytest.mark.parametrize("q", [
        exact(F(3, 5), F(4, 5)), exact(0), exact(F(1, 3), F(-1, 3), F(1, 3), F(1, 3)),
        Quaternion(F(10 ** 300, 7), F(-(10 ** 300), 11), 0, 0) * F(1, 10 ** 200),
        Quaternion(F(1, 10 ** 300), F(1, 3 * 10 ** 299), 0, 0)])
    def test_examples(self, q):
        assert repr(abs(q)) == repr(math.sqrt(float(q.norm_sq())))

    def test_oversized_value_overflows(self):
        q = Quaternion(F(10 ** 300, 7), F(-(10 ** 300), 11), 0, 0)
        for evaluate in (lambda: abs(q), lambda: math.sqrt(float(q.norm_sq()))):
            with pytest.raises(OverflowError):
                evaluate()

    @given(float_quats)
    def test_float_is_unchanged(self, q):
        assert repr(abs(q)) == repr(math.sqrt(q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z))
