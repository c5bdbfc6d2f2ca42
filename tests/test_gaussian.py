from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from donaldson.constructions import catalog
from donaldson.exppoly import ExpPolynomial
from donaldson.gaussian import GaussianRational, I, ONE, ZERO
from donaldson.gluing import GluedSeries, GluingSpec, glued_to_json
from donaldson.lattice import HClass
from donaldson.series import DonaldsonSeries, series_to_json


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)
nonzero_gaussians = gaussians.filter(lambda z: not z.is_zero)


def test_i_powers_cycle():
    assert GaussianRational.i_power(0) == 1
    assert GaussianRational.i_power(1) == I
    assert GaussianRational.i_power(2) == -1
    assert GaussianRational.i_power(3) == -I
    assert GaussianRational.i_power(-1) == -I
    assert GaussianRational.i_power(-6) == -1
    assert I * I == -ONE


def test_mixed_arithmetic_with_ints_and_fractions():
    z = GaussianRational(Fraction(1, 2), 3)
    assert z + 1 == GaussianRational(Fraction(3, 2), 3)
    assert 2 * z == GaussianRational(1, 6)
    assert z - Fraction(1, 2) == GaussianRational(0, 3)
    assert (1 - z).re == Fraction(1, 2)


def test_division_exact():
    z = GaussianRational(3, 4)
    w = GaussianRational(1, -2)
    assert (z / w) * w == z
    assert (ONE / I) == -I
    with pytest.raises(ZeroDivisionError):
        z / ZERO


def test_power_including_negative():
    z = GaussianRational(1, 1)
    assert z**2 == GaussianRational(0, 2)
    assert z**0 == ONE
    assert z**-2 == ONE / GaussianRational(0, 2)


def test_rational_extraction():
    assert GaussianRational(Fraction(5, 3)).rational() == Fraction(5, 3)
    with pytest.raises(ValueError):
        I.rational()


def test_immutability_and_hash():
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(0)
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({GaussianRational(1, 2), GaussianRational(1, 2)}) == 1


@pytest.mark.parametrize(
    "value",
    [
        ZERO,
        ONE,
        I,
        -I,
        GaussianRational(Fraction(-3, 7)),
        GaussianRational(0, Fraction(5, 2)),
        GaussianRational(Fraction(1, 2), Fraction(-4, 3)),
        GaussianRational(-2, -2),
    ],
)
def test_token_round_trip(value):
    assert GaussianRational.from_token(value.to_token()) == value


def test_token_parsing_variants():
    assert GaussianRational.from_token("1/2+3/4 i") == GaussianRational(
        Fraction(1, 2), Fraction(3, 4)
    )
    assert GaussianRational.from_token("-i") == -I
    assert GaussianRational.from_token("2i") == GaussianRational(0, 2)
    assert GaussianRational.from_token("-5/3") == GaussianRational(Fraction(-5, 3))
    assert GaussianRational.from_token("1+i") == GaussianRational(1, 1)
    assert GaussianRational.from_token("1/2 - i") == GaussianRational(Fraction(1, 2), -1)
    with pytest.raises(ValueError, match="^a Gaussian rational token must be a str, got 1$"):
        GaussianRational.from_token(1)
    for blank in ("", "  "):
        with pytest.raises(ValueError, match="^empty Gaussian rational token$"):
            GaussianRational.from_token(blank)


def test_every_writer_tokens_a_rational_as_str():
    # 'p' or 'p/q', reduced: the token of an int or a Fraction is its str
    values, tokens = (3, Fraction(-3, 4), Fraction(6, 3)), ["3", "-3/4", "2"]
    for v, t in zip(values, tokens):
        assert GaussianRational(v).to_token() == t
        assert GaussianRational(0, v).to_token() == t + " i"
        poly = ExpPolynomial("+Q/2", ((v, v),), v)
        assert poly.to_json() == {"marker": "+Q/2", "terms": [{"lambda": t, "c": t}], "q": t}
    entry = catalog("B2")
    lat, rows = entry.lattice, entry.series.rows[:3]
    series = DonaldsonSeries.on(lat, [(HClass(lat, k), v) for k, v in zip(rows, values)])
    assert [e["a"] for e in series_to_json(series)["entries"]] == tokens
    pairs = [(0, 0, 1, values[0]), (0, 1, 1, values[1]), (1, 0, 1, values[2])]
    gs = GluedSeries(GluingSpec(entry, entry), "standard", tuple(pairs))
    assert [c for *_, c in glued_to_json(gs)["pairs"]] == tokens


@given(a=gaussians, b=gaussians, c=gaussians)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=gaussians, b=nonzero_gaussians)
def test_division_inverts_multiplication(a, b):
    assert (a / b) * b == a


@given(a=gaussians)
def test_token_round_trip_property(a):
    assert GaussianRational.from_token(a.to_token()) == a


def _stored_exactly(z):
    return all(type(p) is (int if p.denominator == 1 else Fraction) for p in (z.re, z.im))


parts = st.one_of(st.integers(-8, 8), rationals)


@given(a=parts, b=parts, c=parts, d=parts, k=st.integers(-3, 3))
def test_parts_are_ints_exactly_when_integral(a, b, c, d, k):
    z, w = GaussianRational(a, b), GaussianRational(c, d)
    values = [z, w, GaussianRational.from_token(z.to_token()), z + w, z - w, z * w]
    if not w.is_zero:
        values.append(z / w)
    if k >= 0 or not z.is_zero:
        values.append(z**k)
    for v in values:
        assert _stored_exactly(v), repr(v)
