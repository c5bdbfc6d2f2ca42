import json
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from donaldson import exppoly
from donaldson.exppoly import ExpPolynomial, ExpPolynomialError, InexactDivision
from donaldson.gaussian import GaussianRational, I
from donaldson.lattice import LatticeError


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def poly(pairs, marker="none", q=None):
    def conv(x):
        return gr(*x) if isinstance(x, tuple) else gr(x)

    return ExpPolynomial(marker, tuple((conv(l), conv(c)) for l, c in pairs), q)


def test_canonicalization_merges_and_prunes():
    p = ExpPolynomial("none", ((gr(1), gr(2)), (gr(1), gr(-2)), (gr(0), gr(3))))
    assert p.terms == ((gr(0), gr(3)),)
    assert poly([]).is_zero
    assert poly([(2, 1), (0, 1)]).exponents() == (gr(0), gr(2))


def test_addition_requires_matching_markers():
    a = poly([(1, 1)], marker="+Q/2", q=Fraction(0))
    b = poly([(1, 1)], marker="-Q/2", q=Fraction(0))
    with pytest.raises(ExpPolynomialError):
        a + b
    assert (a + a).coefficient(gr(1)) == gr(2)


def test_addition_requires_matching_q():
    a = poly([(1, 1)], marker="+Q/2", q=Fraction(0))
    b = poly([(1, 1)], marker="+Q/2", q=Fraction(2))
    with pytest.raises(ExpPolynomialError):
        a + b


def test_multiplication_of_markers():
    a = poly([(1, 1)], marker="+Q/2", q=Fraction(1))
    b = poly([(2, 3)], marker="+Q/2", q=Fraction(-1))
    prod = a * b
    assert prod.marker == "+Q/2"
    assert prod.q_square == 0  # D^2 adds across the two factors
    assert prod.terms == ((gr(3), gr(3)),)
    with pytest.raises(ExpPolynomialError):
        a * poly([(0, 1)], marker="-Q/2", q=Fraction(0))
    plain = poly([(0, 2)])
    assert (plain * a).marker == "+Q/2"


def test_single_term_division():
    num = poly([(3, 6), (1, 2)])
    den = poly([(1, 2)])
    assert num.divide_exact(den) == poly([(2, 3), (0, 1)])


def test_multi_term_division_exact():
    sinh = poly([(1, Fraction(1, 2)), (-1, Fraction(-1, 2))])
    square = sinh * sinh
    assert square == poly([(2, Fraction(1, 4)), (0, Fraction(-1, 2)), (-2, Fraction(1, 4))])
    assert square.divide_exact(sinh) == sinh


def test_division_with_imaginary_exponents():
    a = poly([((0, 2), (0, 1))])  # i * e^{2it}... coefficient i at exponent 2i
    b = poly([((0, 1), 1)])
    q = a.divide_exact(b)
    assert q == ExpPolynomial("none", ((GaussianRational(0, 1), I),))
    assert q * b == a


def test_division_failure():
    # (e^t + 1) / (e^t - 1) leaves the remainder 2, whose quotient term e^{-t}
    # lies below min(num) - min(den) = 0
    num = poly([(1, 1), (0, 1)])
    den = poly([(1, 1), (0, -1)])
    with pytest.raises(InexactDivision, match="^no exact quotient in the exponential ring$"):
        num.divide_exact(den)


def test_division_stops_at_the_step_cap(monkeypatch):
    sinh = poly([(1, Fraction(1, 2)), (-1, Fraction(-1, 2))])
    monkeypatch.setattr(exppoly, "_DIVISION_STEP_CAP", 1)
    with pytest.raises(InexactDivision, match="^division did not terminate$"):
        (sinh * sinh).divide_exact(sinh)


def test_zero_division_cases():
    zero = ExpPolynomial()
    one = poly([(0, 1)])
    assert zero.divide_exact(one).is_zero
    with pytest.raises(ZeroDivisionError):
        one.divide_exact(zero)
    with pytest.raises(TypeError, match="^divisor must be an ExpPolynomial$"):
        one.divide_exact(1)
    with pytest.raises(ExpPolynomialError, match="^exact division is defined for unmarked parts$"):
        poly([(0, 1)], marker="+Q/2", q=0).divide_exact(one)


def _taylor_oracle(p: ExpPolynomial, order: int):
    """Independent expansion: coefficient_n = sum_j c_j sum_m (s q/2)^m/m! lam^(n-2m)/(n-2m)!."""
    s = {"+Q/2": 1, "-Q/2": -1, "none": 0}[p.marker]
    q = p.q_square if p.q_square is not None else Fraction(0)
    out = []
    for n in range(order + 1):
        total = GaussianRational(0)
        for lam, c in p.terms:
            for m in range(n // 2 + 1):
                pref = GaussianRational(Fraction(s) * q / 2) ** m
                total = total + c * pref * Fraction(1, factorial(m)) * lam ** (
                    n - 2 * m
                ) * Fraction(1, factorial(n - 2 * m))
        out.append(total)
    return tuple(out)


@pytest.mark.parametrize("marker,q", [("none", None), ("+Q/2", Fraction(-2)), ("-Q/2", Fraction(3, 2))])
def test_expand_against_oracle(marker, q):
    p = ExpPolynomial(
        marker,
        ((gr(2), gr(Fraction(1, 4))), (gr(-2), gr(Fraction(1, 4))), (GaussianRational(0, 1), I)),
        q,
    )
    for order in (0, 1, 5, 12):
        assert p.expand(order) == _taylor_oracle(p, order)


def test_expand_marked_needs_q():
    # D^2 travels with its marker, so expand always has it: a marked part
    # without D^2, or an unmarked one with it, is refused when made, and a
    # marked file with no "q" fails to load
    for marker, q in (("+Q/2", None), ("-Q/2", None), ("none", 0)):
        message = f"^{re.escape(f'marker {marker!r} with D^2 {q}: D^2 goes with a marker')}$"
        with pytest.raises(ExpPolynomialError, match=message):
            poly([(1, 1)], marker=marker, q=q)
    data = poly([(1, 1)], marker="-Q/2", q=2).to_json()
    del data["q"]
    with pytest.raises(ExpPolynomialError, match="^marker '-Q/2' with D\\^2 None: "):
        ExpPolynomial.from_json(data)


def test_expand_refuses_an_order_over_the_limit():
    limit = exppoly.MAX_EXPAND_ORDER
    assert len(poly([(1, 1), (2, 3)]).expand(limit)) == limit + 1
    with pytest.raises(ExpPolynomialError, match=f"^expansion order {limit + 1} is over the limit of {limit}$"):
        poly([(1, 1)], marker="+Q/2", q=1).expand(limit + 1)
    with pytest.raises(ExpPolynomialError, match="^expansion order must be >= 0$"):
        poly([(1, 1)]).expand(-1)


def test_json_round_trip():
    terms = ((GaussianRational(0, 2), GaussianRational(Fraction(1, 2), -1)),)
    for p in (ExpPolynomial("none", terms), ExpPolynomial("-Q/2", terms, -3)):
        assert ExpPolynomial.from_json(p.to_json()) == p


def test_json_round_trip_keeps_q_square():
    p = poly([(2, Fraction(1, 4)), (-2, 3)], marker="+Q/2", q=Fraction(3, 2))
    data = json.loads(json.dumps(p.to_json()))
    assert data["q"] == "3/2"
    back = ExpPolynomial.from_json(data)
    assert back == p
    assert back.expand(4) == p.expand(4)


@pytest.mark.parametrize("q", ["abc", 1.5, "1/0", "1e5"])
def test_from_json_names_q_when_it_is_no_number(q):
    data = poly([(2, 1)], marker="+Q/2", q=4).to_json()
    data["q"] = q
    with pytest.raises(ExpPolynomialError, match="^q: ") as info:
        ExpPolynomial.from_json(data)
    assert isinstance(info.value.__cause__, LatticeError)


@pytest.mark.parametrize(
    "where, key",
    [("top", "q_square"), ("top", "expansion"), ("term", "q"), ("term", "lam")],
)
def test_from_json_refuses_a_key_to_json_does_not_write(where, key):
    p = poly([(2, Fraction(1, 4)), (-2, 3)], marker="+Q/2", q=4)
    data = json.loads(json.dumps(p.to_json()))
    assert ExpPolynomial.from_json(data) == p
    (data if where == "top" else data["terms"][1])[key] = 4
    with pytest.raises(ExpPolynomialError, match=f"unknown field '{key}'"):
        ExpPolynomial.from_json(data)


small_gauss = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
term_lists = st.lists(st.tuples(small_gauss, small_gauss), min_size=1, max_size=4)


@settings(max_examples=60)
@given(pt=term_lists, qt=term_lists)
def test_product_division_round_trip(pt, qt):
    p = ExpPolynomial("none", tuple(pt))
    q = ExpPolynomial("none", tuple(qt))
    if q.is_zero:
        return
    assert (p * q).divide_exact(q) == p


def _expand_by_loop(p: ExpPolynomial, order: int):
    """``expand`` as three Gaussian products per term per order: the reference
    for the integer power sums."""
    body = [GaussianRational(0)] * (order + 1)
    for lam, c in p.terms:
        power = GaussianRational(1)
        fact = 1
        for n in range(order + 1):
            body[n] = body[n] + c * power * Fraction(1, fact)
            power = power * lam
            fact *= n + 1
    if p.marker == "none":
        return tuple(body)
    s = 1 if p.marker == "+Q/2" else -1
    half_q = Fraction(s) * p.q_square / 2
    pref = [GaussianRational(0)] * (order + 1)
    power = GaussianRational(1)
    fact = 1
    for m in range(order // 2 + 1):
        pref[2 * m] = power * Fraction(1, fact)
        power = power * half_q
        fact *= m + 1
    return tuple(
        sum((pref[k] * body[n - k] for k in range(n + 1)), GaussianRational(0))
        for n in range(order + 1)
    )


wide_gauss = st.builds(
    GaussianRational,
    st.fractions(min_value=-40, max_value=40, max_denominator=9),
    st.fractions(min_value=-40, max_value=40, max_denominator=9) | st.just(0),
)


@settings(max_examples=80, deadline=None)
@example(terms=[], marker="+Q/2", q=Fraction(-3, 2), order=5)  # the zero polynomial
@example(terms=[], marker="none", q=0, order=0)
@given(
    terms=st.lists(st.tuples(wide_gauss, wide_gauss), max_size=5),
    marker=st.sampled_from(exppoly.MARKERS),
    q=st.fractions(min_value=-20, max_value=20, max_denominator=7),
    order=st.integers(min_value=0, max_value=12),
)
def test_expand_by_power_sums_is_the_product_loop(terms, marker, q, order):
    p = ExpPolynomial(marker, tuple(terms), None if marker == "none" else q)
    got = p.expand(order)
    assert got == _expand_by_loop(p, order)
    assert all(type(x) is GaussianRational for x in got) and len(got) == order + 1

