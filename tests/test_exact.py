"""Every number entry point stores through one rule: an int when integral, a
Fraction otherwise, and a non-integral float or exponent notation is refused."""

import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from donaldson.constructions import catalog
from donaldson.exppoly import ExpPolynomial
from donaldson.fit import BasisCoordinates
from donaldson.gaussian import GaussianRational
from donaldson.gluing import SplitClass
from donaldson.lattice import (
    HClass, Lattice, LatticeError, _exact, _numbers, _over_lcm, _quotient, _tokens,
    d_zero_value, pairing,
)


def _gaussian_real_part(x):
    return GaussianRational(x).re


def _q_square(x):
    return ExpPolynomial("+Q/2", (), x).q_square


def _sigma_pairing(x):
    d = catalog("B2").lattice.cls("T1")
    return SplitClass(d, d, x).sigma_pairing


def _d_square(x):
    return BasisCoordinates(3, x, (ExpPolynomial(),) * 5).d_square


def _minus_d_zero(x):
    # d0 = -w^2 - 3 (1 + b+)/2, here with b+ = 3
    return -d_zero_value(x, 3) - 6


ENTRY_POINTS = [_gaussian_real_part, _q_square, _sigma_pairing, _d_square, _minus_d_zero]


@pytest.mark.parametrize("read", ENTRY_POINTS)
def test_non_integral_float_is_refused(read):
    with pytest.raises(LatticeError, match="non-integral float"):
        read(0.5)


@pytest.mark.parametrize("read", ENTRY_POINTS)
def test_zero_denominator_is_refused(read):
    with pytest.raises(LatticeError, match="zero denominator in '1/0'"):
        read("1/0")


@pytest.mark.parametrize("read", ENTRY_POINTS)
def test_integral_float_and_fraction_are_read_as_ints(read):
    for x in (2.0, Fraction(2), 2):
        value = read(x)
        assert type(value) is int and value == 2


@pytest.mark.parametrize("token", ["1e5", "1e10000000"])
@pytest.mark.parametrize("read", ENTRY_POINTS)
def test_exponent_notation_is_refused(read, token):
    # refused before Fraction reads it: "1e10000000" would build a
    # ten-million-digit int
    with pytest.raises(LatticeError, match=f"exponent notation '{token}'"):
        read(token)


def test_the_package_makes_no_float():
    # a float may be read (and refused unless integral), never made: no
    # float(...) or complex(...) call and no float or complex literal
    src = Path(__file__).resolve().parent.parent / "src" / "donaldson"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("float", "complex")
            )
            literal = isinstance(node, ast.Constant) and type(node.value) in (float, complex)
            if call or literal:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@example([])
@example([-3, Fraction(-3, 4), Fraction(6, 3), Fraction(5, 6)])
@given(st.lists(st.integers(-50, 50) | st.fractions(-50, 50, max_denominator=60), max_size=8))
def test_over_lcm_puts_values_over_the_lcm_of_their_denominators(values):
    # the reference lcm is folded by gcd, pairwise; no values give (1, [])
    big, ints = _over_lcm(iter(values))
    want = 1
    for v in values:
        want = want * Fraction(v).denominator // gcd(want, Fraction(v).denominator)
    assert big == want and all(type(n) is int for n in ints)
    assert [Fraction(n, big) for n in ints] == values


@example(0, 1)
@example(-6, 3)
@example(-7, 4)
@given(st.integers(-(10**30), 10**30), st.integers(1, 10**12))
def test_quotient_is_the_exact_fraction_in_value_and_type(n, d):
    got, want = _quotient(n, d), _exact(Fraction(n, d))
    assert got == want and type(got) is type(want)


@example([], 1)
@example([2, -4, 2, 3, 0], 4)
@given(st.lists(st.integers(-60, 60), max_size=12), st.integers(1, 12))
def test_tokens_are_the_str_of_each_fraction(ints, den):
    assert _tokens(tuple(ints), den) == [str(Fraction(n, den)) for n in ints]


# -- one formula per operation, against plain-Fraction references ---------------------

NUMBER = st.integers(-20, 20) | st.fractions(-20, 20, max_denominator=12)


def _is_exact(value, ref) -> bool:
    """``value`` is the number ``ref`` held as ``_exact`` holds it: an int
    whenever it is integral, else a Fraction."""
    ref = Fraction(ref)
    return value == ref and type(value) is (int if ref.denominator == 1 else Fraction)


@st.composite
def lattice_and_coords(draw):
    """A symmetric Gram matrix of rank 1-5 (b+ the odd rank or one more) and
    two coordinate rows, ints or rationals."""
    n = draw(st.integers(1, 5))
    upper = {(i, j): draw(st.integers(-5, 5)) for i in range(n) for j in range(i, n)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    lat = Lattice("L", gram, n | 1)
    rows = st.lists(NUMBER, min_size=n, max_size=n)
    return lat, draw(rows), draw(rows)


def _fraction_covector(gram, coords):
    return [sum(Fraction(g) * Fraction(c) for g, c in zip(row, coords)) for row in gram]


@example((Lattice("L", [[2]], 1), [Fraction(1, 2)], [1]))  # 2 * 1/2 is the int 1
@example((Lattice("L", [[0, 1], [1, 0]], 1), [Fraction(3, 2), Fraction(-5, 2)], [2, 2]))
@given(lattice_and_coords())
def test_covector_and_pairing_are_the_fraction_sums(case):
    lat, u, v = case
    cu, cv = HClass(lat, u), HClass(lat, v)
    want = _fraction_covector(lat.gram, cu.coords)
    assert len(cu.covector) == len(want) and all(map(_is_exact, cu.covector, want))
    assert _is_exact(pairing(cv, cu), sum(Fraction(x) * y for x, y in zip(cv.coords, want)))
    assert _is_exact(cu.square, sum(Fraction(x) * y for x, y in zip(cu.coords, want)))


GAUSSIAN = st.tuples(NUMBER, NUMBER | st.just(0))  # real factors drawn often


@example((1, 2), (3, 0))
@example((Fraction(1, 2), Fraction(-1, 3)), (Fraction(2, 3), Fraction(3, 2)))
@given(GAUSSIAN, GAUSSIAN)
def test_a_gaussian_product_is_the_fraction_product(x, y):
    (a, b), (c, d) = map(Fraction, x), map(Fraction, y)
    product = GaussianRational(*x) * GaussianRational(*y)
    assert _is_exact(product.re, a * c - b * d) and _is_exact(product.im, a * d + b * c)
    scaled = GaussianRational(*x) * y[0]  # a plain real factor, on either side
    assert _is_exact(scaled.re, a * c) and _is_exact(scaled.im, b * c)
    assert y[0] * GaussianRational(*x) == scaled


@example([True])
@example([1, 2, False])
@example([Fraction(4, 1), 3])
@given(st.lists(NUMBER | st.booleans(), max_size=9))
def test_numbers_is_exact_per_value_and_refuses_a_bool(values):
    if any(type(x) is bool for x in values):
        with pytest.raises(LatticeError, match="a bool is not a number"):
            _numbers(values, "row")
        return
    got = _numbers(values, "row")
    assert type(got) is tuple and len(got) == len(values) and all(map(_is_exact, got, values))
    assert _numbers(tuple(values), "row") == got
