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
from donaldson.lattice import LatticeError, _over_lcm, d_zero_value


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
