"""Blow-ups made past their checks against the checked constructors.

``constructions._blown_up`` makes L + <-1>^m by ``Lattice._blown`` and the
blown series by ``DonaldsonSeries._blown``, both through ``lattice._trusted``.
Each is compared here with what ``Lattice`` and ``DonaldsonSeries`` make of
the same classes, built by hand: the rows K + s in any order (the checked
constructor sorts them) and the coefficients c / 2^m (it divides out the gcd).
The bases are random checked series on random lattices of rank 1 to 3, some
with numerators all even, so that the gcd of ``den << m`` with them is not 1.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from donaldson.constructions import _blown_up, blow_up, catalog
from donaldson.lattice import HClass, Lattice, LatticeError, is_characteristic, signature
from donaldson.series import DonaldsonSeries

PROFILE = settings(derandomize=True, max_examples=120, deadline=None, database=None)


def checked(series, name, m, first, extra):
    """``_blown_up(name, series, m, extra, first)`` through the checked constructors."""
    lat, n = series.lattice, series.lattice.rank
    unit = [[int(j == i) for j in range(n + m)] for i in range(n, n + m)]
    gram = [list(row) + [0] * m for row in lat.gram] + [[-x for x in e] for e in unit]
    named = [(lab, list(c) + [0] * m) for lab, c in lat.named]
    named += [(f"E{first + i}", e) for i, e in enumerate(unit)] + list(extra)
    blown = Lattice(name, gram, lat.b_plus, named)
    rows = [k + s for k in series.rows for s in product((1, -1), repeat=m)]
    nums = [x for x in series.nums for _ in range(2**m)]
    return DonaldsonSeries(blown, rows, nums, series.den * 2**m)


def outcome(make, *args):
    """What ``make(*args)`` gives: ("made", value) or (error type, message)."""
    try:
        return "made", make(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def bases(draw):
    """(a checked series on a random lattice, m, first, extra classes)."""
    r = draw(st.integers(1, 3))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(r) for j in range(i, r)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(r)] for i in range(r)]
    labels = draw(st.lists(st.sampled_from(("a", "b", "E1", "E2", "Ex")), unique=True))
    coords = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
    lat = Lattice("L", gram, signature(gram)[0] | 1, [(lab, draw(coords)) for lab in labels])
    candidates = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * r), unique=True, max_size=6))
    rows = [k for k in candidates if is_characteristic(HClass(lat, k))]
    factor = draw(st.sampled_from((1, 2, 4)))
    nums = [factor * draw(st.integers(-9, 9).filter(bool)) for _ in rows]
    series = DonaldsonSeries(lat, rows, nums, draw(st.sampled_from((1, 2, 3, 5, 8, 12))))
    m = draw(st.integers(0, 3))
    entry = st.one_of(st.integers(-2, 2), st.just(Fraction(1, 2)))
    extra = st.tuples(st.sampled_from(("X", "Y")), st.lists(entry, min_size=r + m, max_size=r + m))
    extra = draw(st.lists(extra, max_size=2, unique_by=lambda e: e[0]))
    return series, m, draw(st.integers(1, 3)), extra


@PROFILE
@given(bases())
@example((DonaldsonSeries(Lattice("L", ((-1,),), 1), ((1,), (-1,)), (2, 2), 1), 1, 1, []))
@example((DonaldsonSeries(Lattice("L", ((-1,),), 1), ((1,),), (4,), 3), 3, 1, []))
def test_a_blow_up_is_its_checked_twin(case):
    series, m, first, extra = case
    name = f"L.bl{m}"
    made = outcome(_blown_up, name, series, m, extra, first)
    twin = outcome(checked, series, name, m, first, extra)
    if made[0] != "made" or twin[0] != "made":  # a repeated E label: the same refusal
        assert made == twin
        return
    made, twin = made[1], twin[1]
    assert (made.rows, made.nums, made.den) == (twin.rows, twin.nums, twin.den)
    assert made == twin and hash(made) == hash(twin)
    assert vars(made).keys() == vars(twin).keys()
    lat, twin_lat = made.lattice, twin.lattice
    assert lat == twin_lat and hash(lat) == hash(twin_lat)
    assert lat._wu == twin_lat._wu
    assert signature(lat.gram) == signature(twin_lat.gram)
    assert vars(lat).keys() == vars(twin_lat).keys()


def test_the_gcd_is_divided_out_of_a_base_of_even_numerators():
    # (1) and (-1) with 2 each: blown up once, each of the four classes has 2 / 2 = 1
    lat = Lattice("L", ((-1,),), 1)
    blown = _blown_up("L.bl1", DonaldsonSeries(lat, ((1,), (-1,)), (2, 2), 1), 1)
    assert (blown.nums, blown.den) == ((1, 1, 1, 1), 1)


@pytest.mark.parametrize(
    "extra, message",
    [
        ([("E1", (0, 0, 0))], "^X: a class label is repeated$"),
        ([("F", (0, 0, 1))], "^X: a class label is repeated$"),
        ([("Y", (0, 1, 0)), ("Y", (1, 0, 0))], "^X: a class label is repeated$"),
        ([("Y", (0, 1))], "^X: class 'Y' has wrong length$"),
        ([("Y", (0, 1, 0, 0))], "^X: class 'Y' has wrong length$"),
        ([("Y", "010")], "^X: class 'Y' must be a list of numbers"),
    ],
)
def test_a_bad_extra_class_is_refused_as_before(extra, message):
    base = catalog("K3").series
    for make in (_blown_up, lambda name, series, m, extra: checked(series, name, m, 1, extra)):
        with pytest.raises(LatticeError, match=message):
            make("X", base, 1, extra)


def test_blow_up_numbers_its_e_label_after_the_base():
    once = blow_up(catalog("K3"))
    twice = blow_up(once)
    assert twice.name == "K3.bl1.bl2"
    assert twice.lattice.labels() == ("F", "sigma", "E1", "E2")
    assert twice.series == checked(catalog("K3").series, twice.name, 2, 1, ())
