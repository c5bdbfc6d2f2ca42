"""Random series on random lattices: the relation's level test and level sums.

The lattice is the hyperbolic plane (e, f) plus <-1>^m with b+ = 3; the
surface is S = e and w = f.  A class a e + b f + sum c_i E_i is
characteristic when a and b are even and every c_i is odd, and its surface
level K.S is b.  Levels stay within the adjunction bound of a drawn genus g.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from donaldson.lattice import HClass, Lattice, MarkedSurface
from donaldson.series import (
    DonaldsonSeries,
    SplitSeries,
    apply_relation,
    relation_poly,
    z_value,
)

PROFILE = settings(derandomize=True, max_examples=60, deadline=None, database=None)

# with |c_i| <= 3, a - sum c_i 10^-i tells every class of a level apart, so
# this probe meets each class of a level at its own K.D: no cancellation
SEPARATING = (Fraction(0), 1) + tuple(Fraction(1, 10**i) for i in (1, 2, 3))


def hyperbolic_plus_minus_ones(m: int) -> Lattice:
    n = 2 + m
    gram = [[0] * n for _ in range(n)]
    gram[0][1] = gram[1][0] = 1
    for i in range(2, n):
        gram[i][i] = -1
    return Lattice(f"H+{m}<-1>", gram, b_plus=3)


@st.composite
def cases(draw):
    m = draw(st.integers(1, 3))
    g = draw(st.integers(2, 5))
    even = st.integers(-2, 2).map(lambda x: 2 * x)
    level = st.integers(1 - g, g - 1).map(lambda x: 2 * x)
    odd = st.sampled_from((-3, -1, 1, 3))
    coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 5, 9)))
    entries = draw(st.dictionaries(st.tuples(even, level, *[odd] * m), coeff, min_size=1, max_size=6))
    probe = st.tuples(
        st.fractions(-3, 3, max_denominator=3), st.just(1), *[st.integers(-2, 2)] * m
    )
    probes = draw(st.lists(probe, max_size=2)) + [SEPARATING[: 2 + m]]
    z_genus = draw(st.integers(2, 5))
    return m, g, entries, probes, z_genus


def brute_dot(lat, u, v):
    n = lat.rank
    return sum(Fraction(u[i]) * lat.gram[i][j] * v[j] for i in range(n) for j in range(n))


@PROFILE
@given(cases())
def test_level_test_passes_exactly_when_the_relation_vanishes_at_every_probe(case):
    m, g, entries, probes, z_genus = case
    lat = hyperbolic_plus_minus_ones(m)
    series = DonaldsonSeries.on(lat, [(HClass(lat, k), c) for k, c in entries.items()])
    s = MarkedSurface(lat.basis_vector(0), genus=g)
    z = relation_poly(z_genus)
    # the rule `check` applies: z's scalar at D.S = 1 is zero at every level
    levels = {k.dot(s.cls) for k in series.classes()}
    level_test = all(z_value(z.terms, ks, 1).is_zero for ks in levels)
    w = lat.basis_vector(1)
    for w_ in (w, w + s.cls):
        vanishes = all(
            part.is_zero
            for d in probes
            for part in apply_relation(series, w_, s, z, HClass(lat, d))
        )
        assert level_test == vanishes
    if z_genus >= g:
        assert level_test  # every level is within z's adjunction bound


@PROFILE
@given(cases())
def test_level_sums_are_the_per_class_sums(case):
    m, g, entries, probes, _ = case
    lat = hyperbolic_plus_minus_ones(m)
    series = DonaldsonSeries.on(lat, [(HClass(lat, k), c) for k, c in entries.items()])
    s = MarkedSurface(lat.basis_vector(0), genus=g)
    s_coords, w = (1, 0) + (0,) * m, (0, 1) + (0,) * m
    for w_ in (w, (1, 1) + (0,) * m):
        split = SplitSeries(series, HClass(lat, w_), s)
        w_sq = brute_dot(lat, w_, w_)
        for d in probes:
            brute = {ks: {} for ks in range(-2 * g, 2 * g + 1, 2)}  # absent levels too
            for k, c in entries.items():
                sign = (-1) ** int((brute_dot(lat, k, w_) + w_sq) / 2 % 2)
                sums = brute[brute_dot(lat, k, s_coords)]
                kd = brute_dot(lat, k, d)
                sums[kd] = sums.get(kd, 0) + sign * c
            for ks, sums in brute.items():
                assert split.level_sums(ks, HClass(lat, d)) == sums
