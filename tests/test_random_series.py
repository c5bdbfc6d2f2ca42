"""Random series on random lattices, each checked against a brute per-class
reference: the relation's level test, level sums, the two sectors of an
evaluation, the point-class order and the fit coordinates; ``evaluate`` and
``apply_relation`` against the per-class terms through the checked
``ExpPolynomial``; and ``z_value`` on random z against the plain power sum,
``RelationPoly._value`` at the P levels against the complex Horner loop.

The lattice is the hyperbolic plane (e, f) plus <-1>^m with b+ = 3; the
surface is S = e and w = f.  A class a e + b f + sum c_i E_i is
characteristic when a and b are even and every c_i is odd, and its surface
level K.S is b.  Levels stay within the adjunction bound of a drawn genus g.
The named classes are e, f, the E_i and f + E1, so the default probes are
f, f + E1 and their S-shifts.
"""

import warnings
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from donaldson.exppoly import ExpPolynomial
from donaldson.fit import basis_coordinates
from donaldson.gaussian import GaussianRational
from donaldson.lattice import HClass, Lattice, MarkedSurface
from donaldson.series import (
    DonaldsonSeries,
    RelationPoly,
    SeriesError,
    SplitSeries,
    apply_relation,
    finite_type_order,
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
    labels = ["e", "f"] + [f"E{i}" for i in range(1, m + 1)]
    named = [(label, tuple(int(i == j) for j in range(n))) for i, label in enumerate(labels)]
    named.append(("f+E1", (0, 1, 1) + (0,) * (m - 1)))
    return Lattice(f"H+{m}<-1>", gram, b_plus=3, named=named)


EVEN = st.integers(-2, 2).map(lambda x: 2 * x)
ODD = st.sampled_from((-3, -1, 1, 3))
COEFF = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 5, 9)))


@cache
def shaped(m, g, coeff=COEFF):
    """The entries and probes strategies for m exceptional classes and genus
    g, built once each: a new strategy is validated on every draw."""
    level = st.integers(1 - g, g - 1).map(lambda x: 2 * x)
    entries = st.dictionaries(st.tuples(EVEN, level, *[ODD] * m), coeff, min_size=1, max_size=6)
    probe = st.tuples(
        st.fractions(-3, 3, max_denominator=3), st.just(1), *[st.integers(-2, 2)] * m
    )
    return entries, st.lists(probe, max_size=2)


@st.composite
def cases(draw):
    m = draw(st.integers(1, 3))
    g = draw(st.integers(2, 5))
    entries, probes = shaped(m, g)
    entries = draw(entries)
    probes = draw(probes) + [SEPARATING[: 2 + m]]
    z_genus = draw(st.integers(2, 5))
    return m, g, entries, probes, z_genus


def brute_dot(lat, u, v):
    """u^T G v over the nonzero cells of the Gram matrix."""
    return sum(u[i] * x * v[j] for i, row in enumerate(lat.gram) for j, x in enumerate(row) if x)


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


# -- brute references: one class at a time, Gaussian numbers as (re, im) pairs ------


def brute_rows(lat, entries, w, d):
    """(K.S, K.D, twisted coefficient) per class, each pairing taken alone."""
    s_coords = (1, 0) + (0,) * (lat.rank - 2)
    w_sq = brute_dot(lat, w, w)
    return [
        (brute_dot(lat, k, s_coords), brute_dot(lat, k, d),
         (-1) ** ((brute_dot(lat, k, w) + w_sq) // 2 % 2) * c)
        for k, c in entries.items()
    ]


def gmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def gadd_term(terms, lam, c):
    old = terms.get(lam, (0, 0))
    terms[lam] = (old[0] + c[0], old[1] + c[1])


def nonzero(terms):
    return {lam: c for lam, c in terms.items() if c != (0, 0)}


def as_pairs(poly):
    return {(lam.re, lam.im): (c.re, c.im) for lam, c in poly.terms}


def row_terms(rows, d0, d_sigma, z_terms):
    """(P, N) of z e^{tD} from the brute rows, one (exponent, coefficient) term
    per class, unmerged: P takes the classes with K.S == 2 (mod 4), each adding
    z(2, (D+K).S) c_K e^{(K.D) t}; N the others, each adding
    i^{-d0} z(-2, (-D+iK).S) c_K e^{i(K.D) t}."""
    unit = ((1, 0), (0, 1), (-1, 0), (0, -1))[-d0 % 4]
    p_terms, n_terms = [], []
    for ks, kd, a in rows:
        if ks % 4 == 2:
            weight, x, lam, out = (d_sigma + ks, 0), 2, (kd, 0), p_terms
        else:
            weight, x, lam, out = (-d_sigma, ks), -2, (0, kd), n_terms
        z = (0, 0)
        for sp, xp, cz in z_terms:
            zt = (cz * x**xp, 0)
            for _ in range(sp):
                zt = gmul(zt, weight)
            z = (z[0] + zt[0], z[1] + zt[1])
        if out is n_terms:
            z = gmul(unit, z)
        out.append((lam, gmul(z, (a, 0))))
    return p_terms, n_terms


def brute_evaluate(rows, d0, d_sigma, z_terms):
    """``row_terms`` merged per exponent, zero sums dropped."""
    merged = ({}, {})
    for terms, out in zip(row_terms(rows, d0, d_sigma, z_terms), merged):
        for lam, c in terms:
            gadd_term(out, lam, c)
    return tuple(map(nonzero, merged))


def brute_level_sum(rows, ks):
    sums = {}
    for level, kd, a in rows:
        if level == ks:
            gadd_term(sums, (kd, 0), (a, 0))
    return nonzero(sums)


def series_of(lat, entries):
    return DonaldsonSeries.on(lat, [(HClass(lat, k), c) for k, c in entries.items()])


def default_probes(m):
    """f and f + E1, the named classes D with D.S = 1, then their S-shifts."""
    pad = (0,) * (m - 1)
    return [(0, 1, 0) + pad, (0, 1, 1) + pad, (1, 1, 0) + pad, (1, 1, 1) + pad]


def twists(m):
    """w = f and w = f + E1, both allowable against S = e; d0 = -w^2 - 6 is
    even for the one and odd for the other, so i^{-d0} is real or imaginary."""
    return (0, 1) + (0,) * m, (0, 1, 1) + (0,) * (m - 1)


def paired(entries, j):
    """Each class with its partner, whose j-th coordinate (odd, |c| <= 3) is
    moved by 4 to the other odd value, at the opposite coefficient.  The two
    share K.S and K.w mod 4 for both twists, and K.D at every default probe
    that does not meet coordinate j: at all of them for an E_2 (j = 3), only
    at f and f + e for E_1 (j = 2)."""
    out = {}
    for k, c in entries.items():
        partner = k[:j] + (k[j] + 4 if k[j] < 0 else k[j] - 4,) + k[j + 1 :]
        if k not in out and partner not in out:
            out[k], out[partner] = c, -c
    return out


Z_TERMS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.fractions(-3, 3, max_denominator=2)),
    min_size=1,
    max_size=3,
)


@PROFILE
@given(cases(), Z_TERMS)
def test_evaluate_order_and_coordinates_are_the_per_class_references(case, z_terms):
    # one draw serves three functions: SplitSeries.evaluate (its P and N
    # parts), finite_type_order (1 exactly when the plain evaluation of a
    # default probe is nonzero) and basis_coordinates (each coordinate the
    # level sum at its level, alpha = 1, 2, ... reading p = g-1, -(g-1), ..., 0)
    m, g, entries, probes, _ = case
    lat = hyperbolic_plus_minus_ones(m)
    s = MarkedSurface(lat.basis_vector(0), genus=g)
    order = [q for p in range(g - 1, 0, -1) for q in (p, -p)] + [0]
    # paired at E1, a series cancels at the first probe but mostly not at
    # f + E1; paired at E2, at every probe
    variants = [entries, paired(entries, 2)] + ([paired(entries, 3)] if m > 1 else [])
    for series_entries in variants:
        series = series_of(lat, series_entries)
        for w in twists(m):
            w_cls = HClass(lat, w)
            d0 = -brute_dot(lat, w, w) - 3 * (1 + lat.b_plus) // 2
            plain = any(
                part
                for d in default_probes(m)
                for part in brute_evaluate(brute_rows(lat, series_entries, w, d), d0, 1, [(0, 0, 1)])
            )
            assert finite_type_order(series, w_cls, s) == int(plain)
            if series_entries is not entries:
                assert not plain or series_entries is variants[1]
                continue
            split = SplitSeries(series, w_cls, s)
            for d in probes:
                rows, d_cls = brute_rows(lat, entries, w, d), HClass(lat, d)
                p, n = split.evaluate(d_cls, z_terms)
                assert (p.marker, n.marker) == ("+Q/2", "-Q/2")
                assert p.q_square == n.q_square == brute_dot(lat, d, d)
                # D.S = D.e is D's f-coordinate
                assert (as_pairs(p), as_pairs(n)) == brute_evaluate(rows, d0, d[1], z_terms)
                bc = basis_coordinates(series, w_cls, s, d_cls)
                assert bc.d_square == brute_dot(lat, d, d)
                for alpha, level in enumerate(order, start=1):
                    assert bc.plain(alpha).marker == "none"
                    assert as_pairs(bc.plain(alpha)) == brute_level_sum(rows, 2 * level)


@PROFILE
@given(cases(), st.data())
def test_the_order_does_not_depend_on_the_order_of_the_probes(case, data):
    m, g, entries, probes, _ = case
    lat = hyperbolic_plus_minus_ones(m)
    s = MarkedSurface(lat.basis_vector(0), genus=g)
    given_probes = [HClass(lat, d) for d in default_probes(m) + probes]
    for series_entries in (entries, paired(entries, 2)):
        series = series_of(lat, series_entries)
        for w in twists(m):
            w_cls = HClass(lat, w)
            order = finite_type_order(series, w_cls, s, given_probes)
            shuffled = data.draw(st.permutations(given_probes))
            assert finite_type_order(series, w_cls, s, shuffled) == order
            # the default probes, tried S-shifted first, are the first four
            defaults = finite_type_order(series, w_cls, s, given_probes[:4])
            assert finite_type_order(series, w_cls, s) == defaults


@cache
def rational_probes(m):
    """D with rational coordinates and D.S (its f-coordinate) an int or not,
    built once per m."""
    part = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))
    return st.lists(st.tuples(part, part, *[st.integers(-2, 2)] * m), min_size=1, max_size=2)


def checked_parts(rows, d0, d_sigma, z_terms, d_square):
    """(P, N) of the per-class terms through the checked ``ExpPolynomial``,
    which merges like exponents, drops zero sums and sorts."""
    p, n = (
        tuple((GaussianRational(*lam), GaussianRational(*c)) for lam, c in terms)
        for terms in row_terms(rows, d0, d_sigma, z_terms)
    )
    return ExpPolynomial("+Q/2", p, d_square), ExpPolynomial("-Q/2", n, d_square)


@PROFILE
@given(cases(), Z_TERMS, st.data())
def test_evaluate_and_apply_relation_are_the_checked_per_class_sums(case, z_terms, data):
    # the parts are made past the checked constructor, so each must equal the
    # constructor's own merge of the per-class terms, term for term and in
    # order, and with the same JSON.  D runs over int and rational
    # classes and D.S over ints and rationals, 1 among them; w over w and w + S.
    # Paired at E1, a series' sums cancel in both sectors at the probe f
    m, g, entries, _, _ = case
    lat = hyperbolic_plus_minus_ones(m)
    s = MarkedSurface(lat.basis_vector(0), genus=g)
    z = RelationPoly.of(z_terms)
    probes = default_probes(m)[:2] + [SEPARATING[: 2 + m]] + data.draw(rational_probes(m))
    for series_entries, w in product((entries, paired(entries, 2)), twists(m)):
        series = series_of(lat, series_entries)
        for w_ in (w, (1,) + w[1:]):  # w + S: S = e is the first coordinate
            w_cls = HClass(lat, w_)
            d0 = -brute_dot(lat, w_, w_) - 3 * (1 + lat.b_plus) // 2
            split = SplitSeries(series, w_cls, s)
            for d in probes:
                d_cls, d_sigma = HClass(lat, d), d[1]
                rows = brute_rows(lat, series_entries, w_, d)
                want = checked_parts(rows, d0, d_sigma, z.terms, brute_dot(lat, d, d))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    applied = apply_relation(series, w_cls, s, z, d_cls)
                assert len(caught) == (d_sigma != 1)
                for got in (split.evaluate(d_cls, z_terms), applied):
                    assert got == want
                    assert [part.to_json() for part in got] == [part.to_json() for part in want]


# -- z_value against the plain power sum --------------------------------------------

# denominators 2, 3, 5 and their products: z's lcm is rarely a power of 2
Z_COEFF = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 6, 10, 15)))
RANDOM_Z = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), Z_COEFF), max_size=6)
# D.S an int, or a rational that is not dyadic
D_SIGMA = st.one_of(
    st.integers(-5, 5), st.builds(Fraction, st.integers(-9, 9), st.sampled_from((3, 5, 6)))
)


def brute_z(z_terms, ks, d_sigma):
    """Sum of c x^xp S^sp term by term, on (re, im) pairs of Fractions: x is
    2 and S is D.S + ks at ks == 2 (mod 4), else x is -2 and S is -D.S + i ks."""
    if ks % 4 == 2:
        x, weight = 2, (Fraction(d_sigma + ks), Fraction(0))
    else:
        x, weight = -2, (Fraction(-d_sigma), Fraction(ks))
    z = (Fraction(0), Fraction(0))
    for sp, xp, c in z_terms:
        term = (c * Fraction(x) ** xp, Fraction(0))
        for _ in range(sp):
            term = gmul(term, weight)
        z = (z[0] + term[0], z[1] + term[1])
    return z


@PROFILE
@given(RANDOM_Z, D_SIGMA)
def test_z_value_is_the_plain_power_sum_at_every_level(z_terms, d_sigma):
    for ks in range(-12, 13, 2):  # levels 2 and 0 mod 4: both sectors
        z = z_value(z_terms, ks, d_sigma)
        assert (z.re, z.im) == brute_z(z_terms, ks, d_sigma)
        # a part is an int exactly when it is integral
        for part in (z.re, z.im):
            assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)


@pytest.mark.parametrize(
    "c, message",
    [
        (0.5, r"insertion term \(0, 1, 0\.5\): non-integral float 0\.5"),
        (1.5, r"insertion term \(0, 1, 1\.5\): non-integral float 1\.5"),
        (GaussianRational(1, 1), r"insertion term \(0, 1, GaussianRational\(1, 1\)\): not a number"),
    ],
    ids=["float", "float-1.5", "gaussian"],
)
def test_z_value_refuses_a_coefficient_that_is_not_rational(c, message):
    # z's coefficients must be rational; anything else is a SeriesError naming the term
    for refuse in (lambda t: z_value(t, 2, 1), RelationPoly.of):
        with pytest.raises(SeriesError, match=f"^{message}") as caught:
            refuse(((1, 0, 1), (0, 1, c)))
        assert isinstance(caught.value, ValueError)


@PROFILE
@given(RANDOM_Z, D_SIGMA)
def test_value_at_a_p_level_is_the_complex_horner(z_terms, d_sigma):
    # at a P level S acts by the real D.S + ks: the one-number loop must give
    # what Horner's rule on (re, im) over z's P table gives
    z = RelationPoly.of(z_terms)
    den, p, _ = z._horner
    for ks in range(-14, 15, 4):  # every ks == 2 (mod 4) in [-14, 14]
        a, b = d_sigma + ks, 0
        re = im = 0
        for c in p:
            re, im = re * a - im * b + c, re * b + im * a
        got = z._value(ks, d_sigma)
        if re or im:
            assert (got.re, got.im) == (Fraction(re, den), Fraction(im, den))
            assert type(got.re) is (int if Fraction(re, den).denominator == 1 else Fraction)
        else:
            assert got is None
