"""Differential and work-count tests for the split table and integer pairings.

The references here are written from the docstring formulas alone: every
pairing is a Fraction sum over the Gram matrix, the twist sign comes from
those pairings, and a relation is the sum of one insertion polynomial per
monomial.  The package must agree with them exactly.
"""

import copy
import dataclasses
import functools
import itertools
import pickle
import random
import warnings
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import donaldson.constructions as constructions
import donaldson.gluing as gluing_mod
import donaldson.lattice as lattice_mod
import donaldson.series as series_mod
from donaldson.constructions import catalog, catalog_names
from donaldson.exppoly import ExpPolynomial
from donaldson.fit import basis_coordinates
from donaldson.gaussian import GaussianRational
from donaldson.gluing import (
    GluingError,
    GluingSpec,
    coefficient_match,
    eval_glued,
    glue,
    glue_conjectural,
    glue_torus,
    glued_from_json,
    glued_to_json,
    rshift,
)
from donaldson.lattice import (
    HClass,
    Lattice,
    LatticeError,
    LatticeMismatch,
    MarkedSurface,
    is_characteristic,
)
from donaldson.series import (
    DonaldsonSeries,
    RelationPoly,
    SeriesError,
    apply_relation,
    default_probes,
    eval_insertion,
    finite_type_order,
    relation_poly,
    split_series,
    twisted,
    unsplit_series,
)

ENTRIES = ("B3", "B4", "S4", "dia2:1:3")


# -- references ---------------------------------------------------------------------


def ref_dot(u: HClass, v: HClass) -> Fraction:
    gram = u.lattice.gram
    return sum(
        (
            Fraction(a) * gram[i][j] * Fraction(b)
            for i, a in enumerate(u.coords)
            for j, b in enumerate(v.coords)
        ),
        Fraction(0),
    )


def ref_sign(k, w) -> int:
    """(-1)^{(K.w + w^2)/2}, the twist sign of a class."""
    m = ref_dot(k, w) + ref_dot(w, w)
    assert m.denominator == 1 and m.numerator % 2 == 0
    return (-1) ** (m.numerator // 2 % 2)


def ref_twisted(series, w):
    return [(k, ref_sign(k, w) * c) for k, c in series.entries]


def ref_d0(series, w) -> int:
    """d0 = -w^2 - (3/2)(1 + b+), b1 = 0."""
    m = 1 + series.b_plus
    d0 = -ref_dot(w, w) - Fraction(3, 2) * m
    assert d0.denominator == 1
    return d0.numerator


def ref_i_pow(series, w):
    """i^{-d0}."""
    return GaussianRational.i_power(-ref_d0(series, w))


def ref_table(series, w, s, d):
    """i^{-d0}, D.S, D^2 and (K.S, K.D, twisted c) per class, all from ref_dot."""
    rows = [(ref_dot(k, s.cls), ref_dot(k, d), c) for k, c in ref_twisted(series, w)]
    return ref_i_pow(series, w), ref_dot(d, s.cls), ref_dot(d, d), rows


def split_rows(split):
    """(K, K.S, twisted coefficient) per row of a split: the series' classes
    zipped with its table's levels and numerators over the series' den."""
    levels, _, nums = split._table
    series = split.series
    return [(k, ks, Fraction(n, series.den)) for (k, _), ks, n in zip(series.entries, levels, nums)]


def ref_insertion(table, a, b):
    """The (P, N) formulas of the eval_insertion docstring, term by term."""
    i_pow, d_sigma, q, rows = table
    p_terms, n_terms = [], []
    for k_sigma, k_d, c in rows:
        if k_sigma % 4 == 2:
            weight = GaussianRational(d_sigma + k_sigma) ** b
            p_terms.append((GaussianRational(k_d), weight * (Fraction(2) ** a * c)))
        else:
            assert k_sigma % 4 == 0
            weight = GaussianRational(-d_sigma, k_sigma) ** b
            coeff = i_pow * weight * (Fraction(-2) ** a * c)
            n_terms.append((GaussianRational(0, k_d), coeff))
    return (
        ExpPolynomial("+Q/2", tuple(p_terms), q),
        ExpPolynomial("-Q/2", tuple(n_terms), q),
    )


def ref_level_sums(table):
    """{K.S: {K.D: summed twisted c}}, from the rows of ``ref_table``."""
    sums = {}
    for k_sigma, k_d, c in table[3]:
        level = sums.setdefault(k_sigma, {})
        level[k_d] = level.get(k_d, 0) + c
    return sums


def ref_relation(table, z):
    """One insertion per monomial of z, scaled and summed."""
    q = table[2]
    p_total, n_total = ExpPolynomial("+Q/2", (), q), ExpPolynomial("-Q/2", (), q)
    for sp, xp, c in z.terms:
        p, n = ref_insertion(table, xp, sp)
        p_total, n_total = p_total + p.scale(c), n_total + n.scale(c)
    return p_total, n_total


def probe_cases(entry):
    """A class of distinct K.D over the basic classes, its S-shift, a rational class."""
    lat, s = entry.lattice, entry.surface()
    spread = sum(((2 * i + 3) * lat.basis_vector(i) for i in range(lat.rank)), lat.zero())
    unit = default_probes(lat, s)[0]
    return [spread, spread + s.cls, Fraction(1, 2) * spread + Fraction(1, 3) * unit]


def twists(entry):
    w, s = entry.w_class(), entry.surface()
    return [w, w + s.cls]


def relations_for(entry):
    """The entry's own relation and the one of the other x-factor sign."""
    g = max(entry.surface().genus, 2)
    return [relation_poly(g), relation_poly(g + 1)]


# -- series against the references ------------------------------------------------------


@pytest.mark.parametrize("name", ["B2", "B3", "B4", "K3", "dia2:2:4", "C3"])
def test_split_entries_match_reference(name):
    entry = catalog(name)
    s = entry.surface()
    for w in twists(entry):
        rows = [(k, ref_dot(k, s.cls), c) for k, c in ref_twisted(entry.series, w)]
        assert {level % 4 for _, level, _ in rows} <= {0, 2}
        ss = split_series(entry.series, w, s)
        assert split_rows(ss) == rows
        assert ss.d0 == ref_d0(entry.series, w)


@pytest.mark.parametrize("name", catalog_names())
def test_unsplit_inverts_split(name):
    entry = catalog(name)
    for w in twists(entry):
        ss = split_series(entry.series, w, entry.surface())
        assert unsplit_series(ss) == twisted(entry.series, w)


@pytest.mark.parametrize("name", ENTRIES)
def test_eval_insertion_matches_reference(name):
    entry = catalog(name)
    s = entry.surface()
    for d in probe_cases(entry):
        for w in twists(entry):
            table = ref_table(entry.series, w, s, d)
            for a, b in itertools.product(range(4), repeat=2):
                got = eval_insertion(entry.series, w, s, d, x_power=a, sigma_power=b)
                assert not (got[0].is_zero and got[1].is_zero)
                assert got == ref_insertion(table, a, b)


@pytest.mark.parametrize("name", ENTRIES)
def test_apply_relation_matches_reference(name):
    entry = catalog(name)
    s = entry.surface()
    checked = 0
    for d in probe_cases(entry):
        assert ref_dot(d, s.cls) != 1
        for w in twists(entry):
            table = ref_table(entry.series, w, s, d)
            nonzero = False
            for z in relations_for(entry):
                with pytest.warns(UserWarning, match="D.S != 1"):
                    got = apply_relation(entry.series, w, s, z, d)
                assert got == ref_relation(table, z)
                nonzero |= not (got[0].is_zero and got[1].is_zero)
            assert nonzero
            checked += 1
    assert checked == 6


def ref_coordinates(series, w, s, d):
    """The fit docstring's coordinates, level p = g-1, -(g-1), ..., 1, -1, 0:
    each is the bare sum of a_{j,w} e^{(K_j.D)t} over K_j.S = 2p."""
    rows = ref_table(series, w, s, d)[3]
    g = s.genus
    levels = [p for m in range(g - 1, 0, -1) for p in (m, -m)] + [0]
    return [
        ExpPolynomial("none", tuple((k_d, c) for k_sigma, k_d, c in rows if k_sigma == 2 * p))
        for p in levels
    ]


@pytest.mark.parametrize("name", ["B3", "B4", "dia2:1:3", "dia2:2:4"])
def test_basis_coordinates_match_reference(name):
    entry = catalog(name)
    lat, s = entry.lattice, entry.surface()
    unit = default_probes(lat, s)[0]
    spread = probe_cases(entry)[0]
    probes = [unit, unit + s.cls]
    for scale in (1, Fraction(1, 2)):
        # scale * spread, moved along the unit probe to D.S = 1
        probes.append(scale * spread + (1 - scale * ref_dot(spread, s.cls)) * unit)
    for d in probes:
        assert ref_dot(d, s.cls) == 1
        for w in twists(entry):
            got = basis_coordinates(entry.series, w, s, d)
            bare = ref_coordinates(entry.series, w, s, d)
            assert any(not c.is_zero for c in bare)
            assert [got.plain(a) for a in range(1, 2 * s.genus)] == bare
            assert got.d_square == ref_dot(d, d)


@pytest.mark.parametrize("name", ENTRIES)
def test_level_sums_match_reference(name):
    entry = catalog(name)
    s = entry.surface()
    for w in twists(entry):
        split = split_series(entry.series, w, s)
        for d in probe_cases(entry):
            expected = ref_level_sums(ref_table(entry.series, w, s, d))
            assert {ks: split.level_sums(ks, d) for ks in split.levels} == expected
            assert split.level_sums(max(expected) + 4, d) == {}


@pytest.mark.parametrize("name", ENTRIES)
def test_split_levels_partition_the_rows_and_the_evaluation(name):
    entry = catalog(name)
    s = entry.surface()
    for w in twists(entry):
        split = split_series(entry.series, w, s)
        rows = split_rows(split)
        assert rows == [(k, ref_dot(k, s.cls), c) for k, c in ref_twisted(entry.series, w)]
        indices = [j for js in split.levels.values() for j in js]
        assert sorted(indices) == list(range(len(rows)))
        assert all(rows[j][1] == ks for ks, js in split.levels.items() for j in js)
        for d in probe_cases(entry):
            # the levels' sums add up, per K.D, to the sums over all rows
            per_kd = Counter()
            for k, _, a in rows:
                per_kd[k.dot(d)] += a
            by_level = Counter()
            for ks in split.levels:
                by_level.update(split.level_sums(ks, d))
            assert by_level == per_kd


def test_evaluate_on_no_z_terms_is_two_zero_parts():
    entry = catalog("B3")
    s = entry.surface()
    split = split_series(entry.series, entry.w_class(), s)
    for d in probe_cases(entry):
        p, n = split.evaluate(d, ())
        assert p == ExpPolynomial("+Q/2", (), ref_dot(d, d))
        assert n == ExpPolynomial("-Q/2", (), ref_dot(d, d))


@pytest.mark.parametrize("z", [((-1, 0, 1),), ((0, -1, 1),), ((2, 0, 1), (0, -2, 3))])
def test_evaluate_rejects_negative_powers(z):
    entry = catalog("B3")
    s = entry.surface()
    split = split_series(entry.series, entry.w_class(), s)
    with pytest.raises(series_mod.SeriesError, match="insertion powers must be >= 0"):
        split.evaluate(default_probes(entry.lattice, s)[0], z)


@pytest.mark.parametrize("power", [1.0, True])
def test_evaluate_refuses_a_power_that_is_no_int_on_an_empty_series(power):
    entry = catalog("B3")
    s = entry.surface()
    split = split_series(DonaldsonSeries.on(entry.lattice, []), entry.w_class(), s)
    assert not split.levels  # no level calls z_value
    with pytest.raises(series_mod.SeriesError, match="insertion powers must be >= 0"):
        split.evaluate(default_probes(entry.lattice, s)[0], ((power, 0, 1),))


def test_apply_relation_rejects_negative_powers():
    entry = catalog("B3")
    s = entry.surface()
    d = default_probes(entry.lattice, s)[0]
    # the relation itself refuses the power, before apply_relation is reached
    with pytest.raises(series_mod.SeriesError, match="insertion powers must be >= 0"):
        apply_relation(entry.series, entry.w_class(), s, RelationPoly.of([(0, -1, 1)]), d)


# -- the characteristic test ------------------------------------------------------------


@st.composite
def gram_and_class(draw):
    n = draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(entries)
    coords = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    return gram, coords


def brute_characteristic(lat, coords) -> bool:
    """The definition, straight from the Gram matrix: k.e_i == e_i.e_i (mod 2)
    for every basis vector e_i.  That is k.v == v.v (mod 2) for every v in
    {0,1}^n, since both sides are additive in v mod 2."""
    return all(
        (sum(c * g for c, g in zip(coords, row)) - row[i]) % 2 == 0
        for i, row in enumerate(lat.gram)
    )


@settings(max_examples=200, deadline=None)
@given(gram_and_class())
# G mod 2 = diag(0, 0, 1): two free columns, (1, 1, 1) characteristic only
# through the kernel, (1, 0, 0) not at all
@example(([[0, 2, 0], [2, 0, 0], [0, 0, 1]], [1, 1, 1]))
@example(([[0, 2, 0], [2, 0, 0], [0, 0, 1]], [1, 0, 0]))
# negative coordinates: a kernel lattice, then one with none (G = diag(1, -1))
@example(([[0, 2, 0], [2, 0, 0], [0, 0, 1]], [-1, -3, -1]))
@example(([[1, 0], [0, -1]], [-3, -1]))
@example(([[1, 0], [0, -1]], [-4, -1]))
def test_is_characteristic_matches_fraction_brute_force(case):
    gram, coords = case
    lat = Lattice(
        name="h", gram=tuple(map(tuple, gram)), b_plus=len(gram) | 1
    )
    k = HClass(lat, tuple(Fraction(c) for c in coords))
    assert is_characteristic(k) == brute_characteristic(lat, coords)
    assert is_characteristic(-k) == brute_characteristic(lat, [-c for c in coords])
    # a rational class is refused, with or without a kernel, wherever its
    # non-integral coordinate sits
    for j in {0, len(coords) - 1}:
        rational = HClass(lat, k.coords[:j] + (Fraction(2 * coords[j] - 1, 2),) + k.coords[j + 1 :])
        with pytest.raises(LatticeError):
            is_characteristic(rational)


# -- gluing against per-entry sums ------------------------------------------------------


def ref_eval_glued(gs, d):
    spec = gs.spec
    lefts = ref_twisted(spec.left.series, spec.w1)
    rights = ref_twisted(spec.right.series, spec.w2)
    shift = 2 * ref_dot(d.d1, spec.surface1.cls)
    terms = []
    for j, k, sector, coeff in gs.entries:
        lam = ref_dot(lefts[j][0], d.d1) + ref_dot(rights[k][0], d.d2) + sector * shift
        terms.append((GaussianRational(lam), GaussianRational(coeff)))
    return ExpPolynomial("+Q/2", tuple(terms), ref_dot(d.d1, d.d1) + ref_dot(d.d2, d.d2))


def split_probes(spec, probe):
    left, right = spec.left.lattice.cls(probe), spec.right.lattice.cls(probe)
    d = spec.split_class(left, right)
    return [d, rshift(spec, d, Fraction(1, 3)), rshift(spec, d, -2)]


def test_eval_glued_matches_reference_on_b3_double():
    bg = catalog("B3")
    gs = glue(GluingSpec(left=bg, right=bg))
    for d in split_probes(gs.spec, "T1"):
        got = eval_glued(gs, d)
        assert not got.is_zero
        assert got == ref_eval_glued(gs, d)


@pytest.mark.parametrize("name", ["K3", "S4"])
def test_eval_glued_matches_reference_on_torus_gluing(name):
    side = catalog(name)
    gs = glue_torus(GluingSpec(left=side, right=side))
    for d in split_probes(gs.spec, "sigma"):
        got = eval_glued(gs, d)
        assert not got.is_zero
        assert got == ref_eval_glued(gs, d)
    with pytest.raises(GluingError):
        coefficient_match(gs, gs.left_class(0), gs.right_class(0))


@pytest.mark.parametrize("right_w", [None, "E1"])
def test_coefficient_match_matches_per_entry_sums_on_b3_double(right_w):
    bg = catalog("B3")
    spec = GluingSpec(left=bg, right=bg, right_w=right_w)
    gs = glue(spec)
    g = spec.genus
    top = 2 * g - 2
    s1, s2 = spec.surface1.cls, spec.surface2.cls
    hits = 0
    for j, (k_cls, a) in enumerate(bg.series.entries):
        for k, (l_cls, b) in enumerate(bg.series.entries):
            sign = ref_sign(k_cls, spec.w1) * ref_sign(l_cls, spec.w2)
            grouped = sum(
                (sign * coeff for jj, kk, _, coeff in gs.entries if (jj, kk) == (j, k)),
                Fraction(0),
            )
            lvl_k, lvl_l = ref_dot(k_cls, s1), ref_dot(l_cls, s2)
            if lvl_k == lvl_l and abs(lvl_k) == top:
                sector_sign = 1 if lvl_k == top else (-1) ** (g - 1)
                scale = Fraction(2 ** (7 * g - 9))
                predicted = -spec.epsilon * sector_sign * scale * a * b
                hits += 1
            else:
                predicted = Fraction(0)
            assert coefficient_match(gs, k_cls, l_cls) == (grouped, predicted)
    assert hits == 2
    # a class that is no parent's restriction, integral or rational
    some_class = bg.series.entries[0][0]
    assert coefficient_match(gs, bg.lattice.zero(), some_class) == (0, 0)
    half_t1 = Fraction(1, 2) * bg.lattice.cls("T1")
    assert coefficient_match(gs, half_t1, some_class) == (0, 0)


# -- the number rule: an int when integral, else a Fraction -------------------------------


def is_exact(value) -> bool:
    """``lattice._exact`` leaves the value as it is: an int, or a Fraction
    that is no integer."""
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
@pytest.mark.parametrize("delta", [0, 2])
def test_coefficient_match_answers_are_exact_numbers(genus, delta):
    bg = catalog(f"B{genus}")
    w_sq = 2 * bg.w_class().square + delta
    spec = GluingSpec(left=bg, right=bg, w_square=w_sq)
    # w^2 - w1^2 - w2^2 = 2 flips epsilon when g - 1 is odd
    assert spec.epsilon == (-1 if delta and genus % 2 == 0 else 1)
    gs = glue(spec)
    classes = bg.series.classes()
    answers = [coefficient_match(gs, k, l) for k in classes for l in classes]
    assert all(is_exact(x) for pair in answers for x in pair)
    hits = [pair for pair in answers if pair != (0, 0)]
    assert len(hits) == 2 and all(got == predicted for got, predicted in hits)
    assert any(type(got) is int for got, _ in hits)
    # misses: a class that no parent restricts to, integral or rational
    for k in (bg.lattice.zero(), Fraction(1, 2) * bg.lattice.cls("T1")):
        got, predicted = coefficient_match(gs, k, classes[0])
        assert (type(got), type(predicted)) == (int, int) and got == predicted == 0


@pytest.mark.parametrize("name", ENTRIES)
def test_level_sums_are_exact_numbers(name):
    entry = catalog(name)
    s = entry.surface()
    for w in twists(entry):
        split = split_series(entry.series, w, s)
        # D = 0 sums each level whole: 0 on B3, and +-1 over L = 4 on S4
        for d in probe_cases(entry) + [entry.lattice.zero()]:
            sums = [split.level_sums(ks, d) for ks in split.levels]
            assert all(is_exact(a) for level in sums for a in level.values())


# -- int paths against Fraction brute force -----------------------------------------------


@functools.cache
def oracle_lattice(name):
    if name == "K3.bl1":
        return constructions.blow_up(catalog("K3")).lattice
    return catalog(name).lattice


RATIONAL = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 4, 6, 9]))


@st.composite
def rational_class_pair(draw):
    name = draw(st.sampled_from(["B3", "C3", "K3.bl1", "dia2:2:4"]))
    rank = oracle_lattice(name).rank
    coords = st.lists(RATIONAL, min_size=rank, max_size=rank)
    return name, draw(coords), draw(coords)


@settings(max_examples=150, deadline=None)
@given(rational_class_pair())
@example(("B3", [Fraction(1, 3), Fraction(-1, 4), 0, 2, Fraction(5, 6)],
          [Fraction(-1, 2), 1, Fraction(2, 9), 0, -3]))
@example(("C3", [0, 0, Fraction(1, 2)], [Fraction(1, 2), 0, Fraction(1, 3)]))  # squares to 0
def test_rational_covector_square_and_pairing_match_fraction_brute_force(case):
    name, u_coords, v_coords = case
    lat = oracle_lattice(name)
    u, v = HClass(lat, u_coords), HClass(lat, v_coords)
    integral = HClass(lat, [c.numerator for c in u_coords])  # the int path too
    for x, y in ((u, v), (v, u), (integral, u), (u, integral), (integral, integral)):
        covector = tuple(ref_dot(x, lat.basis_vector(i)) for i in range(lat.rank))
        assert x.covector == covector and all(is_exact(c) for c in x.covector)
        assert x.square == ref_dot(x, x) and is_exact(x.square)
        assert lattice_mod.pairing(x, y) == x.dot(y) == ref_dot(x, y)
        assert is_exact(lattice_mod.pairing(x, y))
        # the batch pairing of a row against y is the same number
        if x.is_integral:
            assert lat.pairings([x.coords], y) == [lattice_mod.pairing(x, y)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([Fraction(1, 3), Fraction(-1, 4), Fraction(2, 3),
                                 Fraction(-3, 4), Fraction(5), Fraction(-1)]),
                min_size=16, max_size=16))
@example([Fraction(1, 3), Fraction(-1, 4)] * 8)
@example([Fraction(5)] * 16)
def test_level_sums_over_mixed_denominators_match_reference(coefficients):
    entry = catalog("B3")
    s = entry.surface()
    assert len(entry.series.entries) == 16
    series = DonaldsonSeries.on(entry.lattice, zip(entry.series.classes(), coefficients))
    for w in twists(entry):
        split = split_series(series, w, s)
        for d in probe_cases(entry):
            got = {ks: split.level_sums(ks, d) for ks in split.levels}
            assert got == ref_level_sums(ref_table(series, w, s, d))
            assert all(is_exact(a) for level in got.values() for a in level.values())


# -- work counts ------------------------------------------------------------------------


def own_recipe_cache(monkeypatch):
    """Derive catalog entries from here on under a recipe cache of the
    caller's own: the shared entries' series may hold split tables that
    earlier tests made, which would hide a split's work."""
    fresh = functools.cache(constructions.parse_recipe.__wrapped__)
    monkeypatch.setattr(constructions, "parse_recipe", fresh)


def bound_tables(spec):
    """How many of the spec's splits have read their table."""
    return sum("_table" in split.__dict__ for split in spec._splits)


def count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)


def record_pairings(monkeypatch):
    """Every (K coords, v) that is paired, in call order: each row of a
    ``Lattice.pairings`` batch, the one way a series row meets a class, and
    ``lattice.pairing(u, v)`` of two classes both ways round."""
    pairs = []
    batch, single = Lattice.pairings, lattice_mod.pairing

    def pairings(lattice, rows, v):
        pairs.extend((k, v) for k in rows)
        return batch(lattice, rows, v)

    def pairing(u, v):
        pairs.extend(((u.coords, v), (v.coords, u)))
        return single(u, v)

    monkeypatch.setattr(Lattice, "pairings", pairings)
    monkeypatch.setattr(lattice_mod, "pairing", pairing)
    return pairs


def record_columns(monkeypatch):
    """Every request to ``column``, the one writer of a series' columns, from
    series.py and constructions.py, in call order: (series, v, whether this
    request made v's column)."""
    calls = []
    real = series_mod.column

    def column(series, v):
        new = v.coords not in series._store
        col = real(series, v)
        calls.append((series, v, new and v.coords in series._store))
        return col

    monkeypatch.setattr(series_mod, "column", column)
    monkeypatch.setattr(constructions, "column", column)
    return calls


def fresh_probes(entry):
    """The default probes as new objects: a named probe such as T1 is also
    the object w, so only a copy tells a pairing with D from one with w."""
    return [HClass(d.lattice, d.coords) for d in default_probes(entry.lattice, entry.surface())]


def test_split_series_pairs_each_class_with_the_surface_once(monkeypatch):
    own_recipe_cache(monkeypatch)
    columns = record_columns(monkeypatch)
    pairs = record_pairings(monkeypatch)
    entry = catalog("B4")
    s = entry.surface()
    ss = split_series(entry.series, entry.w_class(), s)
    assert len(ss.levels) == 2 * s.genus - 1
    # the derivation's check made the column of S; validate and the split read it
    made = [v.coords for series, v, new in columns if series is entry.series and new]
    assert made.count(s.cls.coords) == 1 and ss._table[0] is entry.series._store[s.cls.coords]
    classes = set(entry.series.rows)
    met = Counter(k for k, v in pairs if v.coords == s.cls.coords and k in classes)
    assert set(met) == classes and max(met.values()) == 1
    levels = [ks for _, ks, _ in split_rows(ss)]
    assert levels == [ref_dot(k, s.cls) for k in entry.series.classes()]


@pytest.mark.parametrize("name", ["B4", "dia2:2:4"])
def test_finite_type_order_pairs_each_class_with_each_probe_at_most_once(monkeypatch, name):
    entry = catalog(name)
    series = fresh_series(entry)  # a store of its own, with no column yet
    s = entry.surface()
    classes = set(series.rows)
    probes = fresh_probes(entry)
    columns = record_columns(monkeypatch)
    pairs = record_pairings(monkeypatch)
    for w in twists(entry):
        assert finite_type_order(series, w, s, probes) == 1
    # a probe's column is made once and read by the other twist: each class
    # met each probe at most once over both
    made = [v.coords for _, v, new in columns if new]
    read = {v.coords for _, v, _ in columns if any(v is d for d in probes)}
    assert len(made) == len(set(made)) and read <= set(series._store)
    seen = Counter((d.coords, k) for k, d in pairs if d.coords in read and k in classes)
    assert seen and max(seen.values()) == 1


@pytest.mark.parametrize("name", ["B3", "B4", "B5"])
def test_relation_pairs_no_class_with_the_probe(monkeypatch, name):
    entry = catalog(name)
    s = entry.surface()
    z = relation_poly(s.genus)
    classes = {k.coords for k in entry.series.classes()}
    pairs = record_pairings(monkeypatch)
    for d in fresh_probes(entry):
        for w in twists(entry):
            pairs.clear()
            p, n = apply_relation(entry.series, w, s, z, d)
            assert p.is_zero and n.is_zero
            assert [(k, v) for k, v in pairs if v is d and k in classes] == []


def test_a_relation_compiles_its_table_once(monkeypatch):
    # one compiled table for every level of every evaluation of one z, made
    # with z; finite_type_order compiles no z at all
    entry = catalog("B5")
    s, w = entry.surface(), entry.w_class()
    split = split_series(entry.series, w, s)
    compiled = []
    count_calls(monkeypatch, series_mod, "_horner_table", compiled)
    z = RelationPoly(relation_poly(s.genus).terms)  # a new value, compiled here
    assert len(compiled) == 1
    probes = fresh_probes(entry)
    for d in probes + [probes[0] + probes[0]]:  # the last has D.S = 2: z is not zero
        p, n = split.evaluate(d, z)
        assert (p.is_zero and n.is_zero) == (d.dot(s.cls) == 1)
    assert len(split.levels) == 2 * s.genus - 1 and len(compiled) == 1
    # every unshifted probe of B(g) sums to 0, so each one's column is read,
    # in order, before the shifted one's
    half = len(probes) // 2
    given = probes[:half] + probes[half:half + 1]
    columns = record_columns(monkeypatch)
    compiled.clear()
    assert finite_type_order(entry.series, w, s, given) == 1
    assert [id(v) for _, v, _ in columns] == [id(d) for d in given]
    assert compiled == []


def canceling_pair(levels, signs):
    """A two-row series on B3's lattice whose rows are B3's first rows at
    the two surface levels, with twisted numerators 1 and -1 against (T1,
    Sigma_g): both rows pair to 0 with the zero probe."""
    entry = catalog("B3")
    w, s = entry.lattice.cls("T1"), entry.surface("Sigma_g")
    rows, twisted_nums = entry.series.rows, twisted(entry.series, w).nums
    all_levels = split_series(entry.series, w, s)._table[0]
    js = [all_levels.index(ks) for ks in levels]
    nums = [t * (1 if twisted_nums[j] == entry.series.nums[j] else -1) for j, t in zip(js, signs)]
    return DonaldsonSeries(entry.lattice, [rows[j] for j in js], nums, 1), w, s


@pytest.mark.parametrize("levels, order", [((2, -2), 0), ((2, 0), 1)])
def test_finite_type_sums_per_sector_and_exponent(levels, order):
    # two P-sector rows at levels 2 and -2 cancel in the exact evaluation,
    # so their sums must not be kept per level; a P row and an N row never
    # cancel, so their sums must not be merged across sectors
    series, w, s = canceling_pair(levels, (1, -1))
    d = series.lattice.zero()
    assert sorted(series.lattice.pairings(series.rows, s.cls)) == sorted(levels)
    p, n = split_series(series, w, s).evaluate(d, ((0, 0, 1),))
    assert (p.is_zero and n.is_zero) == (order == 0)
    assert finite_type_order(series, w, s, [d]) == order


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 6),
            st.integers(0, 4),
            st.fractions(max_denominator=12).filter(bool),
        ),
        max_size=6,
    ),
    st.booleans(),
)
@example([], False)
@example([(3, 1, Fraction(1, 2))], True)
def test_a_relation_table_is_compiled_once_when_made(terms, cancel):
    # the table is made with the polynomial, and its length gives the
    # S-degree: nothing reading z compiles it again
    if cancel:
        terms = terms + [(sp, xp, -c) for sp, xp, c in terms]
    compiled = []
    with pytest.MonkeyPatch.context() as mp:
        count_calls(mp, series_mod, "_horner_table", compiled)
        z = RelationPoly(tuple(terms))
        assert len(compiled) == 1
        assert z.sigma_degree == max((sp for sp, _, _ in z.terms), default=0)
        assert not (cancel and z.terms)
        for ks in (-2, 0, 2):
            series_mod.z_value(z, ks, 1)
            z._value(ks, Fraction(1, 3))
        assert RelationPoly.of(z) is z and len(compiled) == 1


def test_a_relation_that_vanishes_makes_no_gaussian_value(monkeypatch):
    # at D.S = 1 the genus-g relation is 0 at every level: no level value and
    # no i^{-d0} is made; at D.S = 2 it is not 0, and the values are made
    entry = catalog("B5")
    s = entry.surface()
    z = relation_poly(s.genus)
    made = []

    class Counting(GaussianRational):
        def __init__(self, *parts):
            made.append(parts)
            super().__init__(*parts)

    monkeypatch.setattr(series_mod, "GaussianRational", Counting)
    probes = fresh_probes(entry)
    for d in probes:
        for w in twists(entry):
            p, n = apply_relation(entry.series, w, s, z, d)
            assert p.is_zero and n.is_zero
    assert made == []
    p, n = split_series(entry.series, entry.w_class(), s).evaluate(probes[0] + probes[0], z)
    assert made and not (p.is_zero and n.is_zero)


def fresh_series(entry):
    """A new copy of the entry's series: catalog entries are shared, so an
    earlier test may already have split theirs."""
    return DonaldsonSeries.on(entry.lattice, entry.series.entries)


def tabled_twists(calls):
    """The w coords of each ``_split_table`` call, in call order."""
    return [w.coords for _, w, _ in calls]


def test_apply_relation_splits_once(monkeypatch):
    # one table per (w, S) over the whole sweep: the first probe tables each
    # twist once, every later probe none
    calls = []
    count_calls(monkeypatch, series_mod, "_split_table", calls)
    entry = catalog("B4")
    series = fresh_series(entry)
    s = entry.surface()
    z = relation_poly(s.genus)
    ws = twists(entry)
    probes = default_probes(entry.lattice, s)
    assert len(probes) > 1
    for i, d in enumerate(probes):
        for w in ws:
            before = len(calls)
            p, n = apply_relation(series, w, s, z, d)
            assert p.is_zero and n.is_zero
            assert len(calls) - before == (i == 0)
    assert tabled_twists(calls) == [w.coords for w in ws]


@pytest.mark.parametrize("name", ["B4", "dia2:2:4"])
def test_finite_type_order_splits_once(monkeypatch, name):
    calls = []
    count_calls(monkeypatch, series_mod, "_split_table", calls)
    entry = catalog(name)
    series = fresh_series(entry)
    s = entry.surface()
    ws = twists(entry)
    assert len(default_probes(entry.lattice, s)) > 1
    for _ in range(2):
        for w in ws:
            assert finite_type_order(series, w, s) == 1
    assert tabled_twists(calls) == [w.coords for w in ws]


def test_a_split_tables_its_rows_on_first_read(monkeypatch):
    own_recipe_cache(monkeypatch)
    entry = catalog("B4")
    series = entry.series
    w, s = entry.w_class(), entry.surface()
    calls = []
    count_calls(monkeypatch, series_mod, "_split_table", calls)
    split = series_mod.SplitSeries(series, w, s)
    spec = GluingSpec(left=entry, right=entry)
    assert calls == [] and bound_tables(spec) == 0
    assert split._table is split._table
    assert len(calls) == 1
    # the table holds three facts per series row, immutably
    levels, _, nums = split._table
    assert type(split._table) is tuple and type(levels) is tuple and type(nums) is tuple
    assert len(levels) == len(nums) == len(series.rows)
    # another direct split of the pair tables the rows again, for itself
    again = series_mod.SplitSeries(series, w, s)
    assert again._table == split._table and again._table is not split._table
    assert again.levels == split.levels and len(calls) == 2
    series_mod.SplitSeries(series, w + s.cls, s).levels
    assert tabled_twists(calls) == [w.coords, w.coords, (w + s.cls).coords]


def test_a_split_made_directly_files_nothing_on_its_series():
    # split_series is the one writer of a series' store of splits
    entry = catalog("B3")
    series = fresh_series(entry)
    w, s = entry.w_class(), entry.surface()
    split = series_mod.SplitSeries(series, w, s)
    assert split.levels and split._table and series._splits == {}
    stored = split_series(series, w, s)
    assert stored is not split and stored == split
    assert list(series._splits.values()) == [stored]


def test_copies_of_a_series_start_with_no_split_tables():
    entry = catalog("B3")
    series = fresh_series(entry)
    split_series(series, entry.w_class(), entry.surface())._table
    assert len(series._splits) == 1
    for copy in (DonaldsonSeries.on(series.lattice, series.entries), dataclasses.replace(series)):
        assert copy == series and copy._splits == {}


def test_split_tables_are_not_part_of_equality_hash_or_repr():
    entry = catalog("B3")
    warm, cold = fresh_series(entry), fresh_series(entry)
    w, s = entry.w_class(), entry.surface()
    for ww in twists(entry):
        split_series(warm, ww, s).levels
    assert len(warm._splits) == 2 and cold._splits == {}
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert split_series(warm, w, s) == split_series(cold, w, s)


def test_a_split_on_a_foreign_lattice_is_refused_before_any_table(monkeypatch):
    # the same Gram under another name: equal coordinates, another lattice
    entry = catalog("B3")
    other = dataclasses.replace(entry.lattice, name="B3'")
    w, s = entry.w_class(), entry.surface()
    foreign_w = HClass(other, w.coords)
    foreign_s = MarkedSurface(HClass(other, s.cls.coords), s.genus)
    series = fresh_series(entry)
    calls = []
    count_calls(monkeypatch, series_mod, "_split_table", calls)
    for _ in range(2):  # without a table, then with the one of (w, S)
        calls.clear()
        for ww, ss in ((foreign_w, s), (w, foreign_s), (foreign_w, foreign_s)):
            with pytest.raises(LatticeMismatch):
                series_mod.SplitSeries(series, ww, ss)
        assert calls == []
        split_series(series, w, s)._table


def test_a_stored_key_never_lets_a_foreign_pair_through():
    # the same Gram under another name: equal coordinates, another lattice
    entry = catalog("B3")
    other = dataclasses.replace(entry.lattice, name="B3'")
    w, s = entry.w_class(), entry.surface()
    foreign_w = HClass(other, w.coords)
    foreign_s = MarkedSurface(HClass(other, s.cls.coords), s.genus)
    series = fresh_series(entry)
    split = split_series(series, w, s)
    d = default_probes(entry.lattice, s)[0]
    z = relation_poly(s.genus)
    for ww, ss in ((foreign_w, s), (w, foreign_s), (foreign_w, foreign_s)):
        for request in (
            lambda: split_series(series, ww, ss),
            lambda: apply_relation(series, ww, ss, z, d),
            lambda: eval_insertion(series, ww, ss, d),
            lambda: finite_type_order(series, ww, ss, [d]),
        ):
            with pytest.raises(LatticeMismatch):
                request()
    assert list(series._splits.values()) == [split]
    assert split_series(series, w, s) is split


def test_a_refused_pair_is_refused_again_and_never_stored():
    entry = catalog("B3")
    s = entry.surface()
    series = fresh_series(entry)
    even = entry.lattice.zero()  # w.S = 0: not allowable
    other = dataclasses.replace(entry.lattice, name="B3'")
    foreign = MarkedSurface(HClass(other, s.cls.coords), s.genus)
    for w, ss, error in ((even, s, SeriesError), (entry.w_class(), foreign, LatticeMismatch)):
        for _ in range(2):
            with pytest.raises(error):
                split_series(series, w, ss)
            assert series._splits == {}


def test_a_surface_of_another_genus_gets_its_own_split():
    # one series under two entries: the same surface class, marked genus g
    # and g + 1 (the adjunction bound only loosens)
    entry = cold_entry(catalog("B4"))
    higher = dataclasses.replace(
        entry, surfaces=tuple((lab, MarkedSurface(s.cls, s.genus + 1)) for lab, s in entry.surfaces)
    )
    assert higher.series is entry.series
    g = entry.surface().genus
    spec, spec_higher = GluingSpec(entry, entry), GluingSpec(higher, higher)
    assert (spec.genus, spec_higher.genus) == (g, g + 1)
    assert spec_higher.surface1.genus == g + 1 and spec_higher._splits[0] is not spec._splits[0]
    assert len(entry.series._splits) == 2
    w = entry.w_class()
    assert split_series(entry.series, w, higher.surface()) is spec_higher._splits[0]
    assert split_series(entry.series, w, entry.surface()) is spec._splits[0]


def test_one_pair_is_split_and_checked_once(monkeypatch):
    entry = catalog("B4")
    series = fresh_series(entry)
    w, s = entry.w_class(), entry.surface()
    z = relation_poly(s.genus)
    probes = default_probes(entry.lattice, s)
    made = []
    real = series_mod.SplitSeries.__post_init__
    monkeypatch.setattr(
        series_mod.SplitSeries, "__post_init__", lambda self: made.append(self) or real(self)
    )
    for d in probes:
        apply_relation(series, w, s, z, d)
    assert len(made) == 1
    # every other route to the split of one pair, on a series of its own
    cold = cold_entry(entry)
    for _ in range(3):
        eval_insertion(cold.series, w, s, probes[0], 1, 1)
        finite_type_order(cold.series, w, s)
        basis_coordinates(cold.series, w, s, probes[0])
        GluingSpec(cold, cold)
    assert len(made) == 2 and split_series(series, w, s) is made[0]
    assert len(series._splits) == len(cold.series._splits) == 1


@pytest.mark.parametrize(
    "copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"]
)
def test_a_warm_series_copies_and_evaluates_as_the_original(copy_of):
    entry = catalog("B4")
    series = fresh_series(entry)
    s = entry.surface()
    z = relation_poly(s.genus)
    probes = default_probes(entry.lattice, s)
    for w in twists(entry):
        apply_relation(series, w, s, z, probes[0])
    other = copy_of(series)
    assert other == series and other._splits.keys() == series._splits.keys()
    assert all(split.series is other for split in other._splits.values())
    for w in twists(entry):
        stored = split_series(other, w, s)
        assert stored.series is other and "_table" in stored.__dict__
        for d in probes:
            for poly in (z, ((0, 0, 1),), ((2, 1, 3),)):
                got = split_series(other, w, s).evaluate(d, poly)
                assert got == split_series(series, w, s).evaluate(d, poly)
    assert len(other._splits) == len(series._splits) == 2


def test_split_levels_refuse_item_assignment():
    entry = catalog("B3")
    split = split_series(fresh_series(entry), entry.w_class(), entry.surface())
    level = next(iter(split.levels))
    with pytest.raises(TypeError):
        split.levels[level] = ()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["B3", "B4", "B5", "dia2:2:4"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(-3, 3)), max_size=4),
)
def test_a_warm_series_evaluates_as_a_fresh_copy(name, shifted, seed, z_terms):
    entry = catalog(name)
    w, s = entry.w_class(), entry.surface()
    if shifted:
        w = w + s.cls
    rng = random.Random(seed)
    d = HClass(entry.lattice, [rng.randint(-2, 2) for _ in range(entry.lattice.rank)])
    warm = entry.series
    split = split_series(warm, w, s)
    split._table
    assert split_series(warm, w, s) is split and "_table" in split.__dict__
    fresh = fresh_series(entry)
    assert split_series(warm, w, s).evaluate(d, z_terms) == split_series(fresh, w, s).evaluate(
        d, z_terms
    )


def cold_entry(entry):
    """The entry over a copy of its series, which holds no split yet."""
    return dataclasses.replace(entry, series=dataclasses.replace(entry.series))


def test_gluing_spec_tests_each_side_once_for_allowability(monkeypatch):
    # two equal series with a store each: one allowability test per side,
    # and none again for the rules or a second spec on the same sides
    left, right = cold_entry(catalog("B4")), cold_entry(catalog("B4"))
    calls = []
    count_calls(monkeypatch, series_mod, "is_allowable", calls)
    spec = GluingSpec(left=left, right=right)
    assert len(calls) == 2
    gs = glue(spec)
    glue_conjectural(spec)
    k = left.series.entries[0][0]
    coefficient_match(gs, k, k)
    GluingSpec(left=left, right=right).swapped()
    assert len(calls) == 2


def test_splits_are_equal_when_their_series_w_and_surface_are():
    entry = catalog("B3")
    s, w = entry.surface(), entry.w_class()
    pairs = entry.series.entries
    split = split_series(entry.series, w, s)
    same = split_series(series_mod.DonaldsonSeries.on(entry.lattice, reversed(pairs)), w, s)
    assert same == split and hash(same) == hash(split)
    negated = series_mod.DonaldsonSeries.on(entry.lattice, [(k, -c) for k, c in pairs])
    other = split_series(negated, w, s)
    # the same w, S, d0 and levels: only the series tells the two splits apart
    assert (other.w, other.surface, other.d0) == (split.w, split.surface, split.d0)
    assert [row[:2] for row in split_rows(other)] == [row[:2] for row in split_rows(split)]
    assert other != split


def test_eval_glued_on_a_reload_neither_twists_nor_splits(monkeypatch):
    bg = catalog("B3")
    data = glued_to_json(glue(GluingSpec(left=bg, right=bg)))
    # the reload derives B3 again, so its series holds no table of the glue's
    own_recipe_cache(monkeypatch)
    calls = []
    for name in ("twist", "_split_table"):
        count_calls(monkeypatch, series_mod, name, calls)
    gs = glued_from_json(data)
    assert gs.spec.left.series is not bg.series
    for d in split_probes(gs.spec, "T1"):
        assert not eval_glued(gs, d).is_zero
    assert calls == [] and bound_tables(gs.spec) == 0


def record_canonical(monkeypatch):
    """(marker, len(terms)) of every ExpPolynomial made past the constructor's
    merge (``ExpPolynomial._canonical``), in call order."""
    made = []
    real = ExpPolynomial._canonical

    def recording(marker, terms, q_square):
        made.append((marker, len(terms)))
        return real(marker, terms, q_square)

    monkeypatch.setattr(ExpPolynomial, "_canonical", staticmethod(recording))
    return made


def test_evaluate_passes_one_term_per_level_and_exponent(monkeypatch):
    # evaluate hands each part's sums to the trusted maker already merged: one
    # term per (sector, K.D) whose twisted coefficients do not cancel, and no other
    entry = catalog("B5")
    s = entry.surface()
    split = split_series(entry.series, entry.w_class(), s)
    rows = split_rows(split)
    assert [ks for _, ks, _ in rows] == [ref_dot(k, s.cls) for k in entry.series.classes()]
    made = record_canonical(monkeypatch)
    for d in default_probes(entry.lattice, s):
        made.clear()
        p, n = split.evaluate(d, ((0, 0, 1),))
        sums = defaultdict(Fraction)
        for k, ks, c in rows:
            sums[ks % 4, ref_dot(k, d)] += c
        nonzero = Counter(sector for sector, _ in (key for key, c in sums.items() if c))
        assert made == [("+Q/2", nonzero[2]), ("-Q/2", nonzero[0])]
        assert (len(p.terms), len(n.terms)) == (nonzero[2], nonzero[0])
        assert sum(nonzero.values()) < len(rows)


def test_eval_glued_passes_one_term_per_exponent(monkeypatch):
    # eval_glued hands its sums to the trusted maker already merged: one term
    # per exponent whose coefficients do not cancel, and no other
    entry = catalog("B4")
    gs = glue_torus(GluingSpec(entry, entry, "T1", "T1", "sigma", "sigma"))
    assert len(gs.entries) == 6912
    made = record_canonical(monkeypatch)
    for d in split_probes(gs.spec, "sigma"):
        made.clear()
        got = eval_glued(gs, d)
        shift = 2 * ref_dot(d.d1, gs.spec.surface1.cls)
        k_d1 = {j: ref_dot(gs.left_class(j), d.d1) for j in {e[0] for e in gs.entries}}
        l_d2 = {k: ref_dot(gs.right_class(k), d.d2) for k in {e[1] for e in gs.entries}}
        sums = defaultdict(Fraction)
        for j, k, sector, c in gs.entries:
            sums[k_d1[j] + l_d2[k] + sector * shift] += c
        assert made == [("+Q/2", sum(1 for c in sums.values() if c))]
        assert len(got.terms) == made[0][1] <= len(sums)


def test_apply_relation_pairs_d_with_the_surface_once_before_any_split(monkeypatch):
    own_recipe_cache(monkeypatch)
    entry = catalog("B4")
    s, w = entry.surface(), entry.w_class()
    series, z = entry.series, relation_poly(s.genus)
    k3 = catalog("K3")
    met = []
    single = lattice_mod.pairing

    def pairing(u, v):
        met.append((u, v))
        return single(u, v)

    def with_s(d):
        """How many recorded pairings were D with S, either way round."""
        return sum({id(u), id(v)} == {id(d), id(s.cls)} for u, v in met)

    monkeypatch.setattr(lattice_mod, "pairing", pairing)
    # D.S is read once, before the split: a foreign D is refused with no warning
    # and no split made, and D.S != 1 warns, naming this file, before a refused w
    d = k3.lattice.cls(k3.lattice.labels()[0])
    with warnings.catch_warnings(record=True) as caught, pytest.raises(LatticeMismatch):
        warnings.simplefilter("always")
        apply_relation(series, w, s, z, d)
    assert caught == [] and series._splits == {} and with_s(d) == len(met) == 1
    d = 2 * fresh_probes(entry)[0]
    with pytest.warns(UserWarning, match="D.S != 1") as caught, pytest.raises(SeriesError):
        apply_relation(series, entry.lattice.zero(), s, z, d)
    assert [x.filename for x in caught] == [__file__] and series._splits == {}
    # on a split made once, each apply_relation pairs D with S once, at D.S = 1
    # (no level then meets D) and at D.S = 2 (each level's rows meet D in a batch)
    split_series(series, w, s)
    for d in fresh_probes(entry):
        for x in (d, d + d):
            met.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                apply_relation(series, w, s, z, x)
            assert with_s(x) == 1


def test_glue_pairs_each_class_with_its_surface_once(monkeypatch):
    own_recipe_cache(monkeypatch)
    columns = record_columns(monkeypatch)
    pairs = record_pairings(monkeypatch)
    bg = catalog("B4")
    spec = GluingSpec(left=bg, right=bg)
    s = spec.surface1.cls.coords
    gs = glue(spec)
    assert len(gs.entries) == 2
    # both sides split one series against one (w, S): the right reads the
    # left's table, and the table reads the column of S that the derivation
    # made, so each class meets the surface once in all
    left, right = spec._splits
    assert right._table is left._table and spec.surface2.cls.coords == s
    made = [v.coords for series, v, new in columns if series is bg.series and new]
    assert made.count(s) == 1
    classes = set(bg.series.rows)
    met = Counter(k for k, v in pairs if v.coords == s and k in classes)
    assert set(met) == classes and max(met.values()) == 1


@pytest.mark.parametrize(
    "name, surface, w, rules",
    [("B4", None, None, (glue, glue_conjectural)), ("B3", "T1", "sigma", (glue_torus,))],
)
def test_spec_pairs_each_class_with_its_surface_once(monkeypatch, name, surface, w, rules):
    own_recipe_cache(monkeypatch)
    columns = record_columns(monkeypatch)
    pairs = record_pairings(monkeypatch)
    entry = catalog(name)
    s = entry.surface(surface).cls.coords
    spec = GluingSpec(entry, entry, surface, surface, w, w)
    glued = [rule(spec) for rule in rules]
    if glued[0].kind == "standard":
        k = entry.lattice.cls("K")
        coefficient_match(glued[0], k, k)
    assert all(not gs.is_empty for gs in glued)
    # both sides are one series split against one (w, S), so one table, and
    # it reads the column of S that the derivation and validate made once
    made = [v.coords for series, v, new in columns if series is entry.series and new]
    assert made.count(s) == 1
    classes = set(entry.series.rows)
    met = Counter(k for k, v in pairs if v.coords == s and k in classes)
    assert set(met) == classes and max(met.values()) == 1
