import copy
import dataclasses
import json
import pickle
import re
import time
import warnings
from fractions import Fraction

import pytest

from donaldson.constructions import blow_up, catalog, catalog_names
from donaldson.exppoly import ExpPolynomial
from donaldson.gaussian import GaussianRational
from donaldson.lattice import HClass, Lattice, LatticeError, LatticeMismatch, MarkedSurface
from donaldson.series import (
    MAX_GENUS,
    DonaldsonSeries,
    RelationPoly,
    SeriesError,
    apply_relation,
    check_adjunction,
    check_involution,
    default_probes,
    eval_insertion,
    finite_type_order,
    relation_poly,
    series_from_json,
    series_to_json,
    split_series,
    twist,
    twisted,
    unsplit_series,
    z_value,
    _root_level,
)
from test_pairing_table import split_rows
from test_random_series import hyperbolic_plus_minus_ones


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


@pytest.fixture(scope="module")
def k3():
    return catalog("K3")


@pytest.fixture(scope="module")
def b2():
    return catalog("B2")


def shifted_w(entry):
    """w + S for the entry's default pair: the second allowable twist."""
    w = entry.w_class()
    s = entry.surface()
    return w + s.cls


# -- construction invariants -----------------------------------------------------


def test_entries_sorted_distinct_characteristic(b2, k3):
    series = b2.series
    coords = [k.coords for k, _ in series.entries]
    assert coords == sorted(coords)
    with pytest.raises(SeriesError, match="duplicate basic class"):
        DonaldsonSeries.on(b2.lattice, list(series.entries) + [series.entries[0]])
    # a non-characteristic class is rejected
    with pytest.raises(SeriesError):
        DonaldsonSeries.on(b2.lattice, [(b2.lattice.cls("F"), Fraction(1))])
    with pytest.raises(LatticeMismatch, match="^entry class on a foreign lattice$"):
        DonaldsonSeries.on(b2.lattice, [(k3.lattice.zero(), Fraction(1))])
    with pytest.raises(SeriesError, match="is not integral$"):
        DonaldsonSeries.on(b2.lattice, [(Fraction(1, 2) * b2.lattice.cls("K"), Fraction(1))])


@pytest.mark.parametrize("name", ("B3", "B4", "S4", "K3", "C3", "dia2:2:4"))
def test_position_indexes_every_entry(name):
    series = catalog(name).series
    assert len(series.position) == len(series.entries)
    for j, (k, _) in enumerate(series.entries):
        assert series.position[k.coords] == j


def test_position_is_read_only():
    series = catalog("B2").series
    k, c = series.entries[0]
    with pytest.raises(TypeError):
        series.position[k.coords] = 1
    with pytest.raises(AttributeError):
        series.position.clear()
    assert series.coefficient(k) == c
    assert check_involution(series)[0]


@pytest.mark.parametrize(
    "copy_of", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))], ids=["deepcopy", "pickle"]
)
def test_series_copies_compare_equal_and_look_classes_up(copy_of):
    series = catalog("B3").series
    other = copy_of(series)
    assert other == series and hash(other) == hash(series)
    assert other.position == series.position
    for k, c in other.entries:
        assert other.coefficient(k) == series.coefficient(k) == c
    assert check_involution(other) == check_involution(series)


@pytest.mark.parametrize("name", ("B3", "S4", "C3"))
def test_coefficient_agrees_with_a_linear_scan(name):
    series = catalog(name).series
    lattice = series.lattice

    def scanned(k):
        return next((c for kk, c in series.entries if kk.coords == k.coords), Fraction(0))

    first = series.entries[0][0]  # the least coords: not the zero class
    absent, rational = 3 * first, Fraction(1, 2) * first
    assert absent not in series.classes()
    probes = [*series.classes(), *(2 * k for k in series.classes()), lattice.zero()]
    for k in probes + [absent, rational]:
        assert series.coefficient(k) == scanned(k)
    assert series.coefficient(absent) == series.coefficient(rational) == 0


def test_coefficient_refuses_a_class_on_another_lattice():
    # K3 blown up three times has B3's rank: same coordinates, other lattice
    b3 = catalog("B3")
    other = blow_up(blow_up(blow_up(catalog("K3"))))
    k = b3.series.entries[0][0]
    assert other.lattice.rank == b3.lattice.rank and other.lattice != b3.lattice
    with pytest.raises(LatticeMismatch):
        b3.series.coefficient(HClass(other.lattice, k.coords))
    assert b3.series.coefficient(k) == b3.series.entries[0][1]


def test_series_from_permuted_pairs_are_equal_and_hash_equal(b2):
    pairs = list(b2.series.entries)
    permuted = DonaldsonSeries.on(b2.lattice, reversed(pairs))
    assert permuted == b2.series
    assert hash(permuted) == hash(b2.series)
    assert permuted.position == b2.series.position
    half = len(pairs) // 2
    halved = dataclasses.replace(b2.series, rows=b2.series.rows[:half], nums=b2.series.nums[:half])
    assert halved.entries == tuple(pairs[:half])
    assert halved.position == {k.coords: j for j, (k, _) in enumerate(halved.entries)}


def test_zero_series(b2):
    zero = DonaldsonSeries.on(b2.lattice, [])
    assert zero.is_zero
    assert check_involution(zero)[0]


@pytest.mark.parametrize("simple_type", [False, "false", 0, 1, None])
def test_series_refuses_a_simple_type_that_is_not_a_bool(k3, simple_type):
    # every series is of simple type: a stored value other than true is refused
    data = dict(series_to_json(k3.series), simple_type=simple_type)
    with pytest.raises(SeriesError, match="simple_type"):
        series_from_json(data, k3.lattice)


def test_series_from_json_refuses_a_string_simple_type(b2):
    data = dict(series_to_json(b2.series), simple_type="false")
    with pytest.raises(SeriesError, match="simple_type"):
        series_from_json(data, b2.lattice)


def test_series_refuses_a_zero_coefficient(k3):
    # finite_type_order would give 0 for a series that is not is_zero
    with pytest.raises(SeriesError, match="DonaldsonSeries"):
        DonaldsonSeries.on(k3.lattice, [(k3.lattice.zero(), 0)])
    data = series_to_json(k3.series)
    data["entries"][0]["a"] = "0"
    with pytest.raises(SeriesError, match="coefficient 0"):
        series_from_json(data, k3.lattice)


# -- twisting ---------------------------------------------------------------------


def test_twist_by_zero_is_identity(b2):
    assert twist(b2.series, b2.lattice.zero()) == list(b2.series.entries)


def test_twist_by_fiber_is_identity_on_bg():
    for g in (2, 3, 4):
        entry = catalog(f"B{g}")
        w = entry.w_class("T1")
        assert twist(entry.series, w) == list(entry.series.entries)


def test_twist_single_exceptional_entry():
    block = Lattice("one_blowup", ((-1,),), b_plus=3)
    e = block.basis_vector(0)
    series = DonaldsonSeries.on(block, [(e, Fraction(1))])
    assert twist(series, e) == [(e, Fraction(-1))]


def test_twist_involutive(b2):
    w = b2.lattice.cls("sigma")
    assert twist(twisted(b2.series, w), w) == list(b2.series.entries)


def test_twist_needs_integral_w(b2, k3):
    with pytest.raises(SeriesError):
        twist(b2.series, Fraction(1, 2) * b2.lattice.cls("F"))
    with pytest.raises(LatticeMismatch, match="^twist class on a foreign lattice$"):
        twist(b2.series, k3.lattice.cls("sigma"))


# -- splitting ----------------------------------------------------------------------


def test_split_k3_single_class(k3):
    w = k3.lattice.cls("sigma")
    s = k3.surface("F")
    ss = split_series(k3.series, w, s)
    # d0(K3, sigma) = -4; the sigma-twist of the coefficient is -1, at level 0 (N)
    assert ss.d0 == -4
    [(k, ks, c)] = split_rows(ss)
    assert k.is_zero and ks == 0 and c == -1


def test_split_b2_sectors(b2):
    w = b2.lattice.cls("T1")
    s = b2.surface("Sigma_g")
    ss = split_series(b2.series, w, s)
    rows = split_rows(ss)
    levels = [ks for _, ks, _ in rows]
    assert sorted(ks for ks in levels if ks % 4 == 2) == [-2, 2]
    assert [ks for ks in levels if ks % 4 == 0] == [0, 0]
    assert all(k.dot(s.cls) == ks for k, ks, _ in rows)


def test_split_requires_allowable_pair(b2):
    s = b2.surface("Sigma_g")
    with pytest.raises(SeriesError):
        split_series(b2.series, b2.lattice.zero(), s)


def test_split_unsplit_round_trip(b2, k3):
    for entry, w_label in ((b2, "T1"), (b2, "E1"), (k3, "sigma")):
        w = entry.lattice.cls(w_label)
        s = entry.surface()
        ss = split_series(entry.series, w, s)
        recovered = unsplit_series(ss)
        assert recovered == twisted(entry.series, w)
        # twisting once more recovers the stored series
        assert twisted(recovered, w) == entry.series


# -- insertion evaluation ------------------------------------------------------------


def test_eval_insertion_frozen_b2_case(b2):
    # B2, w dual to the fiber, D = E1 (D.S = 1), one surface insertion.
    # Classes +-(E1+E2) sit at levels +-2 and contribute (1/4)(1 +- 2) at
    # exponents -+1; classes +-(E1-E2) sit at level 0 with i^6 = -1 and
    # weight (-1 + 0i), contributing +1/4 at exponents -+i.
    w = b2.lattice.cls("T1")
    s = b2.surface("Sigma_g")
    d = b2.lattice.cls("E1")
    p, n = eval_insertion(b2.series, w, s, d, x_power=0, sigma_power=1)
    assert p == ExpPolynomial(
        "+Q/2", ((gr(-1), gr(Fraction(3, 4))), (gr(1), gr(Fraction(-1, 4)))), Fraction(-1)
    )
    assert n == ExpPolynomial(
        "-Q/2",
        ((gr(0, -1), gr(Fraction(1, 4))), (gr(0, 1), gr(Fraction(1, 4)))),
        Fraction(-1),
    )


def test_top_insertion_weight_matches_adjunction_level():
    for g in (2, 3, 4):
        entry = catalog(f"B{g}")
        w = entry.w_class("T1")
        s = entry.surface("Sigma_g")
        d = entry.lattice.cls("T1")
        p, _ = eval_insertion(entry.series, w, s, d, sigma_power=1)
        # the top class contributes (1 + (2g-2)) * 2^{-(2g-2)} at exponent 0
        top_weight = Fraction(2 * g - 1, 2 ** (2 * g - 2))
        levels = {}
        for k, c in entry.series.entries:
            levels.setdefault(int(k.dot(s.cls)), []).append((k, c))
        expected = sum(
            (
                Fraction(1 + lvl) * c
                for lvl, entries in levels.items()
                if lvl % 4 == 2
                for _, c in entries
            ),
            Fraction(0),
        )
        assert p.coefficient(gr(0)) == gr(expected)
        assert sum(
            (Fraction(1 + 2 * g - 2) * c for k, c in levels[2 * g - 2]), Fraction(0)
        ) == top_weight


def test_x_squared_minus_four_annihilates():
    for name in ("B2", "B4", "S4", "dia2:2:4"):
        entry = catalog(name)
        s = entry.surface()
        for w in (entry.w_class(), shifted_w(entry)):
            for d in default_probes(entry.lattice, s):
                p0, n0 = eval_insertion(entry.series, w, s, d)
                p2, n2 = eval_insertion(entry.series, w, s, d, x_power=2)
                assert (p2 - p0.scale(4)).is_zero
                assert (n2 - n0.scale(4)).is_zero


def test_eval_insertion_parity(b2, k3):
    # a = b = 0 output is even/odd in t per d0(X, w), sector by sector
    for entry, w_label, s_label in ((b2, "T1", "Sigma_g"), (k3, "sigma", "F")):
        w = entry.lattice.cls(w_label)
        s = entry.surface(s_label)
        d = next(d for d in default_probes(entry.lattice, s))
        d0w = entry.series.d0(w)
        sign = gr(-1) if d0w % 2 else gr(1)
        for poly in eval_insertion(entry.series, w, s, d):
            for lam, c in poly.terms:
                assert poly.coefficient(-lam) == sign * c


# -- relation polynomials --------------------------------------------------------------


def test_relation_poly_frozen_g2():
    z = relation_poly(2)
    assert z.terms == RelationPoly.of(
        [(0, 0, Fraction(1)), (0, 1, Fraction(-1, 2)),
         (1, 0, Fraction(1)), (1, 1, Fraction(-1, 2))]
    ).terms


def test_relation_poly_frozen_g3():
    z = relation_poly(3)
    expected = RelationPoly.of(
        [
            (0, 0, Fraction(-3)), (0, 1, Fraction(-3, 2)),
            (1, 0, Fraction(-2)), (1, 1, Fraction(-1)),
            (2, 0, Fraction(1)), (2, 1, Fraction(1, 2)),
        ]
    )
    assert z.terms == expected.terms


def test_relation_poly_g4_against_sympy():
    sympy = pytest.importorskip("sympy")
    s, x = sympy.symbols("s x")
    ref = sympy.expand((1 - x / 2) * (s + 1) * ((s + 1) ** 2 + 16))
    z = relation_poly(4)
    built = sum(
        sympy.Rational(c.numerator, c.denominator) * s**sp * x**xp
        for sp, xp, c in z.terms
    )
    assert sympy.simplify(ref - built) == 0


def stated_roots(g):
    """The roots of p(S) that the relation_poly docstring lists."""
    if g % 2 == 0:
        pairs = [gr(-1, sign * 4 * k) for k in range(1, g // 2) for sign in (1, -1)]
        return [gr(-1)] + pairs
    return [gr((-1) ** k * (2 * k - 1)) for k in range(1, g)]


@pytest.mark.parametrize("g", range(2, 13))
def test_relation_poly_is_x_part_times_the_stated_roots(g):
    z = relation_poly(g)
    p = {sp: c for sp, xp, c in z.terms if xp == 0}
    x_coeff = Fraction(-1, 2) if g % 2 == 0 else Fraction(1, 2)
    assert {(sp, c * x_coeff) for sp, c in p.items()} == {
        (sp, c) for sp, xp, c in z.terms if xp == 1
    }
    assert {xp for _, xp, _ in z.terms} == {0, 1}
    assert max(p) == g - 1 and p[g - 1] == 1
    roots = stated_roots(g)
    assert len(set(roots)) == g - 1
    for r in roots:
        assert sum((c * r**sp for sp, c in p.items()), gr(0)).is_zero


@pytest.mark.parametrize("g", range(2, 16))
def test_relation_poly_degree(g):
    assert relation_poly(g).sigma_degree == g - 1


def test_relation_poly_rejects_small_genus():
    with pytest.raises(SeriesError):
        relation_poly(1)


@pytest.mark.parametrize("g", [2.0, "3", True])
def test_relation_poly_refuses_a_genus_that_is_not_an_int(g):
    with pytest.raises(SeriesError, match=f"^relation polynomial genus must be an int, got {g!r}$"):
        relation_poly(g)


def test_relation_poly_is_one_value_per_genus():
    z = relation_poly(2)
    assert relation_poly(2) is z and relation_poly(3) is not z
    with pytest.raises(dataclasses.FrozenInstanceError):
        z.terms = ()
    # the refusals run before the cached lookup: 2.0 and True hash as 2 and 1
    for g in (2.0, True, "2"):
        with pytest.raises(SeriesError, match=f"^relation polynomial genus must be an int, got {g!r}$"):
            relation_poly(g)
    with pytest.raises(SeriesError, match="^relation polynomial needs genus >= 2$"):
        relation_poly(1)


def test_relation_poly_refuses_a_genus_over_its_expansion_limit_at_once():
    # the root rule takes any genus; the expansion stays bounded
    start = time.perf_counter()
    g = MAX_GENUS + 1
    with pytest.raises(SeriesError, match=f"^relation polynomial genus {g} is over the limit of {MAX_GENUS}$"):
        relation_poly(g)
    assert time.perf_counter() - start < 1


def test_relation_poly_keeps_its_genus_apart_from_its_value():
    z = relation_poly(5)
    plain = RelationPoly(z.terms)
    assert z._genus == 5 and plain._genus is None
    assert z == plain and hash(z) == hash(plain) and repr(z) == repr(plain)
    assert RelationPoly.of(z) is z and pickle.loads(pickle.dumps(z))._genus == 5


@pytest.mark.parametrize("ks", [2.5, True, "2", None, 3, Fraction(2)])
def test_z_value_refuses_a_level_that_is_not_an_even_int(ks):
    # K.S is even for a characteristic K and S^2 = 0: no class has such a level
    message = f"^surface level must be an even int, got {re.escape(repr(ks))}$"
    with pytest.raises(SeriesError, match=message):
        z_value(relation_poly(3), ks, 1)


# D.S at which the root rule is tested: 1, where the relation kills every
# series, and values around it, integral and not
D_SIGMAS = (1, 2, Fraction(1, 2), -1, 0, 3, Fraction(-3, 2), 5, -3, 7, Fraction(7, 2))


def test_the_root_rule_is_where_horner_gives_zero():
    # the rule reads only (g, level, D.S); z_value runs Horner's rule on the
    # expanded polynomial, here one that carries no genus
    for g in range(2, 41):
        plain = RelationPoly(relation_poly(g).terms)
        for ks in range(-(2 * g + 2), 2 * g + 3, 2):
            for d_sigma in D_SIGMAS:
                assert _root_level(g, ks, d_sigma) == z_value(plain, ks, d_sigma).is_zero, (g, ks, d_sigma)


def every_level_series(g):
    """On H + <-1> with S = e: one row (0, ks, 1) per even level ks in
    [-(2g+2), 2g+2], each with its own coefficient, and the surface S of genus g."""
    lat = hyperbolic_plus_minus_ones(1)
    rows = [(HClass(lat, (0, ks, 1)), Fraction(ks + 2 * g + 3, 7)) for ks in range(-(2 * g + 2), 2 * g + 3, 2)]
    return DonaldsonSeries.on(lat, rows), MarkedSurface(lat.cls("e"), g)


def test_a_relation_that_knows_its_genus_evaluates_as_one_that_does_not():
    # the root levels skipped change no value: apply_relation and evaluate
    # equal the same calls on the polynomial without its genus, at a D whose
    # K.D, the row's level, tells every row apart
    for g in range(2, 41):
        series, s = every_level_series(g)
        lat = series.lattice
        z = relation_poly(g)
        plain = RelationPoly(z.terms)
        w = lat.cls("f")
        for d_sigma in D_SIGMAS:
            d = HClass(lat, (1, d_sigma, 0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # D.S != 1 withdraws the guarantee
                made = apply_relation(series, w, s, z, d)
                assert made == apply_relation(series, w, s, plain, d), (g, d_sigma)
            assert split_series(series, w, s).evaluate(d, z) == made, (g, d_sigma)


@pytest.mark.parametrize("g", range(2, 7))
def test_relation_annihilates_bg_for_both_twists(g):
    entry = catalog(f"B{g}")
    s = entry.surface("Sigma_g")
    z = relation_poly(g)
    for w in (entry.w_class("T1"), shifted_w(entry)):
        for d in (entry.lattice.cls("T1"), entry.lattice.cls("E1")):
            p, n = apply_relation(entry.series, w, s, z, d)
            assert p.is_zero and n.is_zero


@pytest.mark.parametrize("name", ("B3", "B4", "B5", "dia2:2:4", "C3"))
def test_relation_level_verdict_equals_probe_verdict(name):
    """z is zero at each surface level of the series exactly when it kills
    the series at every default probe, for both twists w and w + S."""
    entry = catalog(name)
    s = entry.surface()
    g = s.genus
    levels = {k.dot(s.cls) for k in entry.series.classes()}
    probes = default_probes(entry.lattice, s)
    verdicts = {}
    for genus in range(max(g - 1, 2), g + 2):
        z = relation_poly(genus)
        by_level = all(z_value(z.terms, ks, 1).is_zero for ks in levels)
        by_probe = all(
            part.is_zero
            for w in (entry.w_class(), shifted_w(entry))
            for d in probes
            for part in apply_relation(entry.series, w, s, z, d)
        )
        assert by_level == by_probe, genus
        verdicts[genus] = by_level
    assert verdicts[g]
    if name[0] in "BC":  # the top levels +-(2g - 2) escape the genus-(g-1) relation
        assert not verdicts[g - 1]


def test_apply_relation_identity_and_x2(b2):
    w = b2.lattice.cls("T1")
    s = b2.surface("Sigma_g")
    d = b2.lattice.cls("T1")
    one = RelationPoly.of([(0, 0, Fraction(1))])
    assert apply_relation(b2.series, w, s, one, d) == eval_insertion(b2.series, w, s, d)
    x2m4 = RelationPoly.of([(0, 2, Fraction(1)), (0, 0, Fraction(-4))])
    p, n = apply_relation(b2.series, w, s, x2m4, d)
    assert p.is_zero and n.is_zero


@pytest.mark.parametrize("term", [(-1, 0, 1), (0, -1, 1)], ids=["S-power", "x-power"])
def test_a_negative_power_is_refused_by_every_entry_point(b2, term):
    with pytest.raises(SeriesError, match="insertion powers must be >= 0"):
        z_value([term], 2, 1)
    with pytest.raises(SeriesError, match="insertion powers must be >= 0"):
        RelationPoly.of([term])
    w, s, d = b2.lattice.cls("T1"), b2.surface("Sigma_g"), b2.lattice.cls("T1")
    with pytest.raises(SeriesError, match="insertion powers must be >= 0"):
        eval_insertion(b2.series, w, s, d, x_power=term[1], sigma_power=term[0])


@pytest.mark.parametrize("power", [1.0, True, "1"])
def test_a_power_that_is_no_int_is_refused(b2, power):
    with pytest.raises(SeriesError, match="insertion powers must be >= 0"):
        z_value([(power, 0, 1)], 2, 1)
    with pytest.raises(SeriesError, match="insertion powers must be >= 0"):
        RelationPoly.of([(0, power, 1)])


def test_apply_relation_warns_off_probe(b2):
    w = b2.lattice.cls("T1")
    s = b2.surface("Sigma_g")
    z = relation_poly(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        apply_relation(b2.series, w, s, z, b2.lattice.cls("Sigma_g"))
    # the warning names the line that called apply_relation, in this file
    assert [w_.filename for w_ in caught if "vanishing guarantee" in str(w_.message)] == [__file__]


# -- finite type, adjunction, involution -------------------------------------------------


def test_finite_type_orders(b2, k3):
    zero = DonaldsonSeries.on(b2.lattice, [])
    s = b2.surface("Sigma_g")
    w = b2.lattice.cls("T1")
    assert finite_type_order(zero, w, s) == 0
    assert finite_type_order(b2.series, w, s) == 1
    b3 = catalog("B3")
    assert finite_type_order(b3.series, b3.w_class(), b3.surface()) == 1
    assert finite_type_order(k3.series, k3.lattice.cls("sigma"), k3.surface("F")) == 1


@pytest.mark.parametrize("name", ["B3", "B4", "B5", "B6"])
def test_default_probes_decide_the_order_in_one_evaluation(monkeypatch, name):
    # the S-shifted probes go first; unshifted, B(g) paired its rows with
    # g + 3 probes, the first g + 2 of which sum to 0.  A copy of the series
    # has no probe column yet, and its split is made first, so the pairings
    # below are the probes' own
    entry = catalog(name)
    series = DonaldsonSeries.on(entry.lattice, entry.series.entries)
    s = entry.surface()
    split_series(series, entry.w_class(), s).levels
    probes = default_probes(entry.lattice, s)
    met = []
    real = Lattice.pairings

    def counting(self, rows, v):
        met.extend(d for d in probes if d is v)
        return real(self, rows, v)

    monkeypatch.setattr(Lattice, "pairings", counting)
    assert finite_type_order(series, entry.w_class(), s) == 1
    assert met == [probes[len(probes) // 2]] and met[0].dot(s.cls) == 1


def test_finite_type_order_needs_probes(b2):
    w = b2.lattice.cls("T1")
    s = b2.surface("Sigma_g")
    with pytest.raises(SeriesError):
        finite_type_order(b2.series, w, s, probes=[])


def test_adjunction_examples(b2):
    s = b2.surface("Sigma_g")
    ok, violators = check_adjunction(b2.series, s)
    assert ok and not violators
    # an artificial characteristic class pairing 6 with the genus-2 surface
    bad_class = 3 * (b2.lattice.cls("E1") + b2.lattice.cls("E2"))
    bad = DonaldsonSeries.on(b2.lattice, [(bad_class, Fraction(1))])
    ok, violators = check_adjunction(bad, s)
    assert not ok and violators[0][0].coords == bad_class.coords
    assert check_adjunction(DonaldsonSeries.on(b2.lattice, []), s)[0]


def test_involution_on_catalog_series():
    for name in ("K3", "S3", "S4", "B2", "B3", "B4", "C2", "C3"):
        ok, bad = check_involution(catalog(name).series)
        assert ok, (name, bad)


def test_involution_detects_violation(b2):
    e1e2 = b2.lattice.cls("E1") + b2.lattice.cls("E2")
    lopsided = DonaldsonSeries.on(b2.lattice, [(e1e2, Fraction(1))])
    ok, bad = check_involution(lopsided)
    assert not ok and bad


def test_involution_reports_both_classes_of_a_wrongly_signed_pair(b2):
    # every class of B2 keeps its mirror; flipping one coefficient breaks
    # the sign rule for that class and for its mirror, and for no other
    pairs = list(b2.series.entries)
    k, c = pairs[0]
    pairs[0] = (k, -c)
    ok, bad = check_involution(DonaldsonSeries.on(b2.lattice, pairs))
    assert not ok
    assert sorted(x.coords for x in bad) == sorted([k.coords, (-k).coords])


# -- JSON --------------------------------------------------------------------------------


def test_series_json_round_trip(b2):
    data = series_to_json(b2.series)
    assert series_from_json(data, b2.lattice) == b2.series
    assert all(isinstance(e["a"], str) for e in data["entries"])


@pytest.mark.parametrize("name", catalog_names())
def test_every_catalog_series_round_trips(name):
    entry = catalog(name)
    back = series_from_json(json.loads(json.dumps(series_to_json(entry.series))), entry.lattice)
    assert back == entry.series and back.entries == entry.series.entries


def test_series_from_json_rejects_float_coefficient(b2):
    data = series_to_json(b2.series)
    data["entries"][0]["a"] = -0.1
    with pytest.raises(LatticeError, match="non-integral float"):
        series_from_json(data, b2.lattice)
    # coefficients stay Fractions, also when given as an integral float
    data["entries"][0]["a"] = 1.0
    c = series_from_json(data, b2.lattice).entries[0][1]
    assert type(c) is Fraction and c == 1


def test_series_from_json_requires_simple_type(b2):
    data = series_to_json(b2.series)
    del data["simple_type"]
    with pytest.raises(SeriesError, match="field 'simple_type' is missing"):
        series_from_json(data, b2.lattice)


@pytest.mark.parametrize("where", ["top", "entry"])
def test_series_from_json_refuses_a_key_it_does_not_write(b2, where):
    data = series_to_json(b2.series)
    (data if where == "top" else data["entries"][0])["bogus"] = 1
    what = "a series" if where == "top" else "a series entry"
    with pytest.raises(SeriesError, match=f"unknown field 'bogus' in {what}$"):
        series_from_json(data, b2.lattice)


def test_series_from_json_refuses_an_entry_that_is_not_an_object(b2):
    data = series_to_json(b2.series)
    data["entries"][0] = list(data["entries"][0].values())
    with pytest.raises(SeriesError, match="a series entry must hold a JSON object"):
        series_from_json(data, b2.lattice)


@pytest.mark.parametrize("field", ["k", "a"])
def test_series_from_json_refuses_a_bool_number(b2, field):
    # true == 1 in Python, so a bool would load as the number it equals
    data = series_to_json(b2.series)
    entry = next(e for e in data["entries"] if 1 in e["k"])
    entry[field] = [True if c == 1 else c for c in entry["k"]] if field == "k" else True
    # both by the shape: a coordinate is a JSON int, a coefficient a number token
    message = (r"^series\.entries\[\d+\]\.k must be a list of int, got \[.*True" if field == "k"
               else r"^series\.entries\[\d+\]\.a must be an int or a float or a str, got True")
    with pytest.raises(SeriesError, match=message):
        series_from_json(data, b2.lattice)


@pytest.mark.parametrize("one", ["1", 1.0])
def test_series_from_json_refuses_a_coordinate_that_is_no_json_int(b2, one):
    # series_to_json writes ints; "1" and 1.0 are refused, not read as 1
    data = series_to_json(b2.series)
    at = next(i for i, e in enumerate(data["entries"]) if 1 in e["k"])
    data["entries"][at]["k"] = [one if c == 1 else c for c in data["entries"][at]["k"]]
    message = f"series.entries[{at}].k must be a list of int, got {data['entries'][at]['k']!r}"
    with pytest.raises(SeriesError, match=f"^{re.escape(message)}$"):
        series_from_json(data, b2.lattice)
