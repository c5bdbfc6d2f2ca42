"""A series is an integer table: oracles for the row path.

A series built from (``HClass``, coefficient) pairs and one built from its
coordinate rows and int numerators must be the same value; the catalog file
written straight from the rows must be the bytes of the generic writer; each
refusal keeps its error type, message and order; a class built from a
checked row or named class without a check is the checked class; and no
derivation, split, check, fit or gluing builds the ``entries`` view.
"""

import dataclasses
import functools
import json
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import donaldson.constructions as constructions
from donaldson.cli import run
from donaldson.constructions import CatalogEntry, blow_up, catalog, catalog_names, entry_to_json
from donaldson.gluing import (
    GluedSeries,
    GluingSpec,
    eval_glued,
    glue,
    glued_from_json,
    glued_to_json,
)
from donaldson.lattice import (
    HClass,
    Lattice,
    LatticeError,
    LatticeMismatch,
    MarkedSurface,
    _indented,
)
from donaldson.series import (
    DonaldsonSeries,
    SeriesError,
    _entries_text,
    check_adjunction,
    check_involution,
    column,
    default_probes,
    finite_type_order,
    relation_poly,
    series_from_json,
    series_to_json,
    split_series,
    twisted,
    unsplit_series,
)

BASES = ("B3", "B4", "S4", "K3")


def characteristic_rows(lattice, draw, count):
    """Up to ``count`` distinct characteristic rows: 2 v + c0, v in [-2, 2]^rank
    (the base lattices have no kernel, so these are all of them)."""
    c0, kernel, _ = lattice._wu
    assert not kernel
    bits = [(c0 >> 8 * j) & 1 for j in range(lattice.rank)]
    vectors = st.lists(st.integers(-2, 2), min_size=lattice.rank, max_size=lattice.rank)
    rows = draw(st.lists(vectors, max_size=count, unique_by=tuple))
    return [tuple(2 * v + b for v, b in zip(row, bits)) for row in rows]


COEFFICIENT = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 4, 12])
)


@st.composite
def random_series(draw):
    base = catalog(draw(st.sampled_from(BASES)))
    rows = characteristic_rows(base.lattice, draw, 12)
    coefficients = draw(st.lists(COEFFICIENT, min_size=len(rows), max_size=len(rows)))
    pairs = [(HClass(base.lattice, k), c) for k, c in zip(rows, coefficients)]
    return base, draw(st.permutations(pairs))


@settings(max_examples=80, deadline=None)
@given(random_series())
@example((catalog("B3"), []))
def test_a_series_from_pairs_is_the_series_from_its_rows(case):
    base, pairs = case
    lat = base.lattice
    from_pairs = DonaldsonSeries.on(lat, pairs)
    den = lcm(*(c.denominator for _, c in pairs))
    nums = [c.numerator * (den // c.denominator) for _, c in pairs]
    from_rows = DonaldsonSeries(lat, [k.coords for k, _ in pairs], nums, den)
    assert from_rows == from_pairs and hash(from_rows) == hash(from_pairs)
    assert from_rows.position == from_pairs.position
    # the view is the pairs, sorted by class, and indexes as position does
    ordered = tuple(sorted(pairs, key=lambda e: e[0].coords))
    assert from_rows.entries == from_pairs.entries == ordered
    assert all(from_rows.position[k.coords] == j for j, (k, _) in enumerate(ordered))
    assert all(from_rows.coefficient(k) == c for k, c in pairs)
    # one denominator, the lcm of the coefficients' own
    assert from_rows.den == den and all(type(n) is int for n in from_rows.nums)


def checked_twist(series, w):
    """The w-twisted series through the checked row constructor, each sign
    (-1)^{(K.w + w^2)/2} from the class's own pairing with w."""
    signs = [(k.dot(w) + w.square) % 4 for k in series.classes()]  # 0 or 2
    nums = [-n if sign else n for sign, n in zip(signs, series.nums)]
    return DonaldsonSeries(series.lattice, series.rows, nums, series.den)


@settings(max_examples=60, deadline=None)
@given(random_series(), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
@example((catalog("B4"), list(catalog("B4").series.entries)), [1, 0, 0, 0, 0, 1])
@example((catalog("B3"), []), [1, 1, 0, 0, 0, 0])
def test_a_derived_series_is_the_checked_series(case, w_coords):
    # twisted and unsplit_series trust their series' rows and gcd: what they
    # give must equal, hash and index as the checked construction does
    base, pairs = case
    lat, s = base.lattice, base.surface()
    series = DonaldsonSeries.on(lat, pairs)
    w = base.w_class()
    derived = [(twisted(series, v), v) for v in (HClass(lat, w_coords[: lat.rank]), w)]
    derived += [(unsplit_series(split_series(series, v, s)), v) for v in (w, w + s.cls)]
    for trusted, v in derived:
        checked = checked_twist(series, v)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert (trusted.rows, trusted.nums, trusted.den) == (checked.rows, checked.nums, checked.den)
        assert trusted.position == checked.position and trusted.entries == checked.entries
        assert all(trusted.coefficient(k) == c for k, c in checked.entries)
        assert trusted._splits == {} and trusted._splits is not series._splits
        assert twisted(trusted, v) == series


def assert_checked(trusted, lattice, coords, probes):
    """A class that ``HClass._row`` built is ``HClass(lattice, coords)``: equal,
    hashing alike, the same dict key, and the same square, covector and dots."""
    checked = HClass(lattice, coords)
    assert trusted == checked and hash(trusted) == hash(checked)
    assert {checked: "k"}[trusted] == "k" and {trusted: "k"}[checked] == "k"
    assert trusted.square == checked.square and trusted.covector == checked.covector
    assert [trusted.dot(v) for v in probes] == [checked.dot(v) for v in probes]
    assert [v.dot(trusted) for v in probes] == [v.dot(checked) for v in probes]


@settings(max_examples=60, deadline=None)
@given(random_series(), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
@example((catalog("B4"), list(catalog("B4").series.entries)), [1, 0, 0, 0, 0, 1])
@example((catalog("K3"), list(catalog("K3").series.entries)), [0, 1, 0, 0, 0, 0])
def test_a_trusted_class_is_the_checked_class(case, d_coords):
    # the entries view, the involution's bad list and a gluing's classes are
    # built from checked rows without a check: each must be the checked class
    base, pairs = case
    lat, s = base.lattice, base.surface()
    series = DonaldsonSeries.on(lat, pairs)
    d = HClass(lat, d_coords[: lat.rank])
    probes = [s.cls, d, Fraction(1, 2) * d]
    for j, (k, _) in enumerate(series.entries):
        assert series.position[k.coords] == j
        assert_checked(k, lat, series.rows[j], probes)
    for k in check_involution(series)[1]:
        assert_checked(k, lat, series.rows[series.position[k.coords]], probes)
    entry = CatalogEntry("R", series, base.surfaces, base.w_labels, base.glue_surface, "n")
    spec = GluingSpec(entry, entry)
    gs = GluedSeries(spec, "torus" if spec.genus == 1 else "standard", ())
    for j, row in enumerate(series.rows):
        assert_checked(gs.left_class(j), lat, row, probes)
        assert_checked(gs.right_class(j), lat, row, probes)


@pytest.mark.parametrize("name", catalog_names())
def test_a_named_class_is_the_checked_class(name):
    lat = catalog(name).lattice
    probes = [HClass(lat, coords) for _, coords in lat.named]
    probes += [Fraction(1, 3) * v for v in probes]
    for label, coords in lat.named:
        assert_checked(lat.cls(label), lat, coords, probes)


@pytest.mark.parametrize("name", catalog_names() + ["dia2:2:4", "dia2:1:3"])
def test_catalog_series_view_is_its_rows(name):
    series = catalog(name).series
    assert [k.coords for k, _ in series.entries] == list(series.rows)
    assert [c * series.den for _, c in series.entries] == list(series.nums)
    again = DonaldsonSeries.on(series.lattice, series.entries)
    assert again == series and hash(again) == hash(series)


@settings(max_examples=60, deadline=None)
@given(random_series())
@example((catalog("B4"), []))
def test_row_writer_gives_the_generic_writers_bytes(case):
    base, pairs = case
    series = DonaldsonSeries.on(base.lattice, pairs)
    entry = CatalogEntry("R", series, base.surfaces, base.w_labels, base.glue_surface, "n")
    data = entry_to_json(entry)
    assert entry.json_bytes == (_indented(data) + "\n").encode()
    assert entry.json_bytes == (json.dumps(data, indent=2) + "\n").encode()


@pytest.mark.parametrize("name", catalog_names() + ["dia2:3:5"])
def test_catalog_files_are_the_generic_writers_bytes(name):
    entry = catalog(name)
    assert entry.json_bytes == (json.dumps(entry_to_json(entry), indent=2) + "\n").encode()
    blown = blow_up(entry) if name == "K3" else entry
    assert blown.json_bytes == (_indented(entry_to_json(blown)) + "\n").encode()


def test_row_writer_on_a_rank_zero_lattice():
    point = Lattice("pt", (), b_plus=3)
    for series in (DonaldsonSeries(point, [()], [3], 4), DonaldsonSeries(point, [], [], 1)):
        for indent in ("\n", "\n    "):
            expected = _indented(series_to_json(series)["entries"], indent)
            assert _entries_text(series, indent) == expected


# -- refusals: the error type and message of each bad row, in row order ------------------


def _b3():
    entry = catalog("B3")
    return entry, entry.lattice, list(entry.series.entries)


def _row(lat, *head):
    return HClass(lat, head + (0,) * (lat.rank - len(head)))


def _refusals():
    entry, lat, good = _b3()
    ks = [k for k, _ in good]
    other = dataclasses.replace(lat, name="B3'")
    half = HClass(lat, (Fraction(1, 2),) + (1,) * (lat.rank - 1))
    third = (Fraction(1, 3),) + (1,) * (lat.rank - 2)
    data = json.loads(json.dumps(series_to_json(entry.series)))
    short = json.loads(json.dumps(data))
    short["entries"][3]["k"] = [1, 0]
    rational = json.loads(json.dumps(data))
    rational["entries"][3]["k"][0] = "1/2"
    s = entry.surface()
    foreign_s = MarkedSurface(HClass(other, s.cls.coords), s.genus)
    on = functools.partial(DonaldsonSeries.on, lat)
    c2 = catalog("C2")  # G mod 2 has a kernel: K's first coordinate is free
    return [
        ("non-int", lambda: on(good + [(half, 1)]),
         SeriesError, "basic class <1/2,1,1,1,1>@B3 is not integral"),
        ("non-int in a file", lambda: series_from_json(rational, lat),
         SeriesError, "series.entries[3].k must be a list of int, got ['1/2', 0, -1, 1, 1]"),
        ("wrong length in a file", lambda: series_from_json(short, lat),
         SeriesError, "basic class [1, 0] is not a row of 5 ints"),
        ("zero", lambda: on(good[:5] + [(ks[5], 0)] + good[6:]),
         SeriesError, "DonaldsonSeries: basic class <-1,0,1,-1,1>@B3 has coefficient 0"),
        ("duplicate", lambda: on(good + [(ks[7], 3)]),
         SeriesError, "duplicate basic class <-1,0,1,1,1>@B3"),
        ("not characteristic", lambda: on(good + [(lat.zero(), 1)]),
         SeriesError, "basic class <0,0,0,0,0>@B3 is not characteristic"),
        ("foreign class", lambda: on(good + [(HClass(other, ks[0].coords), 1)]),
         LatticeMismatch, "entry class on a foreign lattice"),
        ("foreign surface in check_adjunction", lambda: check_adjunction(entry.series, foreign_s),
         LatticeMismatch, "pairing of classes on B3 and B3'"),
        # the first row, in sorted order, with any failure; in a row, the order above
        ("not characteristic before a zero",
         lambda: on(good[:4] + [(ks[4], 0)] + good[5:] + [(_row(lat, -9), 1)]),
         SeriesError, "basic class <-9,0,0,0,0>@B3 is not characteristic"),
        ("zero and not characteristic in one row", lambda: on(good + [(_row(lat, -9), 0)]),
         SeriesError, "DonaldsonSeries: basic class <-9,0,0,0,0>@B3 has coefficient 0"),
        ("zero before a non-int",
         lambda: on([(ks[0], 0)] + good[1:] + [(HClass(lat, (9,) + third), 1)]),
         SeriesError, "DonaldsonSeries: basic class <-1,0,-1,-1,-1>@B3 has coefficient 0"),
        ("non-int before a duplicate",
         lambda: on(good + [(ks[-1], 2), (HClass(lat, (-9,) + third), 1)]),
         SeriesError, "basic class <-9,1/3,1,1,1>@B3 is not integral"),
        ("not characteristic before a foreign class",
         lambda: on(good + [(HClass(other, (9,) + ks[0].coords[1:]), 1), (_row(lat, -9), 1)]),
         SeriesError, "basic class <-9,0,0,0,0>@B3 is not characteristic"),
        ("a foreign class before one not characteristic",
         lambda: on(good + [(HClass(other, (-9,) + ks[0].coords[1:]), 1), (_row(lat, 9), 1)]),
         LatticeMismatch, "entry class on a foreign lattice"),
        ("a coefficient that is no number", lambda: on(good + [(lat.zero(), "x")]),
         LatticeError, "not a number: 'x'"),
        ("not characteristic where G mod 2 has a kernel",
         lambda: DonaldsonSeries.on(c2.lattice, [*c2.series.entries, (_row(c2.lattice, 1, 1), 1)]),
         SeriesError, "basic class <1,1,0>@C2 is not characteristic"),
    ]


@pytest.mark.parametrize("index", range(len(_refusals())))
def test_each_refusal_keeps_its_error_and_message(index):
    # the messages are those the (HClass, Fraction) series gave, case for case,
    # but for a file's coordinates, which the loader reads as JSON ints
    _, fn, error, message = _refusals()[index]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        fn()
    assert type(raised.value) is error


def test_a_foreign_surface_meets_no_row_of_an_empty_series():
    entry, lat, _ = _b3()
    other = dataclasses.replace(lat, name="B3'")
    s = entry.surface()
    foreign_s = MarkedSurface(HClass(other, s.cls.coords), s.genus)
    assert check_adjunction(DonaldsonSeries.on(lat, []), foreign_s) == (True, [])


@pytest.mark.parametrize(
    "rows, nums, den, message",
    [
        ([(1, 1, 1)], [1], 1, "basic class (1, 1, 1) is not a row of 2 ints"),
        ([(1.0, 1)], [1], 1, "basic class (1.0, 1) is not a row of 2 ints"),
        ([(1, 1), ("1", 1)], [1, 1], 1, "basic class ('1', 1) is not a row of 2 ints"),
        ([(1, 1)], [1.0], 1, "one int per row over an int den >= 1"),
        ([(1, 1)], [True], 1, "one int per row over an int den >= 1"),
        ([(1, 1)], [1, 2], 1, "one int per row over an int den >= 1"),
        ([(1, 1)], [1], 0, "one int per row over an int den >= 1"),
        ([(1, 1)], [1], Fraction(1), "one int per row over an int den >= 1"),
        (None, [], 1, "rows and nums must be lists or tuples, got a NoneType and a list"),
        ([(1, 1)], None, 1, "rows and nums must be lists or tuples, got a list and a NoneType"),
        ([5], [1], 1, "basic class 5 is not a row of 2 ints"),
    ],
)
def test_the_row_constructor_refuses_what_is_not_an_int_table(rows, nums, den, message):
    lat = Lattice("square", ((1, 0), (0, 1)), b_plus=3)
    assert DonaldsonSeries(lat, [(1, 1)], [1], 1).rows == ((1, 1),)
    with pytest.raises(SeriesError, match=re.escape(message)):
        DonaldsonSeries(lat, rows, nums, den)


def test_rows_are_sorted_and_reduced_over_one_denominator():
    entry, lat, good = _b3()
    rows = [k.coords for k, _ in reversed(good)]
    series = DonaldsonSeries(lat, [list(k) for k in rows], [6] * len(rows), 24)
    assert series.rows == tuple(sorted(rows)) and series.den == 4 and set(series.nums) == {1}


# -- the view is for readers of classes only ------------------------------------------


def test_no_derivation_split_check_fit_or_gluing_builds_the_view(monkeypatch, capsys):
    fresh = functools.cache(constructions.parse_recipe.__wrapped__)
    monkeypatch.setattr(constructions, "parse_recipe", fresh)
    assert run(["check", "--entry", "bg:4"]) == 0
    assert run(["check", "--entry", "dia2:2:4"]) == 0
    assert run(["fit", "--g", "3"]) == 0
    assert run(["build", "bg:3"]) == 0
    spec = GluingSpec(left=catalog("B3"), right=catalog("B3"))
    gs = glue(spec)
    back = glued_from_json(json.loads(json.dumps(glued_to_json(gs))))
    t1 = spec.left.lattice.cls("T1")
    eval_glued(back, back.spec.split_class(t1, t1))
    capsys.readouterr()
    names = ["bg:4", "dia2:2:4", "bg:3", "cg:3", "dia2:1:3", "dia2:2:3"]
    for name in names:
        series = catalog(name).series
        assert "entries" not in vars(series) and not series._classes, name


# -- the column store: what a series' rows fix, made once and shared by signed copies --


@settings(max_examples=60, deadline=None)
@given(random_series(), st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), max_size=3))
@example((catalog("B4"), list(catalog("B4").series.entries)), [[1, 0, 0, 0, 0, 1]])
@example((catalog("K3"), list(catalog("K3").series.entries)), [])
@example((catalog("B3"), []), [[0, 0, 0, 0, 0, 0]])
def test_every_stored_column_is_a_fresh_pairing(case, vs):
    # every reader writes through the one writer: the adjunction checks, the
    # twist, the split and the default probes; level sums read stored columns
    base, pairs = case
    lat, s, w = base.lattice, base.surface(), base.w_class()
    series = DonaldsonSeries.on(lat, pairs)
    classes = [HClass(lat, v[: lat.rank]) for v in vs]
    for _, surface in base.surfaces:
        check_adjunction(series, surface)
    assert finite_type_order(series, w, s) == (0 if series.is_zero else 1)
    signed = [twisted(series, v) for v in classes + [w]]
    split = split_series(series, w, s)
    for d in classes + [Fraction(1, 2) * (w + s.cls)]:
        for ks in split.levels:
            split.level_sums(ks, d)
    stored = series._store
    assert {s.cls.coords, w.coords, *(v.coords for v in classes)} <= set(stored)
    for key, col in stored.items():
        assert col == tuple(lat.pairings(series.rows, HClass(lat, key))), key
    # the S-shifted default probes go first
    probes = default_probes(lat, s)
    assert any(d.coords in stored for d in probes[len(probes) // 2 :]) or series.is_zero
    # a rational class is never stored
    assert all(type(x) is int for key in stored for x in key)
    # a signed copy shares the store and reads the shared row classes: its
    # view is the view of the checked copy made from its (class, value) pairs
    for copy, v in zip(signed, classes + [w]):
        assert copy._store is series._store
        values = checked_twist(series, v).entries
        checked = DonaldsonSeries.on(lat, [(HClass(lat, k.coords), c) for k, c in values])
        assert copy.entries == checked.entries and checked._store is not series._store
        assert all(a is b for (a, _), (b, _) in zip(copy.entries, series.entries))


def test_a_foreign_class_never_reads_a_stored_column():
    # the store is keyed by coords only after the lattice check: a class of
    # equal coords on another lattice is refused, and nothing is stored
    entry, lat, pairs = _b3()
    series = DonaldsonSeries.on(lat, pairs)
    other = dataclasses.replace(lat, name="B3'")
    t1, s = lat.cls("T1"), entry.surface()
    assert column(series, t1) == tuple(lat.pairings(series.rows, t1))
    check_adjunction(series, s)
    before = dict(series._store)
    foreign_s = MarkedSurface(HClass(other, s.cls.coords), s.genus)
    for v in (HClass(other, t1.coords), foreign_s.cls):
        with pytest.raises(LatticeMismatch):
            column(series, v)
    with pytest.raises(LatticeMismatch):
        check_adjunction(series, foreign_s)
    with pytest.raises(LatticeMismatch):
        twisted(series, HClass(other, t1.coords))
    assert series._store == before


def test_each_copy_but_a_signed_one_starts_with_an_empty_store():
    entry, lat, pairs = _b3()
    series = DonaldsonSeries.on(lat, pairs)
    t1 = lat.cls("T1")
    column(series, t1)
    series.entries
    assert set(series._store) == {t1.coords} and len(series._classes) == len(pairs)
    half = DonaldsonSeries.on(lat, pairs[::2])  # other rows on the same lattice
    loaded = series_from_json(series_to_json(series), lat)
    copies = (DonaldsonSeries.on(lat, series.entries), dataclasses.replace(series), half, loaded)
    for copy in copies:
        assert copy._store == {} and copy._store is not series._store
        assert copy._classes == [] and copy._classes is not series._classes
        assert column(copy, t1) == tuple(lat.pairings(copy.rows, t1))
    assert column(half, t1) != column(series, t1)
    split = split_series(series, t1, entry.surface("Sigma_g"))
    for copy in (twisted(series, t1), unsplit_series(split)):
        assert copy._store is series._store and copy._classes is series._classes
        assert copy._splits == {}


def test_the_store_is_not_part_of_equality_hash_or_repr():
    _, lat, pairs = _b3()
    warm, cold = DonaldsonSeries.on(lat, pairs), DonaldsonSeries.on(lat, pairs)
    column(warm, lat.cls("T1"))
    warm.entries
    assert len(warm._store) == 1 and warm._classes and cold._store == {} and not cold._classes
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)



def test_level_sums_store_no_column():
    # a sweep of D over a series (evaluate, basis coordinates, a relation at
    # a general D) pairs each level's rows with D and grows no store
    entry, lat, pairs = _b3()
    series = DonaldsonSeries.on(lat, pairs)
    s, w = entry.surface(), entry.w_class()
    split = split_series(series, w, s)
    assert len(split.levels) == 2 * s.genus - 1  # the table stores S's and w's columns
    stored = dict(series._store)
    assert set(stored) == {s.cls.coords, w.coords}
    sweep = [lat.cls("T1") + m * s.cls + n * lat.cls("E1") for m in range(-3, 4) for n in (0, 1)]
    sums = [[split.level_sums(ks, d) for ks in split.levels] for d in sweep]
    for d in sweep:
        split.evaluate(d, relation_poly(s.genus))
    assert series._store == stored
    assert sums == [[fresh_level_sums(series, w, s, ks, d) for ks in split.levels] for d in sweep]


def fresh_level_sums(series, w, s, ks, d):
    """``level_sums`` on a new copy of ``series`` with an empty store."""
    copy = DonaldsonSeries(series.lattice, series.rows, series.nums, series.den)
    return split_series(copy, w, s).level_sums(ks, d)
