import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from donaldson import gluing
from donaldson.constructions import blow_up, build_bg, catalog, catalog_names, entry_to_json
from donaldson.lattice import (
    HClass,
    Lattice,
    LatticeError,
    LatticeMismatch,
    MarkedSurface,
    ParityError,
    _indented,
    d_zero,
    d_zero_value,
    is_allowable,
    is_characteristic,
    lattice_from_json,
    lattice_to_json,
    pairing,
    signature,
)
from test_pairing_table import brute_characteristic


@pytest.fixture(scope="module")
def b2():
    return catalog("B2")


@pytest.fixture(scope="module")
def k3():
    return catalog("K3")


def test_pairing_frozen_values_on_b2(b2):
    lat = b2.lattice
    f, sigma, e1 = lat.cls("F"), lat.cls("sigma"), lat.cls("E1")
    assert pairing(f, sigma) == 1
    assert pairing(sigma, sigma) == -2
    assert pairing(e1, e1) == -1
    assert pairing(f, e1) == 0


def test_pairing_zero_class(b2):
    lat = b2.lattice
    assert pairing(lat.zero(), lat.cls("sigma")) == 0


@pytest.mark.parametrize("g", range(2, 9))
def test_surface_class_square_zero_for_all_g(g):
    entry = build_bg(g)
    sigma_g = entry.lattice.cls("Sigma_g")
    assert sigma_g.square == 0
    assert entry.lattice.cls("T1").dot(sigma_g) == 1
    assert entry.lattice.cls("K").dot(sigma_g) == 2 * g - 2


def test_pairing_lattice_mismatch(b2, k3):
    with pytest.raises(LatticeMismatch):
        pairing(b2.lattice.cls("F"), k3.lattice.cls("F"))


def test_basis_vectors_of_b3():
    lat = catalog("B3").lattice
    vectors = [lat.basis_vector(i).coords for i in range(lat.rank)]
    assert vectors == [tuple(int(i == j) for j in range(lat.rank)) for i in range(lat.rank)]


@pytest.mark.parametrize(
    "index",
    [-1, -5, 5, 6, True, False, 1.0, "0", None],
    ids=["minus-one", "minus-rank", "rank", "past-rank", "true", "false", "float", "str", "none"],
)
def test_basis_vector_refuses_an_index_that_is_not_an_int_in_range(index):
    # an index is never wrapped (-1 is not the last vector) nor read as an
    # int (True is not e_1), and rank is a LatticeError, not an IndexError
    lat = catalog("B3").lattice
    assert lat.rank == 5
    message = f"B3: no basis vector {index!r}; the index is an int in [0, 5)"
    with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
        lat.basis_vector(index)


def test_characteristic_examples(b2, k3):
    # the even K3 block makes 0 characteristic
    assert is_characteristic(k3.lattice.zero())
    # a single (-1)-generator is characteristic
    block = Lattice("minus_one", ((-1,),), b_plus=1)
    assert is_characteristic(block.basis_vector(0))
    # the fiber is not: F.sigma = 1 but sigma^2 = -2
    assert not is_characteristic(b2.lattice.cls("F"))


def test_allowable_examples(b2):
    surface = b2.surface("Sigma_g")
    assert is_allowable(b2.lattice.cls("T1"), surface)
    assert not is_allowable(b2.lattice.zero(), surface)
    # the surface class itself pairs evenly with itself
    assert not is_allowable(surface.cls, surface)
    with pytest.raises(LatticeError, match="^w must be integral$"):
        is_allowable(Fraction(1, 2) * b2.lattice.cls("T1"), surface)


def test_d_zero_examples():
    assert d_zero_value(0, 3) == -6
    assert d_zero_value(-2, 3) == -4
    with pytest.raises(ParityError):
        d_zero_value(0, 2)
    with pytest.raises(ParityError, match="^w\\^2 must be an integer$"):
        d_zero_value(Fraction(1, 2), 3)
    for b_plus in (3.0, True, "3"):
        with pytest.raises(LatticeError, match=f"^b\\+ must be an int, got {re.escape(repr(b_plus))}$"):
            d_zero_value(0, b_plus)


def test_d_zero_from_class(k3):
    sigma = k3.lattice.cls("sigma")
    assert d_zero(sigma, 3) == -4  # sigma^2 = -2 on K3
    with pytest.raises(LatticeError, match="^w must be integral$"):
        d_zero(Fraction(1, 2) * sigma, 3)


def test_marked_surface_invariants(b2):
    lat = b2.lattice
    with pytest.raises(LatticeError):
        MarkedSurface(lat.cls("sigma"), genus=2)  # sigma^2 = -2
    with pytest.raises(LatticeError):
        MarkedSurface(2 * lat.cls("F"), genus=1)  # even class
    with pytest.raises(LatticeError):
        MarkedSurface(lat.cls("F"), genus=0)
    with pytest.raises(LatticeError, match="^surface class must be integral$"):
        MarkedSurface(Fraction(1, 2) * lat.cls("F"), genus=1)


def test_signature_examples():
    assert signature(((1, 0), (0, -1))) == (1, 1, 0)
    assert signature(((0, 1), (1, 0))) == (1, 1, 0)
    assert signature(((0, 0), (0, 0))) == (0, 0, 2)
    assert signature(((0, 1, 0), (1, -2, 0), (0, 0, -1))) == (1, 2, 0)


def test_signature_bounds_enforced():
    with pytest.raises(LatticeError):
        Lattice("too_positive", ((1, 0), (0, 1)), b_plus=1)


def test_series_carrier_needs_odd_b_plus_minus_b_one():
    with pytest.raises(ParityError):
        Lattice("even_carrier", ((-1,),), b_plus=2)


def test_gram_must_be_symmetric():
    with pytest.raises(LatticeError):
        Lattice("asym", ((0, 1), (2, 0)), b_plus=1)


def test_gram_entries_must_be_integral():
    with pytest.raises(LatticeError, match="non-integral"):
        Lattice("half", ((Fraction(1, 2), 1), (1, -3)), b_plus=1)
    with pytest.raises(LatticeError, match="non-integral"):
        Lattice("float", ((0, 1), (1, -3.7)), b_plus=1)
    # integral values of any exact type are accepted and stored as ints
    lat = Lattice("exact", ((Fraction(0), 1.0), (1, -3)), b_plus=1)
    assert lat.gram == ((0, 1), (1, -3))
    assert all(type(x) is int for row in lat.gram for x in row)


def test_lattice_from_json_rejects_non_integral_gram(b2):
    data = lattice_to_json(b2.lattice)
    data["gram"][0][0] = 1.5
    with pytest.raises(LatticeError, match="non-integral"):
        lattice_from_json(data)


def test_float_coordinate_is_refused(k3):
    with pytest.raises(LatticeError, match="non-integral float"):
        HClass(k3.lattice, (0.1, 0))
    # an integral float is exact, and is stored as an int
    assert HClass(k3.lattice, (1.0, 0)).coords == (1, 0)
    assert type(HClass(k3.lattice, (1.0, 0)).coords[0]) is int


def test_lattice_from_json_rejects_float_class_coordinate(b2):
    data = lattice_to_json(b2.lattice)
    data["classes"]["F"][0] = 0.5
    with pytest.raises(LatticeError, match="non-integral float"):
        lattice_from_json(data)


def test_lattice_json_round_trip(b2):
    data = lattice_to_json(b2.lattice)
    assert lattice_from_json(data) == b2.lattice


def test_no_lattice_json_has_a_carries_series_key():
    # every lattice carries a series: the parity is structure, not a stored flag
    for name in catalog_names():
        assert "carries_series" not in lattice_to_json(catalog(name).lattice)


@pytest.mark.parametrize("value", [0, 1, "false", None])
def test_lattice_from_json_refuses_a_non_bool_carries_series(b2, value):
    # no value of the old flag loads: the key is not one lattice_to_json writes
    data = dict(lattice_to_json(b2.lattice), carries_series=value)
    with pytest.raises(LatticeError, match="unknown field 'carries_series'"):
        lattice_from_json(data)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("b_plus", {"b_plus": 3.0}),
        ("b_plus", {"b_plus": True}),
    ],
)
def test_lattice_refuses_a_scalar_field_of_the_wrong_type(field, kwargs):
    with pytest.raises(LatticeError, match=field):
        Lattice("typed", ((-1,),), **kwargs)


@pytest.mark.parametrize(
    "key, value",
    [("b_one", 1), ("b_one", 2), ("b_one", False), ("b_one", 0.0), ("b_one", "0"),
     ("model", "full"), ("model", "Partial"), ("model", None)],
)
def test_lattice_from_json_refuses_a_b_one_or_model_it_does_not_write(b2, key, value):
    data = dict(lattice_to_json(b2.lattice), **{key: value})
    with pytest.raises(LatticeError, match=f"^lattice.{key} must be"):
        lattice_from_json(data)


@pytest.mark.parametrize(
    "key, value",
    [("name", 5), ("name", None), ("name", True), ("rank", 4.0), ("rank", "4"), ("rank", True)],
)
def test_lattice_from_json_refuses_a_name_or_rank_of_the_wrong_type(b2, key, value):
    # a bool is refused too: True == 1 would pass an equality test
    data = dict(lattice_to_json(b2.lattice), **{key: value})
    with pytest.raises(LatticeError, match=f"^lattice.{key} must be an? (str|int), got"):
        lattice_from_json(data)


def test_lattice_from_json_refuses_a_missing_b_one_or_model(b2):
    for key in ("b_one", "model"):
        data = lattice_to_json(b2.lattice)
        del data[key]
        with pytest.raises(LatticeError, match=f"field '{key}' is missing from a lattice"):
            lattice_from_json(data)


def test_lattice_from_json_refuses_a_bool_gram_entry(b2):
    # true == 1 in Python, so a bool would load as the Gram entry it equals
    data = lattice_to_json(b2.lattice)
    assert data["gram"][0][1] == 1
    data["gram"][0][1] = data["gram"][1][0] = True
    with pytest.raises(LatticeError, match="a bool is not a number"):
        lattice_from_json(data)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: {**d, "classes": {**d["classes"], "F": "1000"}}, "B2: class 'F'"),
        (lambda d: {**d, "gram": ["0100"] + d["gram"][1:]}, "B2: Gram row 0"),
    ],
    ids=["class-coordinates", "gram-row"],
)
def test_lattice_from_json_refuses_a_string_of_digits(b2, edit, message):
    # a str is a sequence: "1000" once loaded as (1, 0, 0, 0), equal to B2's F
    with pytest.raises(LatticeError, match=re.escape(f"{message} must be a list of numbers")):
        lattice_from_json(edit(lattice_to_json(b2.lattice)))


def test_hclass_refuses_a_string_of_coordinates(b2):
    with pytest.raises(LatticeError, match="the string '10-10'"):
        HClass(b2.lattice, "10-10")


@pytest.mark.parametrize("data", [[], "lattice", None])
def test_lattice_from_json_refuses_a_value_that_is_not_an_object(data):
    with pytest.raises(LatticeError, match="a lattice must hold a JSON object"):
        lattice_from_json(data)


def test_lattice_from_json_refuses_a_float_b_plus(k3):
    data = dict(lattice_to_json(k3.lattice), b_plus=3.0)
    with pytest.raises(LatticeError, match="b_plus"):
        lattice_from_json(data)


@pytest.mark.parametrize("genus", [3.0, True, "2", None])
def test_marked_surface_refuses_a_genus_that_is_not_an_int(b2, genus):
    with pytest.raises(LatticeError, match="genus"):
        MarkedSurface(b2.lattice.cls("F"), genus)


def test_repeated_class_label_is_refused(k3):
    # a JSON object keeps one of two equal keys, so a reload could not keep both
    with pytest.raises(LatticeError, match="repeated"):
        Lattice("dup", k3.lattice.gram, b_plus=3, named=(("A", (1, 0)), ("A", (0, 1))))


def test_rational_coords_serialize(k3):
    lat = Lattice(
        "with_rational",
        k3.lattice.gram,
        b_plus=3,
        named=(("half", (Fraction(1, 2), Fraction(0))),),
    )
    data = lattice_to_json(lat)
    assert data["classes"]["half"] == ["1/2", 0]
    assert lattice_from_json(data) == lat


def test_hclass_arithmetic(b2):
    lat = b2.lattice
    f, sigma = lat.cls("F"), lat.cls("sigma")
    assert (f + sigma).dot(f) == 1
    assert (-f).coords == tuple(-c for c in f.coords)
    assert (Fraction(1, 2) * f).is_integral is False
    with pytest.raises(LatticeError, match="^mod-2 reduction needs an integral class$"):
        (Fraction(1, 2) * f).is_odd()
    with pytest.raises(LatticeError):
        HClass(lat, (Fraction(1),))  # wrong length


coords3 = st.tuples(
    *[st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3))] * 3
)


@given(u=coords3, v=coords3, w=coords3, a=st.integers(-3, 3))
def test_pairing_bilinear_symmetric(u, v, w, a):
    lat = Lattice(
        "hyp_plus_minus", ((0, 1, 0), (1, -2, 0), (0, 0, -1)),
        b_plus=3,
    )
    cu, cv, cw = (HClass(lat, c) for c in (u, v, w))
    assert (cu.coords, cv.coords, cw.coords) == (u, v, w)
    # storage invariant: an integral coordinate is an int, any other a Fraction
    for cls in (cu, cv, cw, cu + cv, a * cu):
        for c in cls.coords:
            assert type(c) is (int if c.denominator == 1 else Fraction)
    assert pairing(cu, cv) == pairing(cv, cu)
    assert pairing(cu + cv, cw) == pairing(cu, cw) + pairing(cv, cw)
    assert pairing(a * cu, cw) == a * pairing(cu, cw)


# -- the pairing on catalog lattices ----------------------------------------------------

CATALOG_LATTICES = {name: catalog(name).lattice for name in ("B3", "B4", "dia2:2:4", "K3")}
coordinate = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=4))


@st.composite
def class_pair(draw, integral=False):
    """Two new classes on one catalog lattice, neither with a cached covector."""
    lat = CATALOG_LATTICES[draw(st.sampled_from(sorted(CATALOG_LATTICES)))]
    entry = st.integers(-5, 5) if integral else coordinate
    coords = st.lists(entry, min_size=lat.rank, max_size=lat.rank)
    return HClass(lat, draw(coords)), HClass(lat, draw(coords))


def double_sum(u, v):
    """u^T G v written out over every cell of the Gram matrix, in Fractions."""
    gram = u.lattice.gram
    cells = ((i, j) for i in range(u.lattice.rank) for j in range(u.lattice.rank))
    return sum((Fraction(u.coords[i]) * gram[i][j] * v.coords[j] for i, j in cells), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(class_pair())
def test_pairing_is_the_double_sum_and_symmetric(pair):
    u, v = pair
    value = pairing(u, v)
    assert type(value) in (int, Fraction)
    assert value == double_sum(u, v)
    assert pairing(v, u) == value
    gram = u.lattice.gram
    assert u.covector == tuple(sum(g * c for g, c in zip(row, u.coords)) for row in gram)


@settings(max_examples=40, deadline=None)
@given(class_pair(integral=True))
def test_pairing_of_integral_classes_is_an_int(pair):
    u, v = pair
    assert type(pairing(u, v)) is int
    assert type(pairing(v, u)) is int
    assert pairing(u, v) == double_sum(u, v)


@settings(max_examples=40, deadline=None)
@given(class_pair())
def test_covector_leaves_equality_and_hash_alone(pair):
    u, _ = pair
    fresh = HClass(u.lattice, u.coords)
    u.covector  # cached on u only
    assert "covector" in vars(u) and "covector" not in vars(fresh)
    assert u == fresh and fresh == u
    assert hash(u) == hash(fresh)
    assert len({u, fresh}) == 1


# -- the indented writer ----------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.text(st.characters(), max_size=8)
    | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "\u00e9", "\u2028", "\U0001f600"]),
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), kids, max_size=5),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_indented_is_json_dumps_indent_2(data):
    assert _indented(data) == json.dumps(data, indent=2)


def test_indented_writes_every_catalog_entry_as_json_dumps_does():
    entries = [catalog(name) for name in catalog_names()]
    entries += [blow_up(catalog("K3")), blow_up(catalog("S4")), catalog("dia2:3:5")]
    for entry in entries:
        data = entry_to_json(entry)
        assert _indented(data) == json.dumps(data, indent=2), entry.name


def test_indented_writes_every_benchmark_gluing_as_json_dumps_does(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import glue_fit_gluings

    rules = {"standard": gluing.glue, "torus": gluing.glue_torus,
             "stabilized": gluing.glue_conjectural}
    gluings = glue_fit_gluings(small=False)
    assert len(gluings) == 24
    for g in gluings:
        spec = gluing.GluingSpec(
            catalog(g.left), catalog(g.right), left_surface=g.surfaces[0],
            right_surface=g.surfaces[1], left_w=g.w[0], right_w=g.w[1],
        )
        data = gluing.glued_to_json(rules[g.kind](spec))
        assert _indented(data) == json.dumps(data, indent=2), g.name


# -- the characteristic test against its definition ------------------------------------------


def small_catalog_lattices():
    entries = [catalog(name) for name in catalog_names()]
    entries += [blow_up(catalog("K3")), blow_up(catalog("S4"))]
    entries += [catalog(f"bg:{g}") for g in (9, 10)]
    entries += [catalog(f"dia2:{gp}:{gp + 1}") for gp in range(1, 7)]
    return [e.lattice for e in entries]


def test_characteristic_on_every_parity_vector_of_the_catalog_lattices():
    lattices = small_catalog_lattices()
    assert {lat.name for lat in lattices} >= {"C2", "C6", "K3.bl1", "S4.bl1", "B10"}
    for lat in lattices:
        assert lat.rank <= 12
        found = 0
        for bits in itertools.product((0, 1), repeat=lat.rank):
            # the same parities with coordinates of both signs
            k = HClass(lat, tuple(b + 2 * (j - 3) for j, b in enumerate(bits)))
            expected = brute_characteristic(lat, k.coords)
            assert is_characteristic(k) == expected, (lat.name, bits)
            found += expected
        # the characteristic parities are a coset of ker(G mod 2), never empty
        assert found >= 1 and found & (found - 1) == 0, lat.name


# blocks whose Gram matrix is invertible mod 2 (the last has determinant -1)
INVERTIBLE_MOD_2 = [((1,),), ((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 1, 0), (1, 0, 1), (0, 1, 0))]


@st.composite
def wide_class(draw):
    """A class on a Gram matrix of rank 13 to 18: a direct sum of blocks of
    rank <= 3, its basis shuffled.  The blocks are random (most sums are then
    singular mod 2) or even perturbations of ``INVERTIBLE_MOD_2``, and the
    class is characteristic on every block or has random parities."""
    invertible, characteristic = draw(st.booleans()), draw(st.booleans())
    blocks, rank, target = [], 0, draw(st.integers(13, 18))
    while rank < target:
        if invertible:
            base, step, spread = draw(st.sampled_from(INVERTIBLE_MOD_2)), 2, 1
        else:
            n = draw(st.integers(1, 3))
            base, step, spread = ((0,) * n,) * n, 1, 3
        n = len(base)
        block = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entry = base[i][j] + step * draw(st.integers(-spread, spread))
                block[i][j] = block[j][i] = entry
        blocks.append(block)
        rank += n
    gram = [[0] * rank for _ in range(rank)]
    coords, at = [], 0
    for block in blocks:
        n = len(block)
        for i in range(n):
            gram[at + i][at: at + n] = block[i]
        if characteristic:
            bits = draw(st.sampled_from([
                bits for bits in itertools.product((0, 1), repeat=n)
                if all((sum(map(int.__mul__, row, bits)) - row[i]) % 2 == 0
                       for i, row in enumerate(block))
            ]))
        else:
            bits = draw(st.tuples(*[st.integers(0, 1)] * n))
        coords += [b + 2 * draw(st.integers(-2, 2)) for b in bits]
        at += n
    order = draw(st.permutations(range(rank)))
    gram = tuple(tuple(gram[i][j] for j in order) for i in order)
    lat = Lattice("wide", gram, b_plus=rank | 1)
    return HClass(lat, tuple(coords[i] for i in order))


@settings(max_examples=60, deadline=None)
@given(wide_class())
def test_characteristic_beyond_rank_12_matches_the_definition(k):
    assert k.lattice.rank > 12
    assert is_characteristic(k) == brute_characteristic(k.lattice, k.coords)


# -- the integer signature against Fraction elimination ---------------------------------


def ref_signature(gram) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia by rational congruence elimination:
    a zero pivot is swapped with a later nonzero diagonal entry, or else made
    nonzero by e_i <- e_i + e_j."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if j is not None:
                a[i], a[j] = a[j], a[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    zero += 1
                    continue
                for c in range(n):
                    a[i][c] += a[j][c]
                for r in range(n):
                    a[r][i] += a[r][j]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            f = a[r][i] / d
            for c in range(n):
                a[r][c] -= f * a[i][c]
            for c in range(n):
                a[c][r] -= f * a[c][i]
    return pos, neg, zero


@st.composite
def symmetric_int_matrix(draw):
    """A symmetric int matrix of rank <= 10 built from blocks that stress the
    pivot rules: random entries, zero diagonals, hyperbolic blocks
    ((0, m), (m, 0)) and degenerate rows (a copy or a multiple of another)."""
    n = draw(st.integers(0, 10))
    small = st.integers(-4, 4)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(small)
    if n and draw(st.booleans()):  # zero diagonal
        for i in range(n):
            a[i][i] = 0
    if n >= 2 and draw(st.booleans()):  # a hyperbolic block on the first two
        m = draw(st.integers(1, 3))
        for i in range(n):
            a[0][i] = a[i][0] = a[1][i] = a[i][1] = 0
        a[0][1] = a[1][0] = m
    if n >= 2 and draw(st.booleans()):  # a degenerate row: k times another
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(-2, 2))
        a[i] = [k * x for x in a[j]]
        for r in range(n):
            a[r][i] = a[i][r]
        a[i][i] = k * k * a[j][j]
    return tuple(map(tuple, a))


@settings(max_examples=300, deadline=None)
@given(symmetric_int_matrix())
@example(((0, 1), (1, 0)))
@example(((0, 0, 1), (0, 0, 2), (1, 2, 0)))
@example(((-3, 1), (1, -5)))
@example(())
def test_signature_matches_fraction_elimination(gram):
    assert all(gram[i][j] == gram[j][i] for i in range(len(gram)) for j in range(i))
    got = signature(gram)
    assert got == ref_signature(gram) and sum(got) == len(gram)


def test_signature_of_every_catalog_gram_matches_fraction_elimination():
    grams = [catalog(n).lattice.gram for n in catalog_names()]
    grams += [catalog(f"dia2:{gp}:{g}").lattice.gram for g in (3, 5) for gp in range(1, g)]
    grams += [blow_up(catalog("K3")).lattice.gram, build_bg(9).lattice.gram]
    for gram in grams:
        assert signature(gram) == ref_signature(gram)
