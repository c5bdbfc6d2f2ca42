import dataclasses
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from donaldson import gluing, lattice
from donaldson.cli import run
from donaldson.constructions import (
    CatalogMismatch,
    MalformedCatalogFile,
    blow_up,
    catalog,
    entry_json_bytes,
)
from donaldson.exppoly import ExpPolynomial
from donaldson.gaussian import GaussianRational
from donaldson.gluing import (
    GluingError,
    GluedSeries,
    GluingSpec,
    SplitClass,
    coefficient_match,
    eval_glued,
    glue,
    glue_conjectural,
    glue_torus,
    glued_from_json,
    glued_to_json,
    rshift,
)
from donaldson.lattice import HClass, LatticeMismatch, ParityError, d_zero
from donaldson.series import twist


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def bg_double(g, w_square=None):
    bg = catalog(f"B{g}")
    return GluingSpec(left=bg, right=bg, w_square=w_square)


def dia2_double(gp, g):
    side = catalog(f"dia2:{gp}:{g}")
    return GluingSpec(left=side, right=side)


# -- the pairwise rule ---------------------------------------------------------------


@pytest.mark.parametrize("g", range(2, 7))
def test_bg_double_reproduces_closed_form(g):
    gs = glue(bg_double(g))
    coeffs = sorted(((sec, c) for _, _, sec, c in gs.entries), reverse=True)
    assert coeffs == [
        (1, Fraction(-(2 ** (3 * g - 5)))),
        (-1, Fraction((-1) ** g * 2 ** (3 * g - 5))),
    ]


@pytest.mark.parametrize("g,gp", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 4)])
def test_vanishing_doubles_are_empty(g, gp):
    assert glue(dia2_double(gp, g)).is_empty


@pytest.mark.parametrize("g", (2, 3))
def test_k3_with_bg_is_empty(g):
    # the blown-up-K3 reference with g' = 1 is K3 carrying a genus-g surface
    left = catalog(f"dia2:1:{g}")
    spec = GluingSpec(left=left, right=catalog(f"B{g}"))
    assert glue(spec).is_empty


def test_genus_mismatch_rejected():
    with pytest.raises(GluingError):
        GluingSpec(left=catalog("B2"), right=catalog("B3"))


@pytest.mark.parametrize(
    "b_plus, error, message",
    [
        (2, ParityError, r"a series-carrying manifold needs b\+ odd"),
        (1, GluingError, r"b1 = 0 and b\+ > 1 odd"),
    ],
    ids=["even-b-plus", "b-plus-one"],
)
def test_spec_refuses_a_side_the_split_refuses(b_plus, error, message):
    # an even b+ is refused when the lattice is made; b+ = 1 by the split,
    # checked when the spec is built
    from donaldson.constructions import CatalogEntry
    from donaldson.lattice import Lattice, MarkedSurface
    from donaldson.series import DonaldsonSeries

    with pytest.raises(error, match="^side: .*" + message):
        lat = Lattice(
            "side",
            ((0, 1), (1, 0)),
            b_plus=b_plus,
            named=(("T", (1, 0)), ("S", (0, 1))),
        )
        entry = CatalogEntry(
            name="side",
            series=DonaldsonSeries.on(lat, [(lat.zero(), 1)]),
            surfaces=(("T", MarkedSurface(lat.cls("T"), genus=2)),),
            w_labels=("S",),
            glue_surface="T",
        )
        GluingSpec(left=catalog("B2"), right=entry)


def test_glue_redirects_torus():
    k3 = catalog("K3")
    with pytest.raises(GluingError):
        glue(GluingSpec(left=k3, right=k3))


def test_odd_w_square_difference_rejected():
    with pytest.raises(GluingError):
        bg_double(2, w_square=1)


def test_a_w_square_that_is_not_an_int_is_named_as_such():
    # a rational w^2 is refused for what it is, not for the parity it then fails
    with pytest.raises(GluingError, match="^w_square must be an int, got 1/2$"):
        bg_double(2, w_square="1/2")
    with pytest.raises(GluingError, match="^w_square must be an int, got 3/2$"):
        bg_double(2, w_square=Fraction(3, 2))


# -- evaluation ------------------------------------------------------------------------


@pytest.mark.parametrize("g", range(2, 6))
def test_eval_exponents_match_genus_2_surface_pairing(g):
    spec = bg_double(g)
    gs = glue(spec)
    lat = spec.left.lattice
    d = spec.split_class(lat.cls("T1"), lat.cls("T1"))
    assert d.sigma_pairing == 1
    ev = eval_glued(gs, d)
    assert ev.exponents() == (gr(-2), gr(2))
    assert ev.coefficient(gr(2)) == gr(Fraction(-(2 ** (3 * g - 5))))
    assert ev.coefficient(gr(-2)) == gr(Fraction((-1) ** g * 2 ** (3 * g - 5)))
    assert ev.marker == "+Q/2" and ev.q_square == 0


@pytest.mark.parametrize("g", (2, 3, 4))
def test_eval_against_surface_class_gives_top_levels(g):
    # glued classes pair with the surface exactly as +-(2g-2), sector-wise
    spec = bg_double(g)
    gs = glue(spec)
    lat = spec.left.lattice
    d = SplitClass(lat.cls("Sigma_g"), lat.zero(), Fraction(0))
    lefts = twist(spec.left.series, spec.w1)
    for j, k, sector, _ in gs.entries:
        lam = lefts[j][0].dot(d.d1)
        assert lam == sector * (2 * g - 2)
    ev = eval_glued(gs, d)
    assert set(ev.exponents()) == {gr(2 * g - 2), gr(-(2 * g - 2))}


def test_eval_along_surface_direction():
    # shifting the probe by r * surface inside the evaluation subspace moves
    # the exponents by +-r(2g-2) and the Gaussian prefactor by 2r, which is
    # exactly the two-variable display that pins down the diagonal entries
    g = 3
    spec = bg_double(g)
    gs = glue(spec)
    lat = spec.left.lattice
    r = Fraction(2, 3)
    d = spec.split_class(lat.cls("T1") + r * lat.cls("Sigma_g"), lat.cls("T1"))
    assert d.sigma_pairing == 1
    ev = eval_glued(gs, d)
    assert ev.q_square == 2 * r
    assert ev.coefficient(gr(2 + r * (2 * g - 2))) == gr(-16)
    assert ev.coefficient(gr(-2 - r * (2 * g - 2))) == gr(-16)


def test_eval_empty_series_is_zero():
    gs = glue(dia2_double(1, 2))
    lat = gs.spec.left.lattice
    d = gs.spec.split_class(lat.cls("T"), lat.cls("T"))
    assert eval_glued(gs, d).is_zero


def test_split_class_validation():
    spec = bg_double(2)
    lat = spec.left.lattice
    with pytest.raises(GluingError):
        eval_glued(glue(spec), SplitClass(lat.cls("T1"), lat.cls("T1"), Fraction(5)))
    with pytest.raises(GluingError):
        # halves must pair equally with their surfaces
        eval_glued(glue(spec), SplitClass(lat.cls("T1"), lat.cls("Sigma_g"), Fraction(1)))
    with pytest.raises(LatticeMismatch, match="^split class halves on the wrong lattices$"):
        eval_glued(glue(spec), SplitClass(catalog("K3").lattice.zero(), lat.cls("T1"), Fraction(1)))


def test_eval_accepts_rational_split_classes():
    g = 2
    spec = bg_double(g)
    gs = glue(spec)
    lat = spec.left.lattice
    half_fiber = Fraction(1, 2) * lat.cls("T1")
    d = spec.split_class(half_fiber, half_fiber)
    assert d.sigma_pairing == Fraction(1, 2)
    ev = eval_glued(gs, d)
    assert set(ev.exponents()) == {gr(1), gr(-1)}


def test_split_class_square():
    spec = bg_double(2)
    lat = spec.left.lattice
    d = spec.split_class(lat.cls("E1"), lat.cls("T1"))
    assert d.square == -1


def test_glued_series_keeps_and_evaluates_the_entries_it_is_given():
    spec = bg_double(3)
    gs = glue(spec)
    reordered = tuple(reversed(gs.entries))
    assert GluedSeries(spec, gs.kind, list(reordered)).entries == reordered
    lat = spec.left.lattice
    d = spec.split_class(lat.cls("T1"), lat.cls("T1"))
    # the original holds its integer index before any copy is made; a copy
    # must build and evaluate its own
    before = eval_glued(gs, d)
    assert eval_glued(GluedSeries(spec, gs.kind, reordered), d) == before
    (j, k, sector, c), rest = gs.entries[0], gs.entries[1:]
    lam = gs.left_class(j).dot(d.d1) + gs.right_class(k).dot(d.d2) + 2 * sector * d.sigma_pairing
    for delta in (1, Fraction(1, 3)):
        changed = dataclasses.replace(gs, entries=((j, k, sector, c + delta),) + rest)
        after = eval_glued(changed, d)
        assert after.coefficient(lam) == before.coefficient(lam) + delta
        assert after.exponents() == before.exponents()
    assert eval_glued(gs, d) == before


def test_entries_over_denominators_3_and_4_evaluate_exactly():
    spec = bg_double(3)
    lat = spec.left.lattice
    # S.D = 0: the two sectors of the pair (0, 0) share an exponent
    d = spec.split_class(lat.cls("sigma"), lat.cls("sigma"))
    entries = ((0, 0, 1, Fraction(1, 3)), (0, 0, -1, Fraction(-3, 4)), (15, 15, 1, Fraction(1, 4)))
    gs = GluedSeries(spec, "standard", entries)
    assert gs._int_form[0] == 12
    lam0, lam15 = (gs.left_class(j).dot(d.d1) + gs.right_class(j).dot(d.d2) for j in (0, 15))
    assert lam0 != lam15
    expected = ExpPolynomial("+Q/2", ((lam0, Fraction(-5, 12)), (lam15, Fraction(1, 4))), d.square)
    assert eval_glued(gs, d) == expected
    # the pair (0, 0) sums its two sectors, over denominators 3 and 4
    assert coefficient_match(gs, gs.left_class(0), gs.right_class(0))[0] == Fraction(-5, 12)


# -- rshift ------------------------------------------------------------------------------


def test_rshift_identity_and_examples():
    spec = bg_double(3)
    gs = glue(spec)
    lat = spec.left.lattice
    d = spec.split_class(lat.cls("T1"), lat.cls("T1"))
    base = eval_glued(gs, d)
    for r in (0, 1, Fraction(-3, 2)):
        shifted = rshift(spec, d, r)
        assert shifted.square == d.square
        assert eval_glued(gs, shifted) == base


@settings(max_examples=40)
@given(r=st.fractions(min_value=-6, max_value=6, max_denominator=8))
def test_rshift_invariance_property(r):
    spec = bg_double(2)
    gs = glue(spec)
    lat = spec.left.lattice
    d = spec.split_class(lat.cls("E1"), lat.cls("T1"))
    assert eval_glued(gs, rshift(spec, d, r)) == eval_glued(gs, d)


# -- symmetry, epsilon, parity bookkeeping ------------------------------------------------


def test_swap_symmetry():
    spec = bg_double(3)
    direct = glue(spec)
    swapped = glue(spec.swapped())
    assert sorted((k, j, sec, c) for j, k, sec, c in direct.entries) == sorted(
        (j, k, sec, c) for j, k, sec, c in swapped.entries
    )
    # the swapped gluing evaluated at (D2, D1) is the gluing at (D1, D2)
    for left, right, d1, d2 in [
        ("B3", "B3", "T1", "T1"),
        ("dia2:1:3", "B3", "T", "T1"),
        ("dia2:2:3", "dia2:1:3", "T", "T"),
        ("K3", "S4", "sigma", "sigma"),  # the torus rule
        ("B4", "B4", "E1", "T1"),
    ]:
        spec = GluingSpec(catalog(left), catalog(right))
        rule = glue_torus if spec.genus == 1 else glue
        c1, c2 = spec.left.lattice.cls(d1), spec.right.lattice.cls(d2)
        swapped = spec.swapped()
        assert eval_glued(rule(swapped), swapped.split_class(c2, c1)) == eval_glued(
            rule(spec), spec.split_class(c1, c2)
        ), (left, right)


@pytest.mark.parametrize("r", [1, 2, Fraction(1, 3), Fraction(-5, 2)])
@pytest.mark.parametrize(
    "name, rule, label", [("K3", glue_torus, "sigma"), ("B3", glue, "T1"), ("B4", glue, "T1")]
)
def test_blow_up_commutes_with_gluing(name, rule, label, r):
    # blowing up the left side adds E with E.S1 = 0, E.w1 = 0 and E^2 = -1, so
    # at (D1 + rE, D2) the evaluation gains the factor (e^{rt} + e^{-rt}) / 2
    # and D^2 drops by r^2
    x = catalog(name)
    hat = blow_up(x)
    (e_label,) = set(hat.lattice.labels()) - set(x.lattice.labels())
    spec, hat_spec = GluingSpec(x, x), GluingSpec(hat, x)
    d1, d2 = x.lattice.cls(label), x.lattice.cls(label)
    base = eval_glued(rule(spec), spec.split_class(d1, d2))
    d1_hat = hat.lattice.cls(label) + r * hat.lattice.cls(e_label)
    got = eval_glued(rule(hat_spec), hat_spec.split_class(d1_hat, d2))
    half = Fraction(1, 2)
    factor = ExpPolynomial("none", ((r, half), (-r, half)))
    assert not base.is_zero
    assert got == ExpPolynomial(base.marker, base.terms, base.q_square - r * r) * factor


@pytest.mark.parametrize("g", (2, 3, 4))
def test_epsilon_scaling(g):
    normalized = glue(bg_double(g))
    variant = glue(bg_double(g, w_square=2))  # off by 2 mod 4
    eps = -1 if (g - 1) % 2 else 1
    assert variant.spec.epsilon == eps
    table = {(j, k, sec): c for j, k, sec, c in normalized.entries}
    for j, k, sec, c in variant.entries:
        assert c == eps * table[(j, k, sec)]
    assert glue(bg_double(g, w_square=4)).spec.epsilon == 1


@pytest.mark.parametrize(
    "maker,args",
    [
        (bg_double, (2,)),
        (bg_double, (3,)),
        (bg_double, (5,)),
        (dia2_double, (1, 2)),
        (dia2_double, (2, 4)),
    ],
)
def test_d_zero_congruence(maker, args):
    spec = maker(*args)
    g = spec.genus
    d0_left = d_zero(spec.w1, spec.left.series.b_plus)
    d0_right = d_zero(spec.w2, spec.right.series.b_plus)
    assert (spec.w_square - spec.w1.square - spec.w2.square) % 4 == 0
    assert (spec.glued_d_zero() - d0_left - d0_right - (g - 1)) % 2 == 0


# -- the torus rule -------------------------------------------------------------------------


def test_torus_rule_k3_k3():
    k3 = catalog("K3")
    spec = GluingSpec(left=k3, right=k3)
    gs = glue_torus(spec)
    assert [(sec, c) for _, _, sec, c in gs.entries] == [
        (1, Fraction(-1, 4)),
        (0, Fraction(-1, 2)),
        (-1, Fraction(-1, 4)),
    ]
    assert sum(c for _, _, _, c in gs.entries) == -1


def test_torus_rule_exponents():
    k3 = catalog("K3")
    spec = GluingSpec(left=k3, right=k3)
    gs = glue_torus(spec)
    d = spec.split_class(k3.lattice.cls("sigma"), k3.lattice.cls("sigma"))
    ev = eval_glued(gs, d)
    assert set(ev.exponents()) == {gr(-2), gr(0), gr(2)}


def test_torus_output_vs_catalog_expansion():
    """Documented difference: the torus rule gives the twisted glued series.

    Against the catalog series of the elliptic surface with four fiber
    components (the double of K3 along the fiber), the +-2 sectors differ
    in sign and the 0 sector agrees; twisting the catalog series by the
    glued section class reproduces the rule's output exactly.
    """
    k3 = catalog("K3")
    spec = GluingSpec(left=k3, right=k3)
    gs = glue_torus(spec)
    by_sector = {sec: c for _, _, sec, c in gs.entries}
    s4 = catalog("S4")
    f = s4.lattice.cls("F")
    assert s4.series.coefficient(2 * f) == -by_sector[1]
    assert s4.series.coefficient(-2 * f) == -by_sector[-1]
    assert s4.series.coefficient(0 * f) == by_sector[0]
    tw = dict((k.coords, c) for k, c in twist(s4.series, s4.lattice.cls("sigma")))
    assert tw[(2 * f).coords] == by_sector[1]
    assert tw[(-2 * f).coords] == by_sector[-1]
    assert tw[(0 * f).coords] == by_sector[0]


def test_torus_rule_rejects_nonzero_levels():
    # an ad-hoc entry whose classes pair nonzero with its torus
    from donaldson.constructions import CatalogEntry
    from donaldson.lattice import HClass, Lattice, MarkedSurface
    from donaldson.series import DonaldsonSeries

    lat = Lattice(
        "torus_with_level",
        ((0, 1), (1, -2)),
        b_plus=3,
        named=(("T", (Fraction(1), Fraction(0))), ("S", (Fraction(0), Fraction(1)))),
    )
    two_s = 2 * lat.cls("S")
    series = DonaldsonSeries.on(lat, [(two_s, Fraction(1)), (-two_s, Fraction(1))])
    entry = CatalogEntry(
        name="torus_with_level",
        series=series,
        surfaces=(("T", MarkedSurface(lat.cls("T"), genus=1)),),
        w_labels=("S",),
        glue_surface="T",
    )
    spec = GluingSpec(left=entry, right=entry)
    with pytest.raises(GluingError):
        glue_torus(spec)


def test_oversized_gluing_is_refused_before_it_is_built():
    # S600 has 599 classes, all at level 0: 3 * 599^2 = 1076403 > 2^20 entries
    s600 = catalog("elliptic:600")
    with pytest.raises(GluingError, match="1076403 glued entries is over the limit of 1048576"):
        glue_torus(GluingSpec(left=s600, right=s600))


def test_gluing_limit_counts_every_entry(monkeypatch):
    spec = bg_double(3)
    size = len(glue(spec).entries)
    monkeypatch.setattr(gluing, "MAX_GLUED_ENTRIES", size)
    assert len(glue(spec).entries) == size
    monkeypatch.setattr(gluing, "MAX_GLUED_ENTRIES", size - 1)
    with pytest.raises(GluingError, match="over the limit"):
        glue(spec)


def test_torus_rule_rejects_higher_genus():
    with pytest.raises(GluingError):
        glue_torus(bg_double(2))


def test_a_genus_one_spec_takes_only_the_torus_kind(tmp_path, capsys):
    # a K3/K3 torus file edited to "standard", its 0-sector pairs dropped,
    # once reloaded, and coefficient_match answered (-1/2, -1/4) for it
    k3 = catalog("K3")
    spec = GluingSpec(left=k3, right=k3)
    payload = json.loads(json.dumps(glued_to_json(glue_torus(spec))))
    payload.update(kind="standard", pairs=[p for p in payload["pairs"] if p[2] != "0"])
    message = "a standard gluing needs genus >= 2, got genus 1"
    with pytest.raises(GluingError, match=f"^{re.escape(message)}$"):
        glued_from_json(payload)
    path = tmp_path / "glued.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["eval", "--glued", str(path), "--d1", "sigma", "--d2", "sigma"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err
    with pytest.raises(GluingError, match="^a stabilized gluing needs genus >= 2, got genus 1$"):
        GluedSeries(spec, "stabilized", ())
    assert GluedSeries(spec, "torus", ()).is_empty
    # the rules refuse it themselves, before either split binds its table;
    # a copy of K3's series holds none of the splits the torus glue made
    cold = dataclasses.replace(k3, series=dataclasses.replace(k3.series))
    for rule in (glue, glue_conjectural):
        fresh = GluingSpec(left=cold, right=cold)
        refusal = "^a (standard|stabilized) gluing needs genus >= 2, got genus 1$"
        with pytest.raises(GluingError, match=refusal):
            rule(fresh)
        assert all("_table" not in split.__dict__ for split in fresh._splits)


# -- coefficient matching --------------------------------------------------------------------


@pytest.mark.parametrize("g", (2, 3, 4))
def test_coefficient_match_all_pairs(g):
    spec = bg_double(g)
    gs = glue(spec)
    classes = spec.left.series.classes()
    nonzero = 0
    for K in classes:
        for L in classes:
            got, predicted = coefficient_match(gs, K, L)
            assert got == predicted
            if got != 0:
                nonzero += 1
    assert nonzero == 2  # only (K_top, K_top) and (-K_top, -K_top)


def test_coefficient_match_sector_signs():
    g = 3
    spec = bg_double(g)
    gs = glue(spec)
    k_top = spec.left.lattice.cls("K")
    a = spec.left.series.coefficient(k_top)
    got, predicted = coefficient_match(gs, k_top, k_top)
    assert got == predicted == -(2 ** (7 * g - 9)) * a * a
    got, predicted = coefficient_match(gs, -k_top, -k_top)
    b = spec.left.series.coefficient(-k_top)
    assert got == predicted == (-1) ** g * 2 ** (7 * g - 9) * b * b


@pytest.mark.parametrize("g", (2, 4))
def test_coefficient_match_at_epsilon_minus_one(g):
    # w^2 = w1^2 + w2^2 + 2 makes epsilon = (-1)^{g-1}, so -1 at even g
    normalized = bg_double(g)
    spec = bg_double(g, w_square=normalized.w1.square + normalized.w2.square + 2)
    assert spec.epsilon == -1
    gs = glue(spec)
    top = 2 * g - 2
    hits = 0
    for K, a in spec.left.series.entries:
        for L, b in spec.right.series.entries:
            got, predicted = coefficient_match(gs, K, L)
            assert got == predicted
            lvl = K.dot(spec.surface1.cls)
            if lvl == L.dot(spec.surface2.cls) and abs(lvl) == top:
                sector_sign = 1 if lvl == top else (-1) ** (g - 1)
                assert predicted == -(-1) * sector_sign * 2 ** (7 * g - 9) * a * b != 0
                hits += 1
            else:
                assert predicted == 0
    assert hits == 2
    if g == 2:
        k_top = spec.left.lattice.cls("K")
        assert coefficient_match(gs, k_top, k_top) == (2, 2)
        assert coefficient_match(glue(normalized), k_top, k_top) == (-2, -2)


def test_coefficient_match_with_nontrivial_twist():
    # w = E1 twists the side series by nontrivial signs; the untwisted
    # grouped sum must still match the untwisted product form
    g = 2
    bg = catalog(f"B{g}")
    spec = GluingSpec(left=bg, right=bg, left_w="E1", right_w="E1")
    gs = glue(spec)
    for K in bg.series.classes():
        for L in bg.series.classes():
            got, predicted = coefficient_match(gs, K, L)
            assert got == predicted


def test_coefficient_match_sums_rows_that_share_a_pair():
    # a reloaded gluing may hold one (j, k) in several rows, one per sector:
    # the grouped coefficient is their sum
    g = 3
    payload = json.loads(json.dumps(glued_to_json(glue(bg_double(g)))))
    j, k, sector, coeff = payload["pairs"][0]
    half = str(Fraction(coeff) / 2)
    other = "-" if sector == "+" else "+"
    payload["pairs"][0:1] = [[j, k, sector, half], [j, k, other, half]]
    gs = glued_from_json(payload)
    assert [e[:2] for e in gs.entries].count((j, k)) == 2
    K, L = gs.left_class(j), gs.right_class(k)
    grouped, predicted = coefficient_match(gs, K, L)
    assert grouped == predicted != 0
    assert (grouped, predicted) == coefficient_match(glue(bg_double(g)), K, L)


def test_coefficient_match_refuses_classes_on_another_lattice():
    # K3 blown up three times has B3's rank, so K's coordinates name a class
    # there too; it must not be read as B3's K
    spec = bg_double(3)
    gs = glue(spec)
    k_top = spec.left.lattice.cls("K")
    other = blow_up(blow_up(blow_up(catalog("K3")))).lattice
    k_other = HClass(other, k_top.coords)
    assert coefficient_match(gs, k_top, k_top) != (0, 0)
    for k, l in ((k_other, k_other), (k_other, k_top), (k_top, k_other)):
        with pytest.raises(LatticeMismatch):
            coefficient_match(gs, k, l)
    # a rational class on the right lattice is no parent's restriction
    assert coefficient_match(gs, Fraction(1, 2) * k_top, k_top) == (0, 0)


def test_coefficient_match_rejects_torus():
    k3 = catalog("K3")
    gs = glue_torus(GluingSpec(left=k3, right=k3))
    with pytest.raises(GluingError):
        coefficient_match(gs, k3.lattice.zero(), k3.lattice.zero())


@pytest.mark.parametrize("g", (2, 3))
def test_quarter_turn_substitution_device(g):
    """e^{lam pi i/2} = i^lam turns the pairwise rule into the product form.

    Substituting a quarter turn into each glued term cancels the leading
    minus sign through i^{+-2 S.D} = -1 and leaves the sector sign
    (+-1)^{g-1} on the product of untwisted coefficient sums.
    """
    spec = bg_double(g)
    gs = glue(spec)
    lat = spec.left.lattice
    d = spec.split_class(lat.cls("T1"), lat.cls("T1"))
    lefts = twist(spec.left.series, spec.w1)
    rights = twist(spec.right.series, spec.w2)
    for j, k, sector, coeff in gs.entries:
        lam = lefts[j][0].dot(d.d1) + rights[k][0].dot(d.d2) + sector * 2 * d.sigma_pairing
        lhs = gr(coeff) * GaussianRational.i_power(int(lam))
        sector_sign = 1 if sector == 1 else (-1) ** (g - 1)
        a = spec.left.series.coefficient(lefts[j][0])
        b = spec.right.series.coefficient(rights[k][0])
        base = lefts[j][0].dot(d.d1) + rights[k][0].dot(d.d2)
        rhs = gr(Fraction(sector_sign * 2 ** (7 * g - 9)) * a * b) * GaussianRational.i_power(int(base))
        assert lhs == rhs


# -- the stabilized (conjectural) rule ---------------------------------------------------------


@pytest.mark.parametrize("g", (2, 3, 4))
def test_conjectural_shape_on_cg_inputs(g):
    cg = catalog(f"C{g}")
    spec = GluingSpec(left=cg, right=cg)
    gs = glue_conjectural(spec)
    assert gs.kind == "stabilized"
    tw = dict((k.coords, c) for k, c in twist(cg.series, cg.w_class("Shat2")))
    k_cls = cg.lattice.cls("K")
    a, b = tw[k_cls.coords], tw[(-k_cls).coords]
    by_sector = {sec: c for _, _, sec, c in gs.entries}
    scale = Fraction(1, 2 ** (3 * g - 5))
    assert by_sector[1] == -scale * a * a
    assert by_sector[-1] == (-1) ** g * scale * b * b


@pytest.mark.parametrize("g", (2, 4))
def test_conjectural_epsilon(g):
    cg = catalog(f"C{g}")
    base = glue_conjectural(GluingSpec(left=cg, right=cg))
    variant = glue_conjectural(GluingSpec(left=cg, right=cg, w_square=2))
    table = {(j, k, sec): c for j, k, sec, c in base.entries}
    for j, k, sec, c in variant.entries:
        assert c == -table[(j, k, sec)]


def test_conjectural_self_consistency():
    """The double of B(g) is itself a stabilized sum, so feeding its closed
    form to the stabilized rule must reproduce the same closed form."""
    for g in (2, 3, 4):
        cg = catalog(f"C{g}")
        gs = glue_conjectural(GluingSpec(left=cg, right=cg))
        tw = dict((k.coords, c) for k, c in twist(cg.series, cg.w_class("Shat2")))
        k_cls = cg.lattice.cls("K")
        by_sector = {sec: c for _, _, sec, c in gs.entries}
        assert by_sector[1] == tw[k_cls.coords]
        assert by_sector[-1] == tw[(-k_cls).coords]


def test_conjectural_eval_has_no_surface_shift():
    g = 2
    cg = catalog(f"C{g}")
    spec = GluingSpec(left=cg, right=cg)
    gs = glue_conjectural(spec)
    d = spec.split_class(cg.lattice.cls("Shat2"), cg.lattice.cls("Shat2"))
    ev = eval_glued(gs, d)
    # exponents are K.D1 + L.D2 with no +-2 S.D displacement
    assert set(ev.exponents()) == {gr(4), gr(-4)}


def test_conjectural_empty_input():
    left = catalog("dia2:1:2")
    spec = GluingSpec(left=left, right=left)
    assert glue_conjectural(spec).is_empty


# -- serialization -----------------------------------------------------------------------------


def test_glued_json_round_trip():
    gs = glue(bg_double(3))
    payload = glued_to_json(gs)
    rebuilt = glued_from_json(json.loads(json.dumps(payload)))
    assert glued_to_json(rebuilt) == payload
    assert rebuilt.entries == gs.entries


def test_a_glued_file_reloads_its_pairs_in_the_written_order():
    # the pairs of a file in the rule's order, and the same pairs shuffled by hand
    s4 = catalog("S4")
    canonical = json.loads(json.dumps(glued_to_json(glue_torus(GluingSpec(s4, s4)))))
    pairs = canonical["pairs"]
    assert len(pairs) > 2
    payload = dict(canonical, pairs=pairs[1::2] + pairs[::2])
    rebuilt = glued_from_json(payload)
    assert glued_to_json(rebuilt) == payload
    d = rebuilt.spec.split_class(s4.lattice.cls("sigma"), s4.lattice.cls("sigma"))
    expected = eval_glued(glued_from_json(canonical), d)
    assert not expected.is_zero and eval_glued(rebuilt, d) == expected


@pytest.mark.parametrize("key, value", [("g", "banana"), ("w1_sq", [1]), ("w2_sq", None)])
def test_glued_from_json_type_checks_the_genus_and_w_squares(key, value):
    payload = dict(glued_to_json(glue(bg_double(2))), **{key: value})
    with pytest.raises(GluingError, match=f"^{key} must be an int"):
        glued_from_json(payload)


def test_glued_from_json_requires_kind():
    payload = glued_to_json(glue(bg_double(3)))
    del payload["kind"]
    with pytest.raises(GluingError, match="field 'kind' is missing"):
        glued_from_json(payload)


def test_glued_from_json_names_an_unknown_side_and_passes_a_stored_file_error(
    tmp_path, monkeypatch
):
    payload = glued_to_json(glue(bg_double(2)))
    for key in ("left", "right"):
        with pytest.raises(GluingError, match=f"^field '{key}': unknown catalog name"):
            glued_from_json(dict(payload, **{key: "nowhere"}))
    # a stored catalog file that fails is the catalog's error, not the glued file's
    changed = entry_json_bytes(catalog("B2")).replace(b'"note": "', b'"note": "x')
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    stored = tmp_path / "B2.json"
    stored.write_text("{}")
    with pytest.raises(MalformedCatalogFile):
        glued_from_json(payload)
    stored.write_bytes(changed)
    with pytest.raises(CatalogMismatch) as info:
        glued_from_json(payload)
    assert type(info.value) is CatalogMismatch


@pytest.mark.parametrize(
    "column, value",
    [
        (0, 4), (0, 99), (0, -1), (0, 0.0), (0, True),
        (1, 4), (1, -1), (1, "0"),
        (2, "x"), (2, 1), (2, ["+"]),
        (3, "1/0"), (3, "abc"), (3, 0.5), (3, "1e5"),
    ],
)
def test_glued_from_json_rejects_bad_pair_rows(column, value):
    # B2 has 4 classes a side, so 4 is the first index out of range
    payload = json.loads(json.dumps(glued_to_json(glue(bg_double(2)))))
    glued_from_json(payload)
    payload["pairs"][0][column] = value
    with pytest.raises(GluingError, match=r"^pair \[.*(index must be|sector must be|bad coefficient)"):
        glued_from_json(payload)


def test_a_repeated_pair_is_refused(tmp_path, capsys):
    # appended again, B3's first pair would double its coefficient on e^{2t}:
    # -32 instead of -16
    gs = glue(bg_double(3))
    payload = json.loads(json.dumps(glued_to_json(gs)))
    first = payload["pairs"][0]
    j, k, code, _ = first
    named = re.escape(f"pair [{j}, {k}, '{code}'] is repeated")
    for again in (first, [j, k, code, "1/3"]):
        repeated = dict(payload, pairs=payload["pairs"] + [list(again)])
        with pytest.raises(GluingError, match=named):
            glued_from_json(repeated)
    with pytest.raises(GluingError, match=named):
        GluedSeries(gs.spec, gs.kind, gs.entries * 2)
    path = tmp_path / "glued.json"
    path.write_text(json.dumps(dict(payload, pairs=payload["pairs"] + [first])))
    capsys.readouterr()
    assert run(["eval", "--glued", str(path), "--d1", "T1", "--d2", "T1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "is repeated" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ((-1, 0, 1, Fraction(1)), "pair [-1, 0, '+']: the left index must be an int in [0, 4)"),
        ((0, 999, 1, Fraction(1)), "pair [0, 999, '+']: the right index must be an int in [0, 4)"),
        ((0, 0, 2, Fraction(1)), "pair [0, 0, 2]: a standard gluing has no sector 2"),
        ((0, 0, 1, 0.5), "pair [0, 0, '+']: the coefficient must be an int or a Fraction"),
        ((0, 0, True, Fraction(1)), "pair [0, 0, True]: a standard gluing has no sector True"),
        ((0, 0, 1.0, Fraction(1)), "pair [0, 0, 1.0]: a standard gluing has no sector 1.0"),
        ((0, 0, -1.0, Fraction(1)), "pair [0, 0, -1.0]: a standard gluing has no sector -1.0"),
        ((0, 0, 1), "entry (0, 0, 1): must be [left, right, sector, coefficient]"),
        (5, "entry 5: must be [left, right, sector, coefficient]"),
    ],
    ids=["index-negative", "index-999", "sector-2", "float-coefficient", "sector-True",
         "sector-1.0", "sector--1.0", "three-items", "not-a-list"],
)
def test_a_glued_series_refuses_an_entry_it_cannot_hold(entry, message):
    # each of these once got through: -1 read the last class, 999 raised
    # IndexError in eval_glued, sector 2 doubled the shift, a float
    # raised AttributeError, and True, 1.0 and -1.0 equal a sector, were
    # written as '+' and '-', and a float one made eval_glued raise TypeError
    spec = bg_double(2)
    with pytest.raises(GluingError, match=re.escape(message)):
        GluedSeries(spec, "standard", (entry,))


def test_a_glued_series_refuses_entries_that_are_no_list():
    with pytest.raises(GluingError, match="^entries must be a list or a tuple, got a NoneType$"):
        GluedSeries(bg_double(2), "standard", None)


def test_the_first_bad_entry_is_named_whatever_it_fails():
    # one walk over the entries: a repeat is named before a later entry's
    # bad index, as the series constructor names its first bad row
    spec = bg_double(2)
    entries = ((0, 0, 1, Fraction(1)), (0, 0, 1, Fraction(1)), (0, 999, 1, Fraction(1)))
    with pytest.raises(GluingError, match=re.escape("pair [0, 0, '+'] is repeated")):
        GluedSeries(spec, "standard", entries)
    with pytest.raises(GluingError, match=re.escape("pair [0, 999, '+']: the right index")):
        GluedSeries(spec, "standard", entries[2:] + entries[:2])


def test_a_zero_sector_pair_in_a_standard_glued_file_exits_two(tmp_path, capsys):
    payload = glued_to_json(glue(bg_double(2)))
    payload["pairs"][0][2] = "0"
    path = tmp_path / "glued.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["eval", "--glued", str(path), "--d1", "T1", "--d2", "T1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "a standard gluing has no sector 0" in err


def test_eval_glued_with_halves_of_different_denominators(monkeypatch):
    # D = (sigma + E1/4, sigma + E1/9): the common denominator m is 36, and
    # each parent class pairs with 36 D1 or 36 D2 to an int
    b3 = catalog("B3")
    gs = glue_torus(GluingSpec(b3, b3, "T1", "T1", "sigma", "sigma"))
    lat = b3.lattice
    e1 = lat.cls("E1")
    d = gs.spec.split_class(
        lat.cls("sigma") + Fraction(1, 4) * e1, lat.cls("sigma") + Fraction(1, 9) * e1
    )
    shift = 2 * d.sigma_pairing
    sums = {}
    for j, k, sector, c in gs.entries:
        lam = gs.left_class(j).dot(d.d1) + gs.right_class(k).dot(d.d2) + sector * shift
        sums[lam] = sums.get(lam, Fraction(0)) + c
    batches = []
    real = lattice.Lattice.pairings

    def recording(lat, rows, v):
        batches.append((lat, sorted(rows), v.is_integral))
        return real(lat, rows, v)

    monkeypatch.setattr(lattice.Lattice, "pairings", recording)
    got = eval_glued(gs, d)
    # one batch per side, with an integral class, of the rows of the parents with entries
    rows = b3.series.rows
    assert batches == [
        (lat, sorted({rows[j] for j, _, _, _ in gs.entries}), True),
        (lat, sorted({rows[k] for _, k, _, _ in gs.entries}), True),
    ]
    assert got == ExpPolynomial("+Q/2", tuple(sums.items()), d.square)
    assert 36 in {Fraction(lam.re).denominator for lam in got.exponents()}


def test_glued_from_json_parses_each_token_by_its_type():
    # "3/2" parses, and the float 1.5 of equal value is still refused, at
    # the first row that carries it
    payload = json.loads(json.dumps(glued_to_json(glue(bg_double(3)))))
    j, k, _, _ = payload["pairs"][0]
    payload["pairs"][0][3] = "3/2"
    payload["pairs"] += [[j, k, "-", 1.5], [1, 1, "+", 1.5]]
    with pytest.raises(GluingError, match=re.escape(f"pair {[j, k, '-', 1.5]!r}: bad coefficient")):
        glued_from_json(payload)
    # 1, 1.0 and "1" are three tokens of one value
    payload["pairs"][2:] = [[j, k, "-", 1], [1, 1, "+", 1.0], [2, 2, "+", "1"]]
    gs = glued_from_json(payload)
    assert [c for _, _, _, c in gs.entries].count(Fraction(1)) == 3
    assert Fraction(3, 2) in [c for _, _, _, c in gs.entries]


def test_spec_resolves_each_side_once():
    spec = bg_double(3)
    for name in ("surface1", "surface2", "w1", "w2"):
        assert getattr(spec, name) is getattr(spec, name), name
    spec.epsilon
    assert "square" in spec.w1.__dict__ and "square" in spec.w2.__dict__


def test_glued_json_fields():
    payload = glued_to_json(glue(bg_double(3)))
    assert payload["g"] == 3
    assert payload["w_sq"] == payload["w1_sq"] + payload["w2_sq"]
    assert sorted(p[3] for p in payload["pairs"]) == ["-16", "-16"]
    assert {p[2] for p in payload["pairs"]} == {"+", "-"}


@pytest.mark.parametrize(
    "rule, name", [(glue, "B2"), (glue, "dia2:2:3"), (glue_torus, "K3"), (glue_conjectural, "C2")]
)
def test_a_gluing_on_default_labels_reloads_equal(rule, name):
    # the spec resolves w^2 when made, so the loader's w_sq gives an equal spec
    side = catalog(name)
    gs = rule(GluingSpec(side, side))
    back = glued_from_json(json.loads(json.dumps(glued_to_json(gs))))
    assert back.spec == gs.spec and back == gs
    assert back.spec.w_square == gs.spec.w_square == gs.spec.w1.square + gs.spec.w2.square


# the benchmark's glue_fit gluings of genus <= 4: (name, rule, left, right, probe, labels)
BENCH_GLUINGS = (
    [(f"B{g}", glue, f"B{g}", f"B{g}", ("T1", "T1"), {}) for g in (2, 3, 4)]
    + [
        (f"dia2:{gp}:{g}", glue, f"dia2:{gp}:{g}", f"dia2:{gp}:{g}", ("T", "T"), {})
        for g in (2, 3, 4)
        for gp in range(1, g)
    ]
    + [(f"dia2:1:{g}+B{g}", glue, f"dia2:1:{g}", f"B{g}", ("T", "T1"), {}) for g in (2, 3)]
    + [(f"{n}/F", glue_torus, n, n, ("sigma", "sigma"), {}) for n in ("K3", "S4")]
    + [
        (f"{n}/T1", glue_torus, n, n, ("sigma", "sigma"),
         dict(left_surface="T1", right_surface="T1", left_w="sigma", right_w="sigma"))
        for n in ("B3", "B4")
    ]
    + [("C2", glue_conjectural, "C2", "C2", ("Shat2", "Shat2"), {})]
)


def test_gluings_match_bench_digests():
    """Every g <= 4 glued and evaluated digest the benchmark records is
    reproduced in process, in the byte formats of its ``glued_bytes`` and
    ``poly_bytes``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "digests.json"
    recorded = json.loads(path.read_text())
    assert len(BENCH_GLUINGS) == 16
    for name, rule, left, right, probe, labels in BENCH_GLUINGS:
        gs = rule(GluingSpec(catalog(left), catalog(right), **labels))
        rows = [[j, k, sector, str(c)] for j, k, sector, c in gs.entries]
        glued = json.dumps([gs.kind, rows]).encode()
        assert hashlib.sha256(glued).hexdigest() == recorded[f"glued/{name}"], name
        lat1, lat2 = gs.spec.left.lattice, gs.spec.right.lattice
        poly = eval_glued(gs, gs.spec.split_class(lat1.cls(probe[0]), lat2.cls(probe[1])))
        q = None if poly.q_square is None else str(poly.q_square)
        terms = [[lam.to_token(), c.to_token()] for lam, c in poly.terms]
        evaluated = json.dumps([poly.marker, terms, q]).encode()
        assert hashlib.sha256(evaluated).hexdigest() == recorded[f"eval/{name}"], name
