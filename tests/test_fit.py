import re
from fractions import Fraction

import pytest

from donaldson.constructions import catalog
from donaldson.exppoly import ExpPolynomial
from donaldson.fit import (
    BasisCoordinates,
    FitError,
    InsufficientData,
    basis_coordinates,
    fit_diagonal,
    p_of_alpha,
    predict_glued,
    zero_coordinates,
)
from donaldson.gaussian import GaussianRational
from donaldson.gluing import GluingSpec, eval_glued, glue
from donaldson.lattice import MarkedSurface
from donaldson.series import DonaldsonSeries


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def bg_coords(g, probe="T1"):
    bg = catalog(f"B{g}")
    return basis_coordinates(
        bg.series, bg.w_class("T1"), bg.surface("Sigma_g"), bg.lattice.cls(probe)
    )


def cg_coords(g):
    cg = catalog(f"C{g}")
    return basis_coordinates(
        cg.series, cg.w_class("Shat2"), cg.surface("Sigma_g"), cg.lattice.cls("Shat2")
    )


def dia2_coords(gp, g):
    side = catalog(f"dia2:{gp}:{g}")
    return basis_coordinates(
        side.series, side.w_class("T"), side.surface("Sigma1"), side.lattice.cls("T")
    )


def dia2_triple(gp, g):
    bc = dia2_coords(gp, g)
    return (bc, bc, zero_coordinates(g))


def full_m_map(g):
    return fit_diagonal(
        [(bg_coords(g), bg_coords(g), cg_coords(g)), dia2_triple(g - 1, g)]
    )


# -- the p-indexing ---------------------------------------------------------------------


def test_p_of_alpha_ordering():
    assert [p_of_alpha(a, 3) for a in range(1, 6)] == [2, -2, 1, -1, 0]
    assert [p_of_alpha(a, 2) for a in range(1, 4)] == [1, -1, 0]
    with pytest.raises(FitError):
        p_of_alpha(6, 3)


# -- coordinates --------------------------------------------------------------------------


@pytest.mark.parametrize("g", (2, 3, 4))
def test_bg_top_coordinate_is_single_term(g):
    # the probe pairs to zero with every basic class: one bare term at exponent 0
    coeff = Fraction(1, 2 ** (2 * g - 2))
    assert bg_coords(g).plain(1) == ExpPolynomial("none", ((gr(0), gr(coeff)),))


def test_k3_with_genus_g_surface_has_only_level_zero():
    bc = dia2_coords(1, 3)
    for alpha in range(1, 6):
        if p_of_alpha(alpha, 3) == 0:
            assert not bc.plain(alpha).is_zero
        else:
            assert bc.plain(alpha).is_zero


def test_dia2_high_levels_vanish():
    bc = dia2_coords(2, 4)
    for alpha in range(1, 8):
        p = p_of_alpha(alpha, 4)
        if abs(p) > 1:
            assert bc.plain(alpha).is_zero
        else:
            assert not bc.plain(alpha).is_zero


@pytest.mark.parametrize("g", (2, 3))
def test_plain_refuses_alpha_out_of_range(g):
    bc = bg_coords(g)
    for alpha in (0, 2 * g):
        with pytest.raises(FitError, match="out of range"):
            bc.plain(alpha)


@pytest.mark.parametrize("alpha", [1.0, True, "1"])
def test_an_alpha_that_is_not_an_int_is_refused(alpha):
    bc = bg_coords(2)
    message = f"^alpha must be an int, got {re.escape(repr(alpha))}$"
    with pytest.raises(FitError, match=message):
        p_of_alpha(alpha, 2)
    with pytest.raises(FitError, match=message):
        bc.plain(alpha)
    with pytest.raises(FitError, match=message):
        fit_diagonal([(bc, bc, cg_coords(2))], alphas=[alpha])


@pytest.mark.parametrize("genus", [2.0, True, "2"])
def test_a_genus_that_is_not_an_int_is_refused(genus):
    message = f"^genus must be an int, got {re.escape(repr(genus))}$"
    with pytest.raises(FitError, match=message):
        p_of_alpha(1, genus)
    with pytest.raises(FitError, match=message):
        zero_coordinates(genus)
    with pytest.raises(FitError, match=message):
        BasisCoordinates(genus, 0, (ExpPolynomial(),) * 3)


def test_marked_coordinate_is_refused():
    coords = (ExpPolynomial("+Q/2", ((0, 1),), 0), ExpPolynomial(), ExpPolynomial())
    with pytest.raises(FitError, match="no marker"):
        BasisCoordinates(2, 0, coords)
    with pytest.raises(FitError, match="^coordinate vector has the wrong length$"):
        BasisCoordinates(2, 0, coords[1:])


def test_coordinates_need_unit_pairing_probe():
    bg = catalog("B2")
    with pytest.raises(FitError):
        basis_coordinates(
            bg.series, bg.w_class("T1"), bg.surface("Sigma_g"),
            bg.lattice.cls("Sigma_g"),
        )


def test_coordinates_reject_adjunction_violators():
    bg = catalog("B2")
    bad_class = 3 * (bg.lattice.cls("E1") + bg.lattice.cls("E2"))
    bad = DonaldsonSeries.on(bg.lattice, [(bad_class, Fraction(1)), (-bad_class, Fraction(1))])
    with pytest.raises(FitError):
        basis_coordinates(bad, bg.w_class("T1"), bg.surface("Sigma_g"), bg.lattice.cls("T1"))


def test_coordinates_refuse_a_class_beyond_the_adjunction_bound_of_the_surface():
    # B3's genus-3 surface class, declared as a genus-2 surface: K.S = -4 is out of range
    bg = catalog("B3")
    s = MarkedSurface(bg.lattice.cls("Sigma_g"), genus=2)
    with pytest.raises(FitError) as exc:
        basis_coordinates(bg.series, bg.w_class("T1"), s, bg.lattice.cls("T1"))
    assert str(exc.value) == (
        "class <-1,0,-1,-1,-1>@B3 pairs -4 with the surface, beyond the adjunction bound 2"
    )


# -- fitting ----------------------------------------------------------------------------------


@pytest.mark.parametrize("g", (2, 3, 4, 5))
def test_fit_recovers_closed_forms(g):
    fitted = fit_diagonal([(bg_coords(g), bg_coords(g), cg_coords(g))], alphas=[1, 2])
    scale = 2 ** (7 * g - 9)
    assert fitted[1] == ExpPolynomial("none", ((gr(2), gr(-scale)),))
    assert fitted[2] == ExpPolynomial("none", ((gr(-2), gr((-1) ** g * scale)),))


@pytest.mark.parametrize("g", (2, 3, 4, 5))
def test_fit_vanishing_high_diagonal(g):
    triples = [dia2_triple(gp, g) for gp in range(1, g)]
    fitted = fit_diagonal(triples, alphas=list(range(3, 2 * g)))
    assert all(m.is_zero for m in fitted.values())


def test_fit_insufficient_data():
    # the closed-form reference alone cannot see the middle diagonal of g=3:
    # the probe pairs to zero with every class, so middle coordinates cancel
    with pytest.raises(InsufficientData):
        fit_diagonal([(bg_coords(3), bg_coords(3), cg_coords(3))], alphas=[5])
    with pytest.raises(InsufficientData, match="^no reference triples given$"):
        fit_diagonal([])


def test_fit_degenerate_reference():
    g = 3
    zc = zero_coordinates(g)
    with pytest.raises(InsufficientData):
        fit_diagonal([(zc, zc, zc)], alphas=[1])


def test_fit_independence_of_reference():
    # alpha >= 3 zeros obtained from two distinct vanishing references agree
    fitted_a = fit_diagonal([dia2_triple(1, 3)], alphas=[5])
    fitted_b = fit_diagonal([dia2_triple(2, 3)], alphas=[5])
    assert fitted_a[5] == fitted_b[5]


def test_fit_detects_inconsistent_references():
    g = 2
    bc = bg_coords(g)
    good = cg_coords(g)
    # scale the glued side: same denominators, different quotient
    bad = BasisCoordinates(
        good.genus, good.d_square,
        tuple(c.scale(3) for c in good.coords),
    )
    with pytest.raises(FitError):
        fit_diagonal([(bc, bc, good), (bc, bc, bad)], alphas=[1])


def test_fit_division_is_unique():
    g = 2
    fitted = fit_diagonal([(bg_coords(g), bg_coords(g), cg_coords(g))], alphas=[1])
    lhs = cg_coords(g).plain(1)
    rhs = fitted[1] * (bg_coords(g).plain(1) * bg_coords(g).plain(1))
    assert lhs == rhs


def test_mixed_genus_references_rejected():
    with pytest.raises(FitError):
        fit_diagonal([(bg_coords(2), bg_coords(3), cg_coords(2))], alphas=[1])
    with pytest.raises(FitError, match="^coordinate vectors have mismatched index sets$"):
        predict_glued(bg_coords(2), bg_coords(3), full_m_map(2))


# -- prediction vs direct gluing ---------------------------------------------------------------


@pytest.mark.parametrize("g", (2, 3, 4))
def test_predict_matches_eval_on_bg_doubles(g):
    m = full_m_map(g)
    spec = GluingSpec(left=catalog(f"B{g}"), right=catalog(f"B{g}"))
    gs = glue(spec)
    lat = spec.left.lattice
    for la in ("T1", "E1"):
        for rb in ("T1", "E1"):
            d = spec.split_class(lat.cls(la), lat.cls(rb))
            assert predict_glued(bg_coords(g, la), bg_coords(g, rb), m) == eval_glued(gs, d)


@pytest.mark.parametrize("gp,g", [(1, 2), (1, 3), (2, 3)])
def test_predict_vanishes_on_dia2_doubles(gp, g):
    m = full_m_map(g)
    side = catalog(f"dia2:{gp}:{g}")
    spec = GluingSpec(left=side, right=side)
    gs = glue(spec)
    d = spec.split_class(side.lattice.cls("T"), side.lattice.cls("T"))
    bc = dia2_coords(gp, g)
    prediction = predict_glued(bc, bc, m)
    assert prediction.is_zero
    assert prediction == eval_glued(gs, d)


def test_predict_mixed_sides():
    g = 2
    m = full_m_map(g)
    left = catalog(f"dia2:1:{g}")
    right = catalog(f"B{g}")
    spec = GluingSpec(left=left, right=right)
    gs = glue(spec)
    d = spec.split_class(left.lattice.cls("T"), right.lattice.cls("T1"))
    bc_left = dia2_coords(1, g)
    bc_right = bg_coords(g)
    assert predict_glued(bc_left, bc_right, m) == eval_glued(gs, d)


def test_predict_with_zero_map():
    g = 2
    zero_map = {a: ExpPolynomial() for a in range(1, 2 * g)}
    total = predict_glued(bg_coords(g), bg_coords(g), zero_map)
    assert total.is_zero and total.marker == "+Q/2"
    del zero_map[2]
    with pytest.raises(FitError, match="^missing diagonal entry for alpha=2$"):
        predict_glued(bg_coords(g), bg_coords(g), zero_map)


@pytest.mark.parametrize("order", (0, 1, 5, 12))
def test_predict_and_eval_expansions_agree(order):
    # two independent computation paths for the same series must agree
    # term-wise and hence on every truncated expansion of the marker
    g = 3
    m = full_m_map(g)
    spec = GluingSpec(left=catalog(f"B{g}"), right=catalog(f"B{g}"))
    gs = glue(spec)
    lat = spec.left.lattice
    d = spec.split_class(lat.cls("E1"), lat.cls("T1"))
    direct = eval_glued(gs, d)
    predicted = predict_glued(bg_coords(g, "E1"), bg_coords(g, "T1"), m)
    assert direct.expand(order) == predicted.expand(order)

