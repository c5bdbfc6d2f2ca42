"""Gluings of two random series, each checked against a brute reference: the
glued entries against scale * a_j * b_k per pair of classes, and
``eval_glued`` against a per-entry ``Fraction`` sum at D and at D moved by an
odd multiple of 1/6 of the surface.  Each half of D has its own denominator
from 1 to 5 on its coordinates other than f, so the common denominator of D
reaches 60.

Each side is a random series of ``test_random_series`` (the lattice H +
<-1>^m, S = e, w = f), with coefficients whose denominators include 3, 5 and 6, so the
glued entries need a common denominator that none of them has alone.
Genus g >= 2 glues by the standard rule and by the conjectural one, whose
evaluation has no surface shift; genus 1, where every level is 0, by the
torus rule.

On the same sides, two checks that need no reference: blowing up the left
side commutes with every rule, and a rule emits its entries already in
(sector +, 0, -; left; right) order, which a glued series keeps as given.

With D's halves over 4 and 9 (so m is a multiple of 36) and r an int, a
Fraction, negative or 0, ``eval_glued`` is checked against the same
per-entry sum, which pairs D itself, and ``rshift`` against
(D1 + rS1, D2 - rS2) by class arithmetic.  With D drawn whole, each
coordinate over its own denominator (all of them 1 in some draws, so m = 1)
and of either sign, on these sides and on catalog doubles whose surface
has no zero coordinate, three more: ``eval_glued`` is the per-entry sum
through the checked ``ExpPolynomial``, ``rshift``'s halves are the checked
``HClass`` of the same numbers with the same coordinate types (an int
wherever the value is integral) and its int form the checked split class's,
and the evaluation is the same at D and at D moved.  Each refusal of the two keeps its
exception type, message and order: a bad r, a half on a foreign lattice, a
half whose S-pairing is not the declared S.D.
"""

from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from donaldson.constructions import CatalogEntry, blow_up, catalog
from donaldson.exppoly import ExpPolynomial
from donaldson.gluing import (
    GluedSeries, GluingError, GluingSpec, SplitClass, eval_glued, glue, glue_conjectural,
    glue_torus, rshift,
)
from donaldson.lattice import HClass, LatticeError, LatticeMismatch, MarkedSurface
from test_random_series import PROFILE, brute_dot, hyperbolic_plus_minus_ones, series_of, shaped

# 1/3, -5/6 and the like: the glued coefficients are not dyadic
COEFF = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 5, 6)))


@st.composite
def sides(draw):
    g = draw(st.integers(1, 3))
    out = []
    for _ in range(2):
        m = draw(st.integers(1, 3))
        entries = draw(shaped(m, g, COEFF)[0])
        q = draw(st.integers(1, 5))
        d = (Fraction(draw(st.integers(-3, 3)), q), None)
        d += tuple(Fraction(draw(st.integers(-2, 2)), q) for _ in range(m))
        out.append((m, entries, d))
    d_sigma = draw(st.integers(-2, 2))
    # w^2 - w1^2 - w2^2 is 0 or 2: epsilon is -1 for the second at even g
    w_square = draw(st.sampled_from((0, 2)))
    r = Fraction(draw(st.integers(-9, 9)) * 2 + 1, 6)
    return g, out, d_sigma, w_square, r


def entry_of(name, m, entries, g):
    lat = hyperbolic_plus_minus_ones(m)
    surface = MarkedSurface(lat.basis_vector(0), genus=g)
    return CatalogEntry(name, series_of(lat, entries), (("S", surface),), ("f",), "S")


def brute_twisted(entry):
    """(K.S, twisted coefficient) per series entry, in the series' order, for
    w = f (w^2 = 0): the sign is (-1)^{(K.w)/2}."""
    lat = entry.lattice
    f, e = (0, 1) + (0,) * (lat.rank - 2), (1, 0) + (0,) * (lat.rank - 2)
    return [
        (brute_dot(lat, k.coords, e), (-1) ** (brute_dot(lat, k.coords, f) // 2 % 2) * c)
        for k, c in entry.series.entries
    ]


def brute_glue(spec, g, epsilon, top_scale):
    """{(j, k, sector): coefficient} from the rule's table, one pair at a time;
    ``top_scale`` is the genus >= 2 rule's 2^{7g-9} or 2^{-3g+5}."""
    if g == 1:
        rows = ((+1, Fraction(-1, 4), 0), (-1, Fraction(-1, 4), 0), (0, Fraction(-1, 2), 0))
    else:
        top = 2 * g - 2
        rows = ((+1, -top_scale, top), (-1, (-1) ** g * top_scale, -top))
    out = {}
    for sector, scale, level in rows:
        for j, (lvl_a, a) in enumerate(brute_twisted(spec.left)):
            for k, (lvl_b, b) in enumerate(brute_twisted(spec.right)):
                if lvl_a == lvl_b == level:
                    out[j, k, sector] = epsilon * scale * a * b
    return out


def rules(g):
    """(rule, scale) per rule of genus g; the scale is ``brute_glue``'s."""
    if g == 1:
        return ((glue_torus, None),)
    return ((glue, 2 ** (7 * g - 9)), (glue_conjectural, Fraction(1, 2 ** (3 * g - 5))))


def spec_and_class(case, left=None):
    """The case's spec and split class D; ``left`` replaces the left side, and
    D1 takes 0 on each coordinate that ``left`` adds."""
    g, ((m1, entries1, d1), (m2, entries2, d2)), d_sigma, w_square, _ = case
    x1 = entry_of("X1", m1, entries1, g)
    if left is not None:
        x1 = left(x1)
    spec = GluingSpec(x1, entry_of("X2", m2, entries2, g), w_square=w_square)
    # D.S is D's f-coordinate on each side
    pad = (0,) * (spec.left.lattice.rank - 2 - m1)
    return spec, spec.split_class(
        HClass(spec.left.lattice, (d1[0], d_sigma) + d1[2:] + pad),
        HClass(spec.right.lattice, (d2[0], d_sigma) + d2[2:]),
    )


def per_entry_eval(gs, d):
    """One Fraction add per entry into a dict keyed by the exponent."""
    k_d1 = {j: gs.left_class(j).dot(d.d1) for j in {e[0] for e in gs.entries}}
    l_d2 = {k: gs.right_class(k).dot(d.d2) for k in {e[1] for e in gs.entries}}
    shift = 0 if gs.kind == "stabilized" else 2 * d.sigma_pairing
    sums = defaultdict(Fraction)
    for j, k, sector, coeff in gs.entries:
        sums[k_d1[j] + l_d2[k] + sector * shift] += coeff
    return ExpPolynomial("+Q/2", tuple(sums.items()), d.square)


# halves over 4 and 5, moved by 1/6: D's common denominator is 60
HALVES_OVER_4_AND_5 = (
    2,
    [
        (1, {(0, 2, 1): Fraction(1, 3), (2, 2, -1): Fraction(-5, 6), (0, -2, 1): Fraction(1, 2)},
         (Fraction(1, 4), None, Fraction(-1, 4))),
        (2, {(0, 2, 1, -1): Fraction(2, 5), (0, -2, 3, 1): Fraction(1)},
         (Fraction(2, 5), None, Fraction(1, 5), Fraction(-2, 5))),
    ],
    1,
    0,
    Fraction(1, 6),
)


@PROFILE
@given(sides())
@example(HALVES_OVER_4_AND_5)
def test_random_gluings_match_the_per_pair_and_per_entry_references(case):
    g, _, _, w_square, r = case
    spec, d = spec_and_class(case)
    epsilon = -1 if (g - 1) * (w_square // 2) % 2 else 1
    assert spec.epsilon == epsilon
    for rule, scale in rules(g):
        gs = rule(spec)
        brute = brute_glue(spec, g, epsilon, scale)
        assert len(gs.entries) == len(brute)
        assert {(j, k, s): c for j, k, s, c in gs.entries} == brute
        for probe in (d, rshift(spec, d, r)):
            assert eval_glued(gs, probe) == per_entry_eval(gs, probe)


@PROFILE
@given(sides())
@example(HALVES_OVER_4_AND_5)
def test_blowing_up_the_left_side_commutes_with_every_rule(case):
    # the new E{m+1} has E.S = E.w = 0 and E^2 = -1: at (D1 + rE, D2) the
    # evaluation gains the factor (e^{rt} + e^{-rt}) / 2 and D^2 drops by r^2
    g, ((m1, _, _), _), _, _, r = case
    spec, d = spec_and_class(case)
    hat_spec, hat_d = spec_and_class(case, left=blow_up)
    e = hat_spec.left.lattice.cls(f"E{m1 + 1}")
    assert e.dot(hat_spec.surface1.cls) == e.dot(hat_spec.w1) == 0
    half = Fraction(1, 2)
    for s in (r, 2):
        moved = hat_spec.split_class(hat_d.d1 + s * e, hat_d.d2)
        factor = ExpPolynomial("none", ((s, half), (-s, half)))
        for rule, _ in rules(g):
            base = eval_glued(rule(spec), d)
            expected = ExpPolynomial(base.marker, base.terms, base.q_square - s * s) * factor
            assert eval_glued(rule(hat_spec), moved) == expected


@PROFILE
@given(sides())
@example(HALVES_OVER_4_AND_5)
def test_rules_emit_sorted_entries_and_a_glued_series_keeps_any_order(case):
    g = case[0]
    spec, d = spec_and_class(case)
    for rule, _ in rules(g):
        gs = rule(spec)
        assert list(gs.entries) == sorted(gs.entries, key=lambda e: (-e[2], e[0], e[1]))
        reordered = tuple(reversed(gs.entries))
        copy = GluedSeries(spec, gs.kind, reordered)
        assert copy.entries == reordered
        assert eval_glued(copy, d) == eval_glued(gs, d)


# r: ints and Fractions, negatives and 0
SHIFTS = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=7))


@st.composite
def halves_over_4_and_9(draw):
    """A case of ``sides`` whose halves take the e-coordinates a1/4 and a2/9,
    which S does not see: D1's denominator is a multiple of 4 and never of 9,
    D2's a multiple of 9, so D's common denominator is a multiple of 36.  And
    a shift r."""
    case = draw(sides())
    a1 = draw(st.integers(-4, 3).map(lambda x: 2 * x + 1))
    a2 = draw(st.integers(-4, 4).filter(lambda x: x % 3))
    return case, (Fraction(a1, 4), Fraction(a2, 9)), draw(SHIFTS)


def rescaled(case, tops):
    """The case's spec and D, each half's e-coordinate replaced by its top."""
    spec, d = spec_and_class(case)
    halves = (HClass(h.lattice, (top,) + h.coords[1:]) for h, top in zip((d.d1, d.d2), tops))
    return spec, spec.split_class(*halves)


def reference_shift(spec, d, r):
    """(D1 + rS1, D2 - rS2) by class arithmetic."""
    return SplitClass(d.d1 + r * spec.surface1.cls, d.d2 - r * spec.surface2.cls, d.sigma_pairing)


@PROFILE
@given(halves_over_4_and_9())
@example((HALVES_OVER_4_AND_5, (Fraction(1, 4), Fraction(2, 9)), 0))
@example((HALVES_OVER_4_AND_5, (Fraction(-3, 4), Fraction(-1, 9)), -3))
@example((HALVES_OVER_4_AND_5, (Fraction(5, 4), Fraction(4, 9)), Fraction(-5, 7)))
def test_eval_glued_and_rshift_match_the_references_at_halves_of_different_denominators(drawn):
    case, tops, r = drawn
    spec, d = rescaled(case, tops)
    moved = rshift(spec, d, r)
    assert moved == reference_shift(spec, d, r)
    for rule, _ in rules(case[0]):
        gs = rule(spec)
        for probe in (d, moved):
            assert eval_glued(gs, probe) == per_entry_eval(gs, probe)


# per coordinate of a drawn D, a denominator: 1 alone in some draws, so m = 1
DENOMINATORS = st.sampled_from((1, 2, 3, 4, 5, 6, 9))


def drawn_class(draw, spec, probes, integral):
    """A split class of ``spec``: per half, a coordinate n/q in [-6, 6] per
    basis vector, moved by a multiple of the side's probe A (A.S = 1) so
    that both halves pair with their surface as a drawn S.D."""
    def number():
        return Fraction(draw(st.integers(-6, 6)), 1 if integral else draw(DENOMINATORS))

    s_dot, halves = number(), []
    for lat, surface, probe in zip((spec.left.lattice, spec.right.lattice),
                                   (spec.surface1, spec.surface2), probes):
        a = lat.cls(probe)
        assert a.dot(surface.cls) == 1
        half = HClass(lat, [number() for _ in range(lat.rank)])
        halves.append(half + (s_dot - half.dot(surface.cls)) * a)
    return spec.split_class(*halves)


def check_evaluation(spec, gluings, d, r):
    """``rshift`` against the checked classes of its numbers, and each
    gluing's evaluation against the per-entry sum at D and at D moved, and
    at D against D moved."""
    moved = rshift(spec, d, r)
    twins = [HClass(half.lattice, [c + sign * r * x for c, x in zip(half.coords, s.cls.coords)])
             for half, s, sign in ((d.d1, spec.surface1, 1), (d.d2, spec.surface2, -1))]
    for half, twin in zip((moved.d1, moved.d2), twins):
        assert half == twin
        assert [*map(type, half.coords)] == [*map(type, twin.coords)]
    checked = SplitClass(*twins, d.sigma_pairing)
    assert moved == checked and moved._int_form == checked._int_form
    for gs in gluings:
        at_d = eval_glued(gs, d)
        assert at_d == per_entry_eval(gs, d)
        assert eval_glued(gs, moved) == per_entry_eval(gs, moved) == at_d


@PROFILE
@given(sides(), st.booleans(), SHIFTS, st.data())
@example(HALVES_OVER_4_AND_5, False, Fraction(-1, 6), None)
def test_eval_glued_and_rshift_match_their_references_at_drawn_split_classes(
    case, integral, r, data
):
    spec, d = spec_and_class(case)
    if data is not None:
        d = drawn_class(data.draw, spec, ("f", "f"), integral)
    check_evaluation(spec, [rule(spec) for rule, _ in rules(case[0])], d, r)


# (entry, surface, w, probe A with A.S = 1, rules): standard, stabilized and torus
# gluings of catalog doubles; B2's surface (2, 1, -1, -1) moves every coordinate
CATALOG_DOUBLES = {
    "B2": ("B2", None, None, "T1", (glue, glue_conjectural)),
    "C2": ("C2", None, None, "Shat2", (glue_conjectural,)),
    "B3/T1": ("B3", "T1", "sigma", "sigma", (glue_torus,)),
    "K3/F": ("K3", None, None, "sigma", (glue_torus,)),
}


@pytest.mark.parametrize("name", CATALOG_DOUBLES)
@PROFILE
@given(st.booleans(), SHIFTS, st.data())
def test_catalog_doubles_evaluate_as_their_references_at_drawn_split_classes(
    name, integral, r, data
):
    entry, surface, w, probe, gluers = CATALOG_DOUBLES[name]
    spec = GluingSpec(catalog(entry), catalog(entry), surface, surface, w, w)
    d = drawn_class(data.draw, spec, (probe, probe), integral)
    check_evaluation(spec, [rule(spec) for rule in gluers], d, r)


def test_a_cancelled_exponent_leaves_no_term():
    # B2's double has one + and one - entry, with coefficients -s and s: at
    # D = 0 both exponents are 0 and the sum is zero, which leaves no term
    spec = GluingSpec(catalog("B2"), catalog("B2"))
    gs = glue(spec)
    zero = spec.left.lattice.zero()
    d = spec.split_class(zero, zero)
    assert sorted(c for _, _, _, c in gs.entries) == [-2, 2]
    assert eval_glued(gs, d) == per_entry_eval(gs, d) == ExpPolynomial("+Q/2", (), 0)
    assert eval_glued(gs, d).terms == ()


def refused(call, kind, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (kind, message)


def test_refusals_keep_their_types_messages_and_order():
    spec, d = spec_and_class(HALVES_OVER_4_AND_5)
    gs, s = glue(spec), d.sigma_pairing
    foreign = catalog("K3").lattice.zero()
    off_level = HClass(d.d2.lattice, (d.d2.coords[0], s + Fraction(1, 3)) + d.d2.coords[2:])
    for r, message in (
        (True, "a bool is not a number: True"),
        (0.5, "non-integral float 0.5; give an int or a 'p/q' string"),
        ("1e3", "exponent notation '1e3'; give an int or a 'p/q' string"),
    ):
        refused(lambda: rshift(spec, d, r), LatticeError, message)
        # a bad r before a foreign half
        refused(lambda: rshift(spec, SplitClass(foreign, d.d2, s), r), LatticeError, message)
    other = "cannot add classes on different lattices"
    refused(lambda: rshift(spec, SplitClass(foreign, d.d2, s), 1), LatticeMismatch, other)
    refused(lambda: rshift(spec, SplitClass(d.d1, foreign, s), 1), LatticeMismatch, other)
    wrong = "split class halves on the wrong lattices"
    refused(lambda: eval_glued(gs, SplitClass(foreign, d.d2, s)), LatticeMismatch, wrong)
    refused(lambda: eval_glued(gs, SplitClass(d.d1, foreign, s)), LatticeMismatch, wrong)
    refused(lambda: eval_glued(gs, SplitClass(d.d1, d.d2, s + 1)), GluingError,
            f"D1.S = {s} disagrees with the declared S.D = {s + 1}")
    refused(lambda: eval_glued(gs, SplitClass(d.d1, off_level, s)), GluingError,
            f"D2.S = {s + Fraction(1, 3)} disagrees with the declared S.D = {s}")
    # each half is checked whole, D1 first
    refused(lambda: eval_glued(gs, SplitClass(d.d1, foreign, s + 1)), GluingError,
            f"D1.S = {s} disagrees with the declared S.D = {s + 1}")
    refused(lambda: eval_glued(gs, SplitClass(foreign, off_level, s)), LatticeMismatch, wrong)
