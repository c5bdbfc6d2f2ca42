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
"""

from collections import defaultdict
from fractions import Fraction

from hypothesis import example, given, strategies as st

from donaldson.constructions import CatalogEntry, blow_up
from donaldson.exppoly import ExpPolynomial
from donaldson.gluing import (
    GluedSeries, GluingSpec, eval_glued, glue, glue_conjectural, glue_torus, rshift
)
from donaldson.lattice import HClass, MarkedSurface
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
