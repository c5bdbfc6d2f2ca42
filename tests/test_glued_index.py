"""A gluing built once and read cheaply.

A rule's output is made through the trusted door ``lattice._trusted`` with
the int column ``_glued`` builds beside it (one int c * L per entry, in
entry order), and is checked here against the checked constructor on every
gluing of the benchmark's glue_fit workload.  ``coefficient_match`` answers
from one index per gluing, the cached ``_match``, checked here against a
per-call reference that groups the entries' own coefficients, and
``glued_to_json`` formats each distinct coefficient once, checked against
per-entry tokens.
"""

import dataclasses
import json
from fractions import Fraction
from math import lcm

import pytest

from donaldson.constructions import blow_up, catalog
from donaldson.gluing import (
    GluedSeries,
    GluingError,
    GluingSpec,
    _rows,
    coefficient_match,
    eval_glued,
    glue,
    glue_conjectural,
    glue_torus,
    glued_from_json,
    glued_to_json,
    rshift,
)
from donaldson.lattice import HClass, LatticeMismatch, _exact, same_lattice

TORUS_LABELS = dict(left_surface="T1", right_surface="T1", left_w="sigma", right_w="sigma")

# every gluing glue_fit makes: (name, rule, left, right, probe labels, spec labels)
GLUE_FIT = (
    [(f"B{g}", glue, f"B{g}", f"B{g}", ("T1", "T1"), {}) for g in range(2, 8)]
    + [
        (f"dia2:{gp}:{g}", glue, f"dia2:{gp}:{g}", f"dia2:{gp}:{g}", ("T", "T"), {})
        for g in range(2, 6)
        for gp in range(1, g)
    ]
    + [(f"dia2:1:{g}+B{g}", glue, f"dia2:1:{g}", f"B{g}", ("T", "T1"), {}) for g in (2, 3)]
    + [(f"{n}/F", glue_torus, n, n, ("sigma", "sigma"), {}) for n in ("K3", "S4", "S8")]
    + [(f"{n}/T1", glue_torus, n, n, ("sigma", "sigma"), TORUS_LABELS) for n in ("B3", "B4")]
    + [("C2", glue_conjectural, "C2", "C2", ("Shat2", "Shat2"), {})]
)


def made(case):
    _, rule, left, right, _, labels = case
    return rule(GluingSpec(catalog(left), catalog(right), **labels))


def probe(gs, labels):
    spec = gs.spec
    return spec.split_class(spec.left.lattice.cls(labels[0]), spec.right.lattice.cls(labels[1]))


def first_pair(gs):
    return gs.left_class(0), gs.right_class(0)


def all_pairs(gs):
    return [(K, L) for K in gs.spec.left.series.classes() for L in gs.spec.right.series.classes()]


# -- the trusted path ------------------------------------------------------------------


def test_glue_fit_makes_every_kind_of_gluing():
    assert len(GLUE_FIT) == 24
    assert {made(case).kind for case in GLUE_FIT} == {"standard", "torus", "stabilized"}
    assert len(made(GLUE_FIT[-2]).entries) == 6912  # B4/T1


@pytest.mark.parametrize("case", GLUE_FIT, ids=[c[0] for c in GLUE_FIT])
def test_a_rule_output_equals_its_checked_copy(case):
    gs = made(case)
    checked = GluedSeries(gs.spec, gs.kind, gs.entries)
    assert type(gs.entries) is tuple and gs.entries == checked.entries
    assert gs == checked and hash(gs) == hash(checked) and repr(gs) == repr(checked)
    assert gs._int_form == checked._int_form
    # L is the lcm of the reduced denominators, and ints[i] is c_i L
    den, ints = gs._int_form
    assert den == lcm(*(c.denominator for *_, c in gs.entries))
    assert type(ints) is tuple and len(ints) == len(gs.entries)
    assert all(type(n) is int and n == c * den for n, (*_, c) in zip(ints, gs.entries))
    d = probe(gs, case[4])
    moved = rshift(gs.spec, d, Fraction(5, 6))
    assert not moved.d1.is_integral
    for split in (d, moved):
        assert eval_glued(gs, split) == eval_glued(checked, split)
    if gs.kind == "standard":
        # an answer is its pair's entry in the index, or (0, 0): equal indices
        # answer alike on every pair, which B6 and B7 (0.1 and 0.6 M) check alone
        assert coefficient_match(gs, *first_pair(gs)) == coefficient_match(checked, *first_pair(gs))
        assert gs._match == checked._match
        for K, L in all_pairs(gs) if len(gs.spec.left.series.rows) < 320 else ():
            assert coefficient_match(gs, K, L) == coefficient_match(checked, K, L)


REVERSIBLE = [case for case in GLUE_FIT if case[0] in ("B4", "B4/T1")]


@pytest.mark.parametrize("case", REVERSIBLE, ids=[c[0] for c in REVERSIBLE])
def test_a_copy_with_its_entries_reversed_evaluates_and_matches_alike(case):
    gs = made(case)
    backwards = GluedSeries(gs.spec, gs.kind, gs.entries[::-1])
    den, ints = gs._int_form
    assert backwards._int_form == (den, ints[::-1]) and len(set(ints)) > 1
    d = probe(gs, case[4])
    for split in (d, rshift(gs.spec, d, Fraction(5, 6)), rshift(gs.spec, d, 2)):
        assert eval_glued(backwards, split) == eval_glued(gs, split)
    if gs.kind == "standard":
        assert backwards._match == gs._match
        for K, L in all_pairs(gs):
            assert coefficient_match(backwards, K, L) == coefficient_match(gs, K, L)


def test_a_rule_never_walks_its_own_output_and_every_other_maker_does(monkeypatch):
    walked = []
    walk = GluedSeries.__post_init__

    def counted(self):
        walked.append(self.kind)
        walk(self)

    monkeypatch.setattr(GluedSeries, "__post_init__", counted)
    b3, k3, c2 = catalog("B3"), catalog("K3"), catalog("C2")
    outputs = [
        glue(GluingSpec(b3, b3)),
        glue_torus(GluingSpec(k3, k3)),
        glue_torus(GluingSpec(b3, b3, **TORUS_LABELS)),
        glue_conjectural(GluingSpec(c2, c2)),
    ]
    assert walked == [] and all(gs.entries for gs in outputs)
    for gs in outputs:
        reloaded = glued_from_json(json.loads(json.dumps(glued_to_json(gs))))
        assert walked[-1] == gs.kind and reloaded.entries == gs.entries
        copy = dataclasses.replace(gs)
        assert walked[-1] == gs.kind and copy == gs and copy._int_form == gs._int_form
    assert len(walked) == 2 * len(outputs)


# -- coefficient_match from one index ------------------------------------------------


def reference_match(gs, k_restrict, l_restrict):
    """``coefficient_match`` as it read both split tables and the rule per call,
    grouping the entries' own coefficients, not ``_int_form``."""
    if gs.kind != "standard":
        raise GluingError("coefficient matching is defined for standard gluings")
    spec = gs.spec
    left, right = spec.left.series, spec.right.series
    if not same_lattice(k_restrict.lattice, left.lattice):
        raise LatticeMismatch("K restriction on a lattice other than the left side's")
    if not same_lattice(l_restrict.lattice, right.lattice):
        raise LatticeMismatch("L restriction on a lattice other than the right side's")
    j = left._position.get(k_restrict.coords)
    k = right._position.get(l_restrict.coords)
    if j is None or k is None:
        return 0, 0
    (lvls_k, _, a), (lvls_l, _, b) = spec._splits[0]._table, spec._splits[1]._table
    lvl_k, lvl_l = lvls_k[j], lvls_l[k]
    grouped = _exact(Fraction(sum(c for j2, k2, _, c in gs.entries if (j2, k2) == (j, k))))
    if grouped and (a[j] == left.nums[j]) != (b[k] == right.nums[k]):
        grouped = -grouped
    if lvl_k != lvl_l or abs(lvl_k) != 2 * spec.genus - 2:
        return grouped, 0
    _, scale, _ = _rows(gs.kind, spec.genus, spec.epsilon)[lvl_k < 0]
    return grouped, _exact(scale * Fraction(left.nums[j] * right.nums[k], left.den * right.den))


def assert_matches_reference(gs, pairs):
    for K, L in pairs:
        got, want = coefficient_match(gs, K, L), reference_match(gs, K, L)
        assert got == want and list(map(type, got)) == list(map(type, want)), (K, L)


@pytest.mark.parametrize("g", (2, 3, 4, 5))
def test_coefficient_match_is_its_reference_on_every_pair_of_a_double(g):
    gs = glue(GluingSpec(catalog(f"B{g}"), catalog(f"B{g}")))
    assert "_match" not in gs.__dict__
    assert_matches_reference(gs, all_pairs(gs))
    assert len(gs._match) == len(gs.entries) == 2


@pytest.mark.parametrize("left, right, labels", [
    ("dia2:1:3", "B3", {}), ("dia2:3:4", "dia2:3:4", {}), ("B3", "B3", dict(left_w="E1", right_w="E1")),
])
def test_coefficient_match_is_its_reference_on_twisted_and_mixed_gluings(left, right, labels):
    gs = glue(GluingSpec(catalog(left), catalog(right), **labels))
    assert_matches_reference(gs, all_pairs(gs))


@pytest.mark.parametrize("name, labels", [("B3", dict(left_w="E1")), ("B4", dict(right_w="E1"))])
def test_a_pair_twisted_on_one_side_alone_is_untwisted_by_a_sign(name, labels):
    gs = glue(GluingSpec(catalog(name), catalog(name), **labels))
    grouped = {}
    for j, k, _, c in gs.entries:
        grouped[j, k] = grouped.get((j, k), 0) + c
    flipped = [
        (j, k) for (j, k), c in grouped.items()
        if coefficient_match(gs, gs.left_class(j), gs.right_class(k))[0] == -c != 0
    ]
    assert len(flipped) == 1
    assert_matches_reference(gs, all_pairs(gs))


def levels(gs, side):
    return gs.spec._splits[side]._table[0]


def test_a_changed_coefficient_is_read_from_the_copy():
    gs = glue(GluingSpec(catalog("B4"), catalog("B4")))
    coefficient_match(gs, *first_pair(gs))
    assert "_match" in gs.__dict__
    j, k, s, c = gs.entries[0]
    copy = dataclasses.replace(gs, entries=((j, k, s, 3 * c),) + gs.entries[1:])
    assert "_match" not in copy.__dict__
    assert_matches_reference(copy, all_pairs(copy))
    grouped, predicted = coefficient_match(copy, copy.left_class(j), copy.right_class(k))
    assert grouped == 3 * predicted != 0


def test_an_entry_at_unequal_levels_is_grouped_and_predicts_nothing():
    gs = glue(GluingSpec(catalog("B3"), catalog("B3")))
    top = max(levels(gs, 0))
    j = levels(gs, 0).index(top)
    k = next(k for k, lvl in enumerate(levels(gs, 1)) if lvl != top)
    copy = dataclasses.replace(gs, entries=gs.entries + ((j, k, 1, Fraction(7, 3)),))
    grouped, predicted = coefficient_match(copy, copy.left_class(j), copy.right_class(k))
    assert grouped in (Fraction(7, 3), Fraction(-7, 3)) and predicted == 0
    assert coefficient_match(gs, gs.left_class(j), gs.right_class(k)) == (0, 0)
    assert_matches_reference(copy, all_pairs(copy))


def test_an_index_made_still_refuses_a_foreign_class_and_misses_a_rational_one():
    gs = glue(GluingSpec(catalog("B3"), catalog("B3")))
    k_top = gs.spec.left.lattice.cls("K")
    assert coefficient_match(gs, k_top, k_top) != (0, 0)
    assert "_match" in gs.__dict__
    other = blow_up(blow_up(blow_up(catalog("K3")))).lattice
    k_other = HClass(other, k_top.coords)
    for k, l in ((k_other, k_top), (k_top, k_other)):
        with pytest.raises(LatticeMismatch):
            coefficient_match(gs, k, l)
    for k, l in ((Fraction(1, 2) * k_top, k_top), (k_top, Fraction(1, 3) * k_top)):
        assert coefficient_match(gs, k, l) == (0, 0) == reference_match(gs, k, l)


def test_the_match_index_is_kept_out_of_equality_and_repr():
    gs = glue(GluingSpec(catalog("B2"), catalog("B2")))
    fresh = glue(GluingSpec(catalog("B2"), catalog("B2")))
    coefficient_match(gs, *first_pair(gs))
    assert gs == fresh and hash(gs) == hash(fresh) and repr(gs) == repr(fresh)
    assert "_match" in gs.__dict__ and "_match" not in fresh.__dict__
    assert "_match" not in dataclasses.replace(gs).__dict__


# -- the glued file's bytes ----------------------------------------------------------


def per_entry_text(gs):
    data = glued_to_json(gs)
    data["pairs"] = [[j, k, {1: "+", -1: "-", 0: "0"}[s], str(c)] for j, k, s, c in gs.entries]
    return json.dumps(data)


def test_equal_coefficients_held_as_distinct_objects_write_per_entry_tokens():
    gs = glue_torus(GluingSpec(catalog("B3"), catalog("B3"), **TORUS_LABELS))
    copies = tuple((j, k, s, Fraction(c.numerator, c.denominator)) for j, k, s, c in gs.entries)
    copy = GluedSeries(gs.spec, gs.kind, copies)
    assert len({id(c) for *_, c in copy.entries}) == len(copy.entries) > 100
    assert json.dumps(glued_to_json(copy)) == per_entry_text(copy) == json.dumps(glued_to_json(gs))


def test_an_int_and_an_equal_fraction_write_one_token():
    spec = GluingSpec(catalog("B3"), catalog("B3"))
    gs = GluedSeries(spec, "standard", ((0, 0, 1, 1), (0, 1, -1, Fraction(1)),
                                        (1, 0, 1, Fraction(-3, 2)), (1, 1, 1, -1)))
    text = json.dumps(glued_to_json(gs))
    assert text == per_entry_text(gs)
    assert json.loads(text)["pairs"] == [[0, 0, "+", "1"], [0, 1, "-", "1"],
                                         [1, 0, "+", "-3/2"], [1, 1, "+", "-1"]]
