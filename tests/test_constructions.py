import dataclasses
import hashlib
import itertools
import json
import os
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from donaldson import constructions
from donaldson import series as series_mod
from donaldson.cli import run
from donaldson.constructions import (
    CatalogEntry,
    CatalogMismatch,
    ConstructionError,
    MalformedCatalogFile,
    blow_up,
    build_bg,
    build_dia2,
    catalog,
    catalog_names,
    closed_form_cg,
    elliptic_surface,
    entry_from_json,
    entry_json_bytes,
    entry_to_json,
    export_catalog,
    parse_recipe,
)
from donaldson.lattice import MarkedSurface
from donaldson.series import DonaldsonSeries, check_involution, twist


def sinh_power(m):
    """Oracle: coefficients of e^{kF} in ((e^F - e^{-F})/2)^m, by convolution."""
    poly = {0: Fraction(1)}
    for _ in range(m):
        nxt = {}
        for k, c in poly.items():
            nxt[k + 1] = nxt.get(k + 1, Fraction(0)) + c / 2
            nxt[k - 1] = nxt.get(k - 1, Fraction(0)) - c / 2
        poly = {k: c for k, c in nxt.items() if c}
    return poly


# -- elliptic surfaces ---------------------------------------------------------------


def test_k3_single_entry():
    entry = elliptic_surface(2)
    assert [(tuple(k.coords), c) for k, c in entry.series.entries] == [
        ((0, 0), Fraction(1))
    ]
    assert entry.lattice.b_plus == 3


def test_s3_entries():
    entry = elliptic_surface(3)
    f = entry.lattice.cls("F")
    assert entry.series.coefficient(f) == Fraction(1, 2)
    assert entry.series.coefficient(-f) == Fraction(-1, 2)
    assert len(entry.series.entries) == 2


def test_s4_entries():
    entry = elliptic_surface(4)
    f = entry.lattice.cls("F")
    assert entry.series.coefficient(2 * f) == Fraction(1, 4)
    assert entry.series.coefficient(0 * f) == Fraction(-1, 2)
    assert entry.series.coefficient(-2 * f) == Fraction(1, 4)


@pytest.mark.parametrize("n", range(2, 9))
def test_elliptic_series_matches_convolution_oracle(n):
    entry = elliptic_surface(n)
    f = entry.lattice.cls("F")
    oracle = sinh_power(n - 2)
    assert len(entry.series.entries) == len(oracle)
    for k, c in oracle.items():
        assert entry.series.coefficient(k * f) == c
    assert entry.lattice.b_plus == 2 * n - 1


def test_elliptic_rejects_chamber_regime():
    with pytest.raises(ConstructionError):
        elliptic_surface(1)


# -- blow-ups ------------------------------------------------------------------------


def test_blow_up_of_k3():
    entry = blow_up(elliptic_surface(2))
    e = entry.lattice.cls("E1")
    assert entry.series.coefficient(e) == Fraction(1, 2)
    assert entry.series.coefficient(-e) == Fraction(1, 2)
    assert entry.lattice.b_plus == 3
    # parity data is unchanged, so the series must stay even in t;
    # the involution confirms the sign choice
    assert check_involution(entry.series)[0]


def test_blow_up_twice_of_k3():
    entry = blow_up(blow_up(elliptic_surface(2)))
    e1, e2 = entry.lattice.cls("E1"), entry.lattice.cls("E2")
    for s1, s2 in itertools.product((1, -1), repeat=2):
        assert entry.series.coefficient(s1 * e1 + s2 * e2) == Fraction(1, 4)


@pytest.mark.parametrize("n", (2, 3))
def test_blow_up_preserves_involution(n):
    entry = elliptic_surface(n)
    for _ in range(3):
        entry = blow_up(entry)
        assert check_involution(entry.series)[0]


# -- B(g) -----------------------------------------------------------------------------


@pytest.mark.parametrize("g", range(2, 9))
def test_bg_structure(g):
    entry = build_bg(g)
    lat = entry.lattice
    sigma_g = lat.cls("Sigma_g")
    assert sigma_g.square == 0
    assert lat.cls("T1").dot(sigma_g) == 1
    k_top = lat.cls("K")
    assert k_top.dot(sigma_g) == 2 * g - 2
    top = [(k, c) for k, c in entry.series.entries if k.dot(sigma_g) == 2 * g - 2]
    assert len(top) == 1
    assert top[0][0].coords == k_top.coords
    assert top[0][1] == Fraction(1, 2 ** (2 * g - 2))
    assert len(entry.series.entries) == 2**g * (g - 1)


@pytest.mark.parametrize("g", range(2, 7))
def test_bg_series_matches_product_oracle(g):
    # oracle: tensor the fiber-power convolution with g exceptional doublings
    entry = build_bg(g)
    lat = entry.lattice
    f = lat.cls("F")
    es = [lat.cls(f"E{i + 1}") for i in range(g)]
    base = sinh_power(g - 2)
    for k, fk in base.items():
        for signs in itertools.product((1, -1), repeat=g):
            cls = k * f
            for s, e in zip(signs, es):
                cls = cls + s * e
            assert entry.series.coefficient(cls) == fk / 2**g
    # coefficient magnitudes are binomial, constant only along each fiber level
    for k, c in entry.series.entries:
        lvl = int(k.dot(lat.cls("sigma")))  # k-coordinate along the fiber
        j = (g - 2 - lvl) // 2
        assert abs(c) == Fraction(comb(g - 2, j), 2 ** (2 * g - 2))


def test_bg_adjunction_equality_only_at_canonical():
    entry = build_bg(3)
    sigma_g = entry.lattice.cls("Sigma_g")
    levels = sorted({int(k.dot(sigma_g)) for k, _ in entry.series.entries})
    assert levels == [-4, -2, 0, 2, 4]
    assert max(abs(l) for l in levels) == 2 * 3 - 2


def test_bg_rejects_small_genus():
    with pytest.raises(ConstructionError):
        build_bg(1)


def test_bg_tests_each_class_once(monkeypatch):
    """B(g) is built in one step from E(g): E(g)'s classes are tested once each,
    by the one characteristic test the series constructor runs per row, and
    B(g)'s are not tested again, as ``DonaldsonSeries._blown`` proves them
    characteristic."""
    calls = []
    real = series_mod.is_characteristic
    monkeypatch.setattr(series_mod, "is_characteristic", lambda k: calls.append(k.coords) or real(k))
    build_bg(4)
    assert len(calls) == 3
    assert len(set(calls)) == len(calls)


def test_recipes_over_the_class_limit_are_refused(monkeypatch, capsys):
    # each estimate (n-1, 2^g (g-1), 2^(2g'-2)) against a lowered limit: an
    # entry of exactly the limit is built, the next one is refused
    monkeypatch.setattr(constructions, "MAX_CLASSES", 48)
    assert len(build_bg(4).series.entries) == 48
    assert len(elliptic_surface(49).series.entries) == 48
    with pytest.raises(ConstructionError, match="limit of 48"):
        build_bg(5)
    with pytest.raises(ConstructionError, match="limit of 48"):
        elliptic_surface(50)
    monkeypatch.setattr(constructions, "MAX_CLASSES", 16)
    assert len(build_dia2(3, 4).series.entries) == 16
    with pytest.raises(ConstructionError, match="limit of 16"):
        build_dia2(4, 5)
    monkeypatch.undo()
    # the real limit; dia2:10^9 would exhaust memory if refused after building
    for recipe in ("bg:13", "bg:30", "dia2:10:11", "dia2:1000000000:1000000001"):
        with pytest.raises(ConstructionError, match="over the limit"):
            parse_recipe(recipe)
    assert run(["build", "bg:30"]) == 2
    assert "over the limit" in capsys.readouterr().err


def test_blow_up_over_the_class_limit_is_refused(monkeypatch):
    # a blow-up doubles the classes: refused before it builds, like a recipe
    monkeypatch.setattr(constructions, "MAX_CLASSES", 48)
    assert len(blow_up(elliptic_surface(25)).series.entries) == 48
    with pytest.raises(ConstructionError, match="^B4.bl5: 48 x 2\\^1 basic classes .* limit of 48"):
        blow_up(build_bg(4))


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit in this Python"
)
def test_recipes_whose_coefficients_cannot_be_written_are_refused(monkeypatch, capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        # 2^2126 has 640 digits and 2^2127 has 641: the top power of
        # elliptic:n is 2^(n-2), of cg:g 2^(3g-5)
        for build, top in ((elliptic_surface, 2128), (closed_form_cg, 710)):
            assert entry_json_bytes(build(top))
            with monkeypatch.context() as m:
                m.setattr(constructions, "Lattice", None)  # building would raise TypeError
                with pytest.raises(ConstructionError, match="over the 640 digits"):
                    build(top + 1)
    finally:
        sys.set_int_max_str_digits(limit)
    monkeypatch.setattr(constructions, "Lattice", None)
    assert run(["build", "elliptic:15000"]) == 2
    assert "S15000: a coefficient holds 2^14998" in capsys.readouterr().err
    assert run(["build", "S15000"]) == 2
    assert "bad recipe 'S15000': S15000: a coefficient" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, recipe", [("B1", "bg:1"), ("S1", "elliptic:1"), ("C1", "cg:1")]
)
def test_a_refused_family_name_is_named_in_its_error(name, recipe):
    with pytest.raises(ConstructionError, match=f"^bad recipe '{name}': ") as by_name:
        catalog(name)
    with pytest.raises(ConstructionError, match=f"^bad recipe '{recipe}': ") as by_recipe:
        catalog(recipe)
    # the builder's reason is the same either way
    assert str(by_name.value).split(": ", 1)[1] == str(by_recipe.value).split(": ", 1)[1]


@pytest.mark.parametrize("build, args, shown", [
    (elliptic_surface, (3.0,), "n must be an int, got 3.0"),
    (build_bg, (3.0,), "g must be an int, got 3.0"),
    (build_bg, (True,), "g must be an int, got True"),
    (build_dia2, (1.0, 2), "g_prime must be an int, got 1.0"),
    (build_dia2, (1, True), "g must be an int, got True"),
    (closed_form_cg, (2.0,), "g must be an int, got 2.0"),
])
def test_a_builder_refuses_an_argument_that_is_not_an_int(monkeypatch, build, args, shown):
    monkeypatch.setattr(constructions, "Lattice", None)  # building would raise TypeError
    with pytest.raises(ConstructionError, match=f"^{shown}$"):
        build(*args)


# -- the blown-up K3 vanishing references ----------------------------------------------


def test_dia2_k3_case():
    entry = build_dia2(1, 2)
    assert len(entry.series.entries) == 1
    s = entry.surface("Sigma1")
    assert s.genus == 2
    assert s.cls.square == 0
    assert max(abs(k.dot(s.cls)) for k, _ in entry.series.entries) == 0


def test_dia2_two_blowups():
    entry = build_dia2(2, 3)
    s = entry.surface("Sigma1")
    levels = sorted(int(k.dot(s.cls)) for k, _ in entry.series.entries)
    assert levels == [-2, 0, 0, 2]
    assert all(c == Fraction(1, 4) for _, c in entry.series.entries)
    assert s.cls.is_odd()


@pytest.mark.parametrize("gp,g", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)])
def test_dia2_pairing_bound(gp, g):
    entry = build_dia2(gp, g)
    s = entry.surface("Sigma1")
    m = max(abs(k.dot(s.cls)) for k, _ in entry.series.entries)
    assert m == 2 * gp - 2 < 2 * g - 2


def test_dia2_rejects_bad_parameters():
    with pytest.raises(ConstructionError):
        build_dia2(2, 2)
    with pytest.raises(ConstructionError):
        build_dia2(0, 3)


# -- the closed-form double -------------------------------------------------------------


@pytest.mark.parametrize("g,expect", [(2, (-2, 2)), (3, (-16, -16)), (4, (-128, 128))])
def test_cg_twisted_coefficients(g, expect):
    entry = closed_form_cg(g)
    w = entry.w_class("Shat2")
    tw = dict((k.coords, c) for k, c in twist(entry.series, w))
    k = entry.lattice.cls("K")
    assert tw[k.coords] == expect[0]
    assert tw[(-k).coords] == expect[1]


@pytest.mark.parametrize("g", range(2, 6))
def test_cg_two_twist_displays_of_one_series(g):
    # one stored series, two displays: the genus-g surface twist gives
    # ((-1)^{g-1} s, +s), the genus-2 surface twist gives (-s, (-1)^g s)
    entry = closed_form_cg(g)
    k = entry.lattice.cls("K")
    s = Fraction(2 ** (3 * g - 5))
    tw_sigma = dict(
        (kk.coords, c) for kk, c in twist(entry.series, entry.lattice.cls("Sigma_g"))
    )
    assert tw_sigma[k.coords] == (-1) ** (g - 1) * s
    assert tw_sigma[(-k).coords] == s
    tw_shat = dict(
        (kk.coords, c) for kk, c in twist(entry.series, entry.lattice.cls("Shat2"))
    )
    assert tw_shat[k.coords] == -s
    assert tw_shat[(-k).coords] == (-1) ** g * s


@pytest.mark.parametrize("g", range(2, 7))
def test_cg_pairings(g):
    entry = closed_form_cg(g)
    k = entry.lattice.cls("K")
    shat = entry.lattice.cls("Shat2")
    sigma = entry.lattice.cls("Sigma_g")
    assert k.dot(shat) == 2
    assert k.dot(sigma) == 2 * g - 2
    assert shat.square == sigma.square == 0
    assert shat.dot(sigma) == 1
    levels = {abs(int(kk.dot(sigma))) for kk, _ in entry.series.entries}
    assert levels == {2 * g - 2}


# -- catalog persistence ------------------------------------------------------------------


def test_catalog_lookup_aliases():
    assert catalog("K3") == catalog("elliptic:2")
    assert catalog("B3") == catalog("bg:3")
    assert catalog("C2") == catalog("cg:2")
    assert "K3" in catalog_names()


def test_every_built_name_resolves():
    # past the names catalog_names() lists, S<n>, B<g> and C<g> still resolve
    assert "B9" not in catalog_names()
    assert catalog("B9") is catalog("bg:9")
    assert catalog("S9") is catalog("elliptic:9")
    assert catalog("C7").name == "C7"
    # a name the entry does not carry is unknown: S2 builds K3, B03 builds B3
    for ref in ("S2", "B03"):
        with pytest.raises(KeyError, match=f"unknown catalog name or recipe '{ref}'"):
            catalog(ref)


def test_every_spelling_of_a_recipe_shares_one_derivation():
    parse_recipe.cache_clear()
    spellings = ("B3", "bg:3", "BG:3", "bg:03", "bg:+3")
    entries = [catalog(ref) for ref in spellings]
    assert all(entry is entries[0] for entry in entries)
    assert parse_recipe.cache_info().currsize == 1
    # errors name the ref as typed, not the key it was read under
    for ref in ("FOO:3", "BG:3:4"):
        with pytest.raises(KeyError, match=f"^\"unknown catalog name or recipe '{ref}'\"$"):
            catalog(ref)
    for ref, why in (("BG:01", "B\\(g\\) needs g >= 2"), ("Bg:x", "invalid literal")):
        with pytest.raises(ConstructionError, match=f"^bad recipe '{ref}': {why}"):
            catalog(ref)


def test_catalog_unknown_name():
    # an unknown name or head, or a known head with the wrong number of arguments
    for ref in ("E8", "elliptic:2:3", "dia2:2", "cg", "foo:3"):
        with pytest.raises(KeyError, match=f"unknown catalog name or recipe '{ref}'"):
            catalog(ref)


def test_catalog_names_are_pinned():
    assert catalog_names() == [
        "B2", "B3", "B4", "B5", "B6", "B7", "B8",
        "C2", "C3", "C4", "C5", "C6",
        "K3",
        "S3", "S4", "S5", "S6", "S7", "S8",
    ]


def test_catalog_rederivation_deterministic():
    assert entry_json_bytes(catalog("B3")) == entry_json_bytes(catalog("bg:3"))
    # two independent derivations, bypassing the lookup cache
    assert entry_json_bytes(build_bg(3)) == entry_json_bytes(catalog("B3"))
    assert entry_json_bytes(build_dia2(2, 4)) == entry_json_bytes(catalog("dia2:2:4"))


def test_entry_json_round_trip():
    entry = catalog("B2")
    data = json.loads(entry_json_bytes(entry).decode())
    rebuilt = entry_from_json(data)
    assert rebuilt.lattice == entry.lattice
    assert rebuilt.series == entry.series
    assert entry_to_json(rebuilt) == entry_to_json(entry)


def test_entry_from_json_requires_note():
    data = json.loads(entry_json_bytes(catalog("K3")).decode())
    del data["note"]
    with pytest.raises(ConstructionError, match="field 'note' is missing"):
        entry_from_json(data)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("w_labels", ["nope"], "w label 'nope' is not a class label"),
        ("w_labels", ["T1", "nope"], "w label 'nope' is not a class label"),
        ("w_labels", "T1", "w_labels must be a list of str"),
        ("w_labels", ["T1", 1], "w_labels must be a list of str"),
        ("glue_surface", "nowhere", "no surface 'nowhere' to glue along"),
        ("glue_surface", ["Sigma_g"], "glue_surface must be a str"),
        ("w_labels", [], "no w label"),
        ("name", 5, "name must be a str"),
        ("name", None, "name must be a str"),
        ("note", 5, "note must be a str"),
        ("note", ["B2"], "note must be a str"),
    ],
)
def test_entry_from_json_refuses_unknown_w_and_glue_labels(field, value, message):
    data = json.loads(entry_json_bytes(catalog("B2")).decode())
    entry_from_json(data)
    data[field] = value
    with pytest.raises(ConstructionError, match=message):
        entry_from_json(data)


@pytest.mark.parametrize("where", ["entry", "surface"])
def test_entry_from_json_refuses_a_key_it_does_not_write(where):
    data = json.loads(entry_json_bytes(catalog("B2")).decode())
    (data if where == "entry" else data["surfaces"][0])["bogus"] = 1
    what = "a catalog entry" if where == "entry" else "a surface"
    with pytest.raises(ConstructionError, match=f"unknown field 'bogus' in {what}$"):
        entry_from_json(data)


@pytest.mark.parametrize("label", [7, None, True, ["T1"]])
def test_entry_from_json_refuses_a_surface_label_that_is_not_a_str(label):
    data = json.loads(entry_json_bytes(catalog("B2")).decode())
    data["surfaces"][1]["label"] = label
    with pytest.raises(ConstructionError, match=r"^surfaces\[1\]\.label must be a str"):
        entry_from_json(data)


def test_entry_refuses_empty_w_labels():
    entry = catalog("B2")
    with pytest.raises(ConstructionError, match="no w label"):
        dataclasses.replace(entry, w_labels=())


def test_entry_bytes_match_bench_digests():
    """Every entry digest the benchmark records is reproduced byte for byte."""
    path = Path(__file__).resolve().parent.parent / "bench" / "digests.json"
    recorded = {
        key.removeprefix("entry/"): digest
        for key, digest in json.loads(path.read_text()).items()
        if key.startswith("entry/")
    }
    assert {"K3", "B8", "dia2:2:3", "K3.bl1", "S4.bl1"} <= set(recorded)
    for name, digest in recorded.items():
        base, sep, _ = name.partition(".bl")
        entry = blow_up(catalog(base)) if sep else catalog(name)
        assert entry.name == name
        actual = hashlib.sha256(entry_json_bytes(entry)).hexdigest()
        assert actual == digest, name


def test_export_catalog_writes_only_the_named_entries(tmp_path):
    assert export_catalog(str(tmp_path / "none"), []) == []
    assert os.listdir(tmp_path / "none") == []
    written = export_catalog(str(tmp_path / "one"), ["K3"])
    assert [os.path.basename(p) for p in written] == ["K3.json"]
    # a file is named after its entry, not after the spelling that named it
    written = export_catalog(str(tmp_path / "recipe"), ["bg:3"])
    assert [os.path.basename(p) for p in written] == ["B3.json"]


def test_catalog_store_byte_match(tmp_path, monkeypatch):
    export_catalog(str(tmp_path), ["K3", "B2"])
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    assert catalog("K3").name == "K3"
    # tamper with the stored file: lookup must fail loudly
    path = os.path.join(str(tmp_path), "B2.json")
    with open(path, "a") as fh:
        fh.write("\n")
    with pytest.raises(CatalogMismatch):
        catalog("B2")


def test_stored_file_is_parsed_only_when_it_mismatches(tmp_path, monkeypatch):
    export_catalog(str(tmp_path), ["B2"])
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    parsed = []
    real = constructions.entry_from_json
    monkeypatch.setattr(
        constructions, "entry_from_json", lambda data: parsed.append(data) or real(data)
    )
    catalog("B2")
    assert parsed == []
    path = tmp_path / "B2.json"
    # not a Fraction: the file does not load, so it is malformed
    path.write_bytes(path.read_bytes().replace(b'"a": "', b'"a": "--', 1))
    with pytest.raises(MalformedCatalogFile, match="is not a valid catalog entry"):
        catalog("B2")
    # a valid entry that differs from the derivation is a plain mismatch
    path.write_bytes(path.read_bytes().replace(b'"a": "--', b'"a": "-', 1))
    with pytest.raises(CatalogMismatch) as info:
        catalog("B2")
    assert type(info.value) is CatalogMismatch
    assert len(parsed) == 2


def test_entry_json_bytes_are_encoded_once_per_entry():
    entry = catalog("B3")
    assert entry_json_bytes(entry) is entry_json_bytes(entry)
    assert entry_json_bytes(entry) is entry.json_bytes


def test_export_and_lookups_share_one_encoding(tmp_path, monkeypatch):
    parse_recipe.cache_clear()  # a fresh B3, not yet encoded
    calls = []  # the entry dicts encoded: one per file text made
    real = constructions._indented
    monkeypatch.setattr(constructions, "_indented", lambda data: calls.append(data) or real(data))
    export_catalog(str(tmp_path), ["B3"])
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    assert catalog("B3") is catalog("B3")
    assert len(calls) == 1


def test_cached_bytes_never_hide_a_changed_file(tmp_path, monkeypatch):
    export_catalog(str(tmp_path), ["B3"])
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    entry = catalog("B3")
    path = tmp_path / "B3.json"
    path.write_bytes(path.read_bytes().replace(b'"B3"', b'"B4"', 1))
    with pytest.raises(CatalogMismatch):
        catalog("B3")
    path.unlink()
    assert catalog("B3") is entry


def test_catalog_entries_validate():
    for name in catalog_names():
        catalog(name).validate()


def _broken_b3(kind):
    """B3 with one coefficient's sign flipped ("involution"), or with its
    genus-3 surface marked genus 2, which its top level 4 breaks."""
    b3 = catalog("B3")
    if kind == "involution":
        (k, c), *rest = b3.series.entries
        return dataclasses.replace(b3, series=DonaldsonSeries.on(b3.lattice, [(k, -c), *rest]))
    low = MarkedSurface(b3.surface("Sigma_g").cls, genus=2)
    return dataclasses.replace(b3, surfaces=(("Sigma_g", low),))


BROKEN = [
    ("involution", "involution symmetry K -> -K broken at "),
    ("adjunction", "adjunction bound violated against Sigma_g by "),
]


@pytest.mark.parametrize("kind, message", BROKEN)
def test_validate_refuses_a_broken_entry(kind, message):
    with pytest.raises(ConstructionError, match=f"^B3: {message}"):
        _broken_b3(kind).validate()


@pytest.mark.parametrize("kind, message", BROKEN)
def test_a_recipe_that_builds_a_broken_entry_is_refused(monkeypatch, capsys, kind, message):
    # the builders leave the check to parse_recipe, which every lookup reaches
    broken = _broken_b3(kind)
    monkeypatch.delenv("DONALDSON_CATALOG_DIR", raising=False)
    monkeypatch.setitem(constructions._RECIPES, "broken", (lambda n: broken, 1))
    with pytest.raises(ConstructionError, match=f"^bad recipe 'broken:1': B3: {message}"):
        catalog("broken:1")
    assert run(["check", "--entry", "broken:1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: bad recipe 'broken:1': B3: {message}")


def test_entry_lattice_is_its_series_lattice():
    dia2 = [f"dia2:{gp}:{g}" for g in range(2, 7) for gp in range(1, g)]
    entries = [catalog(ref) for ref in catalog_names() + dia2]
    entries += [blow_up(catalog("K3")), blow_up(catalog("S4"))]
    for entry in entries:
        assert entry.lattice is entry.series.lattice, entry.name


def test_entry_takes_no_lattice_of_its_own():
    b3 = catalog("B3")
    with pytest.raises(TypeError, match="lattice"):
        CatalogEntry(
            name="mix",
            lattice=catalog("B4").lattice,
            series=b3.series,
            surfaces=b3.surfaces,
            w_labels=b3.w_labels,
            glue_surface=b3.glue_surface,
        )


def test_surface_on_another_lattice_is_refused():
    b3 = catalog("B3")
    surfaces = b3.surfaces + (("S", catalog("B4").surface()),)
    with pytest.raises(ConstructionError, match="^B3: surface 'S' is on another lattice"):
        dataclasses.replace(b3, surfaces=surfaces)


def test_repeated_surface_label_is_refused():
    b3 = catalog("B3")
    (label, sigma), (_, torus) = b3.surfaces
    with pytest.raises(ConstructionError, match="repeated"):
        dataclasses.replace(b3, surfaces=((label, sigma), (label, torus)))
