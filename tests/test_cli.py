import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import donaldson.cli as cli
import donaldson.constructions as constructions
import donaldson.lattice as lattice_mod
import donaldson.series as series_mod
from donaldson.cli import VerificationError, run
from donaldson.constructions import (
    CatalogMismatch,
    ConstructionError,
    MalformedCatalogFile,
    catalog,
    catalog_names,
    entry_json_bytes,
    entry_to_json,
    export_catalog,
)
from donaldson.exppoly import ExpPolynomial, ExpPolynomialError
from donaldson.fit import FitError
from donaldson.gluing import GluingError
from donaldson.lattice import LatticeError
from donaldson.series import SeriesError, relation_poly, split_series, z_value
from test_pairing_table import record_columns, record_pairings


def row_meetings(pairs, series):
    """(row, class coords) -> how often that row of ``series`` met the class,
    from ``record_pairings``: in a batch, or as one of the series' row classes
    in a single pairing.  A named class of a row's coords (K, paired with S in
    ``default_probes``) is no row, so its single pairings are taken out."""
    rows, objects = set(series.rows), {id(k) for k in series.classes()}
    named = Counter((u.coords, c) for c, u in pairs if u.coords in rows and id(u) not in objects)
    return Counter((k, v.coords) for k, v in pairs if k in rows) - named


def python_m_cli(*argv):
    """Run ``python -m donaldson.cli`` in a fresh interpreter, as a user would."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "donaldson.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_catalog_list(capsys):
    code, payload = run_json(capsys, ["catalog", "list"])
    assert code == 0
    assert "K3" in payload["entries"] and "B2" in payload["entries"]


def test_module_entry_point_lists_the_catalog():
    done = python_m_cli("catalog", "list")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["entries"] == list(catalog_names())


def test_module_entry_point_exits_2_on_an_unknown_entry():
    done = python_m_cli("check", "--entry", "nonsense")
    assert done.returncode == 2
    assert "nonsense" in done.stderr


def test_catalog_show_round_trips(capsys):
    code, payload = run_json(capsys, ["catalog", "show", "B2"])
    assert code == 0
    assert payload == entry_to_json(catalog("B2"))


def test_catalog_show_without_a_name(capsys):
    assert run(["catalog", "show"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: catalog show needs a name\n"


def test_build_recipe(capsys):
    code, payload = run_json(capsys, ["build", "dia2:2:3"])
    assert code == 0
    assert payload["name"] == "dia2:2:3"
    assert len(payload["series"]["entries"]) == 4


def test_glue_bg3(capsys):
    code, payload = run_json(capsys, ["glue", "--left", "bg:3", "--right", "bg:3", "--g", "3"])
    assert code == 0
    assert sorted(p[3] for p in payload["pairs"]) == ["-16", "-16"]


def test_glue_empty_double(capsys):
    code, payload = run_json(
        capsys, ["glue", "--left", "dia2:2:3", "--right", "dia2:2:3", "--g", "3"]
    )
    assert code == 0
    assert payload["pairs"] == []


def test_glue_wrong_genus_flag(capsys):
    code = run(["glue", "--left", "bg:3", "--right", "bg:3", "--g", "2"])
    assert code == 2


def test_glue_torus(capsys):
    code, payload = run_json(
        capsys, ["glue", "--left", "K3", "--right", "K3", "--g", "1", "--torus"]
    )
    assert code == 0
    assert sorted(p[3] for p in payload["pairs"]) == ["-1/2", "-1/4", "-1/4"]


def test_eval_glued_file(tmp_path, capsys):
    out_file = tmp_path / "glued.json"
    code = run(
        ["glue", "--left", "bg:2", "--right", "bg:2", "--g", "2", "--out", str(out_file)]
    )
    assert code == 0
    capsys.readouterr()
    code, payload = run_json(
        capsys,
        ["eval", "--glued", str(out_file), "--d1", "T1", "--d2", "T1"],
    )
    assert code == 0
    assert payload["marker"] == "+Q/2"
    assert {t["lambda"] for t in payload["terms"]} == {"2", "-2"}
    poly = ExpPolynomial.from_json(payload)
    assert ExpPolynomial.from_json(poly.to_json()) == poly


def test_eval_glued_file_missing_kind(tmp_path, capsys):
    out_file = tmp_path / "glued.json"
    run(["glue", "--left", "bg:2", "--right", "bg:2", "--g", "2", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    del payload["kind"]
    out_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["eval", "--glued", str(out_file), "--d1", "T1", "--d2", "T1"]) == 2
    assert "kind" in capsys.readouterr().err


def test_eval_glued_file_with_float_coefficient(tmp_path, capsys):
    out_file = tmp_path / "glued.json"
    run(["glue", "--left", "bg:2", "--right", "bg:2", "--g", "2", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    payload["pairs"][0][3] = 0.1
    out_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["eval", "--glued", str(out_file), "--d1", "T1", "--d2", "T1"]) == 2
    assert "non-integral float" in capsys.readouterr().err


def test_eval_glued_file_with_bad_index(tmp_path, capsys):
    out_file = tmp_path / "glued.json"
    run(["glue", "--left", "bg:2", "--right", "bg:2", "--g", "2", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    payload["pairs"][0][0] = 99
    out_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["eval", "--glued", str(out_file), "--d1", "T1", "--d2", "T1"]) == 2
    assert "left index must be an int in [0, 4)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda p: {**p, "pairs": 5}, "pairs must be a list"),
        (lambda p: {**p, "pairs": [5]}, "pair 5"),
        (lambda p: {**p, "left": 5}, "left must be a str"),
        (lambda p: {**p, "pairs": [p["pairs"][0][:3] + [[1]]]}, "coefficient"),
        (lambda p: [p], "JSON object"),
        (lambda p: {**p, "w_sq": None}, "w_sq must be an int"),
    ],
    ids=["pairs-int", "pair-int", "left-int", "coefficient-list", "top-level-list", "w_sq-null"],
)
def test_eval_malformed_glued_file_exits_two(tmp_path, capsys, edit, field):
    out_file = tmp_path / "glued.json"
    run(["glue", "--left", "bg:2", "--right", "bg:2", "--g", "2", "--out", str(out_file)])
    out_file.write_text(json.dumps(edit(json.loads(out_file.read_text()))))
    capsys.readouterr()
    assert run(["eval", "--glued", str(out_file), "--d1", "T1", "--d2", "T1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--glued", "{missing}/glued.json", "--d1", "T1", "--d2", "T1"],
        ["glue", "--left", "bg:2", "--right", "bg:2", "--g", "2", "--out", "{missing}/x.json"],
    ],
    ids=["eval-missing-file", "glue-out-missing-dir"],
)
def test_file_error_exits_two(tmp_path, capsys, argv):
    missing = tmp_path / "no_such_dir"
    assert run([a.format(missing=missing) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "no_such_dir" in err


def test_eval_glued_file_with_repeated_key(tmp_path, capsys):
    out_file = tmp_path / "glued.json"
    run(["glue", "--left", "bg:2", "--right", "bg:2", "--g", "2", "--out", str(out_file)])
    text = out_file.read_text()
    assert text.count('"w_sq"') == 1
    out_file.write_text(text.replace('"w_sq"', '"w_sq": 2,\n  "w_sq"'))
    capsys.readouterr()
    assert run(["eval", "--glued", str(out_file), "--d1", "T1", "--d2", "T1"]) == 2
    assert "repeated key 'w_sq'" in capsys.readouterr().err


def test_eval_coordinate_classes(tmp_path, capsys):
    out_file = tmp_path / "glued.json"
    run(["glue", "--left", "bg:2", "--right", "bg:2", "--g", "2", "--out", str(out_file)])
    capsys.readouterr()
    code, payload = run_json(
        capsys,
        ["eval", "--glued", str(out_file), "--d1", "1,0,0,0", "--d2", "T1"],
    )
    assert code == 0
    assert payload["q"] == "0"


def test_eval_expansion_agrees_with_symbolic(tmp_path, capsys):
    out_file = tmp_path / "glued.json"
    run(["glue", "--left", "bg:2", "--right", "bg:2", "--g", "2", "--out", str(out_file)])
    capsys.readouterr()
    code, payload = run_json(
        capsys,
        [
            "eval", "--glued", str(out_file),
            "--d1", "T1", "--d2", "T1", "--expand-order", "12",
        ],
    )
    assert code == 0
    # the eval payload is the polynomial's JSON plus its expansion
    poly = ExpPolynomial.from_json({k: v for k, v in payload.items() if k != "expansion"})
    poly = ExpPolynomial(poly.marker, poly.terms, Fraction(payload["q"]))
    from donaldson.gaussian import GaussianRational

    expected = [c.to_token() for c in poly.expand(12)]
    assert payload["expansion"] == expected
    # the g=2 double is an odd series (d0 = -15), so even orders vanish
    assert all(
        GaussianRational.from_token(tok).is_zero for tok in payload["expansion"][0::2]
    )
    assert not GaussianRational.from_token(payload["expansion"][1]).is_zero


def test_eval_refuses_an_expansion_order_over_the_limit(tmp_path, capsys):
    out_file = tmp_path / "glued.json"
    run(["glue", "--left", "bg:2", "--right", "bg:2", "--g", "2", "--out", str(out_file)])
    capsys.readouterr()
    argv = ["eval", "--glued", str(out_file), "--d1", "T1", "--d2", "T1"]
    assert run(argv + ["--expand-order", "201"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "over the limit" in captured.err


@pytest.mark.parametrize("name", ["bg:4", "K3", "dia2:2:3", "cg:3"])
def test_check_passes_on_catalog(capsys, name):
    code, payload = run_json(capsys, ["check", "--entry", name])
    assert code == 0
    assert all("FAIL" not in str(v) for v in payload["checks"].values())


def test_check_splits_once_per_w(monkeypatch, capsys):
    calls = []
    real = series_mod._split_table

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series_mod, "_split_table", counting)
    # a recipe cache of its own, so that bg:4 is derived here, unsplit, and
    # every column of its series is made while the counts below look on
    monkeypatch.setattr(
        constructions, "parse_recipe", functools.cache(constructions.parse_recipe.__wrapped__)
    )
    columns = record_columns(monkeypatch)
    pairs = record_pairings(monkeypatch)
    entry = catalog("bg:4")
    s = entry.surface().cls.coords
    classes = set(entry.series.rows)
    entry.series.classes()  # the row classes, whose single pairings are counted
    assert run(["check", "--entry", "bg:4"]) == 0
    # one split of w, for finite_type_order; the relation check decides each
    # surface level of that split's table from z's roots, so it tables nothing
    assert len(calls) == 1
    # the column of S was made once, when bg:4 was derived; the adjunction
    # check and the split read it.  Each basic class met S once, in a batch
    # or in a single pairing of a row class
    made = [v.coords for series, v, new in columns if series is entry.series and new]
    assert made.count(s) == 1
    met = {k: n for (k, v), n in row_meetings(pairs, entry.series).items() if v == s}
    assert set(met) == classes and max(met.values()) == 1
    # a second check reads the table and the columns the series already has
    columns.clear()
    pairs.clear()
    assert run(["check", "--entry", "bg:4"]) == 0
    assert len(calls) == 1 and not any(new for *_, new in columns)
    assert not row_meetings(pairs, entry.series)


def test_check_pairs_the_rows_with_the_surface_the_torus_and_one_probe(monkeypatch, capsys):
    # Sigma_g and T1 are paired with the rows once each, when bg:6 is derived
    # and validated; the split reads both columns, and the first S-shifted
    # probe, T1 + Sigma_g, is the one more class the rows meet
    monkeypatch.setattr(
        constructions, "parse_recipe", functools.cache(constructions.parse_recipe.__wrapped__)
    )
    pairs = record_pairings(monkeypatch)
    assert run(["check", "--entry", "bg:6"]) == 0
    entry = catalog("bg:6")
    met = row_meetings(pairs, entry.series)
    sigma_g, t1 = (entry.lattice.cls(label) for label in ("Sigma_g", "T1"))
    paired = Counter(v for _, v in met.elements())
    assert len(entry.series.rows) == 2**6 * 5 and max(met.values()) == 1
    assert paired == {v.coords: len(entry.series.rows) for v in (sigma_g, t1, t1 + sigma_g)}


@pytest.mark.parametrize(
    "name, fake, message",
    [
        ("finite_type_order", lambda series, w, s: 2, "point-class order 2, expected 1"),
        (
            "_root_level",
            lambda g, ks, d_sigma: False,
            "genus-4 relation polynomial failed to annihilate the series",
        ),
    ],
)
def test_check_failure_exits_one_with_its_message(monkeypatch, capsys, name, fake, message):
    monkeypatch.setattr(cli, name, fake)
    assert run(["check", "--entry", "bg:4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"verification failure: B4: {message}\n"


def test_check_fails_when_a_level_value_is_nonzero(monkeypatch, capsys):
    # the genus-3 relation is nonzero at some surface level of B4
    rule = series_mod._root_level
    monkeypatch.setattr(cli, "_root_level", lambda g, ks, d_sigma: rule(3, ks, d_sigma))
    assert run(["check", "--entry", "bg:4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "verification failure: B4: genus-4 relation polynomial failed to "
        "annihilate the series\n"
    )


# catalog entries of surface genus 2..12 whose check reads a relation
VERDICT_ENTRIES = (
    [f"bg:{g}" for g in range(2, 13)]
    + [f"cg:{g}" for g in range(2, 13)]
    + [f"dia2:{gp}:{g}" for g in range(2, 9) for gp in range(1, g)]
)


@pytest.mark.parametrize("name", VERDICT_ENTRIES)
def test_check_verdict_is_the_expanded_relation_at_each_level(monkeypatch, capsys, name):
    # check decides z from its roots; its verdict for the relation of each
    # genus 2..12, made to stand for the entry's own, is whether the expanded
    # relation (z_value, Horner's rule) is 0 at each level of the entry's split
    entry = catalog(name)
    s = entry.surface()
    levels = split_series(entry.series, entry.w_class(), s).levels
    rule = series_mod._root_level
    verdicts = {}
    for g in range(2, 13):
        monkeypatch.setattr(cli, "_root_level", lambda _, ks, d_sigma: rule(g, ks, d_sigma))
        code = run(["check", "--entry", name])
        capsys.readouterr()
        verdicts[g] = all(z_value(relation_poly(g), ks, 1).is_zero for ks in levels)
        assert code == (0 if verdicts[g] else 1), g
    assert verdicts[s.genus]


def test_check_unknown_entry(capsys):
    assert run(["check", "--entry", "nonsense"]) == 2


@pytest.mark.parametrize(
    "recipe, g",
    [
        ("dia2:1:", series_mod.MAX_GENUS),
        ("dia2:1:", series_mod.MAX_GENUS + 1),
        ("cg:", series_mod.MAX_GENUS + 1),
        ("dia2:1:", 100000),
    ],
)
def test_check_decides_the_relation_of_a_huge_genus_at_once(capsys, recipe, g):
    # check decides the relation from its roots and expands nothing, so a
    # genus past relation_poly's own expansion limit costs what a small one does
    start = time.perf_counter()
    code, payload = run_json(capsys, ["check", "--entry", f"{recipe}{g}"])
    assert time.perf_counter() - start < 1
    assert code == 0 and payload["checks"]["relation_poly"] == "ok"


def test_fit_command(capsys):
    code, payload = run_json(capsys, ["fit", "--g", "3"])
    assert code == 0
    by_alpha = {e["alpha"]: e["M"] for e in payload["entries"]}
    assert sorted(by_alpha) == [1, 2, 3, 4, 5]
    assert by_alpha[1]["terms"] == [{"lambda": "2", "c": "-4096"}]
    assert by_alpha[2]["terms"] == [{"lambda": "-2", "c": "-4096"}]
    assert by_alpha[3]["terms"] == []


def test_fit_command_fits_against_every_lower_genus_double(capsys):
    # fit --g 3 takes dia2:1:3 and dia2:2:3 as its vanishing references
    code, payload = run_json(capsys, ["fit", "--g", "3"])
    assert code == 0
    by_alpha = {e["alpha"]: e["M"] for e in payload["entries"]}
    assert by_alpha[4]["terms"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--table", "catalog", "list"],
        ["catalog", "list", "--table"],
        ["--float", "catalog", "list"],
        ["catalog", "list", "--float"],
        ["fit", "--g", "3", "--references", "dia2:1:3"],
    ],
)
def test_removed_options_are_usage_errors(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("g", ["1", "0"])
def test_fit_refuses_a_genus_below_two_naming_the_flag(capsys, g):
    # the message names what the user typed, not the bg:g recipe fit builds
    assert run(["fit", "--g", g]) == 2
    assert capsys.readouterr() == ("", "error: fit needs --g >= 2\n")


def test_fit_refuses_a_genus_over_the_size_limit_before_any_coordinate(capsys, monkeypatch):
    # dia2:10:11 is the largest entry fit --g 11 reads, and it is resolved first
    import donaldson.fit

    def computed(*args):
        raise AssertionError("a coordinate was computed")

    monkeypatch.setattr(donaldson.fit, "basis_coordinates", computed)
    assert run(["fit", "--g", "11"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'dia2:10:11'" in err and "over the limit" in err


def test_fit_command_does_not_load_the_gluing_module():
    script = (
        "import contextlib, io, sys\n"
        "from donaldson.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['fit', '--g', '3']) == 0\n"
        "print('donaldson.fit' in sys.modules, 'donaldson.gluing' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]


def test_conjecture_command(capsys):
    code, payload = run_json(
        capsys, ["conjecture", "--left", "cg:2", "--right", "cg:2", "--g", "2"]
    )
    assert code == 0
    assert payload["experimental"] is True
    assert sorted(p[3] for p in payload["pairs"]) == ["-2", "2"]


def _glued_file(tmp_path, capsys, command):
    """The stdout of ``command`` on two B(3) sides, saved as a glued file."""
    out_file = tmp_path / f"{command}.json"
    assert run([command, "--left", "bg:3", "--right", "bg:3", "--g", "3"]) == 0
    out_file.write_text(capsys.readouterr().out)
    return out_file


@pytest.mark.parametrize("command, flagged", [("conjecture", True), ("glue", False)])
def test_eval_flags_the_conjectural_rule_experimental(tmp_path, capsys, command, flagged):
    out_file = _glued_file(tmp_path, capsys, command)
    code, payload = run_json(capsys, ["eval", "--glued", str(out_file), "--d1", "T1", "--d2", "T1"])
    assert code == 0
    assert ("experimental" in payload) is flagged
    if flagged:
        assert list(payload)[-1] == "experimental" and payload["experimental"] is True


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("conjecture", lambda p: {**p, "bogus": 1}, "unknown field 'bogus'"),
        ("glue", lambda p: {**p, "bogus": 1}, "unknown field 'bogus'"),
        ("conjecture", lambda p: {**p, "experimental": False}, "a stabilized gluing has"),
        ("conjecture", lambda p: {k: v for k, v in p.items() if k != "experimental"},
         "a stabilized gluing has"),
        ("glue", lambda p: {**p, "experimental": True}, "a standard gluing has no"),
    ],
    ids=["conjecture-unknown-key", "glue-unknown-key", "conjecture-flag-false",
         "conjecture-flag-missing", "glue-flag-true"],
)
def test_eval_refuses_a_glued_file_it_did_not_write(tmp_path, capsys, command, edit, message):
    out_file = _glued_file(tmp_path, capsys, command)
    out_file.write_text(json.dumps(edit(json.loads(out_file.read_text()))))
    assert run(["eval", "--glued", str(out_file), "--d1", "T1", "--d2", "T1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_oversized_glue_exits_two_with_empty_stdout(capsys):
    argv = ["glue", "--left", "elliptic:600", "--right", "elliptic:600", "--g", "1", "--torus"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "over the limit" in err


def test_usage_error_exit_code():
    assert run(["glue", "--left", "bg:2"]) == 2
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "error, code",
    [
        (ConstructionError, 2),
        (GluingError, 2),
        (SeriesError, 2),
        (LatticeError, 2),
        (FitError, 2),
        (ExpPolynomialError, 2),
        (KeyError, 2),
        (OSError, 2),
        (VerificationError, 1),
        (CatalogMismatch, 1),
        (MalformedCatalogFile, 2),
    ],
)
def test_error_exit_codes(monkeypatch, capsys, error, code):
    def failing():
        raise error("raised inside a command")

    monkeypatch.setattr(cli, "catalog_names", failing)
    assert run(["catalog", "list"]) == code
    prefix = "verification failure: " if code == 1 else "error: "
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize(
    "argv", [["catalog", "list"], ["catalog", "show", "B3"], ["check", "--entry", "bg:3"]]
)
def test_closed_stdout_ends_the_command_with_exit_zero(argv):
    # the reader of stdout is gone before the command prints
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "donaldson.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("eval_args", [["--d1", "1/0,0,0,0,0,0", "--d2", "T1"]], ids=["d1"])
def test_eval_zero_denominator_argument_exits_two(tmp_path, capsys, eval_args):
    out_file = tmp_path / "g3.json"
    assert run(["glue", "--left", "bg:3", "--right", "bg:3", "--g", "3", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert run(["eval", "--glued", str(out_file), *eval_args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: zero denominator in '1/0'\n"


def test_eval_glued_file_with_zero_denominator_exits_two(tmp_path, capsys):
    out_file = tmp_path / "g3.json"
    assert run(["glue", "--left", "bg:3", "--right", "bg:3", "--g", "3", "--out", str(out_file)]) == 0
    capsys.readouterr()
    data = json.loads(out_file.read_text())
    data["pairs"][0][3] = "1/0"
    out_file.write_text(json.dumps(data))
    assert run(["eval", "--glued", str(out_file), "--d1", "T1", "--d2", "T1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "zero denominator in '1/0'" in err


def test_catalog_dir_file_with_zero_denominator_exits_2(tmp_path, monkeypatch, capsys):
    data = entry_to_json(catalog("B3"))
    data["series"]["entries"][0]["a"] = "1/0"
    (tmp_path / "B3.json").write_text(json.dumps(data, indent=2) + "\n")
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    assert run(["check", "--entry", "B3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: stored catalog file")
    assert "zero denominator in '1/0'" in err


def test_catalog_dir_mismatch_detected(tmp_path, monkeypatch, capsys):
    export_catalog(str(tmp_path), ["K3"])
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    assert run(["catalog", "show", "K3"]) == 0
    capsys.readouterr()
    with open(os.path.join(str(tmp_path), "K3.json"), "a") as fh:
        fh.write(" ")
    assert run(["catalog", "show", "K3"]) == 1


def test_catalog_dir_entry_without_w_label_is_refused(tmp_path, monkeypatch, capsys):
    # a stored entry that differs from its re-derivation is parsed before the
    # mismatch is reported; an entry with no w label does not load, so it is
    # refused as a malformed input (exit 2), not as a failed identity
    data = entry_to_json(catalog("B2"))
    data["w_labels"] = []
    (tmp_path / "B2.json").write_text(json.dumps(data, indent=2) + "\n")
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    assert run(["check", "--entry", "B2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: stored catalog file")


def _b2_without_class_labels() -> str:
    data = entry_to_json(catalog("B2"))
    data["lattice"]["classes"] = None
    return json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize(
    "stored", [lambda: "not json\n", _b2_without_class_labels], ids=["not-json", "classes-null"]
)
def test_catalog_dir_malformed_file_exits_2(tmp_path, monkeypatch, capsys, stored):
    (tmp_path / "B2.json").write_text(stored())
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    assert run(["check", "--entry", "B2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: stored catalog file")
    assert "is not a valid catalog entry" in err


def test_catalog_dir_file_with_a_repeated_key_exits_2(tmp_path, monkeypatch, capsys):
    # read keeping the last "sigma", the file would be a valid entry whose
    # bytes differ, a mismatch (exit 1); a repeated key is a malformed file
    [path] = export_catalog(str(tmp_path), ["K3"])
    stored = Path(path)
    text = stored.read_text()
    assert text.count('"sigma": [') == 1
    stored.write_text(text.replace('"classes": {', '"classes": {\n      "sigma": [1, 1],', 1))
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    with pytest.raises(MalformedCatalogFile, match="repeated key 'sigma' in a JSON object"):
        catalog("K3")
    assert run(["check", "--entry", "K3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: stored catalog file {path}")
    assert "is not a valid catalog entry: repeated key 'sigma'" in err


def test_catalog_dir_entry_with_a_changed_coefficient_exits_1(tmp_path, monkeypatch, capsys):
    # a valid entry that is not the re-derived one fails as a mismatch
    data = entry_to_json(catalog("B2"))
    first = data["series"]["entries"][0]
    first["a"] = str(-Fraction(first["a"]))
    (tmp_path / "B2.json").write_text(json.dumps(data, indent=2) + "\n")
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    assert run(["catalog", "show", "B2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("verification failure: stored catalog file")
    assert "does not match the re-derived entry" in err


@pytest.mark.parametrize(
    "argv, ref", [(["build", "bg:3"], "bg:3"), (["catalog", "show", "B3"], "B3")]
)
@pytest.mark.parametrize("stored", [False, True], ids=["derived", "catalog-dir"])
def test_entry_output_is_the_cached_entry_bytes(
    tmp_path, monkeypatch, capsys, argv, ref, stored
):
    if stored:
        export_catalog(str(tmp_path), [ref])
        monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    else:
        monkeypatch.delenv("DONALDSON_CATALOG_DIR", raising=False)
    assert run(argv) == 0
    assert capsys.readouterr().out == entry_json_bytes(catalog(ref)).decode()


@pytest.mark.parametrize(
    "recipe, glue_args, label",
    [("bg:9", ["--g", "9"], "T1"), ("elliptic:9", ["--g", "1", "--torus"], "sigma")],
)
def test_glued_file_of_an_unlisted_entry_evaluates(tmp_path, capsys, recipe, glue_args, label):
    # the file names its sides B9 and S9, which catalog_names() does not list
    out = tmp_path / "glued.json"
    argv = ["glue", "--left", recipe, "--right", recipe, *glue_args, "--out", str(out)]
    assert run(argv) == 0
    assert json.loads(out.read_text())["left"] == catalog(recipe).name
    capsys.readouterr()
    assert run(["eval", "--glued", str(out), "--d1", label, "--d2", label]) == 0


@pytest.mark.parametrize("ref", ["B3", "bg:3", "BG:3"])
def test_catalog_dir_file_is_found_by_the_entry_name(tmp_path, monkeypatch, capsys, ref):
    [path] = export_catalog(str(tmp_path), ["bg:3"])
    assert os.path.basename(path) == "B3.json"
    stored = Path(path)
    stored.write_bytes(stored.read_bytes().replace(b'"a": "', b'"a": "-', 1))
    monkeypatch.setenv("DONALDSON_CATALOG_DIR", str(tmp_path))
    with pytest.raises(MalformedCatalogFile):
        catalog(ref)
    assert run(["check", "--entry", ref]) == 2
    assert capsys.readouterr().err.startswith(f"error: stored catalog file {path}")


def test_glue_out_file_holds_the_printed_bytes(tmp_path, capsys):
    out = tmp_path / "glued.json"
    assert run(["glue", "--left", "bg:3", "--right", "bg:3", "--g", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


def test_stdout_matches_bench_digests(tmp_path, monkeypatch, capsys):
    """Every g <= 4 CLI digest the benchmark records is reproduced in process."""
    path = Path(__file__).resolve().parent.parent / "bench" / "digests.json"
    recorded = {
        key.removeprefix("cli/"): digest
        for key, digest in json.loads(path.read_text()).items()
        if key.startswith("cli/")
        and all(int(g) <= 4 for g in re.findall(r"(?:bg:?|--g )(\d+)", key))
    }
    assert len(recorded) == 10
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DONALDSON_CATALOG_DIR", raising=False)
    # the r = 0 split of the shifted probe (T1 + rS, T1 - rS) the benchmark passes
    t1 = ",".join(map(str, catalog("bg:4").lattice.cls("T1").coords))
    # glue writes the file that eval reads
    for key in sorted(recorded, key=lambda k: not k.startswith("glue")):
        extra = [f"--d1={t1}", f"--d2={t1}"] if key.startswith("eval") else []
        assert run(key.split() + extra) == 0, key
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == recorded[key], key
