"""The package's export table: every public name, resolved on first use."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import donaldson
from donaldson import cli
from donaldson.fit import predict_glued, zero_coordinates
from donaldson.lattice import Lattice, d_zero, d_zero_value
from donaldson.series import DonaldsonSeries

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
    "BasisCoordinates", "CatalogEntry", "DonaldsonSeries", "ExpPolynomial",
    "GaussianRational", "GluedSeries", "GluingSpec", "HClass", "InexactDivision",
    "Lattice", "MarkedSurface", "RelationPoly", "SplitClass", "SplitSeries",
    "apply_relation", "basis_coordinates", "blow_up", "build_bg", "build_dia2",
    "catalog", "catalog_names", "check_adjunction", "check_involution",
    "closed_form_cg", "coefficient_match", "d_zero", "d_zero_value",
    "elliptic_surface", "eval_glued", "eval_insertion", "export_catalog",
    "finite_type_order", "fit_diagonal", "glue", "glue_conjectural", "glue_torus",
    "is_allowable", "is_characteristic", "pairing", "predict_glued",
    "relation_poly", "rshift", "signature", "split_series", "twist", "twisted",
    "unsplit_series", "zero_coordinates",
]

MODULES = ["constructions", "exppoly", "fit", "gaussian", "gluing", "lattice", "series"]


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 48
    assert sorted(donaldson.__all__) == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_the_object_of_its_defining_module(name):
    obj = getattr(donaldson, name)
    assert obj.__module__.startswith("donaldson.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_dir_lists_every_public_name_and_module():
    listed = set(dir(donaldson))
    assert set(PUBLIC_NAMES) <= listed
    assert set(MODULES) <= listed


def test_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="nope"):
        donaldson.nope
    with pytest.raises(ImportError):
        from donaldson import nope  # noqa: F401


def test_import_loads_no_submodule_and_modules_still_resolve():
    # `catalog list` runs without the gluing and fit modules
    script = (
        "import contextlib, io, sys, donaldson\n"
        "print(sorted(m for m in sys.modules if m.startswith('donaldson.')))\n"
        "from donaldson.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['catalog', 'list']) == 0\n"
        "print(sorted({'donaldson.gluing', 'donaldson.fit'} & set(sys.modules)))\n"
        f"for m in {MODULES!r}:\n"
        "    assert getattr(donaldson, m) is sys.modules['donaldson.' + m], m\n"
        "print('ok')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "[]", "ok"]


_HELP = ["--help", "-h"]
OPTIONS = {
    None: _HELP,
    "catalog": _HELP,
    "build": _HELP,
    "glue": sorted(_HELP + ["--g", "--left", "--out", "--right", "--torus", "--w-sq"]),
    "eval": sorted(_HELP + ["--d1", "--d2", "--expand-order", "--glued"]),
    "check": sorted(_HELP + ["--entry"]),
    "fit": sorted(_HELP + ["--g"]),
    "conjecture": sorted(_HELP + ["--g", "--left", "--right", "--w-sq"]),
}


def test_the_settable_surface_is_pinned():
    # the paper's hypotheses (b1 = 0 and b+ odd, a partial model of H^2, simple
    # type, D.S = 1) are structure: no field, parameter or flag lets a caller
    # step outside them, and eval works out S.D from --d1
    def init_fields(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert init_fields(Lattice) == ["name", "gram", "b_plus", "named"]
    assert init_fields(DonaldsonSeries) == ["lattice", "rows", "nums", "den"]
    assert params(predict_glued) == ["left", "right", "m_map"]
    assert params(zero_coordinates) == ["genus"]
    assert params(DonaldsonSeries.on) == ["lattice", "pairs"]
    assert params(d_zero) == ["w", "b_plus"]
    assert params(d_zero_value) == ["w_square", "b_plus"]

    def options(parser):
        return sorted(o for action in parser._actions for o in action.option_strings)

    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {None: options(parser)} | {name: options(p) for name, p in sub.choices.items()}
    assert found == OPTIONS


def test_no_module_encodes_json_with_indent():
    # json.dumps(..., indent=...) runs the pure-Python encoder; the one indented
    # writer is lattice._indented
    found = []
    for path in sorted((SRC / "donaldson").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps")
                and any(kw.arg == "indent" for kw in node.keywords)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _owners(tree) -> dict:
    """node -> the innermost function (or the module) holding it."""
    owners = {}
    for node in ast.walk(tree):
        owner = node if isinstance(node, ast.FunctionDef) else owners.get(node, tree)
        owners.update(dict.fromkeys(ast.iter_child_nodes(node), owner))
    return owners


def test_only_the_trusted_door_makes_a_value_past_its_checks():
    # lattice._trusted is the one door past a checked constructor, and the
    # audit (test_audit.py) wraps it; any other __new__ would escape the audit
    found = []
    for path in sorted((SRC / "donaldson").glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = _owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__new__":
                found.append(f"{path.stem}.{getattr(owners[node], 'name', '<module>')}")
    assert found == ["lattice._trusted"]


def test_only_the_one_characteristic_test_reads_the_wu_class():
    # Lattice._wu solves the Wu class and is_characteristic is the one test
    # that reads it: a second characteristic path would name _wu somewhere else
    found = []
    for path in sorted((SRC / "donaldson").glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = _owners(tree)
        for node in ast.walk(tree):
            field = {ast.Attribute: "attr", ast.FunctionDef: "name", ast.Constant: "value"}
            if type(node) in field and getattr(node, field[type(node)]) == "_wu":
                owner = node if isinstance(node, ast.FunctionDef) else owners[node]
                found.append(f"{path.stem}.{getattr(owner, 'name', '<module>')}")
    assert sorted(found) == ["lattice._wu", "lattice.is_characteristic"]


def test_one_common_denominator_rule_and_str_tokens():
    # lattice._over_lcm is the one rule that puts numbers over one denominator:
    # lattice imports lcm and only _over_lcm names it; a rational's token is
    # its str, so frac_token is named nowhere
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
             ast.FunctionDef: "name", ast.Constant: "value"}
    found, tokens = [], []
    for path in sorted((SRC / "donaldson").glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = _owners(tree)
        for node in ast.walk(tree):
            name = getattr(node, field[type(node)]) if type(node) in field else None
            if name == "lcm":
                found.append(f"{path.stem}.{getattr(owners[node], 'name', '<module>')}")
            elif name == "frac_token":
                tokens.append(f"{path.name}:{node.lineno}")
    assert sorted(found) == ["lattice.<module>", "lattice._over_lcm"]
    assert tokens == []


def test_exact_numbers_are_made_by_the_rules_in_lattice():
    # lattice._quotient is the one way an int over a positive int becomes a number,
    # and lattice._tokens the one writer of ints over a denominator as tokens: each
    # is defined there alone, no module makes _exact(Fraction(...)), and only
    # _tokens writes str(Fraction(...))
    defined, exact_of_fraction, str_of_fraction = [], [], []
    for path in sorted((SRC / "donaldson").glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = _owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("_quotient", "_tokens"):
                defined.append(f"{path.stem}.{node.name}")
            elif _calls(node, "_exact", "Fraction"):
                exact_of_fraction.append(f"{path.name}:{node.lineno}")
            elif _calls(node, "str", "Fraction"):
                str_of_fraction.append(f"{path.stem}.{getattr(owners[node], 'name', '<module>')}")
    assert sorted(defined) == ["lattice._quotient", "lattice._tokens"]
    assert exact_of_fraction == []
    assert str_of_fraction == ["lattice._tokens"]


def _calls(node, outer: str, inner: str) -> bool:
    """node is outer(inner(...), ...), both called by their bare names."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args):
        return False
    arg = node.args[0]
    return (node.func.id == outer and isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Name) and arg.func.id == inner)


def test_the_series_reader_takes_the_checked_constructor_alone():
    # series_from_json hands rows and numerators to DonaldsonSeries: it makes
    # no HClass per entry and does not go through DonaldsonSeries.on
    tree = ast.parse((SRC / "donaldson" / "series.py").read_text())
    reader = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "series_from_json")
    names = {node.id for node in ast.walk(reader) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(reader) if isinstance(node, ast.Attribute)}
    assert "DonaldsonSeries" in names
    assert "HClass" not in names | attrs and "on" not in names | attrs


def test_no_module_keys_by_object_identity():
    # values are keyed by what they are, never by id(): a writer that keyed
    # its tokens by the objects' ids would hang on how a maker shared them
    found = []
    for path in sorted((SRC / "donaldson").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
