"""Command-line front end: catalog access, gluing, evaluation, verification.

Exit codes: 0 success, 1 a stated identity broke during verification,
2 usage error, which includes a file that cannot be read or written.  The
catalog verifies an entry's characteristic classes, involution symmetry
and adjunction bounds when it derives the entry, so an entry that breaks
one is refused with 2; ``check`` reports those as ok and computes the
point-class order (``x2_minus_4``) and ``relation_poly`` itself.  A
stdout closed by its reader ends a command with 0, since a command prints
only after its work and its checks succeeded.  All rationals in the JSON
output are exact strings.

The gluing and fit modules are imported inside the commands that use them:
glue, eval and conjecture load gluing, fit loads fit alone, and catalog,
build and check load neither.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constructions import (
    CatalogMismatch,
    MalformedCatalogFile,
    catalog,
    catalog_names,
    entry_json_bytes,
)
from .lattice import HClass, _indented, _unique_keys
from .series import finite_type_order, relation_poly, split_series, z_value


class VerificationError(Exception):
    """A stated identity failed; the message names the violated law."""


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _StdoutClosed:
        # every command prints only after its work and its checks succeeded;
        # fd 1 goes to devnull so the exit flush of stdout cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except MalformedCatalogFile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, CatalogMismatch) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, OSError) as exc:  # package errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donaldson",
        description="Exact calculator for Donaldson series and their gluing laws",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("catalog", help="list or show catalog entries")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser(
        "build", help="build an entry from a recipe: elliptic:n | bg:g | dia2:g':g | cg:g"
    )
    p.add_argument("recipe")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("glue", help="glue two catalog entries along their surfaces")
    p.add_argument("--left", required=True, help="catalog name or recipe")
    p.add_argument("--right", required=True, help="catalog name or recipe")
    p.add_argument("--g", type=int, required=True, help="genus of the gluing surfaces")
    p.add_argument("--w-sq", type=int, default=None, help="glued w^2 (default normalized)")
    p.add_argument("--torus", action="store_true", help="use the genus-1 rule")
    p.add_argument("--out", default=None, help="write the glued JSON to a file")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("eval", help="evaluate a glued series on a split class")
    p.add_argument("--glued", required=True, help="JSON file from the glue command")
    p.add_argument("--d1", required=True, help="left class label or coords a,b,...")
    p.add_argument("--d2", required=True, help="right class label or coords")
    p.add_argument("--expand-order", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="run the identity suites on an entry")
    p.add_argument("--entry", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fit", help="fit the universal diagonal pairing entries")
    p.add_argument("--g", type=int, required=True, help="surface genus")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "conjecture", help="EXPERIMENTAL stabilized gluing rule on two entries"
    )
    p.add_argument("--left", required=True, help="stabilized entry: name or recipe")
    p.add_argument("--right", required=True, help="stabilized entry: name or recipe")
    p.add_argument("--g", type=int, required=True, help="genus of the gluing surfaces")
    p.add_argument("--w-sq", type=int, default=None, help="glued w^2 (default normalized)")
    p.set_defaults(func=_cmd_conjecture)

    return parser


class _StdoutClosed(Exception):
    """The reader of stdout went away while a command was printing."""


def _print(text: str, end: str = "\n") -> None:
    """Every write to stdout, flushed, so that a closed stdout shows here."""
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError as exc:
        raise _StdoutClosed from exc


def _emit(payload: dict) -> None:
    _print(_indented(payload))


def _emit_entry(ref: str) -> None:
    """An entry's JSON is its cached catalog bytes, the ones a lookup checks."""
    _print(entry_json_bytes(catalog(ref)).decode(), end="")


def _cmd_catalog(args) -> int:
    if args.action == "list":
        _emit({"entries": catalog_names()})
        return 0
    if not args.name:
        print("error: catalog show needs a name", file=sys.stderr)
        return 2
    _emit_entry(args.name)
    return 0


def _cmd_build(args) -> int:
    _emit_entry(args.recipe)
    return 0


def _make_spec(left_ref: str, right_ref: str, g: int, w_sq):
    from .gluing import GluingError, GluingSpec

    spec = GluingSpec(left=catalog(left_ref), right=catalog(right_ref), w_square=w_sq)
    if spec.genus != g:
        raise GluingError(
            f"surfaces have genus {spec.genus}, but --g {g} was requested"
        )
    return spec


def _cmd_glue(args) -> int:
    from .gluing import glue, glue_torus, glued_to_json

    spec = _make_spec(args.left, args.right, args.g, args.w_sq)
    gs = glue_torus(spec) if args.torus else glue(spec)
    text = _indented(glued_to_json(gs))
    # the file is written before anything is printed, so a bad --out
    # leaves stdout empty
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    _print(text)
    return 0


def _parse_class(lattice, token: str) -> HClass:
    if "," in token:
        return HClass(lattice, token.split(","))
    return lattice.cls(token)


def _cmd_eval(args) -> int:
    from .gluing import eval_glued, glued_from_json

    with open(args.glued) as fh:
        gs = glued_from_json(json.load(fh, object_pairs_hook=_unique_keys))
    d1 = _parse_class(gs.spec.left.lattice, args.d1)
    d2 = _parse_class(gs.spec.right.lattice, args.d2)
    d = gs.spec.split_class(d1, d2)
    poly = eval_glued(gs, d)
    payload = poly.to_json()
    if args.expand_order is not None:
        payload["expansion"] = [
            c.to_token() for c in poly.expand(args.expand_order)
        ]
    if gs.experimental:
        payload["experimental"] = True
    _emit(payload)
    return 0


def _cmd_check(args) -> int:
    entry = catalog(args.entry)
    # catalog() derived the entry through parse_recipe, which refuses one
    # that breaks the involution symmetry or an adjunction bound
    results = {"involution": "ok"}
    for label, _ in entry.surfaces:
        results[f"adjunction[{label}]"] = "ok"
    results["characteristic"] = "ok"  # enforced structurally on construction

    w = entry.w_class()
    s = entry.surface()
    order = finite_type_order(entry.series, w, s)
    expected = 0 if entry.series.is_zero else 1
    if order != expected:
        raise VerificationError(
            f"{entry.name}: point-class order {order}, expected {expected}"
        )
    results["x2_minus_4"] = f"order {order}"

    if s.genus >= 2:
        # z is one scalar per surface level, whatever the twist, so it kills
        # the series at every D with D.S = 1 exactly when it is zero at each
        # level; the levels are those of the split finite_type_order tabled
        z = relation_poly(s.genus)
        levels = split_series(entry.series, w, s).levels
        if any(not z_value(z, ks, 1).is_zero for ks in levels):
            raise VerificationError(
                f"{entry.name}: genus-{s.genus} relation polynomial "
                "failed to annihilate the series"
            )
        results["relation_poly"] = "ok"
    else:
        results["relation_poly"] = "skipped (genus 1 surface)"

    _emit({"entry": entry.name, "checks": results})
    return 0


def _cmd_fit(args) -> int:
    from .fit import FitError, basis_coordinates, fit_diagonal, zero_coordinates

    g = args.g
    if g < 2:
        raise FitError("fit needs --g >= 2")
    # every entry is resolved before any coordinate is computed, the largest,
    # dia2:{g-1}:{g}, first: a genus over the size limit is refused up front
    doubles = [catalog(f"dia2:{gp}:{g}") for gp in range(g - 1, 0, -1)][::-1]
    bg = catalog(f"bg:{g}")
    cg = catalog(f"cg:{g}")
    w = bg.w_class("T1")
    s = bg.surface("Sigma_g")
    d = bg.lattice.cls("T1")
    bc_side = basis_coordinates(bg.series, w, s, d)
    bc_glued = basis_coordinates(
        cg.series, cg.w_class("Shat2"), cg.surface("Sigma_g"), cg.lattice.cls("Shat2")
    )
    triples = [(bc_side, bc_side, bc_glued)]
    for side in doubles:
        bc = basis_coordinates(
            side.series, side.w_class(), side.surface(), side.lattice.cls("T")
        )
        triples.append((bc, bc, zero_coordinates(g)))
    fitted = fit_diagonal(triples)
    payload = {
        "g": g,
        "entries": [
            {"alpha": alpha, "M": fitted[alpha].to_json()}
            for alpha in sorted(fitted)
        ],
    }
    _emit(payload)
    return 0


def _cmd_conjecture(args) -> int:
    from .gluing import glue_conjectural, glued_to_json

    spec = _make_spec(args.left, args.right, args.g, args.w_sq)
    _emit(glued_to_json(glue_conjectural(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
