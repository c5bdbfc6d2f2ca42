"""Exact symbolic calculator for Donaldson series of simple-type 4-manifolds.

The package models series of basic classes on partial intersection lattices,
implements the two-sector surface calculus with exact Gaussian-rational
scalars, glues series pairwise along genus-g square-zero odd surfaces, and
re-derives the universal diagonal pairing matrix from reference gluings as a
self-consistency check.  All arithmetic is exact; there is no floating
point.

Each public name is written once, in ``_EXPORTS`` under the module that
defines it; that module is imported the first time the name is read
(PEP 562), so ``import donaldson`` alone imports no submodule.  The
modules themselves still resolve as attributes (``donaldson.gluing``).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "constructions": (
        "CatalogEntry", "blow_up", "build_bg", "build_dia2", "catalog",
        "catalog_names", "closed_form_cg", "elliptic_surface", "export_catalog",
    ),
    "exppoly": ("ExpPolynomial", "InexactDivision"),
    "fit": (
        "BasisCoordinates", "basis_coordinates", "fit_diagonal", "predict_glued",
        "zero_coordinates",
    ),
    "gaussian": ("GaussianRational",),
    "gluing": (
        "GluedSeries", "GluingSpec", "SplitClass", "coefficient_match", "eval_glued",
        "glue", "glue_conjectural", "glue_torus", "rshift",
    ),
    "lattice": (
        "HClass", "Lattice", "MarkedSurface", "d_zero", "d_zero_value",
        "is_allowable", "is_characteristic", "pairing", "signature",
    ),
    "series": (
        "DonaldsonSeries", "RelationPoly", "SplitSeries", "apply_relation",
        "check_adjunction", "check_involution", "eval_insertion",
        "finite_type_order", "relation_poly", "split_series", "twist", "twisted",
        "unsplit_series",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_EXPORTS})
