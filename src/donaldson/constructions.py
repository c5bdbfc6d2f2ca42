"""Catalog of reference manifolds with known series.

The builders here produce value-level catalog entries:

* ``elliptic_surface(n)`` -- the minimal elliptic surface E(n) without
  multiple fibers, series e^{Q/2} (sinh F)^{n-2} on the {fiber, section}
  block;
* ``blow_up(entry)`` -- adds an exceptional (-1)-class E and doubles the
  entry list by K -> K +- E with half the coefficient;
* ``build_bg(g)`` -- E(g) blown up g times, carrying the genus-g square-zero
  surface S_g = section + g*fiber - sum E_i, which meets the fiber torus once;
* ``build_dia2(g', g)`` -- K3 blown up 2g'-2 times with a genus-g square-zero
  surface pairing at most 2g'-2 with every basic class: the vanishing
  reference for doubles;
* ``closed_form_cg(g)`` -- the two-class closed form for the double of B_g
  along its genus-g surface, used as the comparison target by the
  pairing-fit module.

An entry's lattice is its series' lattice; ``_RECIPES`` maps each recipe
head to its builder.  The blow-up builders share ``_blown_up``: m blow-ups
at once turn each row K, c into the 2^m int rows K +- E_1 +- ... +- E_m
with c / 2^m (the simple-type blow-up formula), so B(g) is one step from
E(g).  A blow-up of a checked base is not checked again: ``Lattice._blown``
makes the blown lattice L + <-1>^m and ``DonaldsonSeries._blown`` its
series, both through ``lattice._trusted``, by one lemma.  The rows come out
sorted and unique, as the base's are and the signs run in lexicographic
order; they are characteristic, as E_i^2 = -1 is odd; the Gram matrix stays
symmetric, and the negative block keeps b+ and the positive count.  Only
the gcd of ``den << m`` and the numerators is taken again.  Builders and
``blow_up`` refuse up front an entry of more than ``MAX_CLASSES`` basic
classes, and ``elliptic_surface`` and ``closed_form_cg`` one whose
coefficients have more digits than an int may be written with
(``sys.get_int_max_str_digits()``).  ``parse_recipe``, which every catalog
lookup goes through, runs ``CatalogEntry.validate`` once per derived entry.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from math import comb

from .lattice import (
    HClass,
    Lattice,
    MarkedSurface,
    _indented,
    _read,
    _unique_keys,
    lattice_from_json,
    lattice_to_json,
    same_lattice,
)
from .series import (
    DonaldsonSeries,
    _entries_text,
    _series_json,
    check_adjunction,
    check_involution,
    column,
    series_from_json,
    series_to_json,
)


class ConstructionError(ValueError):
    pass


class CatalogMismatch(ConstructionError):
    """A stored catalog file does not byte-match its re-derived entry."""


class MalformedCatalogFile(CatalogMismatch):
    """A mismatching stored catalog file does not even parse as an entry."""


@dataclass(frozen=True)
class CatalogEntry:
    """A series, marked surfaces on its lattice, and distinguished w choices."""

    name: str
    series: DonaldsonSeries
    surfaces: tuple[tuple[str, MarkedSurface], ...]
    w_labels: tuple[str, ...]
    glue_surface: str
    note: str = ""
    _surface_map: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_surface_map", dict(self.surfaces))
        if len(self._surface_map) != len(self.surfaces):
            raise ConstructionError(f"{self.name}: a surface label is repeated")
        if self.glue_surface not in self._surface_map:
            raise ConstructionError(f"{self.name}: no surface {self.glue_surface!r} to glue along")
        for label, s in self.surfaces:
            if not same_lattice(s.lattice, self.lattice):
                raise ConstructionError(f"{self.name}: surface {label!r} is on another lattice")
        if not self.w_labels:
            raise ConstructionError(f"{self.name}: no w label; w_class() needs at least one")
        for label in self.w_labels:
            if label not in self.lattice.labels():
                raise ConstructionError(f"{self.name}: w label {label!r} is not a class label")

    @property
    def lattice(self) -> Lattice:
        return self.series.lattice

    def surface(self, label: str | None = None) -> MarkedSurface:
        label = label or self.glue_surface
        s = self._surface_map.get(label)
        if s is None:
            raise KeyError(f"{self.name}: no marked surface {label!r}")
        return s

    def w_class(self, label: str | None = None) -> HClass:
        label = label or self.w_labels[0]
        return self.lattice.cls(label)

    @cached_property
    def json_bytes(self) -> bytes:
        """The entry's catalog file, encoded on first use; the entry is immutable.
        ``entry_to_json``'s layout, with the series' rows written straight from
        the ints by ``_entries_text``: the same bytes, and no dict per row."""
        series = _series_json(self.series, partial(_entries_text, self.series))
        return (_indented(_entry_json(self, series)) + "\n").encode()

    def validate(self) -> None:
        ok, bad = check_involution(self.series)
        if not ok:
            raise ConstructionError(
                f"{self.name}: involution symmetry K -> -K broken at {bad}"
            )
        for label, s in self.surfaces:
            ok, violators = check_adjunction(self.series, s)
            if not ok:
                raise ConstructionError(
                    f"{self.name}: adjunction bound violated against {label} "
                    f"by {violators}"
                )


MAX_CLASSES = 2**16
"""The most basic classes a recipe may build; ``elliptic_surface``,
``build_bg``, ``build_dia2`` and ``blow_up`` refuse a larger entry before
building it."""


def _check_size(name: str, classes: int, blowups: int = 0) -> None:
    """Refuse an entry of classes * 2^blowups basic classes over MAX_CLASSES."""
    if classes > MAX_CLASSES >> blowups:
        size = f"{classes} x 2^{blowups}" if blowups else str(classes)
        raise ConstructionError(
            f"{name}: {size} basic classes is over the limit of {MAX_CLASSES}"
        )


def _check_digits(name: str, power: int) -> None:
    """Refuse an entry whose coefficients hold 2^power when 2^power has more
    decimal digits than ``sys.get_int_max_str_digits()`` allows (0: no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2^power has more than limit digits iff power * log10(2) >= limit;
    # 0.30103 > log10(2), so the test may refuse one digit early, never late
    if limit and 30103 * power >= 100000 * limit:
        raise ConstructionError(
            f"{name}: a coefficient holds 2^{power}, over the {limit} digits "
            "an int may be written with (sys.get_int_max_str_digits())"
        )


# -- elliptic surfaces and blow-ups ------------------------------------------------


def elliptic_surface(n: int) -> CatalogEntry:
    """Minimal elliptic surface with p_g = n - 1; requires n >= 2.

    n = 1 has b+ = 1, where invariants depend on a chamber structure this
    calculator does not model.
    """
    if n < 2:
        raise ConstructionError(
            "n = 1 has b+ = 1 and chamber-dependent invariants; need n >= 2"
        )
    name = "K3" if n == 2 else f"S{n}"
    _check_size(name, n - 1)
    _check_digits(name, n - 2)
    lattice = Lattice(
        name=name,
        gram=((0, 1), (1, -n)),
        b_plus=2 * n - 1,
        named=(
            ("F", (1, 0)),
            ("sigma", (0, 1)),
        ),
    )
    f = lattice.cls("F")
    # K = kF for k = -(n-2), -(n-4), ..., n-2, with (-1)^j C(n-2, j) / 2^(n-2), j = (n-2-k)/2
    rows = tuple((k, 0) for k in range(-(n - 2), n - 1, 2))
    nums = tuple((-1) ** j * comb(n - 2, j) for j in range(n - 2, -1, -1))
    series = DonaldsonSeries(lattice, rows, nums, 2 ** (n - 2))
    return CatalogEntry(
        name=name,
        series=series,
        surfaces=(("F", MarkedSurface(f, genus=1)),),
        w_labels=("sigma",),
        glue_surface="F",
        note=f"minimal elliptic surface, geometric genus {n - 1}; "
        "series is the (n-2)-th power of sinh of the fiber",
    )


def blow_up(entry: CatalogEntry) -> CatalogEntry:
    """Add an exceptional (-1)-class E; entries become (K+E, c/2), (K-E, c/2)."""
    k = 1 + sum(lab.startswith("E") for lab in entry.lattice.labels())
    name = f"{entry.name}.bl{k}"
    _check_size(name, len(entry.series.rows), 1)
    series = _blown_up(name, entry.series, 1, first=k)
    lattice = series.lattice
    surfaces = tuple(
        (lab, MarkedSurface(HClass(lattice, s.cls.coords + (0,)), s.genus))
        for lab, s in entry.surfaces
    )
    return CatalogEntry(
        name=name,
        series=series,
        surfaces=surfaces,
        w_labels=entry.w_labels,
        glue_surface=entry.glue_surface,
        note=entry.note + f"; blown up at E{k}",
    )


def _blown_up(name, series, m, extra=(), first=1) -> DonaldsonSeries:
    """``series`` blown up m times, on its lattice + <-1>^m named ``name``.

    The new labels are E_first, ..., E_(first+m-1) (the bases of ``build_bg``
    and ``build_dia2`` have no E label), then the extra named classes (in
    the new basis) follow.  Each (K, c) becomes the 2^m classes K +- E_1 +-
    ... +- E_m with c / 2^m: a blow-up keeps b+ and b1 = 0, so the series
    keeps its parity in t, which forces the even combination of e^{+-E_i}.
    Both are made past their checks, by ``Lattice._blown`` and
    ``DonaldsonSeries._blown``, whose docstrings give why they hold.
    """
    return series._blown(series.lattice._blown(name, m, first, extra), m)


def build_bg(g: int) -> CatalogEntry:
    """E(g) blown up g times with its genus-g square-zero surface S_g."""
    if g < 2:
        raise ConstructionError("B(g) needs g >= 2")
    _check_size(f"B{g}", g - 1, g)
    # in the coordinates (F, sigma, E_1, ..., E_g)
    named = (
        ("T1", (1, 0) + (0,) * g),
        ("Sigma_g", (g, 1) + (-1,) * g),
        ("K", (g - 2, 0) + (1,) * g),
    )
    series = _blown_up(f"B{g}", elliptic_surface(g).series, g, named)
    lattice = series.lattice
    surface = MarkedSurface(lattice.cls("Sigma_g"), genus=g)
    torus = MarkedSurface(lattice.cls("T1"), genus=1)
    out = CatalogEntry(
        name=f"B{g}",
        series=series,
        surfaces=(("Sigma_g", surface), ("T1", torus)),
        w_labels=("T1", "sigma"),
        glue_surface="Sigma_g",
        note=f"elliptic surface E({g}) blown up {g} times, carrying the "
        "square-zero genus-g surface section + g*fiber - sum of exceptionals",
    )
    _check_bg(out, g)
    return out


def _check_bg(entry: CatalogEntry, g: int) -> None:
    lat, series = entry.lattice, entry.series
    sigma_g, t1 = lat.cls("Sigma_g"), lat.cls("T1")
    if t1.dot(sigma_g) != 1:
        raise ConstructionError(f"B{g}: fiber pairs {t1.dot(sigma_g)} with surface")
    top = [j for j, ks in enumerate(column(series, sigma_g)) if ks == 2 * g - 2]
    if len(top) != 1 or series.rows[top[0]] != lat.cls("K").coords:
        raise ConstructionError(f"B{g}: top class against the surface is not unique")
    c = Fraction(series.nums[top[0]], series.den)
    if c != Fraction(1, 2 ** (2 * g - 2)):
        raise ConstructionError(f"B{g}: top coefficient {c} is wrong")
    if len(series.rows) != 2**g * (g - 1):
        raise ConstructionError(f"B{g}: expected {2**g * (g - 1)} basic classes")


def build_dia2(g_prime: int, g: int) -> CatalogEntry:
    """K3 blown up 2g'-2 times with a genus-g surface; g' = 1 is K3 itself.

    The surface class is section + g'*fiber + sum of exceptionals; every
    basic class pairs with it in [-(2g'-2), 2g'-2], strictly below the
    adjunction bound 2g-2, so doubles along it have vanishing invariants.
    """
    if g_prime < 1 or g <= g_prime:
        raise ConstructionError("need 1 <= g' < g")
    blowups = 2 * g_prime - 2
    name = f"dia2:{g_prime}:{g}"
    _check_size(name, 1, blowups)
    # the K3 block in the (S, T) basis; its one basic class is 0, coefficient 1
    k3 = Lattice("K3", ((-2, 1), (1, 0)), b_plus=3, named=(("S", (1, 0)), ("T", (0, 1))))
    sigma1 = ("Sigma1", (1, g_prime) + (1,) * blowups)
    series = _blown_up(name, DonaldsonSeries.on(k3, [(k3.zero(), 1)]), blowups, [sigma1])
    lattice = series.lattice
    surface = MarkedSurface(lattice.cls("Sigma1"), genus=g)
    levels = column(series, surface.cls)
    max_pair = max(map(abs, levels), default=0)
    if max_pair != 2 * g_prime - 2:
        raise ConstructionError(f"{name}: max |K.S| = {max_pair} != {2 * g_prime - 2}")
    if levels.count(2 * g_prime - 2) != 1:
        raise ConstructionError(f"{name}: equality class is not unique")
    return CatalogEntry(
        name=name,
        series=series,
        surfaces=(("Sigma1", surface),),
        w_labels=("T",),
        glue_surface="Sigma1",
        note=f"K3 blown up {blowups} times; genus-{g} square-zero surface "
        f"pairing at most {2 * g_prime - 2} with every basic class",
    )


def closed_form_cg(g: int) -> CatalogEntry:
    """The closed-form series of the double of B(g) along its genus-g surface.

    Two classes +-K with K . Shat2 = 2 and K . Sigma_g = 2g - 2.  Stored, like
    every catalog series, as the untwisted baseline; its twist by w = Shat2
    has the coefficients -2^{3g-5} and (-1)^g 2^{3g-5}.  Used as the
    comparison target when re-deriving the universal pairing matrix, never
    as a gluing input.
    """
    if g < 2:
        raise ConstructionError("C(g) needs g >= 2")
    name = f"C{g}"
    _check_digits(name, 3 * g - 5)
    # modeled block spanned by (K, Shat2, Sigma_g); K^2 is not constrained by
    # any declared pairing and is set to 0
    lattice = Lattice(
        name=name,
        gram=(
            (0, 2, 2 * g - 2),
            (2, 0, 1),
            (2 * g - 2, 1, 0),
        ),
        b_plus=6 * g - 3,
        named=(
            ("K", (1, 0, 0)),
            ("Shat2", (0, 1, 0)),
            ("Sigma_g", (0, 0, 1)),
        ),
    )
    k = lattice.cls("K")
    top = 2 ** (3 * g - 5)
    # untwisting the Shat2-twist flips both signs: K.Shat2 = +-2, Shat2^2 = 0
    series = DonaldsonSeries.on(
        lattice,
        [(k, top), (-k, -((-1) ** g) * top)],
    )
    return CatalogEntry(
        name=name,
        series=series,
        surfaces=(
            ("Sigma_g", MarkedSurface(lattice.cls("Sigma_g"), genus=g)),
            ("Shat2", MarkedSurface(lattice.cls("Shat2"), genus=2)),
        ),
        w_labels=("Shat2",),
        glue_surface="Sigma_g",
        note="closed form for the double of B(g) along its genus-g surface; "
        "the twist by the genus-2 surface class gives -2^(3g-5), (-1)^g 2^(3g-5)",
    )


# -- catalog lookup and persistence ---------------------------------------------------


_RECIPES = {
    "elliptic": (elliptic_surface, 1),
    "bg": (build_bg, 1),
    "dia2": (build_dia2, 2),
    "cg": (closed_form_cg, 1),
}


@cache
def parse_recipe(ref: str) -> CatalogEntry:
    """Resolve a recipe string: elliptic:n | bg:g | dia2:g':g | cg:g.

    The one place the catalog validates a built entry; entries are
    immutable, so repeated lookups share one derivation and one check.
    """
    head, *args = ref.split(":")
    builder, arity = _RECIPES.get(head.lower(), (None, None))
    if len(args) != arity:
        raise KeyError(f"unknown catalog name or recipe {ref!r}")
    try:
        entry = builder(*map(int, args))
        entry.validate()
    except ValueError as exc:
        raise ConstructionError(f"bad recipe {ref!r}: {exc}") from exc
    return entry


def catalog_names() -> list[str]:
    names = ["K3"] + [f"S{n}" for n in range(3, 9)] + [f"B{g}" for g in range(2, 9)]
    return sorted(names + [f"C{g}" for g in range(2, 7)])


_FAMILIES = {"S": "elliptic", "B": "bg", "C": "cg"}


def _lookup(ref: str) -> CatalogEntry:
    """The entry a catalog name or recipe stands for.

    K3, S<n>, B<g> and C<g> name every entry their builders make; a name the
    entry does not carry (S2 builds K3) is unknown, and one its builder
    refuses (B1) is named in the ``ConstructionError``.
    """
    family = _FAMILIES.get(ref[:1])
    if family and ref[1:].isdecimal():
        recipe = f"{family}:{ref[1:]}"
    else:
        recipe = "elliptic:2" if ref == "K3" else ref
    head, *args = recipe.split(":")
    try:  # one cache key per spelling: a lower-case head and plain ints
        key = ":".join([head.lower(), *(str(int(a)) for a in args)])
    except ValueError:  # no int: parse_recipe refuses it as typed
        key = recipe
    try:  # errors name the ref typed, not the key read
        entry = parse_recipe(key)
    except KeyError:
        raise KeyError(f"unknown catalog name or recipe {ref!r}") from None
    except ConstructionError as exc:
        raise ConstructionError(f"bad recipe {ref!r}: {exc.__cause__}") from exc.__cause__
    if recipe != ref and entry.name != ref:
        raise KeyError(f"unknown catalog name or recipe {ref!r}")
    return entry


def catalog(ref: str) -> CatalogEntry:
    """Name-keyed retrieval; re-derives from the recipe and, when a stored
    JSON exists in the catalog directory, requires a byte-for-byte match.

    The stored file is named after the entry, whatever spelling looked it
    up, and read on every lookup; only the derived side's bytes are cached,
    on the entry.  A file that matches is never parsed; one that does not is
    parsed, a repeated key refused (``_unique_keys``), to tell a malformed
    file (``MalformedCatalogFile``) from a changed entry (``CatalogMismatch``).
    """
    entry = _lookup(ref)
    base = catalog_dir()
    if base is not None and os.path.exists(path := _entry_path(base, entry.name)):
        with open(path, "rb") as fh:
            stored = fh.read()
        if stored != entry_json_bytes(entry):
            try:
                entry_from_json(json.loads(stored, object_pairs_hook=_unique_keys))
            except ValueError as exc:
                raise MalformedCatalogFile(
                    f"stored catalog file {path} is not a valid catalog entry: {exc}"
                ) from exc
            raise CatalogMismatch(
                f"stored catalog file {path} does not match the re-derived "
                f"entry for {ref!r}"
            )
    return entry


def catalog_dir() -> str | None:
    return os.environ.get("DONALDSON_CATALOG_DIR")


def _entry_path(directory: str, name: str) -> str:
    """The file an entry is stored in: its name with ':' read as '_'."""
    return os.path.join(directory, name.replace(":", "_") + ".json")


def entry_to_json(entry: CatalogEntry) -> dict:
    return _entry_json(entry, series_to_json(entry.series))


def _entry_json(entry: CatalogEntry, series: dict) -> dict:
    """``entry_to_json``'s layout around the ``series`` part.  Construction
    order is deterministic; sorting keys would scramble the class table."""
    return {
        "name": entry.name,
        "lattice": lattice_to_json(entry.lattice),
        "series": series,
        "surfaces": [
            {"label": lab, "class": [str(c) for c in s.cls.coords], "genus": s.genus}
            for lab, s in entry.surfaces
        ],
        "w_labels": list(entry.w_labels),
        "glue_surface": entry.glue_surface,
        "note": entry.note,
    }


_SURFACE = ("a surface", {"label": str, "class": list, "genus": int}, ())
_CATALOG_ENTRY = ("a catalog entry", {"name": str, "lattice": dict, "series": dict,
                  "surfaces": [_SURFACE], "w_labels": [str], "glue_surface": str, "note": str}, ())


def entry_from_json(data: dict) -> CatalogEntry:
    """The entry ``entry_to_json`` wrote; a malformed shape is refused (``_read``)."""
    _read(data, _CATALOG_ENTRY, "", ConstructionError)
    lattice = lattice_from_json(data["lattice"])
    series = series_from_json(data["series"], lattice)
    surfaces = [
        (s["label"], MarkedSurface(HClass(lattice, s["class"]), s["genus"]))
        for s in data["surfaces"]
    ]
    return CatalogEntry(
        name=data["name"],
        series=series,
        surfaces=tuple(surfaces),
        w_labels=tuple(data["w_labels"]),
        glue_surface=data["glue_surface"],
        note=data["note"],
    )


def entry_json_bytes(entry: CatalogEntry) -> bytes:
    return entry.json_bytes


def export_catalog(directory: str, names=None) -> list[str]:
    """Write catalog entries as JSON files, each named after its entry;
    returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for ref in catalog_names() if names is None else names:
        entry = _lookup(ref)
        path = _entry_path(directory, entry.name)
        with open(path, "wb") as fh:
            fh.write(entry_json_bytes(entry))
        written.append(path)
    return written
