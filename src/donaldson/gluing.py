"""Gluing of Donaldson series along a common surface.

For two simple-type manifolds carrying compatible genus-g square-zero odd
surfaces, the series of the connected sum along the surface (on the subspace
of classes restricting to multiples of the circle on the neck) is assembled
pairwise from the inputs: only pairs of basic classes with K.S = L.S = 2g-2
or = -(2g-2) contribute, with universal coefficients

    +sector:  -2^{7g-9} a_j b_k        -sector:  (-1)^g 2^{7g-9} a_j b_k

on the twisted coefficients, times epsilon = (-1)^{(g-1)(w^2-w1^2-w2^2)/2}
when the glued w is not normalized mod 4.  Glued basic classes are never
materialized as lattice vectors: an output entry is a parent pair plus a
sector sign, and evaluation against a split class (D1, D2) uses the exponent
K.D1 + L.D2 +- 2 (S.D) t.

Each rule, the torus and the experimental stabilized rules too, is a table
of rows (sector, scale, level) written once, in ``_rows(kind, g, eps)``:
gluing runs it, ``GluedSeries`` takes its sectors from it and
``coefficient_match`` its predicted scale.  Each side's ``SplitSeries``, its
series' one split for (w, S) (``split_series``), taken with the spec, gives
the twisted numerators and, through ``levels``, the rows at a level; row j
of a split is series row j, so glued indices address both.

A rule's coefficients are products scale * a_j * b_k of a few distinct
values, so neither gluing nor evaluation does rational arithmetic per entry:
``_glued`` forms one product per distinct value, and a gluing's
``_int_form`` is (L, one int c * L per entry, in entry order), the
coefficients over one denominator (``lattice._over_lcm``).  ``_glued``
makes its output with that column through ``lattice._trusted``, so a
rule's output is not walked again; entries from anywhere else (a JSON
load, ``dataclasses.replace``) are checked and get the same column.
``eval_glued`` reads the column against D's ints: a ``SplitClass`` holds
its int form (m, m D1, m D2), both halves over their one denominator m;
``_scaled_halves`` makes each m D_i from its ints, and each side's parent
rows with entries (``GluedSeries._parents``, listed once per gluing) are
paired with m D_i in one batch; the int sums, sorted by exponent and
without the zero ones, are the result's terms (``ExpPolynomial._canonical``).
``rshift`` moves D's ints, makes one number per coordinate and hands the
moved class its halves and its int form.  Each int over a positive int
that these turn into a number goes through ``lattice._quotient``, and each
value they make past a checked constructor goes through ``lattice._trusted``
and equals its checked twin, as its maker derives it from checked values.
``coefficient_match`` reads ``_match``, a gluing's one index of the answers
that can be nonzero, made on its first read; ``glued_to_json`` formats each
distinct int of the column once (``lattice._tokens``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import islice, repeat
from math import gcd

from .constructions import CatalogEntry, catalog
from .exppoly import ExpPolynomial
from .gaussian import GaussianRational
from .lattice import (
    HClass, LatticeMismatch, _NUMBER, _exact, _over_lcm, _quotient, _read, _tokens, _trusted,
    d_zero_value, same_lattice,
)
from .series import SeriesError, SplitSeries, split_series


class GluingError(ValueError):
    pass


@dataclass(frozen=True)
class GluingSpec:
    """The two sides of a gluing: entries, chosen surfaces and w-classes.
    ``w_square``, the glued w^2, enters only through w^2 - w1^2 - w2^2, which
    must be even and gives the epsilon sign when it is 2 mod 4.  The spec
    resolves each side's labels once, into its split, and ``w_square`` once,
    to the number it names (``_exact``) or, when None, w1^2 + w2^2, so a
    reloaded spec equals the one written.
    """

    left: CatalogEntry
    right: CatalogEntry
    left_surface: str | None = None
    right_surface: str | None = None
    left_w: str | None = None
    right_w: str | None = None
    w_square: int | Fraction | None = None
    _splits: tuple[SplitSeries, SplitSeries] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s1, s2 = self.left.surface(self.left_surface), self.right.surface(self.right_surface)
        if s1.genus != s2.genus:
            raise GluingError(
                f"genus mismatch: {s1.genus} on {self.left.name}, "
                f"{s2.genus} on {self.right.name}"
            )
        w1, w2 = self.left.w_class(self.left_w), self.right.w_class(self.right_w)
        splits = []
        for entry, s, w in ((self.left, s1, w1), (self.right, s2, w2)):
            try:
                splits.append(split_series(entry.series, w, s))
            except SeriesError as exc:
                raise GluingError(f"{entry.name}: {exc}") from exc
        object.__setattr__(self, "_splits", tuple(splits))
        w_sq = self.w1.square + self.w2.square if self.w_square is None else _exact(self.w_square)
        object.__setattr__(self, "w_square", w_sq)
        if (w_sq - self.w1.square - self.w2.square) % 2 != 0:
            raise GluingError("w^2 - w1^2 - w2^2 must be even")

    @property
    def surface1(self):
        return self._splits[0].surface

    @property
    def surface2(self):
        return self._splits[1].surface

    @property
    def w1(self) -> HClass:
        return self._splits[0].w

    @property
    def w2(self) -> HClass:
        return self._splits[1].w

    @property
    def genus(self) -> int:
        return self.surface1.genus

    @property
    def epsilon(self) -> int:
        delta = self.w_square - self.w1.square - self.w2.square
        return -1 if ((self.genus - 1) * (delta // 2)) % 2 else 1

    @property
    def glued_b_plus(self) -> int:
        return self.left.series.b_plus + self.right.series.b_plus + 2 * self.genus - 1

    def glued_d_zero(self) -> int:
        return d_zero_value(self.w_square, self.glued_b_plus)

    def split_class(self, d1: HClass, d2: HClass) -> "SplitClass":
        return SplitClass(d1, d2, d1.dot(self.surface1.cls))

    def swapped(self) -> "GluingSpec":
        return GluingSpec(
            self.right,
            self.left,
            self.right_surface,
            self.left_surface,
            self.right_w,
            self.left_w,
            self.w_square,
        )


@dataclass(frozen=True)
class SplitClass:
    """A class D on the glued manifold, given by its two agreeing halves.

    Both halves pair with their surface as S.D; D^2 is D1^2 + D2^2 by the
    choice of agreeing caps.  Rational coordinates are allowed.  ``_int_form``
    is (m, m D1, m D2): both halves' coordinates over their one denominator m
    (one ``_over_lcm``), each m D_i a tuple of ints; ``rshift`` hands a moved
    class the int form it derived.
    """

    d1: HClass
    d2: HClass
    sigma_pairing: int | Fraction
    _int_form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, ints = _over_lcm(self.d1.coords + self.d2.coords)
        n = len(self.d1.coords)
        self.__dict__.update(sigma_pairing=_exact(self.sigma_pairing),
                             _int_form=(m, tuple(ints[:n]), tuple(ints[n:])))

    @property
    def square(self) -> int | Fraction:
        return self.d1.square + self.d2.square


def _scaled_halves(spec: GluingSpec, d: SplitClass) -> tuple[int, HClass, HClass]:
    """(m, m D1, m D2) from D's int form: each m D_i is the class of its int
    row (``HClass._row``), and D_i itself when m = 1, so its cached covector
    and square serve.  Per half, a half on a lattice other than its side's
    raises ``LatticeMismatch``, then m D_i.S != m S.D raises ``GluingError``
    naming the exact D_i.S."""
    m, *ints = d._int_form
    scaled = []
    halves = zip(("D1", "D2"), (d.d1, d.d2), ints, spec._splits)
    for name, half, own, split in halves:
        if not same_lattice(half.lattice, split.series.lattice):
            raise LatticeMismatch("split class halves on the wrong lattices")
        half = half if m == 1 else HClass._row(half.lattice, own)
        level = half.dot(split.surface.cls)
        if level != m * d.sigma_pairing:
            raise GluingError(
                f"{name}.S = {_quotient(level, m)} disagrees with the declared "
                f"S.D = {d.sigma_pairing}"
            )
        scaled.append(half)
    return m, *scaled


def _rows(kind: str, g: int, eps: int) -> tuple[tuple[int, Fraction, int], ...]:
    """The rows (sector, scale, level) of the gluing rule ``kind`` at genus g
    and sign eps, the one place a rule is written:

        standard    (+, -eps 2^{7g-9}, 2g-2)  and  (-, eps (-1)^g 2^{7g-9}, -(2g-2))
        stabilized  the same rows with 2^{5-3g}
        torus       -eps/4, -eps/2, -eps/4 on the +, 0, - sectors at level 0

    An unknown kind, or a standard or stabilized kind below genus 2, raises
    ``GluingError``.
    """
    if type(kind) is not str or kind not in ("standard", "stabilized", "torus"):
        raise GluingError(f"unknown gluing kind {kind!r}")
    if kind == "torus":
        quarter = Fraction(-eps, 4)
        return ((+1, quarter, 0), (0, 2 * quarter, 0), (-1, quarter, 0))
    if g < 2:
        raise GluingError(f"a {kind} gluing needs genus >= 2, got genus {g}")
    scale = Fraction(2) ** (7 * g - 9 if kind == "standard" else 5 - 3 * g)
    return ((+1, -eps * scale, 2 * g - 2), (-1, eps * (-1) ** g * scale, 2 - 2 * g))


@dataclass(frozen=True)
class GluedSeries:
    """Output of a gluing: (left index, right index, sector, coefficient).
    Sectors are the ints +1 / -1 (exponent shift +-2 S.D) and 0 for the
    torus rule's unshifted sector.  ``entries`` is a list or tuple of such
    4-item lists or tuples; indices are ints in [0, n) of their side's rows,
    coefficients ints or Fractions, and each (left, right, sector) occurs at
    most once; one walk names the first entry that fails any of these.  A
    genus-1 spec takes only the torus kind.
    """

    spec: GluingSpec
    kind: str  # "standard", "torus" or "stabilized": a rule of _rows
    entries: tuple[tuple[int, int, int, Fraction], ...]
    # (L, ints): the coefficients over one L (_over_lcm), ints[i] = c * L of entries[i]
    _int_form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sectors = tuple(row[0] for row in _rows(self.kind, self.spec.genus, self.spec.epsilon))
        n1, n2 = len(self.spec.left.series.rows), len(self.spec.right.series.rows)
        entries, seen = self.entries, set()
        if type(entries) not in (list, tuple):
            raise GluingError(f"entries must be a list or a tuple, got a {type(entries).__name__}")
        for entry in entries:  # name the first entry that fails, and what it fails
            if type(entry) not in (list, tuple) or len(entry) != 4:
                raise GluingError(f"entry {entry!r}: must be [left, right, sector, coefficient]")
            j, k, s, c = entry
            if not (
                type(j) is int and 0 <= j < n1 and type(k) is int and 0 <= k < n2
                and type(s) is int and s in sectors and (type(c) is Fraction or type(c) is int)
            ):
                known = type(s) is int and s in sectors
                name = f"pair [{j!r}, {k!r}, {_SECTOR_CODE[s] if known else s!r}]"
                for side, idx, n in (("left", j, n1), ("right", k, n2)):
                    if type(idx) is not int or not 0 <= idx < n:
                        raise GluingError(f"{name}: the {side} index must be an int in [0, {n})")
                if not known:
                    raise GluingError(f"{name}: a {self.kind} gluing has no sector {s!r}")
                raise GluingError(f"{name}: the coefficient must be an int or a Fraction")
            if (j, k, s) in seen:
                raise GluingError(f"pair [{j}, {k}, {_SECTOR_CODE[s]!r}] is repeated")
            seen.add((j, k, s))
        den, ints = _over_lcm(c for _, _, _, c in entries)
        self.__dict__.update(entries=tuple(entries), _int_form=(den, tuple(ints)))

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def experimental(self) -> bool:
        """Output of the conjectural rule, flagged in every file and evaluation."""
        return self.kind == "stabilized"

    def left_class(self, j: int) -> HClass:
        return HClass._row(self.spec.left.lattice, self.spec.left.series.rows[j])

    def right_class(self, k: int) -> HClass:
        return HClass._row(self.spec.right.lattice, self.spec.right.series.rows[k])

    # glue_fit op_tail_ms -12% and op_p50_ms -2.8% with it, 9 of 10 pairs each (BENCH_51.json)
    @cached_property
    def _parents(self) -> tuple[tuple[int, ...], list, tuple[int, ...], list]:
        """(js, their left rows, ks, their right rows): the parent rows that
        have entries, each once, in the order of their first entry; made on
        the first read, as ``eval_glued`` pairs them on every call."""
        js = tuple(dict.fromkeys(j for j, _, _, _ in self.entries))
        ks = tuple(dict.fromkeys(k for _, k, _, _ in self.entries))
        left, right = self.spec.left.series.rows, self.spec.right.series.rows
        return js, [left[j] for j in js], ks, [right[k] for k in ks]

    @cached_property
    def _match(self) -> dict[tuple[int, int], tuple]:
        """``coefficient_match``'s answer per row pair (j, k) that can be
        nonzero: the pairs with entries, grouped over their sectors and
        untwisted (the twist multiplied a_j and b_k by +-1), and the pairs at a
        common level of a rule row, predicted as that row's scale times the
        untwisted a_j b_k."""
        spec = self.spec
        left, right = spec.left.series, spec.right.series
        a, b = spec._splits[0].nums, spec._splits[1].nums
        den, ints = self._int_form
        match = {}
        for (j, k, _, _), n in zip(self.entries, ints):
            match[j, k] = match.get((j, k), 0) + n
        for (j, k), n in match.items():
            grouped = _quotient(n, den)
            if (a[j] == left.nums[j]) != (b[k] == right.nums[k]):
                grouped = -grouped
            match[j, k] = (grouped, 0)
        for _, scale, lvl in _rows(self.kind, spec.genus, spec.epsilon):
            for j in spec._splits[0].levels.get(lvl, ()):
                for k in spec._splits[1].levels.get(lvl, ()):
                    product = Fraction(left.nums[j] * right.nums[k], left.den * right.den)
                    match[j, k] = (match.get((j, k), (0, 0))[0], _exact(scale * product))
        return match


MAX_GLUED_ENTRIES = 2**20
"""The most entries a gluing may have; ``_glued`` refuses more before building any."""


def _glued(spec: GluingSpec, kind: str) -> GluedSeries:
    """Run the rule ``kind``, refused before any product if ``_rows`` refuses
    it: each row keeps every left/right pair of classes at its surface level
    (from ``levels``), with coefficient scale * a_j * b_k on the twisted
    coefficients.  Per left row, scale * a_j is formed once and multiplied by
    each distinct b of the level once; an entry reads its product by its b,
    and the int column its product over L, the products' one denominator
    (``_over_lcm``).  ``_trusted`` makes the output unchecked: indices come from
    ``levels``, sectors from ``_rows``, and each (pair, sector) is one entry."""
    rows = _rows(kind, spec.genus, spec.epsilon)
    left, right = spec._splits
    nums1, nums2 = left.nums, right.nums
    blocks = [(sector, scale, left.levels.get(lvl, ()), right.levels.get(lvl, ()))
              for sector, scale, lvl in rows]
    size = sum(len(js) * len(ks) for _, _, js, ks in blocks)
    if size > MAX_GLUED_ENTRIES:
        raise GluingError(f"{size} glued entries is over the limit of {MAX_GLUED_ENTRIES}")
    made = []  # (sector, j, its products, ks, index of each b_k's product)
    for sector, scale, js, ks in blocks:
        distinct: dict[int, int] = {}  # right numerator -> its index
        at = [distinct.setdefault(nums2[k], len(distinct)) for k in ks]
        for j in js:
            scaled = scale * Fraction(nums1[j], left.series.den * right.series.den)
            made.append((sector, j, [scaled * b for b in distinct], ks, at))
    den, flat = _over_lcm(c for _, _, products, _, _ in made for c in products)
    flat, entries, ints = iter(flat), [], []
    for sector, j, products, ks, at in made:
        entries.extend(zip(repeat(j), ks, repeat(sector), map(products.__getitem__, at)))
        ints.extend(map(list(islice(flat, len(products))).__getitem__, at))
    return _trusted(GluedSeries, spec=spec, kind=kind, entries=tuple(entries),
                    _int_form=(den, tuple(ints)))


def glue(spec: GluingSpec) -> GluedSeries:
    """Pairwise gluing for genus >= 2; only the +-(2g-2) levels survive."""
    return _glued(spec, "standard")


def glue_torus(spec: GluingSpec) -> GluedSeries:
    """Genus-1 gluing: every pair contributes three sectors; requires all
    basic classes to pair to zero with the tori."""
    if spec.genus != 1:
        raise GluingError("torus rule needs genus-1 surfaces")
    bad = [lvl for split in spec._splits for lvl in split.levels if lvl]
    if bad:
        raise GluingError(f"torus rule needs K.S = 0 for all classes, got {bad[0]}")
    return _glued(spec, "torus")


def glue_conjectural(spec: GluingSpec) -> GluedSeries:
    """EXPERIMENTAL: pairing rule for stabilized inputs.

    Takes series of manifolds already summed with the genus-g reference
    B(g) along the surface, filters by K.S = +-(2g-2), and applies the
    conjectural coefficients -+2^{-3g+5} with no surface shift in the
    evaluation exponents.  The validity of this rule is a conjecture; the
    output is flagged and must not be mixed with proven identities.
    """
    return _glued(spec, "stabilized")


def eval_glued(gs: GluedSeries, d: SplitClass) -> ExpPolynomial:
    """Evaluate a glued series on e^{tD} for a split class D.

    Each entry's exponent is K.D1 + L.D2 plus the sector shift +-2 S.D (none
    for the torus 0-sector and stabilized output); with m the common
    denominator of D's coordinates, m times it is an int.  The parent rows
    that have entries (``GluedSeries._parents``) are paired in one
    ``Lattice.pairings`` batch per side with the integral m D1 or m D2
    (``_scaled_halves``), and one pass over the entries and their ints in
    ``_int_form`` adds int coefficients into int exponents; D^2 is
    ((m D1)^2 + (m D2)^2) / m^2.  The sums, sorted by exponent (m > 0 keeps
    the order) and without the zero ones, are the result's terms as they
    stand (``ExpPolynomial._canonical``)."""
    m, md1, md2 = _scaled_halves(gs.spec, d)
    den, ints = gs._int_form
    js, left_rows, ks, right_rows = gs._parents
    # K.(m D1) and L.(m D2) per parent row with an entry, one batch per side
    u = dict(zip(js, gs.spec.left.lattice.pairings(left_rows, md1)))
    v = dict(zip(ks, gs.spec.right.lattice.pairings(right_rows, md2)))
    shift = 0 if gs.kind == "stabilized" else _exact(2 * m * d.sigma_pairing)
    sums: dict[int, int] = defaultdict(int)
    for (j, k, sector, _), n in zip(gs.entries, ints):
        sums[u[j] + v[k] + sector * shift] += n
    terms = tuple((GaussianRational(_quotient(e, m)), GaussianRational(_quotient(c, den)))
                  for e, c in sorted(sums.items()) if c)
    return ExpPolynomial._canonical("+Q/2", terms, _quotient(md1.square + md2.square, m * m))


def rshift(spec: GluingSpec, d: SplitClass, r) -> SplitClass:
    """Move the split by (D1 + rS, D2 - rS); evaluation is invariant.  With
    r = p/q and (m, m D1, m D2) D's int form, each moved coordinate is the
    one number n / (m q), n = m D_i q +- p m S_i: an int when m q divides n,
    else a Fraction.  The moved halves are the classes of those coordinates
    (``HClass._row``), and the moved class, made by ``lattice._trusted``,
    gets the int form (m q / g, the n / g), g the gcd of m q and every n.
    A bad r is refused (``_exact``) before a half on a lattice other than
    its surface's (``LatticeMismatch``)."""
    r = _exact(r)
    p, q = r.numerator, r.denominator
    m, *ints = d._int_form
    big, moved = m * q, []
    for half, own, s, sign in zip((d.d1, d.d2), ints, (spec.surface1.cls, spec.surface2.cls),
                                  (1, -1)):
        if not same_lattice(half.lattice, s.lattice):
            raise LatticeMismatch("cannot add classes on different lattices")
        step = sign * p * m
        moved.append((half.lattice, [a * q + step * c for a, c in zip(own, s.coords)]))
    (lat1, nums1), (lat2, nums2) = moved
    g = gcd(big, *nums1, *nums2)
    return _trusted(
        SplitClass,
        d1=HClass._row(lat1, tuple([_quotient(n, big) for n in nums1])),
        d2=HClass._row(lat2, tuple([_quotient(n, big) for n in nums2])),
        sigma_pairing=d.sigma_pairing,
        _int_form=(big // g, tuple([n // g for n in nums1]), tuple([n // g for n in nums2])),
    )


def coefficient_match(
    gs: GluedSeries, k_restrict: HClass, l_restrict: HClass
) -> tuple[int | Fraction, int | Fraction]:
    """Grouped glued coefficient against its product form, per restriction pair.

    For a pair (K, L) of parent classes attaining K.S = L.S = +-(2g-2), the
    untwisted sum of glued coefficients over parents restricting to (K, L)
    must equal the scale of ``glue``'s row at that level times (sum of a_j
    over K_j = K) (sum of b_k over L_k = L); everything else gives (0, 0).
    Both values are returned, for the caller to compare, each an int when
    integral (``_exact``); a miss is the ints (0, 0).  K and L are found
    through each side's ``position``; a foreign class raises ``LatticeMismatch``.
    The answers that can be nonzero are read from ``GluedSeries._match``.
    """
    if gs.kind != "standard":
        raise GluingError("coefficient matching is defined for standard gluings")
    left, right = gs.spec.left.series, gs.spec.right.series
    if not same_lattice(k_restrict.lattice, left.lattice):
        raise LatticeMismatch("K restriction on a lattice other than the left side's")
    if not same_lattice(l_restrict.lattice, right.lattice):
        raise LatticeMismatch("L restriction on a lattice other than the right side's")
    # a rational class, or one no row holds, has no position: its pair misses
    key = (left._position.get(k_restrict.coords), right._position.get(l_restrict.coords))
    return gs._match.get(key, (0, 0))


# -- JSON -----------------------------------------------------------------------------


_SECTOR_CODE = {1: "+", -1: "-", 0: "0"}
_SECTOR_OF_CODE = {code: sector for sector, code in _SECTOR_CODE.items()}


def glued_to_json(gs: GluedSeries) -> dict:
    """The glued file's fields, each coefficient read from ``_int_form``:
    each distinct int n of the column is formatted once, as n / L."""
    spec = gs.spec
    den, ints = gs._int_form
    data = {
        "left": spec.left.name,
        "right": spec.right.name,
        "g": spec.genus,
        "kind": gs.kind,
        "w1_sq": spec.w1.square,
        "w2_sq": spec.w2.square,
        "w_sq": spec.w_square,
        "pairs": [[j, k, _SECTOR_CODE[sector], a]
                  for (j, k, sector, _), a in zip(gs.entries, _tokens(ints, den))],
    }
    if gs.experimental:
        data["experimental"] = True
    return data


_GLUED = ("a glued file", {"left": str, "right": str, "g": int, "kind": str, "w1_sq": int,
                           "w2_sq": int, "w_sq": int, "pairs": list, "experimental": bool},
          ("experimental",))


def glued_from_json(data: dict) -> GluedSeries:
    """Rebuild a gluing from ``glued_to_json`` output; a malformed shape
    (``_read``), an unknown ``left`` or ``right`` name, a bad pair or an
    ``experimental`` flag that disagrees with the kind raises ``GluingError``
    naming it, and none is defaulted."""
    _read(data, _GLUED, "", GluingError)
    sides = []
    for key in ("left", "right"):
        try:
            sides.append(catalog(data[key]))
        except KeyError as exc:  # only the unknown name: a stored file's errors pass
            raise GluingError(f"field {key!r}: {exc.args[0]}") from exc
    spec = GluingSpec(*sides, w_square=data["w_sq"])
    entries = []
    # glue_fit wall_s -28% and op_tail_ms -11% with it, 10 of 10 pairs each (BENCH_52.json)
    parsed: dict[tuple[type, int | float | str], Fraction] = {}  # each token once
    for row in data["pairs"]:
        if type(row) is not list or len(row) != 4:
            raise GluingError(f"pair {row!r}: must be a list [left, right, sector, coefficient]")
        j, k, s, c = row
        if type(s) is not str or s not in _SECTOR_OF_CODE:
            raise GluingError(f"pair {row!r}: the sector must be '+', '-' or '0'")
        if type(c) not in _NUMBER:
            raise GluingError(f"pair {row!r}: the coefficient must be an int or a 'p/q' string")
        # keyed by type too: 1, 1.0 and "1" are distinct tokens
        value = parsed.get((type(c), c))
        if value is None:
            try:
                value = parsed[type(c), c] = Fraction(_exact(c))
            except ValueError as exc:
                raise GluingError(f"pair {row!r}: bad coefficient: {exc}") from exc
        entries.append((j, k, _SECTOR_OF_CODE[s], value))
    gs = GluedSeries(spec, data["kind"], tuple(entries))
    if ("experimental" in data) != gs.experimental or data.get("experimental", True) is not True:
        flag = '"experimental": true' if gs.experimental else 'no "experimental" field'
        raise GluingError(f"field 'experimental': a {gs.kind} gluing has {flag}")
    return gs
