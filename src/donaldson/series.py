"""Donaldson series of simple-type manifolds and the two-sector surface calculus.

A series is the finite datum  D_X(e^a) = e^{Q(a)/2} sum_j c_j e^{K_j . a}
of basic classes K_j with rational coefficients; its ``position`` map (class
coords -> entry index) is the one lookup by class.  Against an allowable pair
(w, S) it splits into two sectors by K_j . S mod 4: the P-sector keeps the
e^{+Q/2} prefactor, the N-sector acquires e^{-Q/2}, a global i^{-d0} and
imaginary exponents; it is stated for b1 = 0, which every lattice has, and
b+ > 1, so a series with b+ = 1 is refused.  Point-class and surface-class
insertions act on the sectors by the scalars 2 / -2 and by the polynomial
weights ((D+K).S)^b and ((-D + iK).S)^b respectively, which is everything
the finite-type and relation-polynomial machinery needs.  ``SplitSeries(series, w, surface)``
is the only way to split a series: it checks (series, w, S) each time it is
made, and its ``rows`` and ``levels`` read the series' one split table for
(w, S), which ``_split_table`` builds on the first read of any split of that
series against that pair and every later split reuses.  Every evaluation, fit
and gluing holds a split and reads its rows, row j being series entry j,
grouped by level only in its ``levels`` index.  ``level_sums`` is a level's
bare sum of twisted coefficients per K.D, which a fit coordinate is;
``evaluate`` alone puts it in sector form.  ``z_value`` is z's scalar at a
level, which ``check`` reads alone, worked out on ints; a zero one adds no
terms, so no D pairing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import neg
from types import MappingProxyType

from .exppoly import ExpPolynomial
from .gaussian import GaussianRational, frac_token
from .lattice import (
    HClass,
    Lattice,
    MarkedSurface,
    LatticeMismatch,
    _NUMBER,
    _exact,
    _read,
    d_zero,
    d_zero_value,
    is_allowable,
    is_characteristic,
    same_lattice,
)


class SeriesError(ValueError):
    pass


@dataclass(frozen=True)
class DonaldsonSeries:
    """Finite list of (basic class, rational coefficient) on a lattice.

    The series is of simple type, the hypothesis of every formula here, on a
    lattice with b1 = 0 and b+ odd.  Entries are kept sorted by class
    coordinates, classes are pairwise distinct, integral, and characteristic
    on the modeled lattice.
    ``position`` (class coords -> entry index) is the one lookup by class;
    the duplicate check builds it, and it is a read-only view.
    ``_splits`` maps (w coords, S coords) to the split table that
    ``_split_table`` built for that pair: the rows and their ``levels``
    index, which every ``SplitSeries`` of this series against (w, S) reads.
    It holds one table per distinct (w, S) split on this series, unbounded,
    and is freed with the series; a copy (``on``, ``dataclasses.replace``)
    starts with none.
    """

    lattice: Lattice
    entries: tuple[tuple[HClass, Fraction], ...]
    _position: dict[tuple, int] = field(init=False, repr=False, compare=False)
    _splits: dict[tuple, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = ((k, c if type(c) is Fraction else Fraction(_exact(c))) for k, c in self.entries)
        entries = tuple(sorted(pairs, key=lambda e: e[0].coords))
        object.__setattr__(self, "entries", entries)
        position = {}
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_splits", {})
        for j, (k, c) in enumerate(entries):
            if not same_lattice(k.lattice, self.lattice):
                raise LatticeMismatch("entry class on a foreign lattice")
            if not k.is_integral:
                raise SeriesError(f"basic class {k} is not integral")
            if not c:
                raise SeriesError(f"DonaldsonSeries: basic class {k} has coefficient 0")
            if position.setdefault(k.coords, j) != j:
                raise SeriesError(f"duplicate basic class {k}")
            if not is_characteristic(k):
                raise SeriesError(f"basic class {k} is not characteristic")

    @classmethod
    def on(cls, lattice: Lattice, pairs) -> "DonaldsonSeries":
        return cls(lattice, tuple(pairs))

    @property
    def position(self) -> MappingProxyType:
        return MappingProxyType(self._position)

    @property
    def b_plus(self) -> int:
        return self.lattice.b_plus

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def coefficient(self, k: HClass) -> Fraction:
        if not same_lattice(k.lattice, self.lattice):
            raise LatticeMismatch("coefficient of a class on a foreign lattice")
        j = self._position.get(k.coords)
        return Fraction(0) if j is None else self.entries[j][1]

    def classes(self) -> tuple[HClass, ...]:
        return tuple(k for k, _ in self.entries)

    def d0(self, w: HClass | None = None) -> int:
        """d0(X, w); w = None means the untwisted value (w^2 = 0)."""
        if w is None:
            return d_zero_value(0, self.b_plus)
        return d_zero(w, self.b_plus)


def twist(series: DonaldsonSeries, w: HClass) -> list[tuple[HClass, Fraction]]:
    """Coefficients for the w-twisted series: c -> (-1)^{(K.w + w^2)/2} c."""
    if not same_lattice(w.lattice, series.lattice):
        raise LatticeMismatch("twist class on a foreign lattice")
    if not w.is_integral:
        raise SeriesError("twist class must be integral")
    w_sq = w.square
    # K characteristic and w integral: K.w = w^2 (mod 2), so the sum is even
    return [(k, -c if (k.dot(w) + w_sq) // 2 % 2 else c) for k, c in series.entries]


def twisted(series: DonaldsonSeries, w: HClass) -> DonaldsonSeries:
    return DonaldsonSeries.on(series.lattice, twist(series, w))


def _split_table(series: DonaldsonSeries, w: HClass, s: MarkedSurface):
    """The split table against (w, S), for ``SplitSeries`` alone, filed in
    ``series._splits`` (the only code that fills it): the rows (K, K.S,
    twisted coefficient), the series twisted once and each class paired with
    S once; the levels index, level K.S -> its row indices in first-seen row
    order; and the twisted coefficients as int numerators over L, the lcm of
    their denominators, for ``level_sums``.  The index is a plain dict, so
    that a series pickles with its tables; ``SplitSeries.levels`` shows it
    read-only.  Two threads may both build one key's table; the two are
    equal and either is kept."""
    rows = tuple((k, k.dot(s.cls), a) for k, a in twist(series, w))
    groups: dict[int, list[int]] = {}
    for j, (_, ks, _) in enumerate(rows):
        groups.setdefault(ks, []).append(j)
    den = lcm(*(a.denominator for _, _, a in rows))
    nums = tuple(a.numerator * (den // a.denominator) for _, _, a in rows)
    table = rows, {ks: tuple(js) for ks, js in groups.items()}, den, nums
    series._splits[w.coords, s.cls.coords] = table
    return table


def _power(p) -> int:
    """An S- or x-power of an insertion: an int >= 0, else a SeriesError."""
    if type(p) is not int or p < 0:
        raise SeriesError("insertion powers must be >= 0")
    return p


def z_value(z_terms, ks: int, d_sigma) -> GaussianRational:
    """z, a ``RelationPoly`` or its (S-power, x-power, c) terms, at surface
    level ``ks`` for D.S = ``d_sigma``, without the N-sector unit i^{-d0}: x
    acts by 2 when ks == 2 mod 4 (P) and by -2 otherwise (N), S by d_sigma +
    ks (P) or by -d_sigma + i ks (N).  Plain terms are checked once, through
    ``RelationPoly.of``: powers ints >= 0 (else a SeriesError), each c
    rational (``_exact``; else a LatticeError).  Each S-power's x-powers sum
    to an int over L, the lcm of the denominators; Horner's rule in S runs on
    (re, im), ints for an int D.S."""
    terms = RelationPoly.of(z_terms).terms
    den = lcm(*(c.denominator for _, _, c in terms))
    x = 2 if ks % 4 == 2 else -2
    nums = [0] * (max((sp for sp, _, _ in terms), default=0) + 1)
    for sp, xp, c in terms:
        nums[sp] += c.numerator * (den // c.denominator) * x**xp
    a, b = (_exact(d_sigma) + ks, 0) if x == 2 else (-_exact(d_sigma), ks)
    re = im = 0
    for n in reversed(nums):
        re, im = re * a - im * b + n, re * b + im * a
    return GaussianRational(Fraction(re, den), Fraction(im, den))


@dataclass(frozen=True)
class SplitSeries:
    """The two-sector form of a series against an allowable pair (w, S).

    Checked each time it is made, before it reads any table; ``rows`` holds
    one row (K, level K.S, twisted coefficient) per basic class, row j for
    series entry j, and ``levels`` maps each level K.S to its row indices.
    Both read the series' split table for (w, S), built on the first read of
    any split of that series against that pair and bound to this split on
    its own first read.  The level fixes the sector
    (K.S = S^2 = 0 mod 2 for a characteristic K).  ``evaluate`` gives the
    P-sector levels (K.S == 2 mod 4) the e^{+Q/2} marker; the N-sector levels
    (K.S == 0 mod 4) get e^{-Q/2}, the i^{-d0} factor and exponents rotated
    by i.
    """

    series: DonaldsonSeries = field(repr=False)
    w: HClass
    surface: MarkedSurface
    d0: int = field(init=False)

    def __post_init__(self):
        series, w, s = self.series, self.w, self.surface
        if not same_lattice(s.lattice, series.lattice):
            raise LatticeMismatch("surface on a foreign lattice")
        if not is_allowable(w, s):
            raise SeriesError("(w, S) is not an allowable pair: need w.S odd, S^2 = 0")
        if series.b_plus <= 1:
            raise SeriesError("two-sector split needs b1 = 0 and b+ > 1 odd")
        object.__setattr__(self, "d0", series.d0(w))

    @cached_property
    def _table(self):
        """(rows, levels, L, numerators) of the series' split table for
        (w, S), bound on this split's first read: the rest by reference and
        the levels index wrapped read-only once, so that a later read hashes
        no key (``coefficient_match`` reads two rows per call)."""
        series, w, s = self.series, self.w, self.surface
        table = series._splits.get((w.coords, s.cls.coords))
        rows, levels, den, nums = _split_table(series, w, s) if table is None else table
        return rows, MappingProxyType(levels), den, nums

    @property
    def rows(self) -> tuple[tuple[HClass, int, Fraction], ...]:
        return self._table[0]

    @property
    def levels(self) -> MappingProxyType:
        """Surface level K.S -> its row indices, levels in first-seen row order."""
        return self._table[1]

    def level_sums(self, ks: int, d: HClass) -> dict[int | Fraction, int | Fraction]:
        """{K.D: summed twisted coefficient} over the rows at level K.S = ``ks``
        ({} at a level the split does not have); only those classes meet D.
        The table's int numerators are added per K.D, and each sum becomes
        one number over L (``_exact``): none is a Fraction when L is 1."""
        rows, levels, den, nums = self._table
        sums: dict[int | Fraction, int | Fraction] = {}
        for j in levels.get(ks, ()):
            kd = rows[j][0].dot(d)
            sums[kd] = sums.get(kd, 0) + nums[j]
        if den == 1:
            return sums
        return {kd: _exact(Fraction(n, den)) for kd, n in sums.items()}

    def evaluate(self, d: HClass, z_terms) -> tuple[ExpPolynomial, ExpPolynomial]:
        """(P, N) of the split on z e^{tD}, z given by (S-power, x-power, c) terms.

        z may also be a ``RelationPoly``; plain terms are checked once, also
        where no level calls ``z_value``: every power must be an int >= 0 and
        every c rational.  z is one scalar per level K.S, ``z_value``, times
        i^{-d0} in N; a zero one adds no terms, else each K.D of the level's
        ``level_sums`` adds one term, exponent K.D in P or i K.D in N.
        """
        z = RelationPoly.of(z_terms)
        d_sigma = d.dot(self.surface.cls)  # a foreign D raises LatticeMismatch here
        i_pow = GaussianRational.i_power(-self.d0)
        parts = {2: [], 0: []}
        for ks in self.levels:
            scalar = z_value(z, ks, d_sigma)
            if scalar.is_zero:
                continue
            r = ks % 4
            if r == 0:
                scalar = i_pow * scalar
            for kd, a in self.level_sums(ks, d).items():
                lam = GaussianRational(kd) if r == 2 else GaussianRational(0, kd)
                parts[r].append((lam, scalar * a))
        return (
            ExpPolynomial("+Q/2", tuple(parts[2]), d.square),
            ExpPolynomial("-Q/2", tuple(parts[0]), d.square),
        )


def split_series(series: DonaldsonSeries, w: HClass, s: MarkedSurface) -> SplitSeries:
    """Split the w-twisted series into its two sectors against (w, S)."""
    return SplitSeries(series, w, s)


def unsplit_series(ss: SplitSeries) -> DonaldsonSeries:
    """Invert the split; recovers the w-twisted series exactly."""
    return DonaldsonSeries.on(ss.surface.lattice, [(k, a) for k, _, a in ss.rows])


def eval_insertion(
    series: DonaldsonSeries,
    w: HClass,
    s: MarkedSurface,
    d: HClass,
    x_power: int = 0,
    sigma_power: int = 0,
) -> tuple[ExpPolynomial, ExpPolynomial]:
    """Evaluate the split series on S^b x^a e^{tD}, sector by sector.

    Returns (P, N):
      P = e^{+Q/2} sum_{K.S==2(4)} c_{K,w} 2^a ((D+K).S)^b e^{(K.D)t}
      N = e^{-Q/2} sum_{K.S==0(4)} i^{-d0} c_{K,w} (-2)^a ((-D+iK).S)^b e^{i(K.D)t}
    The series is split once, K.S and K.D are paired once per class, and
    coefficients are summed per (level K.S, K.D) before any term is made.
    """
    return SplitSeries(series, w, s).evaluate(d, ((sigma_power, x_power, 1),))


# -- relation polynomials -----------------------------------------------------------


@dataclass(frozen=True)
class RelationPoly:
    """An element of the polynomial algebra in the surface class S and x.

    Stored as (S-power, x-power, coefficient) triples, each power an int >= 0.
    """

    terms: tuple[tuple[int, int, int | Fraction], ...]

    def __post_init__(self):
        merged: dict[tuple[int, int], int | Fraction] = {}
        for sp, xp, c in self.terms:
            key = (_power(sp), _power(xp))
            merged[key] = merged.get(key, 0) + _exact(c)
        canon = tuple(
            (sp, xp, _exact(c)) for (sp, xp), c in sorted(merged.items()) if c != 0
        )
        object.__setattr__(self, "terms", canon)

    @classmethod
    def of(cls, pairs) -> "RelationPoly":
        """The polynomial of (S-power, x-power, c) terms; a RelationPoly is
        already one and is returned as it is."""
        return pairs if isinstance(pairs, cls) else cls(tuple(pairs))

    @property
    def sigma_degree(self) -> int:
        return max((sp for sp, _, _ in self.terms), default=0)


def relation_poly(g: int) -> RelationPoly:
    """The degree-(g-1) relation annihilated by every genus-g split series.

    Shape (1 -+ x/2) p(S), p the product of (S - r) over its roots r.  For
    g even the x-factor is (1 - x/2) and the roots are -1 and the pairs
    -1 +- 4ki for k = 1..(g-2)/2, each pair giving the real quadratic
    S^2 + 2S + 1 + 16k^2; for g odd it is (1 + x/2) and the roots are the
    reals (-1)^k (2k-1) for k = 1..g-1, i.e. -1, 3, -5, ...
    """
    if type(g) is not int:
        raise SeriesError(f"relation polynomial genus must be an int, got {g!r}")
    if g < 2:
        raise SeriesError("relation polynomial needs genus >= 2")
    # monic factors of p(S), constant term first: S + 1, one quadratic per
    # conjugate pair, or S - r per real root r
    if g % 2 == 0:
        x_coeff = Fraction(-1, 2)
        factors = [[1, 1]] + [[1 + 16 * k * k, 2, 1] for k in range(1, g // 2)]
    else:
        x_coeff = Fraction(1, 2)
        factors = [[-((-1) ** k) * (2 * k - 1), 1] for k in range(1, g)]
    p = [1]
    for f in factors:
        prod = [0] * (len(p) + len(f) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        p = prod
    x_part = ((0, 1), (1, x_coeff))
    z = RelationPoly.of((sp, xp, c * xc) for sp, c in enumerate(p) for xp, xc in x_part)
    if z.sigma_degree != g - 1:
        raise SeriesError("relation polynomial has wrong surface degree")
    return z


def apply_relation(
    series: DonaldsonSeries,
    w: HClass,
    s: MarkedSurface,
    z: RelationPoly,
    d: HClass,
) -> tuple[ExpPolynomial, ExpPolynomial]:
    """Evaluate the split series on z e^{tD}: the sum of its insertions.

    The series is split once.  z takes one value per sector and surface
    level K.S, at most 2(2g-1) scalars.  Each level then contributes one
    term per distinct K.D: the sum of its classes' split coefficients at
    that K.D, times the scalar of the level.
    """
    if d.dot(s.cls) != 1:
        warnings.warn(
            "relation evaluated at D with D.S != 1; the vanishing guarantee "
            "is withdrawn",
            stacklevel=2,
        )
    return SplitSeries(series, w, s).evaluate(d, z)


# -- finite type, adjunction, involution ---------------------------------------------


def default_probes(lattice: Lattice, s: MarkedSurface) -> list[HClass]:
    """All named classes D with D.S = 1, plus their S-shifts."""
    probes = [d for d in map(lattice.cls, lattice.labels()) if d.dot(s.cls) == 1]
    return probes + [d + s.cls for d in probes]


def finite_type_order(
    series: DonaldsonSeries,
    w: HClass,
    s: MarkedSurface,
    probes=None,
) -> int:
    """Smallest n >= 0 such that the (x^2-4)^n insertion kills all probes.

    The point class acts by 2 on the P-sector and -2 on the N-sector, so
    z = x^2 - 4 takes the exact value 0 at every surface level and kills
    every series: evaluating it would only compare the code with itself.
    The order is therefore 1 if some probe's plain evaluation (z = 1) is
    nonzero and 0 otherwise; the probes are evaluated on one split, until
    the first nonzero value.  Default probes go S-shifted first, an observed
    ordering and no theorem: on B2..B8, bg:10, K3, S4, S6, dia2:1:3, dia2:2:5,
    dia2:4:5 and cg:3 the first D + S probe is nonzero (each unshifted one
    of B(g) gives 0), so one evaluation decides.  Given probes keep their order.
    """
    if series.is_zero:
        return 0
    if probes is None:
        probes = default_probes(series.lattice, s)
        half = len(probes) // 2  # the S-shifted half first
        probes = probes[half:] + probes[:half]
    if not probes:
        raise SeriesError("no probe classes with D.S = 1 are available")
    split = SplitSeries(series, w, s)
    plain = (part for d in probes for part in split.evaluate(d, ((0, 0, 1),)))
    return int(any(not part.is_zero for part in plain))


def check_adjunction(
    series: DonaldsonSeries, s: MarkedSurface
) -> tuple[bool, list[tuple[HClass, Fraction]]]:
    """2g - 2 >= S^2 + |K.S| for every entry; returns all violators."""
    bound = 2 * s.genus - 2 - s.cls.square
    violators = [(k, c) for k, c in series.entries if abs(k.dot(s.cls)) > bound]
    return (not violators, violators)


def check_involution(series: DonaldsonSeries) -> tuple[bool, list[HClass]]:
    """The map K -> -K carries coefficients by the sign (-1)^{d0(X, w=0)}."""
    flip = series.d0() % 2
    bad = []
    for k, c in series.entries:
        j = series._position.get(tuple(map(neg, k.coords)))
        if j is None or series.entries[j][1] != (-c if flip else c):
            bad.append(k)
    return (not bad, bad)


# -- JSON descriptor -----------------------------------------------------------------


def series_to_json(series: DonaldsonSeries) -> dict:
    return {
        "lattice": series.lattice.name,
        "entries": [
            {"k": list(k.coords), "a": frac_token(c)}  # basic classes are integral
            for k, c in series.entries
        ],
        "simple_type": True,  # every series is; the key keeps the file format
    }


_SERIES_ENTRY = ("a series entry", {"k": list, "a": _NUMBER}, ())


def series_from_json(data: dict, lattice: Lattice) -> DonaldsonSeries:
    """The series ``series_to_json`` wrote on ``lattice``; a malformed shape,
    or one naming another lattice, is refused (``_read``)."""
    fields = {"lattice": lattice.name, "entries": [_SERIES_ENTRY], "simple_type": True}
    _read(data, ("a series", fields, ()), "series", SeriesError)
    pairs = [(HClass(lattice, e["k"]), e["a"]) for e in data["entries"]]
    return DonaldsonSeries.on(lattice, pairs)
