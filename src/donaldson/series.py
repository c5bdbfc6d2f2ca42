"""Donaldson series of simple-type manifolds and the two-sector surface calculus.

A series  D_X(e^a) = e^{Q(a)/2} sum_j c_j e^{K_j . a}  is an integer table:
its basic classes K_j as sorted int coordinate rows, each checked once, and
the c_j as int numerators over one denominator.  Against an allowable pair
(w, S), b1 = 0 and b+ > 1, it splits into two sectors by K_j . S mod 4: the
P-sector keeps e^{+Q/2}, the N-sector acquires e^{-Q/2}, a global i^{-d0}
and imaginary exponents; point and surface insertions act by 2 / -2 and by
((D+K).S)^b and ((-D + iK).S)^b.  ``SplitSeries(series, w, surface)`` is the
only split, checked when it is made; ``split_series`` hands out the series'
one checked split per (w, S, genus), made on the first request, and every
evaluator takes its split from there.  Rows meet an integral class v of
their lattice once: ``column(series, v)``, K.v per row, is made by one
``Lattice.pairings`` and kept in the store that a series shares with its
signed copies (made by ``lattice._trusted``), and every reader (the checks,
adjunction, the twist, the split table, the finite-type probes) reads it
there.  A split's table, made by ``_split_table`` on its own first read,
holds the column of S, ``levels`` (rows per level) and ``nums`` (numerators
twisted by the column of w, over ``den``).  ``level_sums`` is a level's bare
sum of twisted coefficients per K.D, a fit coordinate, paired on the level's
rows and storing nothing; ``evaluate`` puts it in sector form with
``z_value``, z's scalar at a level, read from z's table of ints, compiled
when z is made, and sums each sector per K.D before it makes a term.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import chain, product, repeat
from math import gcd
from operator import add, neg
from types import MappingProxyType

from .exppoly import ExpPolynomial
from .gaussian import GaussianRational
from .lattice import (
    HClass,
    Lattice,
    LatticeError,
    MarkedSurface,
    LatticeMismatch,
    _NUMBER,
    _exact,
    _int,
    _over_lcm,
    _quotient,
    _read,
    _tokens,
    _trusted,
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
    """Basic classes with rational coefficients, of simple type, on a lattice
    of b1 = 0 and b+ odd: sorted int coordinate ``rows`` and int ``nums`` over
    one ``den`` (``lattice._over_lcm``).  The first bad row is refused (not
    ints of the rank, coefficient 0, a repeat, not characteristic), named by
    an ``HClass``.  ``entries``, the (class, ``Fraction``) pairs, is a view
    made on first read, as is ``position`` (coords -> row), the one lookup by
    class; no split or fit reads them.  ``_store`` holds the column K.v per
    row of each integral class v on the lattice that a check, a twist, a split
    or a probe met, keyed by v's coords and written only by ``column``; a
    level sum stores none.  ``_classes`` holds the rows' ``HClass`` objects,
    made by the first ``entries``.  ``_splits`` maps
    (w coords, S coords, genus) to that pair's one checked ``SplitSeries``.
    The store and splits are unbounded: a series meets only its surfaces,
    w choices and probes.  A signed copy (``_signed``) shares the store and
    the classes and starts with no splits or views; a series made by this
    checked constructor, as ``on``, ``dataclasses.replace`` and
    ``series_from_json`` make theirs, starts with none of them.  A
    blow-up (``_blown``, on the blown lattice ``Lattice._blown``) is made
    unchecked too, as its rows are sorted, unique and characteristic by a
    lemma its docstring states; it starts with nothing stored.
    """

    lattice: Lattice
    rows: tuple[tuple[int, ...], ...]
    nums: tuple[int, ...]
    den: int
    _store: dict = field(init=False, repr=False, compare=False)
    _classes: list = field(init=False, repr=False, compare=False)
    _splits: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lat, rows, nums, den = self.lattice, self.rows, self.nums, self.den
        if {type(rows), type(nums)} - {list, tuple}:
            raise SeriesError("rows and nums must be lists or tuples, got a "
                              f"{type(rows).__name__} and a {type(nums).__name__}")
        if len(nums) != len(rows) or type(den) is not int or den < 1 or {*map(type, nums)} - {int}:
            raise SeriesError("coefficients must be one int per row over an int den >= 1")
        for k in rows:
            if type(k) not in (list, tuple) or len(k) != lat.rank or {*map(type, k)} - {int}:
                raise SeriesError(f"basic class {k!r} is not a row of {lat.rank} ints")
        rows, nums = tuple(zip(*sorted(zip(map(tuple, rows), nums)))) or ((), ())
        g = gcd(den, *nums)
        self.__dict__.update(rows=rows, nums=tuple(x // g for x in nums), den=den // g,
                             _store={}, _classes=[], _splits={})
        for j, n in enumerate(nums):  # the first bad row, in sorted order, is named
            k = HClass._row(lat, rows[j])
            if not n:
                raise SeriesError(f"DonaldsonSeries: basic class {k} has coefficient 0")
            if j and rows[j - 1] == rows[j]:
                raise SeriesError(f"duplicate basic class {k}")
            if not is_characteristic(k):
                raise SeriesError(f"basic class {k} is not characteristic")

    @classmethod
    def on(cls, lattice: Lattice, pairs) -> "DonaldsonSeries":
        """From (``HClass``, coefficient) pairs: a foreign or rational class is
        refused where it sorts, once the rows before it have passed."""
        pairs = sorted(((k, _exact(c)) for k, c in pairs), key=lambda e: e[0].coords)
        for j, (k, _) in enumerate(pairs):
            if not (same_lattice(k.lattice, lattice) and k.is_integral):
                cls.on(lattice, pairs[:j])
                if not same_lattice(k.lattice, lattice):
                    raise LatticeMismatch("entry class on a foreign lattice")
                raise SeriesError(f"basic class {k} is not integral")
        den, nums = _over_lcm(c for _, c in pairs)
        return cls(lattice, tuple(k.coords for k, _ in pairs), nums, den)

    def _signed(self, nums: tuple[int, ...]) -> "DonaldsonSeries":
        """This series with its numerators' signs flipped to ``nums``, made by ``_trusted``:
        its rows and gcd are checked, and a sign changes no K.v and no class, so it
        shares the store and classes.  No cached view is copied: it holds the old values."""
        return _trusted(DonaldsonSeries, lattice=self.lattice, rows=self.rows, nums=nums,
                        den=self.den, _store=self._store, _classes=self._classes, _splits={})

    def _blown(self, lattice: Lattice, m: int) -> "DonaldsonSeries":
        """This series blown up m times on ``lattice``, its lattice + <-1>^m
        (``Lattice._blown``), made by ``_trusted``: each (K, c) becomes the 2^m
        rows K + s, s in {-1, 1}^m, with c / 2^m.  The rows pass the checks by a
        lemma: they come out sorted and unique, as this series' rows are and
        ``product((-1, 1), repeat=m)`` runs in lexicographic order; each is
        characteristic, as E_i^2 = -1 is odd: (K, s).(x, a) = K.x - s.a = x.x +
        a.a (mod 2); and no coefficient is 0.  The gcd of ``den << m`` and the
        numerators is still divided out: numerators all even share a 2 with it."""
        signs, g = tuple(product((-1, 1), repeat=m)), gcd(self.den << m, *self.nums)
        nums = chain.from_iterable(repeat(x // g, 1 << m) for x in self.nums)
        return _trusted(DonaldsonSeries, lattice=lattice,
                        rows=tuple(k + s for k in self.rows for s in signs), nums=tuple(nums),
                        den=(self.den << m) // g, _store={}, _classes=[], _splits={})

    @cached_property
    def entries(self) -> tuple[tuple[HClass, Fraction], ...]:
        """(basic class, coefficient) per row: the view, built once on first
        read, of the row classes shared with signed copies zipped with this
        copy's values."""
        if not self._classes:
            self._classes[:] = [HClass._row(self.lattice, k) for k in self.rows]
        value = {n: Fraction(n, self.den) for n in set(self.nums)}
        return tuple(zip(self._classes, map(value.get, self.nums)))

    @cached_property
    def _position(self) -> dict[tuple, int]:
        return dict(zip(self.rows, range(len(self.rows))))

    @property
    def position(self) -> MappingProxyType:
        return MappingProxyType(self._position)

    @property
    def b_plus(self) -> int:
        return self.lattice.b_plus

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def coefficient(self, k: HClass) -> Fraction:
        if not same_lattice(k.lattice, self.lattice):
            raise LatticeMismatch("coefficient of a class on a foreign lattice")
        j = self._position.get(k.coords)
        return Fraction(0) if j is None else Fraction(self.nums[j], self.den)

    def classes(self) -> tuple[HClass, ...]:
        return tuple(k for k, _ in self.entries)

    def d0(self, w: HClass | None = None) -> int:
        """d0(X, w); w = None means the untwisted value (w^2 = 0)."""
        if w is None:
            return d_zero_value(0, self.b_plus)
        return d_zero(w, self.b_plus)


def column(series: DonaldsonSeries, v: HClass) -> tuple | list:
    """K.v per row of ``series``: for an integral v on its lattice, the one
    stored column, made on the first request by one ``Lattice.pairings``;
    the one writer of ``series._store``.  A rational v, or one on another
    lattice whatever its coordinates, goes to ``Lattice.pairings`` and its
    checks, and is never stored."""
    lat = series.lattice
    if not (same_lattice(v.lattice, lat) and v.is_integral):
        return lat.pairings(series.rows, v)
    # without the store, relation_check passes took 3.8-3.9 ms against 2.9-3.4 ms (3 runs each)
    col = series._store.get(v.coords)
    if col is None:
        col = series._store.setdefault(v.coords, tuple(lat.pairings(series.rows, v)))
    return col


def _twist(series: DonaldsonSeries, w: HClass) -> tuple[int, ...]:
    """The w-twisted numerators over ``series.den``: n -> (-1)^{(K.w + w^2)/2} n."""
    if not same_lattice(w.lattice, series.lattice):
        raise LatticeMismatch("twist class on a foreign lattice")
    if not w.is_integral:
        raise SeriesError("twist class must be integral")
    w_sq = w.square
    # K characteristic and w integral: K.w = w^2 (mod 2), so the sum is even
    return tuple(-n if (x + w_sq) & 2 else n for x, n in zip(column(series, w), series.nums))


def twist(series: DonaldsonSeries, w: HClass) -> list[tuple[HClass, Fraction]]:
    """Coefficients for the w-twisted series: c -> (-1)^{(K.w + w^2)/2} c."""
    return list(twisted(series, w).entries)


def twisted(series: DonaldsonSeries, w: HClass) -> DonaldsonSeries:
    return series._signed(_twist(series, w))


def _split_table(series: DonaldsonSeries, w: HClass, s: MarkedSurface) -> tuple:
    """The split table against (w, S): (the column of S, level -> its rows
    in first-seen order, twisted numerators over ``series.den``).  Plain
    containers, so a series pickles with its splits."""
    levels, nums = column(series, s.cls), _twist(series, w)
    groups: dict[int, list[int]] = {}
    for j, ks in enumerate(levels):
        groups.setdefault(ks, []).append(j)
    return (levels, {ks: tuple(js) for ks, js in groups.items()}, nums)


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
    ``RelationPoly.of``; the value is Horner's rule over z's table
    (``RelationPoly._value``), on one number at a P level."""
    value = RelationPoly.of(z_terms)._value(ks, _exact(d_sigma))
    return GaussianRational() if value is None else value


@dataclass(frozen=True)
class SplitSeries:
    """The two-sector form of a series against an allowable pair (w, S),
    checked when it is made, before it reads any table; ``split_series`` makes
    one per (series, w, S, genus) and hands it out again.  Row j is series
    row j; ``levels`` maps each level K.S to its rows, and the level fixes the
    sector (K.S = S^2 = 0 mod 2 for a characteristic K): ``evaluate`` gives
    the P-sector levels (K.S == 2 mod 4) e^{+Q/2}, the N-sector levels
    (K.S == 0 mod 4) e^{-Q/2}, the i^{-d0} factor and exponents rotated by i.
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
    def _table(self) -> tuple:
        """The split table for (w, S), made on first read: a reloaded gluing
        or a refused rule makes splits that never read it."""
        return _split_table(self.series, self.w, self.surface)

    @property
    def levels(self) -> MappingProxyType:
        """Surface level K.S -> its row indices, read-only, levels in first-seen order."""
        return MappingProxyType(self._table[1])

    @property
    def nums(self) -> tuple[int, ...]:
        """The twisted numerators over ``series.den``, row j's at j."""
        return self._table[2]

    def level_sums(self, ks: int, d: HClass) -> dict[int | Fraction, int | Fraction]:
        """{K.D: summed twisted coefficient} over the rows at level K.S = ``ks``
        ({} at a level the split does not have): only those rows meet D, in one
        ``Lattice.pairings``, and nothing is stored, so evaluating at many D
        grows no store.  Int numerators are added per K.D, and each sum over
        ``den`` becomes one number (``lattice._quotient``)."""
        _, index, nums = self._table
        js, series = index.get(ks, ()), self.series
        kds = series.lattice.pairings([series.rows[j] for j in js], d)
        sums: dict[int | Fraction, int | Fraction] = {}
        for j, kd in zip(js, kds):
            sums[kd] = sums.get(kd, 0) + nums[j]
        return {kd: _quotient(n, series.den) for kd, n in sums.items()}

    def evaluate(self, d: HClass, z_terms) -> tuple[ExpPolynomial, ExpPolynomial]:
        """(P, N) of the split on z e^{tD}, z a ``RelationPoly`` or its (S-power,
        x-power, c) terms, checked once: ``_evaluate`` at D.S, read here, where a
        D on another lattice raises ``LatticeMismatch``."""
        z = RelationPoly.of(z_terms)
        return self._evaluate(d, z, d.dot(self.surface.cls))

    def _evaluate(
        self, d: HClass, z: RelationPoly, d_sigma
    ) -> tuple[ExpPolynomial, ExpPolynomial]:
        """``evaluate`` at D.S = ``d_sigma``, exact, which ``apply_relation`` reads
        once.  z is one scalar per level K.S, its ``_value``, times i^{-d0} in N; a
        zero one adds nothing, else the level's ``level_sums`` add scalar * a into
        its sector's one sum per K.D.  The nonzero sums, sorted by K.D, are the
        terms as they stand, exponent K.D in P and i K.D in N, so each part is
        made past the constructor's merge and sort (``ExpPolynomial._canonical``)."""
        # merged here, not by the constructor: relation_check op_p50_ms -12.9% with it, 9 of 10
        # pairs, and -8% to -10% in process on nonzero z (BENCH_53.json "review")
        sums: dict[int, dict] = {2: {}, 0: {}}
        for ks in self._table[1]:
            scalar = z._value(ks, d_sigma)
            if scalar is None:
                continue
            r = ks % 4
            if r == 0:
                scalar = GaussianRational.i_power(-self.d0) * scalar
            out = sums[r]
            for kd, a in self.level_sums(ks, d).items():
                c = scalar * a
                out[kd] = out[kd] + c if kd in out else c
        p, n = sorted(sums[2].items()), sorted(sums[0].items())
        p = tuple([(GaussianRational(kd), c) for kd, c in p if not c.is_zero])
        n = tuple([(GaussianRational(0, kd), c) for kd, c in n if not c.is_zero])
        q = d.square
        return ExpPolynomial._canonical("+Q/2", p, q), ExpPolynomial._canonical("-Q/2", n, q)


def split_series(series: DonaldsonSeries, w: HClass, s: MarkedSurface) -> SplitSeries:
    """Split the w-twisted series into its two sectors against (w, S): the
    series' one checked split per (w, S, genus), made on the first request;
    the one writer of ``series._splits``.  A w or S on another lattice goes
    to the checks, whatever its coordinates, and a refused pair is never stored."""
    lat, key = series.lattice, (w.coords, s.cls.coords, s.genus)
    if same_lattice(w.lattice, lat) and same_lattice(s.lattice, lat):
        split = series._splits.get(key)
        if split is not None:
            return split
    return series._splits.setdefault(key, SplitSeries(series, w, s))


def unsplit_series(ss: SplitSeries) -> DonaldsonSeries:
    """Invert the split; recovers the w-twisted series exactly."""
    return ss.series._signed(ss.nums)


def eval_insertion(
    series: DonaldsonSeries,
    w: HClass,
    s: MarkedSurface,
    d: HClass,
    x_power: int = 0,
    sigma_power: int = 0,
) -> tuple[ExpPolynomial, ExpPolynomial]:
    """Evaluate the split series on S^b x^a e^{tD}, sector by sector: (P, N) =
      P = e^{+Q/2} sum_{K.S==2(4)} c_{K,w} 2^a ((D+K).S)^b e^{(K.D)t}
      N = e^{-Q/2} sum_{K.S==0(4)} i^{-d0} c_{K,w} (-2)^a ((-D+iK).S)^b e^{i(K.D)t}
    with coefficients summed per sector and K.D, each sum made once
    (``SplitSeries.evaluate``).
    """
    return split_series(series, w, s).evaluate(d, ((sigma_power, x_power, 1),))


# -- relation polynomials -----------------------------------------------------------


@dataclass(frozen=True)
class RelationPoly:
    """An element of the polynomial algebra in the surface class S and x.

    Stored as (S-power, x-power, coefficient) triples, each power an int >= 0
    and each coefficient rational, else a SeriesError naming the term.  Its
    table of ints, ``_horner``, is compiled when it is made; insertions and
    ``sigma_degree`` read it.
    """

    terms: tuple[tuple[int, int, int | Fraction], ...]
    _horner: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        merged: dict[tuple[int, int], int | Fraction] = {}
        for term in self.terms:
            sp, xp, c = term
            key = (_power(sp), _power(xp))
            try:
                c = _exact(c)
            except LatticeError as exc:
                raise SeriesError(f"insertion term {term!r}: {exc}") from exc
            merged[key] = merged.get(key, 0) + c
        canon = tuple(
            (sp, xp, _exact(c)) for (sp, xp), c in sorted(merged.items()) if c != 0
        )
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "_horner", _horner_table(canon))

    @classmethod
    def of(cls, pairs) -> "RelationPoly":
        """The polynomial of (S-power, x-power, c) terms; a RelationPoly is
        already one and is returned as it is."""
        return pairs if isinstance(pairs, cls) else cls(tuple(pairs))

    @property
    def sigma_degree(self) -> int:
        return len(self._horner[1]) - 1

    def _value(self, ks: int, d_sigma) -> GaussianRational | None:
        """z at level ``ks`` for an exact D.S, or None for 0: Horner's rule in S
        on z's table, ints for an int D.S.  At a P level (ks == 2 mod 4) S acts by
        the real D.S + ks, so Horner runs on one number; at an N level by
        -D.S + i ks, on (re, im)."""
        den, p, n = self._horner
        # relation_check op_p50_ms -5.6% with it, 19 of 20 pairs, over the IQR (BENCH_54.json)
        if ks % 4 == 2:
            a, re = d_sigma + ks, 0
            for c in p:
                re = re * a + c
            return GaussianRational(_quotient(re, den)) if re else None
        a, re, im = -d_sigma, 0, 0
        for c in n:
            re, im = re * a - im * ks + c, re * ks + im * a
        if re or im:
            return GaussianRational(_quotient(re, den), _quotient(im, den))
        return None


def _horner_table(terms) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """z compiled, the one sum of its x-powers: (L, P, N), z's coefficients over one
    L (``_over_lcm``) summed at x = 2 (P) and -2 (N), highest S-power first."""
    den, ints = _over_lcm(c for _, _, c in terms)
    top = max((sp for sp, _, _ in terms), default=0)
    p, n = [0] * (top + 1), [0] * (top + 1)
    for (sp, xp, _), m in zip(terms, ints):
        p[top - sp] += m * 2**xp
        n[top - sp] += m * (-2) ** xp
    return den, tuple(p), tuple(n)


MAX_GENUS = 1000
"""The largest genus ``relation_poly`` expands.  The expansion multiplies g - 1
root factors into big-int coefficients, at a cost that grows about as g^3: on
one Intel Xeon core 0.06 s at g = 500, 0.3-0.5 s at 1000, 0.9-1.4 s at 1500
and 2 s at 2000, so a larger genus is refused before it starts."""


def relation_poly(g: int) -> RelationPoly:
    """The degree-(g-1) relation annihilated by every genus-g split series,
    one value per genus; a genus over ``MAX_GENUS`` is a SeriesError.

    Shape (1 -+ x/2) p(S), p the product of (S - r) over its roots r.  For
    g even the x-factor is (1 - x/2) and the roots are -1 and the pairs
    -1 +- 4ki for k = 1..(g-2)/2, each pair giving the real quadratic
    S^2 + 2S + 1 + 16k^2; for g odd it is (1 + x/2) and the roots are the
    reals (-1)^k (2k-1) for k = 1..g-1, i.e. -1, 3, -5, ...
    """
    if _int(g, "relation polynomial genus", SeriesError) < 2:
        raise SeriesError("relation polynomial needs genus >= 2")
    if g > MAX_GENUS:
        raise SeriesError(f"relation polynomial genus {g} is over the limit of {MAX_GENUS}")
    return _relation_poly(g)


@cache
def _relation_poly(g: int) -> RelationPoly:
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
    """Evaluate the split series on z e^{tD}: the sum of its insertions, one
    term per sector and distinct K.D (``SplitSeries._evaluate``).  D.S is read
    once, before any split: a D on another lattice than S raises
    ``LatticeMismatch`` there, and D.S != 1 warns, naming the caller's line."""
    d_sigma = d.dot(s.cls)
    if d_sigma != 1:
        warnings.warn(
            "relation evaluated at D with D.S != 1; the vanishing guarantee "
            "is withdrawn",
            stacklevel=2,
        )
    # one pairing: 0.4-0.8 us of a 7 us warm relation op, in process (BENCH_53.json "review")
    return split_series(series, w, s)._evaluate(d, RelationPoly.of(z), d_sigma)


# -- finite type, adjunction, involution ---------------------------------------------


def default_probes(lattice: Lattice, s: MarkedSurface) -> list[HClass]:
    """All named classes D with D.S = 1, then their S-shifts, as a new list:
    made once per (lattice, S class) and kept in ``_probes``, a cache of 64.
    An S on another lattice is refused when the lattice names a class, as
    pairing it with one would be."""
    if lattice.named and not same_lattice(s.lattice, lattice):
        raise LatticeMismatch(f"pairing of classes on {lattice.name} and {s.lattice.name}")
    return list(_probes(lattice, s.cls.coords))


# relation_check wall_s -6.1% with it, 18 of 20 pairs, the gap over the IQR (BENCH_54.json)
@lru_cache(maxsize=64)
def _probes(lattice: Lattice, s_coords: tuple[int, ...]) -> tuple[HClass, ...]:
    """``default_probes`` of the surface class at ``s_coords``, checked coordinates."""
    s = HClass._row(lattice, s_coords)
    probes = [d for d in map(lattice.cls, lattice.labels()) if d.dot(s) == 1]
    return (*probes, *(d + s for d in probes))


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
    nonzero, that is if a sum of twisted numerators per (K.S mod 4, K.D) is,
    one ``column`` per probe, and 0 otherwise.  Default probes go S-shifted
    first, an observed ordering and no theorem: on B2..B8, bg:10, K3, S4, S6,
    dia2:1:3, dia2:2:5, dia2:4:5 and cg:3 the first D + S probe is nonzero,
    so one column decides.  Given probes keep their order."""
    if series.is_zero:
        return 0
    if probes is None:
        probes = default_probes(series.lattice, s)
        half = len(probes) // 2  # the S-shifted half first
        probes = probes[half:] + probes[:half]
    if not probes:
        raise SeriesError("no probe classes with D.S = 1 are available")
    levels, _, nums = split_series(series, w, s)._table
    for d in probes:
        sums: dict[tuple, int] = {}
        for ks, kd, n in zip(levels, column(series, d), nums):
            sums[ks % 4, kd] = sums.get((ks % 4, kd), 0) + n
        if any(sums.values()):
            return 1
    return 0


def check_adjunction(
    series: DonaldsonSeries, s: MarkedSurface
) -> tuple[bool, list[tuple[HClass, Fraction]]]:
    """2g - 2 >= |K.S| for every entry (S^2 = 0 holds for every
    ``MarkedSurface``); returns all violators."""
    bound = 2 * s.genus - 2
    levels = column(series, s.cls)
    violators = [series.entries[j] for j, ks in enumerate(levels) if abs(ks) > bound]
    return (not violators, violators)


def check_involution(series: DonaldsonSeries) -> tuple[bool, list[HClass]]:
    """The map K -> -K carries coefficients by the sign (-1)^{d0(X, w=0)}.
    K -> -K reverses the sorted rows: a symmetric series is its rows and
    numerators reversed and negated (the numerators only when d0 is odd)."""
    flip = series.d0() % 2
    rows, nums = series.rows, series.nums
    flat, mirror = chain.from_iterable(rows), map(neg, chain.from_iterable(reversed(rows)))
    # catalog_cold pays for this whole-table compare: without it, wall_s read 6.6% higher,
    # losing 9 of 10 pairs by more than the runs' IQR (BENCH_50.json "shortcuts")
    if nums == (tuple(map(neg, nums[::-1])) if flip else nums[::-1]) and [*flat] == [*mirror]:
        return (True, [])
    bad = []
    for k, n in zip(rows, nums):
        j = series._position.get(tuple(map(neg, k)))
        if j is None or nums[j] != (-n if flip else n):
            bad.append(HClass._row(series.lattice, k))
    return (not bad, bad)


# -- JSON descriptor -----------------------------------------------------------------


def series_to_json(series: DonaldsonSeries) -> dict:
    tokens = _tokens(series.nums, series.den)
    entries = [{"k": list(k), "a": a} for k, a in zip(series.rows, tokens)]
    return _series_json(series, entries)


def _series_json(series: DonaldsonSeries, entries) -> dict:
    """``series_to_json``'s layout around ``entries``: its list of dicts, or
    the catalog writer's ``_entries_text``, which writes that list's text."""
    # every series is simple type; the key keeps the file format
    return {"lattice": series.lattice.name, "entries": entries, "simple_type": True}


def _entries_text(series: DonaldsonSeries, indent: str) -> str:
    """``series_to_json``'s entry list as ``lattice._indented`` writes it at
    ``indent``, straight from the int rows: one %-format over all of them."""
    if not series.rows:
        return "[]"
    item, field_, coord = indent + "  ", indent + "    ", indent + "      "
    k = f"[{coord}{(',' + coord).join(['%d'] * series.lattice.rank)}{field_}]"
    row = f'{{{field_}"k": {k if series.lattice.rank else "[]"},{field_}"a": "%s"{item}}}'
    args = chain.from_iterable(map(add, series.rows, zip(_tokens(series.nums, series.den))))
    return f"[{item}{(',' + item).join([row] * len(series.rows))}{indent}]" % tuple(args)


_SERIES_ENTRY = ("a series entry", {"k": [int], "a": _NUMBER}, ())


def series_from_json(data: dict, lattice: Lattice) -> DonaldsonSeries:
    """The series ``series_to_json`` wrote on ``lattice``; a malformed shape, a
    coordinate that is no JSON int, or a file naming another lattice is refused
    (``_read``).  Each distinct coefficient token is read once, keyed by type
    too (1, 1.0 and "1" differ), and the tokens go over one denominator
    (``_over_lcm``): the checked constructor takes the rows and numerators."""
    fields = {"lattice": lattice.name, "entries": [_SERIES_ENTRY], "simple_type": True}
    _read(data, ("a series", fields, ()), "series", SeriesError)
    # a bg:10 load 107-121 ms with it against 175-185 ms without (BENCH_52.json)
    keys = [(type(e["a"]), e["a"]) for e in data["entries"]]
    distinct = dict.fromkeys(keys)
    den, nums = _over_lcm(_exact(a) for _, a in distinct)
    num = dict(zip(distinct, nums))
    return DonaldsonSeries(lattice, [e["k"] for e in data["entries"]], [*map(num.get, keys)], den)
