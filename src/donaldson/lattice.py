"""Integral lattices with intersection forms, homology classes and surfaces.

A ``Lattice`` models the piece of H^2 of a 4-manifold that the calculator
actually consumes: a symmetric integer Gram matrix for the intersection
form together with the declared b^+.  Every formula here is stated for
b_1 = 0 and a series-carrying manifold, so b_1 is not stored and b^+ must
be odd.  A lattice is a partial model spanned only by the classes the
formulas touch (fibers, sections, exceptional classes, surfaces); the
declared b^+ may exceed the rank of the modeled block, and only the count
of positive directions is checked against it.

K is characteristic when G K = diag(G) over F2: its odd coordinates lie in
c0 + ker(G mod 2), c0 (the Wu class) and the kernel (only on the catalog's
C(g) blocks) solved once per lattice.  A series' basic classes are int rows,
which ``Lattice.pairings`` pairs in batches and ``is_characteristic``, the one
characteristic test, tests one row at a time.

Exact numbers are made here, each by one rule: ``_exact`` makes any number
an int when it is integral and a Fraction otherwise; ``_over_lcm`` puts
numbers over one denominator as ints; ``_quotient``, its inverse, makes an
int over a positive int one number; and ``_tokens`` writes ints over a
denominator as their str tokens.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from operator import mul, xor


class LatticeError(ValueError):
    """A lattice or class fails one of its structural invariants."""


class LatticeMismatch(LatticeError):
    """Classes from two different lattices were combined."""


class ParityError(LatticeError):
    """An integer quantity required by the theory fails a parity condition."""


def _exact(x) -> int | Fraction:
    """The one number normalizer: an int when x is integral, else a Fraction.

    Every exact number the package stores passes through here.  A float is
    refused unless it is integral: its binary value is not the number that
    was written (0.1 would become 3602879701896397/2^55).  Exponent notation
    is refused, since '1e10000000' would build a ten-million-digit int.  A
    zero denominator ('1/0'), or what is no number (null, a list, 'x'), is a
    ``LatticeError``.
    """
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise LatticeError(f"exponent notation {x!r}; give an int or a 'p/q' string")
    if type(x) is bool:
        raise LatticeError(f"a bool is not a number: {x!r}")
    if isinstance(x, float) and not x.is_integer():
        raise LatticeError(f"non-integral float {x!r}; give an int or a 'p/q' string")
    try:
        f = Fraction(x)
    except ZeroDivisionError:
        raise LatticeError(f"zero denominator in {x!r}") from None
    except (TypeError, ValueError):
        raise LatticeError(f"not a number: {x!r}") from None
    return f.numerator if f.denominator == 1 else f


def _over_lcm(values) -> tuple[int, list[int]]:
    """The one common-denominator rule: (L, ints), L the lcm of the denominators
    of ``values`` (ints and Fractions alike) and ints the values times L, in
    order; no values give (1, [])."""
    values = list(values)
    big = lcm(*{x.denominator for x in values})
    return big, [x.numerator * (big // x.denominator) for x in values]


def _quotient(n: int, d: int) -> int | Fraction:
    """n / d for ints, d > 0, as ``_exact`` holds it: an int when d divides n,
    else a Fraction; the one way an int over a positive int becomes a number."""
    return Fraction(n, d) if n % d else n // d


def _tokens(ints, den: int) -> list[str]:
    """The token of each n / den, in order, for a sequence of ints over a
    positive den: its str, formatted once per distinct n."""
    token = {n: str(Fraction(n, den)) for n in set(ints)}
    return [*map(token.__getitem__, ints)]


def _numbers(values, what: str) -> tuple[int | Fraction, ...]:
    """``values``, a list or tuple, each through ``_exact``; a str is refused."""
    if type(values) not in (list, tuple):
        got = "the string " if type(values) is str else ""
        raise LatticeError(f"{what} must be a list of numbers, got {got}{values!r}")
    # built through a list, so the tuple is made at its size: one made from the bare
    # map keeps room for 10 items, which raised catalog_cold's peak RSS 29.8 -> 30.1 MiB
    return tuple([*map(_exact, values)])


def _trusted(cls, **fields):
    """The one door past a checked constructor: ``cls`` holding ``fields``, all it
    would set, with no check run.  Each value made here equals its checked twin,
    ``cls(**its init fields)``, as its maker derives the fields from checked values."""
    made = object.__new__(cls)
    made.__dict__.update(fields)
    return made


def _by_label(name: str, named, rank: int) -> dict:
    """label -> coords of a lattice's ``named``; a repeated label, or coords
    not of the lattice's rank, is a LatticeError."""
    coords = dict(named)
    if len(coords) != len(named):
        raise LatticeError(f"{name}: a class label is repeated")
    for label, c in named:
        if len(c) != rank:
            raise LatticeError(f"{name}: class {label!r} has wrong length")
    return coords


def _parity(coords) -> int:
    """The odd coordinates of an int vector as a mask, coordinate j at bit 8j."""
    return int.from_bytes(bytes(map((1).__and__, coords)), "little")


@dataclass(frozen=True)
class Lattice:
    """A symmetric integer Gram matrix, the modeled block of H^2, and b^+:
    odd, the parity that makes d0 an integer, and at least the block's
    count of positive directions."""

    name: str
    gram: tuple[tuple[int, ...], ...]
    b_plus: int
    named: tuple[tuple[str, tuple[int | Fraction, ...]], ...] = ()
    _named_coords: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gram = tuple(_numbers(r, f"{self.name}: Gram row {i}") for i, r in enumerate(self.gram))
        if any(type(x) is not int for row in gram for x in row):
            raise LatticeError(f"{self.name}: Gram matrix has a non-integral entry")
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise LatticeError(f"{self.name}: Gram matrix is not square")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
            raise LatticeError(f"{self.name}: Gram matrix is not symmetric")
        if type(self.b_plus) is not int:
            raise LatticeError(f"{self.name}: b_plus must be an int, got {self.b_plus!r}")
        if self.b_plus % 2 == 0:
            raise ParityError(
                f"{self.name}: a series-carrying manifold needs b+ odd, got b+={self.b_plus}"
            )
        named = tuple((lab, _numbers(c, f"{self.name}: class {lab!r}")) for lab, c in self.named)
        object.__setattr__(self, "named", named)
        object.__setattr__(self, "_named_coords", _by_label(self.name, named, n))
        pos = signature(gram)[0]
        if pos > self.b_plus:
            raise LatticeError(
                f"{self.name}: modeled block has {pos} positive directions, "
                f"more than the declared b+={self.b_plus}"
            )

    @property
    def rank(self) -> int:
        return len(self.gram)

    def _blown(self, name: str, m: int, first: int, extra=()) -> "Lattice":
        """This lattice + <-1>^m named ``name``, made by ``_trusted``: the named
        classes padded with m zeros, then E_first, ..., the new basis vectors,
        then ``extra`` (labels and coords of rank + m, checked).  The rest holds
        as this lattice's does: the Gram matrix stays symmetric, and a negative
        definite block adds no positive direction, so b+ still bounds their count."""
        n, pad = self.rank, (0,) * m
        units = [(0,) * (n + i) + (1,) + pad[i + 1 :] for i in range(m)]
        named = (
            tuple((lab, coords + pad) for lab, coords in self.named)
            + tuple((f"E{first + i}", e) for i, e in enumerate(units))
            + tuple((lab, _numbers(c, f"{name}: class {lab!r}")) for lab, c in extra)
        )
        gram = tuple(row + pad for row in self.gram) + tuple(tuple(-x for x in e) for e in units)
        return _trusted(Lattice, name=name, gram=gram, b_plus=self.b_plus, named=named,
                        _named_coords=_by_label(name, named, n + m))

    @cached_property
    def _wu(self) -> tuple[int, tuple[tuple[int, int], ...], bytes]:
        """(c0, kernel, c0's bytes) over F2, as ``_parity`` masks: c0 solves G c =
        diag(G) and is 0 at the free columns of G mod 2; kernel holds, per free
        column, (its bit, the kernel vector that is 1 there and 0 at the other
        free ones); the bytes are c0 one byte per coordinate."""
        rhs = 1 << 8 * self.rank  # the augmented column, diag(G)
        pivots = {}  # pivot bit -> its row, kept reduced (Gauss-Jordan)
        for i, row in enumerate(self.gram):
            row = _parity(row) | rhs * (row[i] & 1)
            row ^= reduce(xor, (p for bit, p in pivots.items() if row & bit), 0)
            # never rhs alone: x^T G x = x . diag(G) over F2 puts diag(G) in G's image
            if row & (rhs - 1):
                bit = row & -row
                pivots = {b: p ^ row if p & bit else p for b, p in pivots.items()}
                pivots[bit] = row
        free = [f for f in (1 << 8 * j for j in range(self.rank)) if f not in pivots]
        c0 = sum(bit for bit, row in pivots.items() if row & rhs)
        kernel = tuple((f, f | sum(b for b, row in pivots.items() if row & f)) for f in free)
        return c0, kernel, c0.to_bytes(self.rank, "little")

    def pairings(self, rows, v: "HClass") -> list[int | Fraction]:
        """K . v per int coordinate row K, by v's covector: the one batch pairing.
        v on another lattice is refused when there is a row to pair."""
        if rows and not same_lattice(self, v.lattice):
            raise LatticeMismatch(f"pairing of classes on {self.name} and {v.lattice.name}")
        cov = v.covector
        dots = [sum(map(mul, k, cov)) for k in rows]
        return dots if v.is_integral else [*map(_exact, dots)]

    def cls(self, label: str) -> "HClass":
        coords = self._named_coords.get(label)
        if coords is None:
            raise KeyError(f"{self.name}: no named class {label!r}")
        return HClass._row(self, coords)

    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.named)

    def zero(self) -> "HClass":
        return HClass(self, (0,) * self.rank)

    def basis_vector(self, i: int) -> "HClass":
        """e_i, for an int 0 <= i < rank; any other index is a LatticeError."""
        if type(i) is not int or not 0 <= i < self.rank:
            raise LatticeError(
                f"{self.name}: no basis vector {i!r}; the index is an int in [0, {self.rank})"
            )
        return HClass(self, (0,) * i + (1,) + (0,) * (self.rank - 1 - i))


@dataclass(frozen=True)
class HClass:
    """A (co)homology class on a lattice, given by coordinates in the basis.

    Basic classes and w-classes are integral; probe classes D may be rational
    (the theory rescales D freely).  Each coordinate is stored as an int when
    it is integral and as a Fraction otherwise.  ``HClass._row`` (``_trusted``)
    serves only a series row or a named class, checked when made, and the
    glued evaluation's classes of numbers it derived (``gluing._scaled_halves``'
    m D_i, ``gluing.rshift``'s moved halves)."""

    lattice: Lattice
    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        coords = _numbers(self.coords, "class coordinates")
        object.__setattr__(self, "coords", coords)
        if len(coords) != self.lattice.rank:
            raise LatticeError("coordinate length does not match lattice rank")

    @staticmethod
    def _row(lattice: Lattice, coords: tuple[int | Fraction, ...]) -> "HClass":
        """The class of ``coords``, a tuple of the lattice's rank whose entries
        are ints and non-integral Fractions, as ``_exact`` leaves them."""
        return _trusted(HClass, lattice=lattice, coords=coords)

    @property
    def is_integral(self) -> bool:
        return set(map(type, self.coords)) <= {int}

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def dot(self, other: "HClass") -> int | Fraction:
        return pairing(self, other)

    @cached_property
    def square(self) -> int | Fraction:
        return pairing(self, self)

    @cached_property
    def covector(self) -> tuple[int | Fraction, ...]:
        """gram . coords, built once: pairing with this class is one dot product.
        Each entry is one Gram row dotted with the coords, made one number (``_exact``)."""
        return tuple(_exact(sum(map(mul, row, self.coords))) for row in self.lattice.gram)

    def is_odd(self) -> bool:
        """Nonzero reduction mod 2 (meaningful for integral classes)."""
        if not self.is_integral:
            raise LatticeError("mod-2 reduction needs an integral class")
        return any(c % 2 for c in self.coords)

    def __add__(self, other: "HClass") -> "HClass":
        if not same_lattice(self.lattice, other.lattice):
            raise LatticeMismatch("cannot add classes on different lattices")
        return HClass(self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "HClass") -> "HClass":
        return self + (-other)

    def __neg__(self) -> "HClass":
        return HClass(self.lattice, tuple(-c for c in self.coords))

    def __rmul__(self, scalar) -> "HClass":
        s = _exact(scalar)
        return HClass(self.lattice, tuple(s * c for c in self.coords))

    def __repr__(self):
        body = ",".join(str(c) for c in self.coords)
        return f"<{body}>@{self.lattice.name}"


@dataclass(frozen=True)
class MarkedSurface:
    """An embedded surface of square zero and odd class, with its genus.

    Genus 1 surfaces are accepted here but only the torus gluing rule will
    consume them; every other gluing operation requires genus >= 2.
    """

    cls: HClass
    genus: int

    def __post_init__(self):
        if type(self.genus) is not int:
            raise LatticeError(f"surface genus must be an int, got {self.genus!r}")
        if self.genus < 1:
            raise LatticeError("surface genus must be >= 1")
        if not self.cls.is_integral:
            raise LatticeError("surface class must be integral")
        if self.cls.square != 0:
            raise LatticeError(
                f"surface class has self-intersection {self.cls.square}, expected 0"
            )
        if not self.cls.is_odd():
            raise LatticeError("surface class must be odd (nonzero mod 2)")

    @property
    def lattice(self) -> Lattice:
        return self.cls.lattice


# -- bilinear form and predicates ---------------------------------------------


def same_lattice(a: Lattice, b: Lattice) -> bool:
    """Lattice equality, with identity deciding the common case first."""
    return a is b or a == b


def pairing(u: HClass, v: HClass) -> int | Fraction:
    """u^T . gram . v as u . (v's cached covector): an int on integral classes,
    and a sum of rational terms is made one number (``_exact``)."""
    if not same_lattice(u.lattice, v.lattice):
        raise LatticeMismatch(
            f"pairing of classes on {u.lattice.name} and {v.lattice.name}"
        )
    return _exact(sum(map(mul, u.coords, v.covector)))


def is_characteristic(k: HClass) -> bool:
    """k . v == v . v (mod 2) for every basis vector of the modeled lattice,
    the package's one characteristic test: y = parity(k) + c0 is the sum of
    the kernel vectors at y's free coordinates (``Lattice._wu``); with no
    kernel, y == 0, one compare of k's parity bytes against c0's."""
    c0, kernel, wu = k.lattice._wu
    if not kernel:  # catalog_cold wall_s +8.6% without it, 9 of 10 pairs (BENCH_50.json)
        try:
            return bytes(map((1).__and__, k.coords)) == wu
        except TypeError:  # a Fraction coordinate: (1).__and__ gives NotImplemented
            pass
    if not k.is_integral:
        raise LatticeError("characteristic test needs an integral class")
    y = _parity(k.coords) ^ c0
    return y == reduce(xor, (v for f, v in kernel if y & f), 0)


def is_allowable(w: HClass, s: MarkedSurface) -> bool:
    """w . [S] odd ([S]^2 = 0 holds for every MarkedSurface): the pair (w, S)
    admits the two-sector split."""
    if not w.is_integral:
        raise LatticeError("w must be integral")
    if not same_lattice(w.lattice, s.lattice):
        raise LatticeMismatch("w and surface live on different lattices")
    return pairing(w, s.cls) % 2 == 1


def d_zero_value(w_square, b_plus: int) -> int:
    """d0 = -w^2 - (3/2)(1 + b+), b1 = 0; requires b+ an odd int."""
    if type(b_plus) is not int:
        raise LatticeError(f"b+ must be an int, got {b_plus!r}")
    if b_plus % 2 == 0:
        raise ParityError(
            f"b+ = {b_plus} is even; d0 is not an integer "
            "(manifold outside the simple-type structure hypotheses)"
        )
    w_sq = _exact(w_square)
    if type(w_sq) is not int:
        raise ParityError("w^2 must be an integer")
    return -w_sq - 3 * ((1 + b_plus) // 2)


def d_zero(w: HClass, b_plus: int) -> int:
    """d0 of (X, w) computed from the class w on its lattice."""
    if not w.is_integral:
        raise LatticeError("w must be integral")
    return d_zero_value(w.square, b_plus)


def signature(gram) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric integer matrix, on ints:
    a nonzero diagonal pivot d goes on with d A' - a a^T over its gcd, whose
    inertia is the rest's, flipped when d < 0.  With a zero diagonal, e_0 <-
    e_0 + e_j makes a[0][0] = 2 a[0][j] for an a[0][j] != 0; a zero row is a zero."""
    a, counts, flip = [list(row) for row in gram], [0, 0, 0], 0
    while a:
        p = next((j for j, row in enumerate(a) if row[j]), None)
        if p is None:
            j = next((j for j, x in enumerate(a[0]) if x), None)
            if j is None:
                counts[2] += 1
                a = [row[1:] for row in a[1:]]
                continue
            a[0] = [x + y for x, y in zip(a[0], a[j])]
            for row in a:
                row[0] += row[j]
            p = 0
        d, col = a[p][p], a[p][:p] + a[p][p + 1 :]
        counts[(d < 0) ^ flip] += 1
        flip ^= d < 0
        rest = [row[:p] + row[p + 1 :] for row in a[:p] + a[p + 1 :]]
        a = [[d * x - ci * cj for x, cj in zip(row, col)] for ci, row in zip(col, rest)]
        g = gcd(*chain.from_iterable(a))
        a = [[x // g for x in row] for row in a] if g > 1 else a
    return tuple(counts)


# -- JSON descriptors -------------------------------------------------------------


_NUMBER = (int, float, str)
"""The JSON types of a number token, which ``_exact`` reads."""


def _unique_keys(pairs) -> dict:
    """The ``object_pairs_hook`` of every JSON file reader: an object that
    refuses a repeated key (``ValueError``) instead of keeping the last."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        out[key] = value
    return out


def _read(data, shape, where: str, error: type[ValueError]) -> None:
    """The shape check of every JSON loader, run before it reads ``data``.

    ``shape`` is (noun, fields, optional).  ``fields`` maps each key the
    writer writes to its type (a bool is no int), a tuple of types, ``[t]``
    for a list of t, a type or a shape, or else the one value it holds; a key
    in ``optional`` may be absent.  Any other ``data`` raises ``error`` naming
    the JSON path: ``where`` ("" at the top), or the field's own.
    """
    noun, fields, optional = shape
    at = f"{where}: " if where else ""
    if type(data) is not dict:
        raise error(f"{at}{noun} must hold a JSON object, got a {type(data).__name__}")
    for key in data:
        if key not in fields:
            raise error(f"{at}unknown field {key!r} in {noun}")
    for key, want in fields.items():
        if key not in data:
            if key not in optional:
                raise error(f"{at}field {key!r} is missing from {noun}")
            continue
        value, kind = data[key], type(want)
        if kind is type:
            ok = type(value) is want
        elif kind is tuple:
            ok = type(value) in want
        elif kind is not list:
            ok = type(value) is kind and value == want
        elif type(want[0]) is tuple:  # a list of objects of the shape want[0]
            ok = type(value) is list
            for i, item in enumerate(value if ok else ()):
                _read(item, want[0], f"{where}.{key}[{i}]" if where else f"{key}[{i}]", error)
        else:
            ok = type(value) is list and {*map(type, value)} <= {want[0]}
        if not ok:
            path = f"{where}.{key}" if where else key
            raise error(f"{path} must be {_what(want)}, got {value!r}")


def _what(want) -> str:
    """What a ``_read`` message says a field must be: its type(s) or its one value."""
    if type(want) is list:
        return f"a list of {want[0].__name__}" if type(want[0]) is type else "a list"
    if type(want) is type:
        want = (want,)
    if type(want) is not tuple:
        return repr(want)
    return " or ".join(("an " if t is int else "a ") + t.__name__ for t in want)


def _indented(data, indent: str = "\n") -> str:
    """``json.dumps(data, indent=2)``, with one join per container: a plain
    int, or a list of them, is written by ``repr``, a str by the C string
    encoder, any other scalar by ``json.dumps``, and a callable by what it
    returns for the indent (a writer of its own).  Dict keys must be strs."""
    if isinstance(data, str):
        return encode_basestring_ascii(data)
    if type(data) is int:
        return repr(data)
    inner = indent + "  "
    if isinstance(data, dict) and data:
        body = [encode_basestring_ascii(k) + ": " + _indented(v, inner) for k, v in data.items()]
        return "{" + inner + ("," + inner).join(body) + indent + "}"
    if not isinstance(data, (list, tuple)) or not data:
        return data(indent) if callable(data) else json.dumps(data)
    ints = set(map(type, data)) <= {int}
    body = map(repr, data) if ints else [_indented(x, inner) for x in data]
    return "[" + inner + ("," + inner).join(body) + indent + "]"


def lattice_to_json(lat: Lattice) -> dict:
    return {
        "name": lat.name,
        "rank": lat.rank,
        "gram": [list(row) for row in lat.gram],
        "b_plus": lat.b_plus,
        "b_one": 0,
        "classes": {lab: [c if type(c) is int else str(c) for c in cs] for lab, cs in lat.named},
        "model": "partial",
    }


# b1 = 0 and the partial model are structure; the file keeps their keys
_LATTICE = ("a lattice", {"name": str, "rank": int, "gram": list, "b_plus": int, "b_one": 0,
                          "classes": dict, "model": "partial"}, ())


def lattice_from_json(data: dict) -> Lattice:
    """The lattice ``lattice_to_json`` wrote; a malformed shape is refused
    (``_read``), and so is a ``rank`` that is not the Gram matrix's size."""
    _read(data, _LATTICE, "lattice", LatticeError)
    if len(data["gram"]) != data["rank"]:
        raise LatticeError("rank field does not match Gram matrix size")
    return Lattice(
        name=data["name"],
        gram=data["gram"],
        b_plus=data["b_plus"],
        named=tuple(data["classes"].items()),
    )
