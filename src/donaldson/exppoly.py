"""Finite exponential sums  sum_k c_k e^{lam_k t}  with exact scalars.

Every evaluation in this package lands here: coefficients and exponents are
Gaussian rationals, and a symbolic marker records an undeveloped Gaussian
prefactor e^{+Q(tD)/2} or e^{-Q(tD)/2}.  The markers are never expanded when
identities are compared (all identities in the theory compare like-marked
parts); a truncated power-series expansion exists for display only.
Scalar parts and ``q_square`` are ints when integral (``lattice._exact``).
The constructor is the one merge of like exponents and pruning of zero terms;
``ExpPolynomial._canonical`` takes terms a maker already holds merged, pruned
and sorted past it, through ``lattice._trusted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gaussian import GaussianRational
from .lattice import _NUMBER, _exact, _over_lcm, _quotient, _read, _trusted

MARKERS = ("+Q/2", "-Q/2", "none")

_DIVISION_STEP_CAP = 10_000

MAX_EXPAND_ORDER = 200
"""The highest order ``expand`` accepts: its cost grows faster than order^2."""


class ExpPolynomialError(ValueError):
    pass


class InexactDivision(ExpPolynomialError):
    """Division in the exponential-polynomial ring left a remainder."""


_TERM = ("a term", {"lambda": str, "c": str}, ())
_EXPPOLY = ("an exponential polynomial", {"marker": str, "terms": [_TERM], "q": _NUMBER}, ("q",))


@dataclass(frozen=True)
class ExpPolynomial:
    """Canonical form: terms sorted by exponent, like exponents merged, zeros pruned.

    ``q_square`` is D.D of the marked prefactor, carried exactly when the part
    is marked (None when it is not); it rides along through sums and products
    and is only consumed by ``expand``.
    """

    marker: str = "none"
    terms: tuple[tuple[GaussianRational, GaussianRational], ...] = ()
    q_square: int | Fraction | None = None

    def __post_init__(self):
        if self.marker not in MARKERS:
            raise ExpPolynomialError(f"unknown marker {self.marker!r}")
        if (self.marker == "none") != (self.q_square is None):
            raise ExpPolynomialError(
                f"marker {self.marker!r} with D^2 {self.q_square!r}: D^2 goes with a marker"
            )
        merged: dict[tuple, list] = {}
        for lam, c in self.terms:
            lam = GaussianRational.coerce(lam)
            c = GaussianRational.coerce(c)
            key = lam.sort_key()
            if key in merged:
                merged[key][1] = merged[key][1] + c
            else:
                merged[key] = [lam, c]
        canon = tuple(
            (lam, c)
            for _, (lam, c) in sorted(merged.items())
            if not c.is_zero
        )
        object.__setattr__(self, "terms", canon)
        if self.q_square is not None:
            object.__setattr__(self, "q_square", _exact(self.q_square))

    @staticmethod
    def _canonical(marker: str, terms: tuple, q_square) -> "ExpPolynomial":
        """The polynomial of ``terms`` already in canonical form, made by
        ``lattice._trusted``: ``terms`` a tuple of (exponent, coefficient)
        pairs of ``GaussianRational``s, sorted by exponent, no exponent twice
        and no coefficient zero; ``marker`` one of ``MARKERS`` and
        ``q_square`` an int or a Fraction (``_exact``) exactly when it is marked.
        Its makers, each from sums per exponent: ``gluing.eval_glued`` and
        ``SplitSeries._evaluate`` (``evaluate`` and ``apply_relation``)."""
        return _trusted(ExpPolynomial, marker=marker, terms=terms, q_square=q_square)

    # -- queries -----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam) -> GaussianRational:
        lam = GaussianRational.coerce(lam)
        for l, c in self.terms:
            if l == lam:
                return c
        return GaussianRational(0)

    def exponents(self) -> tuple[GaussianRational, ...]:
        return tuple(l for l, _ in self.terms)

    # -- ring operations ------------------------------------------------------------

    def __add__(self, other: "ExpPolynomial") -> "ExpPolynomial":
        if not isinstance(other, ExpPolynomial):
            return NotImplemented
        if self.marker != other.marker:
            raise ExpPolynomialError(
                f"cannot combine parts marked {self.marker!r} and {other.marker!r}"
            )
        if self.q_square != other.q_square:
            raise ExpPolynomialError("cannot combine like-marked parts over different D^2")
        return ExpPolynomial(self.marker, self.terms + other.terms, self.q_square)

    def __sub__(self, other: "ExpPolynomial") -> "ExpPolynomial":
        return self + (-other)

    def __neg__(self) -> "ExpPolynomial":
        return self.scale(-1)

    def scale(self, scalar) -> "ExpPolynomial":
        s = GaussianRational.coerce(scalar)
        return ExpPolynomial(
            self.marker, tuple((l, c * s) for l, c in self.terms), self.q_square
        )

    def __mul__(self, other: "ExpPolynomial") -> "ExpPolynomial":
        if not isinstance(other, ExpPolynomial):
            return NotImplemented
        marker, q = _mul_marker(self, other)
        terms = [
            (l1 + l2, c1 * c2)
            for l1, c1 in self.terms
            for l2, c2 in other.terms
        ]
        return ExpPolynomial(marker, tuple(terms), q)

    def divide_exact(self, divisor: "ExpPolynomial") -> "ExpPolynomial":
        """Exact division; raises InexactDivision if no finite quotient exists.

        Works by leading-exponent elimination under the lexicographic order on
        (real, imaginary) parts of the exponents; since that order respects
        addition, an exact quotient has all its exponents between
        min(self)-min(divisor) and max(self)-max(divisor), which bounds the run.
        Each step subtracts the shifted divisor through the constructor, the one merge.
        """
        if not isinstance(divisor, ExpPolynomial):
            raise TypeError("divisor must be an ExpPolynomial")
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero exponential polynomial")
        if self.marker != "none" or divisor.marker != "none":
            raise ExpPolynomialError("exact division is defined for unmarked parts")
        if self.is_zero:
            return ExpPolynomial()
        lead_l, lead_c = divisor.terms[-1]
        low_bound = (self.terms[0][0] - divisor.terms[0][0]).sort_key()
        rem, out = self, []
        for _ in range(_DIVISION_STEP_CAP):
            if rem.is_zero:
                return ExpPolynomial("none", tuple(out))
            r_l, r_c = rem.terms[-1]
            q_l = r_l - lead_l
            if q_l.sort_key() < low_bound:
                raise InexactDivision("no exact quotient in the exponential ring")
            q_c = r_c / lead_c
            out.append((q_l, q_c))
            shifted = tuple((l + q_l, c * -q_c) for l, c in divisor.terms)
            rem = ExpPolynomial("none", rem.terms + shifted)
        raise InexactDivision("division did not terminate")

    # -- display expansion ---------------------------------------------------------

    def expand(self, order: int) -> tuple[GaussianRational, ...]:
        """Taylor coefficients in t up to the given order, marker included.

        The marked prefactor contributes e^{s q t^2 / 2} with s = +-1; this is
        the only place the marker is ever developed, with q = q_square.
        """
        if order < 0:
            raise ExpPolynomialError("expansion order must be >= 0")
        if order > MAX_EXPAND_ORDER:
            raise ExpPolynomialError(
                f"expansion order {order} is over the limit of {MAX_EXPAND_ORDER}"
            )
        # A term c e^{lam t} under the prefactor e^{p t^2/2}, p = +-q_square (0 when
        # unmarked), has nth coefficient B_n / (M (L R)^n n!) over the Gaussian ints
        # B_0 = C = M c and B_n = Lam R B_{n-1} + P L^2 R (n-1) B_{n-2}, Lam = L lam and
        # p = P / R, with L and M the exponents' and coefficients' denominators (_over_lcm)
        sign = {"+Q/2": 1, "-Q/2": -1}.get(self.marker, 0)
        p = sign * self.q_square if sign else 0
        big_l, lam_ints = _over_lcm(x for lam, _ in self.terms for x in (lam.re, lam.im))
        big_m, c_ints = _over_lcm(x for _, c in self.terms for x in (c.re, c.im))
        big_r = p.denominator
        lams = [(x * big_r, y * big_r) for x, y in zip(lam_ints[::2], lam_ints[1::2])]
        step = p.numerator * big_l * big_l * big_r  # P L^2 R
        # B_0 = C; the B_{-1} that prev starts as meets only the factor n - 1 = 0
        prev = cur = list(zip(c_ints[::2], c_ints[1::2]))
        body, den = [], big_m
        for n in range(order + 1):
            if n:
                k = step * (n - 1)
                prev, cur = cur, [(a * x - b * y + k * u, a * y + b * x + k * w)
                                  for (x, y), (u, w), (a, b) in zip(cur, prev, lams)]
                den *= big_l * big_r * n
            re, im = sum(x for x, _ in cur), sum(y for _, y in cur)
            body.append(GaussianRational(_quotient(re, den), _quotient(im, den)))
        return tuple(body)

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        q = {} if self.q_square is None else {"q": str(self.q_square)}
        return {
            "marker": self.marker,
            "terms": [
                {"lambda": l.to_token(), "c": c.to_token()} for l, c in self.terms
            ],
            **q,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExpPolynomial":
        """Read ``to_json`` output; a bad shape or token raises, naming its JSON path."""
        _read(data, _EXPPOLY, "", ExpPolynomialError)
        terms = []
        for i, t in enumerate(data["terms"]):
            try:
                terms.append(tuple(map(GaussianRational.from_token, (t["lambda"], t["c"]))))
            except ValueError as exc:
                raise ExpPolynomialError(f"terms[{i}]: {exc}") from exc
        try:
            q = None if data.get("q") is None else _exact(data["q"])
        except ValueError as exc:
            raise ExpPolynomialError(f"q: {exc}") from exc
        return cls(data["marker"], tuple(terms), q)


def _mul_marker(a: ExpPolynomial, b: ExpPolynomial) -> tuple[str, int | Fraction | None]:
    if a.marker == "none":
        return b.marker, b.q_square
    if b.marker == "none":
        return a.marker, a.q_square
    if a.marker != b.marker:
        raise ExpPolynomialError("cannot multiply oppositely marked parts")
    # e^{sQ1/2} e^{sQ2/2} = e^{sQ/2} with D^2 = D1^2 + D2^2
    return a.marker, a.q_square + b.q_square
