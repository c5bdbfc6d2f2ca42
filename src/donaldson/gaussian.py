"""Exact arithmetic in the Gaussian rationals Q(i).

Scalars of the form a + b*i with a, b rational are the value type of
every evaluation in this package: sector splitting introduces powers
of i and purely imaginary exponents, and all identities are checked
by exact equality.  Each part is stored through ``lattice._exact``: an
int when it is integral and a Fraction otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import _exact


class GaussianRational:
    """An immutable complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _exact(re))
        object.__setattr__(self, "im", _exact(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def i_power(cls, k: int) -> "GaussianRational":
        """i**k for any integer k (k may be negative)."""
        return cls(*((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4])

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        return x if isinstance(x, GaussianRational) else cls(x)

    # -- predicates ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def rational(self) -> int | Fraction:
        """The real value (an int when integral); raises if it is not real."""
        if self.im != 0:
            raise ValueError(f"{self} is not real")
        return self.re

    # -- arithmetic --------------------------------------------------------------

    def _other(self, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, x):
        o = self._other(x)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, x):
        o = self._other(x)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, x):
        o = self._other(x)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, x):
        o = self._other(x)
        if o is None:
            return NotImplemented
        if not o.im:
            # a real factor, half the products: without this, glue_fit's fit ops
            # (g = 2..7, in process) took 2.4-2.6 ms against 2.1 ms
            return GaussianRational(self.re * o.re, self.im * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, x):
        o = self._other(x)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)(c - di) / (c^2 + d^2); int / int would be a float
        return GaussianRational(Fraction(a * c + b * d, n), Fraction(b * c - a * d, n))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (GaussianRational(1) / self) ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing ------------------------------------------------------

    def __eq__(self, x):
        o = self._other(x)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def sort_key(self):
        """Total order on Q(i), lexicographic on (real, imaginary)."""
        return (self.re, self.im)

    # -- formatting -----------------------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return self.to_token()

    def to_token(self) -> str:
        """Serialize as 'p/q', 'r/s i' or 'p/q+r/s i' with exact parts."""
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im} i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"

    @classmethod
    def from_token(cls, s: str) -> "GaussianRational":
        if type(s) is not str:
            raise ValueError(f"a Gaussian rational token must be a str, got {s!r}")
        t = s.replace(" ", "")
        if not t:
            raise ValueError("empty Gaussian rational token")
        if not t.endswith("i"):
            return cls(t)
        body = t[:-1]
        # split real and imaginary on the last sign that is not a leading sign
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                re_part, im_part = body[:pos], body[pos:]
                if im_part in ("+", "-"):
                    im_part += "1"
                return cls(re_part, im_part)
        if body in ("", "+", "-"):
            body += "1"
        return cls(0, body)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
