"""Reconstruction of the universal diagonal pairing matrix from references.

Every simple-type series against a genus-g surface is captured by 2g-1
coordinates indexed by the pairing level p (K.S = 2p), ordered
p = g-1, -(g-1), g-2, -(g-2), ..., 0.  Coordinates at odd p carry the
e^{+Q/2} marker; coordinates at even p carry e^{-Q/2}, the i^{-d0} factor
and exponents rotated by i.

A gluing pairs the coordinate vectors of the two sides through a diagonal
universal matrix: coordinate-wise,

    c_X,p(t) = c_X1,p(t) * M_p(t * (D.S)) * c_X2,p(t)

after the sector normalization (the i-factors of the even-p coordinates are
absorbed into M).  This module fits the M_p entries by exact division from
reference gluings whose outputs are known, instead of assuming the closed
forms the gluing module hard-codes; agreement of the two routes is the
self-consistency oracle for the whole calculator.  A level's coordinate is
``SplitSeries.evaluate`` at z = 1 restricted to that level; the split's
``levels`` index also gives the adjunction-bound check its classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exppoly import ExpPolynomial
from .gaussian import GaussianRational
from .lattice import HClass, MarkedSurface, _exact
from .series import DonaldsonSeries, SplitSeries


class FitError(ValueError):
    pass


class InsufficientData(FitError):
    """No reference triple determines a requested diagonal entry."""


def p_of_alpha(alpha: int, genus: int) -> int:
    """Pairing level of the alpha-th coordinate, alpha = 1..2g-1."""
    if not 1 <= alpha <= 2 * genus - 1:
        raise FitError(f"alpha={alpha} out of range for genus {genus}")
    m = (alpha - 1) // 2
    level = genus - 1 - m
    return level if alpha % 2 == 1 else -level


@dataclass(frozen=True)
class BasisCoordinates:
    """The 2g-1 coordinate series of one side of a gluing, in split form."""

    genus: int
    d0: int
    d_square: int | Fraction
    coords: tuple[ExpPolynomial, ...]

    def __post_init__(self):
        if len(self.coords) != 2 * self.genus - 1:
            raise FitError("coordinate vector has the wrong length")

    def coordinate(self, alpha: int) -> ExpPolynomial:
        return self.coords[alpha - 1]

    def plain(self, alpha: int) -> ExpPolynomial:
        """The coordinate with sector normalization undone.

        Odd-p coordinates lose their marker; even-p coordinates are also
        multiplied by i^{d0} and their exponents rotated back to the real
        axis (lambda = i mu -> mu).  The result is the bare sum
        sum a_{j,w} e^{(K_j . D) t} over the level.
        """
        c = self.coordinate(alpha)
        p = p_of_alpha(alpha, self.genus)
        bare = ExpPolynomial("none", c.terms)
        if p % 2 == 0:
            bare = bare.scale(GaussianRational.i_power(self.d0))
            bare = bare.scale_exponents(GaussianRational(0, -1))
        return bare


def basis_coordinates(
    series: DonaldsonSeries, w: HClass, s: MarkedSurface, d: HClass
) -> BasisCoordinates:
    """Collect the series into its 2g-1 level coordinates against (w, S, D)."""
    if d.dot(s.cls) != 1:
        raise FitError("coordinates are computed against a probe with D.S = 1")
    g = s.genus
    split = SplitSeries(series, w, s)
    for lvl, (j, *_) in split.levels.items():
        if abs(lvl) > 2 * g - 2:
            raise FitError(
                f"class {split.rows[j][0]} pairs {lvl} with the surface, beyond the "
                f"adjunction bound {2 * g - 2}"
            )
    # odd levels p are the P-sector (K.S = 2p = 2 mod 4), even ones the N-sector
    levels = [p_of_alpha(alpha, g) for alpha in range(1, 2 * g)]
    coords = tuple(split.evaluate(d, ((0, 0, 1),), [2 * p])[p % 2 == 0] for p in levels)
    return BasisCoordinates(g, split.d0, d.square, coords)


def zero_coordinates(genus: int, d0: int, d_square=0) -> BasisCoordinates:
    """The coordinate vector of a manifold with vanishing invariants."""
    q = _exact(d_square)
    coords = tuple(
        ExpPolynomial("+Q/2" if p_of_alpha(a, genus) % 2 else "-Q/2", (), q)
        for a in range(1, 2 * genus)
    )
    return BasisCoordinates(genus, d0, q, coords)


def fit_diagonal(
    triples: list[tuple[BasisCoordinates, BasisCoordinates, BasisCoordinates]],
    alphas=None,
) -> dict[int, ExpPolynomial]:
    """Fit M_alpha = c_X,alpha / (c_X1,alpha * c_X2,alpha) by exact division.

    Each triple is (left coordinates, right coordinates, coordinates of the
    glued manifold), all computed against probes with D.S = 1.  A triple
    determines the entries where its denominator does not vanish; distinct
    triples must agree where they overlap, and every requested alpha must be
    determined by some triple.
    """
    if not triples:
        raise InsufficientData("no reference triples given")
    genus = triples[0][0].genus
    for bc_l, bc_r, bc_x in triples:
        if bc_l.genus != genus or bc_r.genus != genus or bc_x.genus != genus:
            raise FitError("reference triples mix genera")
    wanted = list(alphas) if alphas is not None else list(range(1, 2 * genus))
    fitted: dict[int, ExpPolynomial] = {}
    for alpha in wanted:
        for bc_l, bc_r, bc_x in triples:
            denom = bc_l.plain(alpha) * bc_r.plain(alpha)
            if denom.is_zero:
                continue
            m = bc_x.plain(alpha).divide_exact(denom)
            if alpha in fitted and fitted[alpha] != m:
                raise FitError(
                    f"references disagree on the diagonal entry at alpha={alpha}"
                )
            fitted[alpha] = m
        if alpha not in fitted:
            raise InsufficientData(
                f"no reference with nonvanishing coordinates determines alpha={alpha}"
            )
    return fitted


def predict_glued(
    left: BasisCoordinates,
    right: BasisCoordinates,
    m_map: dict[int, ExpPolynomial],
    sigma_d=1,
) -> ExpPolynomial:
    """sum_alpha c_X1,alpha(t) M_alpha(t (D.S)) c_X2,alpha(t), as e^{+Q/2} data.

    Must reproduce the direct pairwise gluing on every shared input; the
    diagonal argument is scaled by the supplied S.D.
    """
    if left.genus != right.genus:
        raise FitError("coordinate vectors have mismatched index sets")
    sigma_d = _exact(sigma_d)
    total = ExpPolynomial("none")
    for alpha in range(1, 2 * left.genus):
        m = m_map.get(alpha)
        if m is None:
            raise FitError(f"missing diagonal entry for alpha={alpha}")
        if m.is_zero:
            continue
        term = left.plain(alpha) * m.scale_exponents(sigma_d) * right.plain(alpha)
        total = total + term
    return ExpPolynomial("+Q/2", total.terms, left.d_square + right.d_square)
