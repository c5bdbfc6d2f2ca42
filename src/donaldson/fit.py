"""Reconstruction of the universal diagonal pairing matrix from references.

Every simple-type series against a genus-g surface is captured by 2g-1
coordinates indexed by the pairing level p (K.S = 2p), ordered
p = g-1, -(g-1), g-2, -(g-2), ..., 0.  The coordinate at level p is the
bare sum  sum_j a_j e^{(K_j . D) t}  of the twisted coefficients of the
classes at that level, ``SplitSeries.level_sums``, with no marker.

A gluing pairs the coordinate vectors of the two sides through a diagonal
universal matrix: coordinate-wise, at a probe with D.S = 1 (the only probes
``basis_coordinates`` accepts),

    c_X,p(t) = c_X1,p(t) * M_p(t) * c_X2,p(t).

This module fits the M_p entries by exact division from reference gluings
whose outputs are known, instead of assuming the closed forms the gluing
module hard-codes; agreement of the two routes is the self-consistency
oracle for the whole calculator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exppoly import ExpPolynomial
from .lattice import HClass, MarkedSurface, _exact
from .series import DonaldsonSeries, split_series


class FitError(ValueError):
    pass


class InsufficientData(FitError):
    """No reference triple determines a requested diagonal entry."""


def _int(value, name: str) -> int:
    """The value, if it is an int (a bool is not one); else a ``FitError``."""
    if type(value) is not int:
        raise FitError(f"{name} must be an int, got {value!r}")
    return value


def p_of_alpha(alpha: int, genus: int) -> int:
    """Pairing level of the alpha-th coordinate, alpha = 1..2g-1."""
    if not 1 <= _int(alpha, "alpha") <= 2 * _int(genus, "genus") - 1:
        raise FitError(f"alpha={alpha} out of range for genus {genus}")
    m = (alpha - 1) // 2
    level = genus - 1 - m
    return level if alpha % 2 == 1 else -level


@dataclass(frozen=True)
class BasisCoordinates:
    """The 2g-1 unmarked level sums of one side of a gluing."""

    genus: int
    d_square: int | Fraction
    coords: tuple[ExpPolynomial, ...]

    def __post_init__(self):
        if len(self.coords) != 2 * _int(self.genus, "genus") - 1:
            raise FitError("coordinate vector has the wrong length")
        if any(c.marker != "none" for c in self.coords):
            raise FitError("a coordinate is a bare level sum and carries no marker")
        object.__setattr__(self, "d_square", _exact(self.d_square))

    def plain(self, alpha: int) -> ExpPolynomial:
        """sum a_{j,w} e^{(K_j . D) t} over level K.S = 2 p_of_alpha(alpha), which
        refuses an alpha out of range."""
        p_of_alpha(alpha, self.genus)
        return self.coords[alpha - 1]


def basis_coordinates(
    series: DonaldsonSeries, w: HClass, s: MarkedSurface, d: HClass
) -> BasisCoordinates:
    """Collect the series into its 2g-1 level coordinates against (w, S, D)."""
    if d.dot(s.cls) != 1:
        raise FitError("coordinates are computed against a probe with D.S = 1")
    g = s.genus
    split = split_series(series, w, s)
    for lvl, (j, *_) in split.levels.items():
        if abs(lvl) > 2 * g - 2:
            k = HClass._row(series.lattice, series.rows[j])
            raise FitError(
                f"class {k} pairs {lvl} with the surface, beyond the adjunction bound {2 * g - 2}"
            )
    coords = tuple(
        ExpPolynomial("none", split.level_sums(2 * p_of_alpha(alpha, g), d).items())
        for alpha in range(1, 2 * g)
    )
    return BasisCoordinates(g, d.square, coords)


def zero_coordinates(genus: int) -> BasisCoordinates:
    """The coordinate vector of a manifold with vanishing invariants."""
    return BasisCoordinates(genus, 0, (ExpPolynomial(),) * (2 * _int(genus, "genus") - 1))


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
) -> ExpPolynomial:
    """sum_alpha c_X1,alpha(t) M_alpha(t) c_X2,alpha(t), as e^{+Q/2} data.

    Must reproduce the direct pairwise gluing on every shared input; the
    coordinates are taken at D.S = 1, so M's argument is t.
    """
    if left.genus != right.genus:
        raise FitError("coordinate vectors have mismatched index sets")
    total = ExpPolynomial("none")
    for alpha in range(1, 2 * left.genus):
        m = m_map.get(alpha)
        if m is None:
            raise FitError(f"missing diagonal entry for alpha={alpha}")
        if m.is_zero:
            continue
        total = total + left.plain(alpha) * m * right.plain(alpha)
    return ExpPolynomial("+Q/2", total.terms, left.d_square + right.d_square)
