"""An oracle for the torus rule that shares no constant with it: the fiber sum.

Gluing two elliptic surfaces along the fiber gives E(n) #_F E(m) = E(n+m),
whose series ``elliptic_surface`` writes as a binomial with no gluing code.
A glued entry (j, k, sector) stands for the class K_j + L_k + 2 sector F on
the target lattice; summing the entries per class must give the target's
twisted coefficients exactly.  The blown-up family B(n) #_T1 B(m) checks the
blow-up formula, the twist and the torus rule together on a non-default
surface and w: the target is E(n+m) blown up n + m times, its E classes
being the left side's followed by the right side's.

Only ``GluedSeries.entries`` and the parents' ``series.entries`` are read,
so the test stays independent of how a gluing stores or evaluates its rows.
"""

from collections import defaultdict

import pytest

from donaldson.constructions import blow_up, catalog
from donaldson.gluing import GluingSpec, glue_torus
from donaldson.series import twist


def glued_classes(gs, key):
    """Glued class key -> the sum of its entries' coefficients, zeros dropped."""
    lefts, rights = gs.spec.left.series.entries, gs.spec.right.series.entries
    sums = defaultdict(int)
    for j, k, sector, coeff in gs.entries:
        sums[key(lefts[j][0].coords, rights[k][0].coords, sector)] += coeff
    return {cls: c for cls, c in sums.items() if c}


def twisted_target(entry):
    """Class coords -> the sigma-twisted coefficient of the target series."""
    pairs = twist(entry.series, entry.lattice.cls("sigma"))
    return {k.coords: c for k, c in pairs if c}


def elliptic_key(kc, lc, sector):
    """K + L + 2 sector F in the coordinates (F, sigma)."""
    return (kc[0] + lc[0] + 2 * sector, kc[1] + lc[1])


def blown_up_key(kc, lc, sector):
    """K + L + 2 sector F in (F, sigma, K's E-part, L's E-part)."""
    return elliptic_key(kc, lc, sector) + kc[2:] + lc[2:]


E_PAIRS = [(n, m) for n in range(2, 7) for m in range(2, 7) if n + m <= 8]
B_PAIRS = [(n, m) for n in range(2, 6) for m in range(2, 6) if n + m <= 7]


@pytest.mark.parametrize("n, m", E_PAIRS)
def test_elliptic_fiber_sum_is_the_elliptic_surface(n, m):
    gs = glue_torus(GluingSpec(catalog(f"elliptic:{n}"), catalog(f"elliptic:{m}")))
    target = twisted_target(catalog(f"elliptic:{n + m}"))
    assert glued_classes(gs, elliptic_key) == target


@pytest.mark.parametrize("n, m", B_PAIRS)
def test_blown_up_fiber_sum_is_the_blown_up_elliptic_surface(n, m):
    spec = GluingSpec(catalog(f"bg:{n}"), catalog(f"bg:{m}"), "T1", "T1", "sigma", "sigma")
    target = catalog(f"elliptic:{n + m}")
    for _ in range(n + m):
        target = blow_up(target)
    assert glued_classes(glue_torus(spec), blown_up_key) == twisted_target(target)
