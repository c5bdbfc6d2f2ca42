"""One audit of every value made past its checks.

``lattice._trusted`` is the one door past a checked constructor:
``HClass._row`` (a series row, a named class or a surface's class, and the
glued evaluation's m D_i and ``gluing.rshift``'s moved halves), ``DonaldsonSeries._signed``,
``gluing._glued``, the two blow-up makers, ``Lattice._blown`` (the blown
lattice L + <-1>^m) and ``DonaldsonSeries._blown`` (the blown series), and
``ExpPolynomial._canonical`` (the results of ``eval_glued`` and of
``SplitSeries.evaluate``, whose private ``_evaluate`` ``apply_relation``
calls too), make their values through it, and
``test_package`` pins that no other code calls ``__new__``.  The moved
split class itself is made by the checked ``SplitClass``.  The blow-up
makers rest on one lemma, which their docstrings state: the rows K + s come
out sorted, unique and characteristic, as the base's are, the signs s run in
lexicographic order and E_i^2 = -1 is odd; only the gcd is taken again.

The audit wraps the door in every module that binds it, so that each value
made there is compared with its checked twin, ``cls(**its init fields)``:
equal, with the same attributes set and, for a gluing, the same int column
and match index ``_match``; a class has the same coordinate types (an int
wherever the value is integral) and a polynomial the same type of D^2.  A
twin built from the door's fields cannot see a maker that hands the door the
wrong values, so ``_signed`` and both ``_blown`` makers, whose arguments fix
their values, are also compared with the checked value of their own
arguments, and so are the glued evaluation's
three: ``_scaled_halves``' m D_i with ``HClass`` of m times D_i's
coordinates, ``rshift``'s moved class with (D1 + rS, D2 - rS) by checked
class arithmetic, and ``eval_glued``'s result with the per-entry
``Fraction`` sum through the checked ``ExpPolynomial``.  So are the split
evaluations' results, with the per-row sums, each row paired with S, D
and w alone and z's scalar taken as its plain power sum:
``SplitSeries.evaluate``'s and ``apply_relation``'s two parts.  The
audit also checks what a series keeps once made: each split that
``split_series`` hands out is the one asked for, and at the end each stored
column equals a fresh ``Lattice.pairings`` and each stored split's table a
fresh ``_split_table``.
The cached paths make no new value on a repeated call: each value that
``parse_recipe``, ``_probes`` or ``_relation_poly`` hands out is compared at
the end with a fresh rebuild from the call's own arguments (the entry's file
bytes and the relation's table too), and ``RelationPoly.of`` must hand back
a ``RelationPoly`` it is given as it is.

The scenario runs, through ``cli.run``, the commands of the benchmark's
cli_session workload at full size, ``check`` of dia2:2:3, B2..B6, K3, S4 and
cg:3 and ``fit`` at genus 3, 4 and 5, then a B4/T1 torus gluing with its
evaluation at D, at D moved by 5/6 of the surface and at D moved back, the
signed copies (``twisted``, ``unsplit_series``) of its left side, B2's
double at D = 0, where its two entries' sums cancel, B3's split evaluated at
D = E1, where a sector's coefficients at a K.D cancel, and at E1 moved by
5/6 of the surface, a rational D, and K3 blown up once:
B(g), dia2 and ``blow_up`` are the three builders of blow-ups.  It runs once with the audit
off and once on, each under fresh recipe, probe and relation caches, so
that every trusted path runs in both.

A later trusted path goes through ``_trusted``, so the door audits it from
its first day; the change that adds it also adds it to ``PATHS`` here.
"""

import contextlib
import dataclasses
import functools
import io
import json
import sys
import warnings
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product

import pytest

import donaldson.cli as cli
import donaldson.constructions as constructions
import donaldson.fit  # noqa: F401  loaded before the audit patches split_series, which it binds
import donaldson.gluing as gluing_mod
import donaldson.lattice as lattice_mod
import donaldson.series as series_mod
from donaldson.constructions import blow_up, catalog
from donaldson.exppoly import ExpPolynomial
from donaldson.gaussian import GaussianRational
from donaldson.gluing import GluedSeries, GluingSpec, SplitClass, glue, glue_torus, glued_to_json
from donaldson.lattice import HClass, Lattice, _indented, _over_lcm
from donaldson.series import DonaldsonSeries, SplitSeries, series_to_json, twisted, unsplit_series
from test_random_gluing import per_entry_eval

G, CHECK_G = 6, 4  # cli_session's genera at full size
R = Fraction(5, 6)  # the probe shift: cli_session draws an odd r over 6
# the other entries that check walks, and the other genera that fit fits
CHECKED = ("B2", "B3", "B4", "B5", "B6", "K3", "S4", "cg:3")
FIT_G = (3, 4, 5)

# every wrapped path: the door per class it makes, the signed and blown makers, the glued
# evaluation's makers (m D_i, the moved class, the result), the split evaluations, the two
# stores and the cached paths, which make no new value on a repeated call
PATHS = ("HClass", "Lattice", "DonaldsonSeries", "GluedSeries", "ExpPolynomial",
         "_signed", "_blown", "_scaled_halves", "rshift", "eval_glued", "SplitSeries.evaluate",
         "apply_relation", "column", "split_series", "parse_recipe", "_probes",
         "_relation_poly", "RelationPoly.of")
# the split evaluations, each of which must meet a rational D and a K.D whose sum cancels
SPLIT_PATHS = ("SplitSeries.evaluate", "apply_relation")

# each cached path: its module, and what beyond == a fresh rebuild must match
CACHED = {"parse_recipe": (constructions, "json_bytes"), "_probes": (series_mod, None),
          "_relation_poly": (series_mod, "_horner")}


def commands(tmp):
    """cli_session's commands, then checks of dia2 and the ``CHECKED`` entries
    and fits at ``FIT_G``; eval's probe is read from build's output."""
    glued = str(tmp / f"bg{G}_double.json")
    return [
        ["catalog", "list"],
        ["catalog", "show", "B3"],
        ["build", f"bg:{G}"],
        ["glue", "--left", f"bg:{G}", "--right", f"bg:{G}", "--g", str(G), "--out", glued],
        ["eval", "--glued", glued, "--expand-order", "8"],
        ["glue", "--left", "K3", "--right", "K3", "--g", "1", "--torus"],
        ["conjecture", "--left", "C2", "--right", "C2", "--g", "2"],
        ["fit", "--g", str(G)],
        ["check", "--entry", f"bg:{CHECK_G}"],
        ["check", "--entry", "dia2:2:3"],
    ] + [["check", "--entry", name] for name in CHECKED] + [["fit", "--g", str(g)] for g in FIT_G]


def shifted_probe(build_output):
    """--d1/--d2 for the split (T1 + R S, T1 - R S), as cli_session makes them."""
    classes = json.loads(build_output)["lattice"]["classes"]
    t1, sg = ([Fraction(x) for x in classes[label]] for label in ("T1", "Sigma_g"))
    d1 = ",".join(str(a + R * b) for a, b in zip(t1, sg))
    d2 = ",".join(str(a - R * b) for a, b in zip(t1, sg))
    return [f"--d1={d1}", f"--d2={d2}"]


def fresh_caches(monkeypatch):
    """An empty cache of the same size in place of each cached path's own."""
    for name, (module, _) in CACHED.items():
        cached = getattr(module, name)
        fresh = functools.lru_cache(cached.cache_info().maxsize)(cached.__wrapped__)
        patch_everywhere(monkeypatch, module, name, fresh)


def scenario(monkeypatch, tmp) -> str:
    """Everything the scenario prints."""
    printed = []
    for argv in commands(tmp):
        if argv[0] == "eval":
            argv += shifted_probe(printed[2])
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.run(argv) == 0, argv
        printed.append(out.getvalue())
    b4 = catalog("B4")
    torus = dict(left_surface="T1", right_surface="T1", left_w="sigma", right_w="sigma")
    spec = GluingSpec(b4, b4, **torus)
    gs = glue_torus(spec)
    sigma = b4.lattice.cls("sigma")
    d = spec.split_class(sigma, sigma)
    printed.append(_indented(glued_to_json(gs)))
    # through the module, so that the audit's wrappers run; moved back, the
    # numerators share m q = 36 and the int form's m drops to 1
    moved = gluing_mod.rshift(spec, d, R)
    back = gluing_mod.rshift(spec, moved, -R)
    printed += [_indented(gluing_mod.eval_glued(gs, x).to_json()) for x in (d, moved, back)]
    # B2's double at D = 0: its two entries' sums cancel, so the result has no term
    b2 = GluingSpec(catalog("B2"), catalog("B2"))
    zero = b2.left.lattice.zero()
    printed.append(_indented(gluing_mod.eval_glued(glue(b2), b2.split_class(zero, zero)).to_json()))
    # B3's split at E1 (D.S = 1): in N at K.D = 1 and in P at K.D = +-1 the
    # twisted coefficients cancel; E1 + R S is a rational D
    b3 = catalog("B3")
    w, s = b3.w_class(), b3.surface()
    e1 = b3.lattice.cls("E1")
    z, one = series_mod.relation_poly(s.genus), series_mod.RelationPoly.of(((0, 0, 1),))
    for x in (e1, e1 + R * s.cls):
        parts = [series_mod.eval_insertion(b3.series, w, s, x),
                 series_mod.eval_insertion(b3.series, w + s.cls, s, x, 1, 2),
                 series_mod.apply_relation(b3.series, w, s, z, x),
                 series_mod.apply_relation(b3.series, w, s, one, x)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # at D.S = 2 the relation need not vanish
            parts.append(series_mod.apply_relation(b3.series, w, s, z, x + e1))
        printed += [_indented([part.to_json() for part in pair]) for pair in parts]
    assert spec._splits[0].nums != b4.series.nums  # the twist flips some signs
    signed = twisted(b4.series, spec.w1), unsplit_series(spec._splits[0])
    printed += [_indented(series_to_json(series)) for series in signed]
    printed.append(blow_up(catalog("K3")).json_bytes.decode())
    return "\n".join(printed)


def per_row(split, d, z):
    """{(sector, exponent): the per-row terms} of ``split`` on z e^{tD}, K.S, K.D
    and K.w taken row by row, z's scalar as its plain power sum."""
    series, w, s = split.series, split.w, split.surface
    d_sigma, w_sq = d.dot(s.cls), w.square
    terms = defaultdict(list)
    for k, c in series.entries:
        ks, kd = k.dot(s.cls), k.dot(d)
        c = -c if (k.dot(w) + w_sq) % 4 else c
        if ks % 4 == 2:
            x, weight, lam, unit = 2, GaussianRational(d_sigma + ks), GaussianRational(kd), 1
        else:
            x, weight = -2, GaussianRational(-d_sigma, ks)
            lam, unit = GaussianRational(0, kd), GaussianRational.i_power(-split.d0)
        scalar = sum((weight**sp * (cz * x**xp) for sp, xp, cz in z.terms), GaussianRational())
        terms[ks % 4, lam].append(unit * scalar * c)
    return terms


def cancels(terms) -> bool:
    """Whether the terms at some key, two or more of them nonzero, sum to zero."""
    for cs in terms.values():
        nonzero = [c for c in cs if not c.is_zero]
        if len(nonzero) > 1 and sum(nonzero, GaussianRational()).is_zero:
            return True
    return False


def sector_parts(terms, q) -> tuple[ExpPolynomial, ExpPolynomial]:
    """(P, N) of ``per_row`` terms through the checked ``ExpPolynomial``."""
    def part(r):
        return tuple((lam, c) for (sector, lam), cs in terms.items() if sector == r for c in cs)

    return ExpPolynomial("+Q/2", part(2), q), ExpPolynomial("-Q/2", part(0), q)


class Audit:
    """What the wrapped paths ran and which comparisons failed."""

    def __init__(self):
        self.ran, self.failed, self.series, self.cached = Counter(), [], {}, []
        self.met = Counter()  # (split path, "rational D" or "a K.D cancels")

    def against_rows(self, path, made, twin, d, terms):
        """A split evaluation's result against its per-row twin: equal, term for
        term in order, and with the same JSON, what a command would print."""
        made_json, twin_json = (json.dumps([p.to_json() for p in pair]) for pair in (made, twin))
        same = made == twin and made_json == twin_json
        self.check(path, same, f"{d!r:.200} is not the per-row sum")
        self.met[path, "rational D"] += not d.is_integral
        self.met[path, "a K.D cancels"] += cancels(terms)

    def check(self, path, same, what):
        self.ran[path] += 1
        if not same:
            self.failed.append(f"{path}: {what}")

    def keep(self, series):
        self.series[id(series)] = series

    def twin(self, cls, fields, made):
        """``made`` against ``cls(**its init fields)``."""
        try:
            twin = cls(**{f.name: fields[f.name] for f in dataclasses.fields(cls) if f.init})
        except ValueError as exc:
            self.check(cls.__name__, False, f"the checked twin refuses it: {exc}")
            return
        same = made == twin and fields.keys() == vars(twin).keys()
        if cls is GluedSeries:
            same = same and made._int_form == twin._int_form and made._match == twin._match
        elif cls is HClass:
            same = same and same_types(made.coords, twin.coords)
        elif cls is ExpPolynomial:
            same = same and type(made.q_square) is type(twin.q_square)
        self.check(cls.__name__, same, f"{made!r:.200} is not its checked twin")

    def sweep(self):
        """Each stored column and split table against a fresh one."""
        for series in self.series.values():
            lat = series.lattice
            for coords, col in series._store.items():
                fresh = tuple(lat.pairings(series.rows, HClass(lat, coords)))
                self.check("column", col == fresh, f"stored column of {coords} is stale")
            for key, split in series._splits.items():
                own = split.w.coords, split.surface.cls.coords, split.surface.genus
                same = split.series is series and key == own
                if "_table" in vars(split):
                    fresh = series_mod._split_table(series, split.w, split.surface)
                    same = same and split._table == fresh
                self.check("split_series", same, f"stored split {key} is not its own")
        for name, rebuild, args, made in self.cached:
            fresh, extra = rebuild(*args), CACHED[name][1]
            same = made == fresh and (extra is None or getattr(made, extra) == getattr(fresh, extra))
            self.check(name, same, f"cached {name}{args!r:.200} is not a fresh rebuild")


def same_types(coords, others) -> bool:
    return [*map(type, coords)] == [*map(type, others)]


def patch_everywhere(monkeypatch, module, name, wrapper):
    """``wrapper`` for ``module.name`` in every donaldson module that binds it."""
    real = getattr(module, name)
    for mod in [m for key, m in sys.modules.items() if key.startswith("donaldson")]:
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, wrapper)


def install(monkeypatch) -> Audit:
    audit = Audit()
    door, signed = lattice_mod._trusted, DonaldsonSeries._signed
    blown, blown_lattice = DonaldsonSeries._blown, Lattice._blown
    column, split_series = series_mod.column, series_mod.split_series
    scaled_halves, rshift, eval_glued = (
        gluing_mod._scaled_halves, gluing_mod.rshift, gluing_mod.eval_glued)
    split_evaluate, apply_relation = SplitSeries.evaluate, series_mod.apply_relation
    poly_of_real = series_mod.RelationPoly.of.__func__

    def trusted(cls, **fields):
        made = door(cls, **fields)
        audit.twin(cls, fields, made)
        if cls is DonaldsonSeries:
            audit.keep(made)
        return made

    def signed_copy(self, nums):
        made = signed(self, nums)
        same = made == DonaldsonSeries(self.lattice, self.rows, nums, self.den)
        shares = made._store is self._store and made._classes is self._classes
        audit.check("_signed", same and shares and made._splits == {}, "not its arguments' series")
        return made

    def blown_copy(self, lattice, m):
        made = blown(self, lattice, m)
        rows = [k + s for k in self.rows for s in product((1, -1), repeat=m)]
        nums = [x for x in self.nums for _ in range(2**m)]
        twin = DonaldsonSeries(lattice, rows, nums, self.den << m)
        fresh = made._store == {} and made._classes == [] and made._splits == {}
        audit.check("_blown", made == twin and fresh, "not its arguments' series")
        return made

    def blown_copy_lattice(self, name, m, first, extra=()):
        made = blown_lattice(self, name, m, first, extra)
        n = self.rank
        unit = [tuple(int(j == i) for j in range(n + m)) for i in range(n, n + m)]
        gram = [row + (0,) * m for row in self.gram] + [[-x for x in e] for e in unit]
        named = [(lab, c + (0,) * m) for lab, c in self.named]
        named += [(f"E{first + i}", e) for i, e in enumerate(unit)] + list(extra)
        twin = Lattice(name, gram, self.b_plus, named)
        audit.check("_blown", made == twin, "not its arguments' lattice")
        return made

    def scaled(spec, d):
        m, *made = scaled_halves(spec, d)
        same = m == _over_lcm(d.d1.coords + d.d2.coords)[0]
        for half, md in zip((d.d1, d.d2), made):
            twin = half if m == 1 else HClass(half.lattice, [m * c for c in half.coords])
            same = same and md == twin and same_types(md.coords, twin.coords)
        audit.check("_scaled_halves", same, f"m D of {d!r:.200} is not m times D")
        return m, *made

    def shifted(spec, d, r):
        made = rshift(spec, d, r)
        twin = SplitClass(d.d1 + r * spec.surface1.cls, d.d2 - r * spec.surface2.cls,
                          d.sigma_pairing)
        same = made == twin and made._int_form == twin._int_form and all(
            same_types(x.coords, y.coords) for x, y in ((made.d1, twin.d1), (made.d2, twin.d2)))
        audit.check("rshift", same, f"{d!r:.200} moved by {r} is not D + (rS, -rS)")
        return made

    def evaluated(gs, d):
        made = eval_glued(gs, d)
        audit.check("eval_glued", made == per_entry_eval(gs, d), f"{d!r:.200} evaluates wrong")
        return made

    def split_evaluated(split, d, z_terms):
        made = split_evaluate(split, d, z_terms)
        terms = per_row(split, d, series_mod.RelationPoly.of(z_terms))
        audit.against_rows("SplitSeries.evaluate", made, sector_parts(terms, d.square), d, terms)
        return made

    def relation_applied(series, w, s, z, d):
        made = apply_relation(series, w, s, z, d)
        terms = per_row(series_mod.split_series(series, w, s), d, z)
        audit.against_rows("apply_relation", made, sector_parts(terms, d.square), d, terms)
        return made

    def remembered(name, cached):
        def lookup(*args):
            made = cached(*args)
            audit.cached.append((name, cached.__wrapped__, args, made))
            return made

        return lookup

    def poly_of(cls, pairs):
        made = poly_of_real(cls, pairs)
        if isinstance(pairs, cls):
            audit.check("RelationPoly.of", made is pairs, f"{pairs!r:.200} was made again")
        return made

    def stored_column(series, v):
        audit.keep(series)
        return column(series, v)

    def stored_split(series, w, s):
        split = split_series(series, w, s)
        asked = split.w.coords == w.coords and split.surface == s and split.series is series
        audit.keep(series)
        audit.check("split_series", asked, f"a split for {split.w} and {split.surface} came back")
        return split

    patch_everywhere(monkeypatch, lattice_mod, "_trusted", trusted)
    patch_everywhere(monkeypatch, series_mod, "column", stored_column)
    patch_everywhere(monkeypatch, series_mod, "split_series", stored_split)
    patch_everywhere(monkeypatch, gluing_mod, "_scaled_halves", scaled)
    patch_everywhere(monkeypatch, gluing_mod, "rshift", shifted)
    patch_everywhere(monkeypatch, gluing_mod, "eval_glued", evaluated)
    patch_everywhere(monkeypatch, series_mod, "apply_relation", relation_applied)
    monkeypatch.setattr(SplitSeries, "evaluate", split_evaluated)
    monkeypatch.setattr(DonaldsonSeries, "_signed", signed_copy)
    monkeypatch.setattr(DonaldsonSeries, "_blown", blown_copy)
    monkeypatch.setattr(Lattice, "_blown", blown_copy_lattice)
    monkeypatch.setattr(series_mod.RelationPoly, "of", classmethod(poly_of))
    for name, (module, _) in CACHED.items():
        patch_everywhere(monkeypatch, module, name, remembered(name, getattr(module, name)))
    return audit


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(printed with the audit off, printed with it on, the audit)."""
    with pytest.MonkeyPatch.context() as mp:
        fresh_caches(mp)
        off = scenario(mp, tmp_path_factory.mktemp("off"))
    with pytest.MonkeyPatch.context() as mp:
        fresh_caches(mp)
        audit = install(mp)
        on = scenario(mp, tmp_path_factory.mktemp("on"))
        audit.sweep()
    return off, on, audit


def test_the_audit_changes_no_output(runs):
    off, on, _ = runs
    assert on == off


def test_every_trusted_path_ran(runs):
    ran = runs[2].ran
    assert {path: ran[path] > 0 for path in PATHS} == dict.fromkeys(PATHS, True)


def test_every_trusted_value_is_its_checked_twin(runs):
    assert runs[2].failed == []


def test_every_split_evaluation_meets_a_rational_d_and_a_cancelling_sum(runs):
    met = runs[2].met
    wanted = [(path, what) for path in SPLIT_PATHS for what in ("rational D", "a K.D cancels")]
    assert {key: met[key] > 0 for key in wanted} == dict.fromkeys(wanted, True)
