"""The four benchmark workloads and the checks on their outputs.

Each workload has a ``setup`` (timed as ``setup_s``), an ``ops`` builder that
draws every seed-dependent input once per run, and an optional
``before_pass`` hook that runs untimed before each pass.  An op is one
user-level task: a callable that does its work through the package's public
functions, checks the result, and raises on any mismatch.  Every call into a
layer goes through ``ctx.tracer.call(<layer metric prefix>, fn, *args)``.

Outputs that do not depend on the seed are checked against the sha256
digests in ``digests.json``; seed-drawn outputs are checked by invariants
(rshift invariance, relation annihilation, predicted == evaluated glued
series, closed-form coefficients).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer

MODULES = ("lattice", "series", "constructions", "gluing", "exppoly", "fit")


class Failure(Exception):
    """An output that misses its digest or breaks an invariant."""


def expect(cond, what: str) -> None:
    if not cond:
        raise Failure(what)


class Workload:
    """Base of the four workloads; see the module docstring."""

    name = ""
    # probe the speed during ops (speed.py); not where children do the work
    sample_speed = True
    # set-ups per run; setup_s is their median
    setup_repeats = 3

    def setup(self, ctx):
        raise NotImplementedError

    def ops(self, ctx, state) -> list["Op"]:
        raise NotImplementedError

    def before_pass(self, ctx, state) -> None:
        pass


@dataclass
class Op:
    name: str
    fn: object
    # a known defect: how the op fails today, as the start of
    # "<exception type>: <message>"; any other failure of it is unexpected
    defect: str = ""

    def known_failure(self, exc: Exception) -> bool:
        return bool(self.defect) and describe(exc).startswith(self.defect)


def describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Digests:
    """sha256 digests of seed-independent outputs, keyed '<kind>/<item>'."""

    def __init__(self, table: dict, record: bool = False):
        self.table = table
        self.record = record

    def check(self, key: str, data: bytes) -> None:
        got = hashlib.sha256(data).hexdigest()
        if self.record:
            self.table[key] = got
            return
        want = self.table.get(key)
        expect(want is not None, f"no recorded digest for {key}")
        expect(got == want, f"digest mismatch for {key}")


@dataclass
class Ctx:
    root: Path
    work: Path
    tracer: Tracer
    digests: Digests
    rng: object
    small: bool = False
    pkg: SimpleNamespace | None = None


def load_package() -> SimpleNamespace:
    """Import the package afresh, so that every cache it keeps starts empty."""
    for name in [m for m in sys.modules if m == "donaldson" or m.startswith("donaldson.")]:
        del sys.modules[name]
    importlib.import_module("donaldson")
    return SimpleNamespace(
        **{m: importlib.import_module(f"donaldson.{m}") for m in MODULES}
    )


def interleave(ops: list[Op]) -> list[Op]:
    """The ops in one fixed shuffled order, the same for every seed.

    Ops of one cost class (say the relation checks of one entry) would
    otherwise run back to back, so every latency percentile would rest on one
    short stretch of the pass; on a machine whose speed drifts over seconds
    that makes percentiles swing far more than pass times do.
    """
    out = list(ops)
    random.Random(0).shuffle(out)
    return out


# -- canonical output bytes -------------------------------------------------------


def poly_bytes(poly) -> bytes:
    q = None if poly.q_square is None else str(poly.q_square)
    terms = [[lam.to_token(), c.to_token()] for lam, c in poly.terms]
    return json.dumps([poly.marker, terms, q]).encode()


def glued_bytes(gs) -> bytes:
    rows = [[j, k, sector, str(c)] for j, k, sector, c in gs.entries]
    return json.dumps([gs.kind, rows]).encode()


# -- shared checks -------------------------------------------------------------------


def verify_entry(ctx: Ctx, entry) -> None:
    """Re-verify a built entry's classes, surfaces and Gram matrix."""
    lat = ctx.pkg.lattice
    classes = [k for k, _ in entry.series.entries]
    for k in classes:
        expect(
            ctx.tracer.call("lattice.is_characteristic", lat.is_characteristic, k),
            f"{entry.name}: class {k} is not characteristic",
        )
    for label, s in entry.surfaces:
        bound = 2 * s.genus - 2 - ctx.tracer.call("lattice.pairing", lat.pairing, s.cls, s.cls)
        for k in classes:
            level = ctx.tracer.call("lattice.pairing", lat.pairing, k, s.cls)
            expect(abs(level) <= bound, f"{entry.name}: adjunction fails on {label}")
    pos, neg, zero = ctx.tracer.call("lattice.signature", lat.signature, entry.lattice.gram)
    expect(
        pos + neg + zero == entry.lattice.rank and pos <= entry.lattice.b_plus,
        f"{entry.name}: signature ({pos}, {neg}, {zero}) of the modeled block",
    )
    ctx.tracer.count("constructions.classes", len(classes))


def check_entry_bytes(ctx: Ctx, entry, name: str) -> None:
    data = ctx.tracer.call(
        "constructions.entry_json_bytes", ctx.pkg.constructions.entry_json_bytes, entry
    )
    ctx.tracer.count("constructions.entry_json_bytes.bytes", len(data))
    ctx.digests.check(f"entry/{name}", data)


@contextmanager
def catalog_dir(path: Path):
    old = os.environ.get("DONALDSON_CATALOG_DIR")
    os.environ["DONALDSON_CATALOG_DIR"] = str(path)
    try:
        yield
    finally:
        if old is None:
            del os.environ["DONALDSON_CATALOG_DIR"]
        else:
            os.environ["DONALDSON_CATALOG_DIR"] = old


def catalog_file_name(name: str) -> str:
    return name.replace(":", "_") + ".json"


# -- catalog_cold ---------------------------------------------------------------------

BUILDERS = {
    "elliptic": "constructions.elliptic_surface",
    "bg": "constructions.build_bg",
    "dia2": "constructions.build_dia2",
    "cg": "constructions.closed_form_cg",
}


def cold_catalog(top: int) -> list[tuple[str, str]]:
    """(recipe, name) for every catalog_cold entry; name is the catalog name
    when the entry has one, else the recipe."""
    named = [(f"elliptic:{n}", "K3" if n == 2 else f"S{n}") for n in range(2, top + 1)]
    named += [(f"bg:{g}", f"B{g}") for g in range(2, top + 1)]
    named += [
        (f"dia2:{gp}:{g}", f"dia2:{gp}:{g}")
        for g in range(2, min(6, top) + 1)
        for gp in range(1, g)
    ]
    named += [(f"cg:{g}", f"C{g}") for g in range(2, min(6, top) + 1)]
    return named


BLOWN_UP = (("K3", "K3.bl1"), ("S4", "S4.bl1"))


class CatalogCold(Workload):
    """Derive, export and reload the catalog, starting from an empty cache."""

    name = "catalog_cold"
    setup_repeats = 15  # an import of the package, about 30 ms

    def setup(self, ctx):
        return SimpleNamespace(export_dir=ctx.work / "catalog", blown={})

    def before_pass(self, ctx, state):
        ctx.pkg = load_package()
        shutil.rmtree(state.export_dir, ignore_errors=True)
        state.export_dir.mkdir(parents=True)
        state.blown.clear()

    def ops(self, ctx, state):
        entries = cold_catalog(4 if ctx.small else 8)
        derive = [Op(f"derive:{recipe}", self._derive(ctx, recipe, name)) for recipe, name in entries]
        # blow-ups come after the derive phase, which has put K3 and S4 in the cache
        blow_up = [Op(f"derive:{name}", self._blow_up(ctx, state, base, name)) for base, name in BLOWN_UP]
        export = [Op(f"export:{name}", self._export(ctx, state, name)) for _, name in entries]
        export += [Op(f"export:{name}", self._export_blown(ctx, state, name)) for _, name in BLOWN_UP]
        reload = [Op(f"reload:{name}", self._reload(ctx, state, name)) for _, name in entries]
        # blown-up entries have no recipe, so catalog() cannot find them by name
        reload += [
            Op(f"reload:{name}", self._reload(ctx, state, name), defect="KeyError")
            for _, name in BLOWN_UP
        ]
        return interleave(derive) + blow_up + interleave(export) + interleave(reload)

    def _derive(self, ctx, recipe, name):
        span = BUILDERS[recipe.split(":")[0]]

        def op():
            entry = ctx.tracer.call(span, ctx.pkg.constructions.catalog, recipe, tag=recipe)
            verify_entry(ctx, entry)
            check_entry_bytes(ctx, entry, name)

        return op

    def _blow_up(self, ctx, state, base, name):
        def op():
            c = ctx.pkg.constructions
            entry = ctx.tracer.call("constructions.blow_up", c.blow_up, c.catalog(base))
            expect(entry.name == name, f"blow-up of {base} is named {entry.name}")
            verify_entry(ctx, entry)
            check_entry_bytes(ctx, entry, name)
            state.blown[name] = entry

        return op

    def _export(self, ctx, state, name):
        def op():
            c = ctx.pkg.constructions
            paths = ctx.tracer.call(
                "constructions.export_catalog", c.export_catalog, str(state.export_dir), [name]
            )
            expect(len(paths) == 1, f"export of {name} wrote {len(paths)} files")
            ctx.digests.check(f"entry/{name}", Path(paths[0]).read_bytes())

        return op

    def _export_blown(self, ctx, state, name):
        # export_catalog resolves names through recipes, which blow-ups lack,
        # so their file is written from entry_json_bytes in the same layout
        def op():
            c = ctx.pkg.constructions
            data = ctx.tracer.call("constructions.entry_json_bytes", c.entry_json_bytes, state.blown[name])
            ctx.tracer.count("constructions.entry_json_bytes.bytes", len(data))
            (state.export_dir / catalog_file_name(name)).write_bytes(data)
            ctx.digests.check(f"entry/{name}", data)

        return op

    def _reload(self, ctx, state, name):
        def op():
            c = ctx.pkg.constructions
            expect((state.export_dir / catalog_file_name(name)).is_file(), f"{name} not exported")
            with catalog_dir(state.export_dir):
                entry = ctx.tracer.call("constructions.catalog_reload", c.catalog, name)
            check_entry_bytes(ctx, entry, name)

        return op


# -- relation_check -------------------------------------------------------------------


def relation_entries(small: bool) -> list[str]:
    top_b, top_s, top_d = (4, 4, 4) if small else (5, 6, 5)
    names = [f"B{g}" for g in range(3, top_b + 1)]
    names += [f"S{n}" for n in range(3, top_s + 1)]
    names += [f"dia2:{gp}:{g}" for g in range(2, top_d + 1) for gp in range(1, g)]
    return names


def prebuild(ctx, refs) -> dict:
    c = ctx.pkg.constructions
    entries = {}
    for ref in refs:
        entries[ref] = c.catalog(ref)
        verify_entry(ctx, entries[ref])
    return entries


class RelationCheck(Workload):
    """The identity suite of ``check`` on a catalog built during set-up."""

    name = "relation_check"
    setup_repeats = 5
    SEED_PROBES = 2

    def setup(self, ctx):
        return SimpleNamespace(entries=prebuild(ctx, relation_entries(ctx.small)))

    def ops(self, ctx, state):
        ops = []
        for name, entry in state.entries.items():
            ops += self._entry_ops(ctx, name, entry)
        return interleave(ops)

    def _entry_ops(self, ctx, name, entry):
        s = ctx.pkg.series
        series = entry.series
        w = entry.w_class()
        surf = entry.surface()
        ops = [Op(f"involution:{name}", lambda: self._involution(ctx, series))]
        ops += [
            Op(f"adjunction:{name}:{label}", self._adjunction(ctx, series, surf_l))
            for label, surf_l in entry.surfaces
        ]
        ops.append(Op(f"finite_type:{name}", lambda: self._finite_type(ctx, series, w, surf)))
        ops.append(Op(f"split:{name}", lambda: self._split(ctx, series, w, surf)))
        if surf.genus < 2:
            return ops
        probes = [d for d in s.default_probes(entry.lattice, surf) if d.dot(surf.cls) == 1]
        twists = (("w", w), ("w+S", w + surf.cls))
        for i, d in enumerate(probes):
            for w_label, w_used in twists:
                ops.append(
                    Op(
                        f"relation:{name}:probe{i}:{w_label}",
                        self._relation(ctx, series, w_used, surf, d),
                    )
                )
        for i in range(self.SEED_PROBES):
            d = ctx.rng.choice(probes[: len(probes) // 2])
            m = ctx.rng.choice((-4, -3, -2, 2, 3, 4))
            _, w_used = ctx.rng.choice(twists)
            ops.append(
                Op(
                    f"relation:{name}:seed{i}",
                    self._relation(ctx, series, w_used, surf, d + m * surf.cls),
                )
            )
        return ops

    def _involution(self, ctx, series):
        ok, bad = ctx.tracer.call("series.check_involution", ctx.pkg.series.check_involution, series)
        expect(ok, f"involution fails at {bad}")

    def _adjunction(self, ctx, series, surf):
        def op():
            ok, bad = ctx.tracer.call(
                "series.check_adjunction", ctx.pkg.series.check_adjunction, series, surf
            )
            expect(ok, f"adjunction violated by {bad}")

        return op

    def _finite_type(self, ctx, series, w, surf):
        order = ctx.tracer.call(
            "series.finite_type_order", ctx.pkg.series.finite_type_order, series, w, surf
        )
        expect(order == (0 if series.is_zero else 1), f"finite-type order {order}")

    def _split(self, ctx, series, w, surf):
        s = ctx.pkg.series
        ss = ctx.tracer.call("series.split_series", s.split_series, series, w, surf)
        back = ctx.tracer.call("series.unsplit_series", s.unsplit_series, ss)
        expect(
            back.entries == ctx.tracer.call("series.twisted", s.twisted, series, w).entries,
            "split then unsplit does not give the twisted series",
        )

    def _relation(self, ctx, series, w_used, surf, d):
        def op():
            s = ctx.pkg.series
            z = ctx.tracer.call("series.relation_poly", s.relation_poly, surf.genus)
            expect(z.sigma_degree == surf.genus - 1, "relation polynomial degree")
            ctx.tracer.count("series.apply_relation.class_terms", len(series.entries) * len(z.terms))
            p, n = ctx.tracer.call("series.apply_relation", s.apply_relation, series, w_used, surf, z, d)
            expect(p.is_zero and n.is_zero, "relation polynomial does not annihilate")

        return op


# -- glue_fit -------------------------------------------------------------------------


@dataclass
class Gluing:
    name: str
    kind: str  # "standard" | "torus" | "stabilized"
    left: str
    right: str
    probe: tuple[str, str]
    surfaces: tuple[str | None, str | None] = (None, None)
    w: tuple[str | None, str | None] = (None, None)
    known_defect_roundtrip: bool = False
    # the seeded evaluation keeps the probe's direction and draws only the
    # multiples, where the rational evaluation's cost depends on the direction
    fixed_direction: bool = False


def glue_fit_gluings(small: bool) -> list[Gluing]:
    top_b, top_d = (4, 4) if small else (7, 5)
    out = [Gluing(f"B{g}", "standard", f"B{g}", f"B{g}", ("T1", "T1")) for g in range(2, top_b + 1)]
    out += [
        Gluing(f"dia2:{gp}:{g}", "standard", f"dia2:{gp}:{g}", f"dia2:{gp}:{g}", ("T", "T"))
        for g in range(2, top_d + 1)
        for gp in range(1, g)
    ]
    out += [
        Gluing(f"dia2:1:{g}+B{g}", "standard", f"dia2:1:{g}", f"B{g}", ("T", "T1"))
        for g in (2, 3)
    ]
    out += [Gluing(f"{n}/F", "torus", n, n, ("sigma", "sigma")) for n in ("K3", "S4", "S8")]
    # the glued JSON does not record the surfaces or w, so these reload wrong
    out += [
        Gluing(
            f"{n}/T1", "torus", n, n, ("sigma", "sigma"),
            surfaces=("T1", "T1"), w=("sigma", "sigma"),
            known_defect_roundtrip=True, fixed_direction=True,
        )
        for n in ("B3", "B4")
    ]
    out.append(Gluing("C2", "stabilized", "C2", "C2", ("Shat2", "Shat2")))
    return out


# rshift by odd multiples of 1/6: never an integer, and of one cost for
# every seed, since eval_glued takes its rational path for all of them
SHIFT_DENOMINATOR = 6

GLUE_SPANS = {
    "standard": ("gluing.glue", "glue"),
    "torus": ("gluing.glue_torus", "glue_torus"),
    "stabilized": ("gluing.glue_conjectural", "glue_conjectural"),
}


def _glue_json_roundtrip(gl, gs):
    text = json.dumps(gl.glued_to_json(gs))
    return text, gl.glued_from_json(json.loads(text))


class GlueFit(Workload):
    """Gluing, evaluation, coefficient matching, JSON round trips and fits."""

    name = "glue_fit"
    SEED_EVALS = 2

    def setup(self, ctx):
        refs = {n for g in glue_fit_gluings(ctx.small) for n in (g.left, g.right)}
        refs |= {f"cg:{g}" for g in self._fit_genera(ctx)}
        return SimpleNamespace(entries=prebuild(ctx, sorted(refs)), glued={})

    def before_pass(self, ctx, state):
        state.glued.clear()

    @staticmethod
    def _fit_genera(ctx):
        return range(2, (4 if ctx.small else 7) + 1)

    @staticmethod
    def _sweep_genera(ctx):
        return range(2, (4 if ctx.small else 5) + 1)

    def ops(self, ctx, state):
        gluings = glue_fit_gluings(ctx.small)
        glue = [Op(f"glue:{g.name}", self._glue(ctx, state, g)) for g in gluings]
        ops = []
        for g in gluings:
            ops.append(Op(f"eval:{g.name}:fixed", self._eval_fixed(ctx, state, g)))
            spec = self._spec(ctx, state, g)
            if g.fixed_direction:
                pairs, evals = [g.probe], 1
            else:
                pairs, evals = self._label_pairs(spec), self.SEED_EVALS
            for i in range(evals):
                d = self._seed_class(ctx, spec, pairs)
                r = Fraction(ctx.rng.randrange(-39, 40, 2), SHIFT_DENOMINATOR)
                ops.append(Op(f"eval:{g.name}:seed{i}", self._eval_shift(ctx, state, g, d, r)))
        ops += [
            Op(f"coefficient_match:B{g}", self._coefficient_sweep(ctx, state, g))
            for g in self._sweep_genera(ctx)
        ]
        # the reloaded series keeps its entries but has the default surface,
        # on which the probe's halves no longer pair as declared
        lost_surface = "GluingError: D1.S = 0 disagrees with the declared S.D = 1"
        ops += [
            Op(
                f"roundtrip:{g.name}",
                self._roundtrip(ctx, state, g),
                lost_surface if g.known_defect_roundtrip else "",
            )
            for g in gluings
        ]
        for g in self._fit_genera(ctx):
            entry = state.entries[f"B{g}"]
            labels = ["T1"] + [f"E{i}" for i in range(1, g + 1)]
            probes = [
                entry.lattice.cls(ctx.rng.choice(labels))
                + ctx.rng.randint(-3, 3) * entry.surface().cls
                for _ in range(2)
            ]
            ops.append(Op(f"fit:g{g}", self._fit(ctx, state, g, probes)))
        # every other op reads the gluings the glue phase stored
        return interleave(glue) + interleave(ops)

    def _spec(self, ctx, state, g: Gluing):
        return ctx.pkg.gluing.GluingSpec(
            left=state.entries[g.left],
            right=state.entries[g.right],
            left_surface=g.surfaces[0],
            right_surface=g.surfaces[1],
            left_w=g.w[0],
            right_w=g.w[1],
        )

    def _probe(self, gs, g: Gluing):
        spec = gs.spec
        return spec.split_class(spec.left.lattice.cls(g.probe[0]), spec.right.lattice.cls(g.probe[1]))

    @staticmethod
    def _label_pairs(spec) -> list[tuple[str, str]]:
        """Pairs of named classes, one per side, that pair alike with the surfaces."""
        left, right = spec.left.lattice, spec.right.lattice
        s1, s2 = spec.surface1.cls, spec.surface2.cls
        return [
            (a, b)
            for a in left.labels()
            for b in right.labels()
            if left.cls(a).dot(s1) == right.cls(b).dot(s2)
        ]

    @staticmethod
    def _seed_class(ctx, spec, pairs):
        """m (A, B) + n (S1, S2) for a seed-drawn pair of named classes.

        Every surface here has square 0, so both halves pair alike with it.
        """
        a, b = ctx.rng.choice(pairs)
        m = ctx.rng.choice((-2, -1, 1, 2, 3))
        n = ctx.rng.randint(-3, 3)
        return spec.split_class(
            m * spec.left.lattice.cls(a) + n * spec.surface1.cls,
            m * spec.right.lattice.cls(b) + n * spec.surface2.cls,
        )

    def _glue(self, ctx, state, g: Gluing):
        span, fn_name = GLUE_SPANS[g.kind]

        def op():
            spec = self._spec(ctx, state, g)
            gs = ctx.tracer.call(span, getattr(ctx.pkg.gluing, fn_name), spec)
            if g.kind == "standard":
                total = len(spec.left.series.entries) * len(spec.right.series.entries)
                ctx.tracer.count("gluing.glue.pairs_total", total)
                ctx.tracer.count("gluing.glue.pairs_kept", len(gs.entries))
            state.glued[g.name] = gs
            ctx.digests.check(f"glued/{g.name}", glued_bytes(gs))
            if g.name == g.left == g.right and g.left.startswith("B") and g.kind == "standard":
                self._closed_form_double(gs, int(g.left[1:]))

        return op

    @staticmethod
    def _closed_form_double(gs, genus):
        by_sector = {sector: c for _, _, sector, c in gs.entries}
        scale = Fraction(2 ** (3 * genus - 5))
        expect(len(gs.entries) == 2, f"B{genus} double has {len(gs.entries)} entries")
        expect(
            by_sector.get(1) == -scale and by_sector.get(-1) == (-1) ** genus * scale,
            f"B{genus} double misses the closed form C({genus})",
        )

    def _evaluate(self, ctx, gs, d):
        ctx.tracer.count("gluing.eval_glued.entries", len(gs.entries))
        return ctx.tracer.call("gluing.eval_glued", ctx.pkg.gluing.eval_glued, gs, d)

    def _eval_fixed(self, ctx, state, g: Gluing):
        def op():
            gs = state.glued[g.name]
            d = self._probe(gs, g)
            poly = self._evaluate(ctx, gs, d)
            ctx.digests.check(f"eval/{g.name}", poly_bytes(poly))

        return op

    def _eval_shift(self, ctx, state, g: Gluing, d, r):
        def op():
            gs = state.glued[g.name]
            moved = ctx.tracer.call("gluing.rshift", ctx.pkg.gluing.rshift, gs.spec, d, r)
            expect(
                self._evaluate(ctx, gs, d) == self._evaluate(ctx, gs, moved),
                f"{g.name}: evaluation is not rshift-invariant at r={r}",
            )

        return op

    def _coefficient_sweep(self, ctx, state, genus):
        def op():
            gl = ctx.pkg.gluing
            gs = state.glued[f"B{genus}"]
            spec = gs.spec
            top = 2 * genus - 2
            s1, s2 = spec.surface1.cls, spec.surface2.cls
            lefts = [(k, a, k.dot(s1)) for k, a in spec.left.series.entries]
            rights = [(l, b, l.dot(s2)) for l, b in spec.right.series.entries]
            hits = 0
            for k, a, lvl in lefts:
                for l, b, lvl_r in rights:
                    got, predicted = ctx.tracer.call(
                        "gluing.coefficient_match", gl.coefficient_match, gs, k, l
                    )
                    expect(got == predicted, f"B{genus}: grouped {got} != product {predicted}")
                    if lvl == lvl_r and abs(lvl) == top:
                        sign = 1 if lvl == top else (-1) ** (genus - 1)
                        expect(predicted == -sign * 2 ** (7 * genus - 9) * a * b, "product form")
                        hits += 1
                    else:
                        expect(got == 0 and predicted == 0, "off-level pair contributes")
            ctx.tracer.count("gluing.coefficient_match.hits", hits)

        return op

    def _roundtrip(self, ctx, state, g: Gluing):
        def op():
            gl = ctx.pkg.gluing
            gs = state.glued[g.name]
            text, back = ctx.tracer.call("gluing.json_roundtrip", _glue_json_roundtrip, gl, gs)
            ctx.tracer.count("gluing.json_roundtrip.bytes", len(text))
            expect(back.kind == gs.kind and back.entries == gs.entries, f"{g.name}: entries changed")
            poly = self._evaluate(ctx, back, self._probe(gs, g))
            ctx.digests.check(f"eval/{g.name}", poly_bytes(poly))

        return op

    def _fit(self, ctx, state, genus, probes):
        def op():
            f, e = ctx.pkg.fit, ctx.pkg.exppoly
            bg = state.entries[f"B{genus}"]
            cg = state.entries[f"cg:{genus}"]
            w, surf = bg.w_class("T1"), bg.surface("Sigma_g")

            def coords(entry, w_, s_, d):
                return ctx.tracer.call(
                    "fit.basis_coordinates", f.basis_coordinates, entry.series, w_, s_, d
                )

            side = coords(bg, w, surf, bg.lattice.cls("T1"))
            glued = coords(cg, cg.w_class("Shat2"), cg.surface("Sigma_g"), cg.lattice.cls("Shat2"))
            m = ctx.tracer.call("fit.fit_diagonal", f.fit_diagonal, [(side, side, glued)], [1, 2])
            ctx.digests.check(
                f"fit/g{genus}", b"".join(poly_bytes(m[a]) for a in sorted(m))
            )
            scale = 2 ** (7 * genus - 9)
            expect(
                m[1] == e.ExpPolynomial("none", ((2, -scale),))
                and m[2] == e.ExpPolynomial("none", ((-2, (-1) ** genus * scale),)),
                f"g={genus}: fitted M is not -2^(7g-9) e^(2t), (-1)^g 2^(7g-9) e^(-2t)",
            )
            for alpha in (1, 2):
                num = glued.plain(alpha)
                den = ctx.tracer.call("exppoly.mul", mul, side.plain(alpha), side.plain(alpha))
                expect(ctx.tracer.call("exppoly.mul", mul, m[alpha], den) == num, "M * denominator")
                quotient = ctx.tracer.call("exppoly.divide_exact", e.ExpPolynomial.divide_exact, num, den)
                expect(quotient == m[alpha], "exact division")
            full = {a: m.get(a, e.ExpPolynomial()) for a in range(1, 2 * genus)}
            left, right = (coords(bg, w, surf, d) for d in probes)
            predicted = ctx.tracer.call("fit.predict_glued", f.predict_glued, left, right, full)
            gs = state.glued[f"B{genus}"]
            evaluated = self._evaluate(ctx, gs, gs.spec.split_class(*probes))
            expect(predicted == evaluated, f"g={genus}: predict_glued != eval_glued")
            expect(
                ctx.tracer.call("exppoly.expand", predicted.expand, 8)
                == ctx.tracer.call("exppoly.expand", evaluated.expand, 8),
                "expansions differ",
            )
            ctx.tracer.count(
                "exppoly.terms_out", sum(len(x.terms) for x in m.values()) + len(predicted.terms)
            )

        return op


# -- cli_session ----------------------------------------------------------------------


# runs ``python -m donaldson.cli`` under a speed clock of its own
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


class CliSession(Workload):
    """A fixed sequence of CLI processes, one at a time.

    Each op returns the timing its process measured of itself, which the
    runner uses in place of its own for that part of the op.
    """

    name = "cli_session"
    sample_speed = False
    setup_repeats = 15  # an import of the package, about 30 ms

    def setup(self, ctx):
        env = {k: v for k, v in os.environ.items() if k not in ("DONALDSON_CATALOG_DIR", "PYTHONPATH")}
        env["PYTHONPATH"] = str(ctx.root / "src")
        return SimpleNamespace(env=env, outputs={})

    def before_pass(self, ctx, state):
        state.outputs.clear()

    def ops(self, ctx, state):
        g = 4 if ctx.small else 6
        check_g = 3 if ctx.small else 4
        glued = f"bg{g}_double.json"
        r = Fraction(ctx.rng.randrange(-39, 40, 2), SHIFT_DENOMINATOR)
        steps = [
            ("cli.startup", ["catalog", "list"]),
            ("cli.catalog", ["catalog", "show", "B3"]),
            ("cli.build", ["build", f"bg:{g}"]),
            ("cli.glue", ["glue", "--left", f"bg:{g}", "--right", f"bg:{g}", "--g", str(g), "--out", glued]),
            ("cli.eval", ["eval", "--glued", glued, "--expand-order", "8"]),
            ("cli.glue", ["glue", "--left", "K3", "--right", "K3", "--g", "1", "--torus"]),
            ("cli.conjecture", ["conjecture", "--left", "C2", "--right", "C2", "--g", "2"]),
            ("cli.fit", ["fit", "--g", str(g)]),
            ("cli.check", ["check", "--entry", f"bg:{check_g}"]),
        ]
        ops = []
        for span, argv in steps:
            key = " ".join(argv)
            extra = self._shifted_probe(state, f"build bg:{g}", r) if argv[0] == "eval" else None
            ops.append(Op(f"cli:{key}", self._process(ctx, state, span, argv, key, extra)))
        return ops

    @staticmethod
    def _shifted_probe(state, build_key, r):
        """--d1/--d2 for the split (T1 + rS, T1 - rS), read from the build output.

        The evaluation is rshift-invariant, so its digest does not depend on r.
        """

        def args():
            classes = json.loads(state.outputs[build_key])["lattice"]["classes"]
            t1 = [Fraction(x) for x in classes["T1"]]
            sg = [Fraction(x) for x in classes["Sigma_g"]]
            d1 = ",".join(str(a + r * b) for a, b in zip(t1, sg))
            d2 = ",".join(str(a - r * b) for a, b in zip(t1, sg))
            # the "=" form keeps argparse from reading "-1,..." as an option
            return [f"--d1={d1}", f"--d2={d2}"]

        return args

    def _process(self, ctx, state, span, argv, key, extra):
        timing = ctx.work / "cli_timing.json"

        def run_cli(full_argv):
            return subprocess.run(
                [sys.executable, str(CLI_CHILD), str(timing), *full_argv],
                cwd=ctx.work, env=state.env, capture_output=True, timeout=120,
            )

        def op():
            full_argv = argv + (extra() if extra else [])
            timing.unlink(missing_ok=True)
            proc = ctx.tracer.call(span, run_cli, full_argv)
            expect(proc.returncode == 0, f"{key}: exit {proc.returncode}: {proc.stderr[-300:]!r}")
            state.outputs[key] = proc.stdout
            ctx.digests.check(f"cli/{key}", proc.stdout)
            return json.loads(timing.read_text())

        return op


WORKLOADS = {w.name: w for w in (CatalogCold, RelationCheck, GlueFit, CliSession)}
