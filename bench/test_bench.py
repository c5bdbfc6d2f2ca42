"""Self-test of the benchmark at reduced sizes (g <= 4).

    python3 -m pytest -q bench/test_bench.py

Checks that every workload emits every metric with its unit, that only the
known-defect ops fail on correct code, and that a tampered digest or a
corrupted copy of an output counts as a failed op.
"""

import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from speed import REF_PROBE_S, SpeedClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Ctx, Digests, Failure, load_package  # noqa: E402


def small_run(name, trace=False, table=None):
    return run.run_workload(name, 5, 0, trace, small=True, digest_table=table, passes=2)


def digest_table():
    return json.loads(run.DIGESTS.read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_is_emitted(name):
    result = small_run(name)
    line = run.final_line(result)
    assert line["correct"] is True
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {
        k: {"value": result["e2e"][k], "unit": u} for k, u in run.units("end_to_end").items()
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert set(result["failures"]) == set(result["known_defects"])
    assert line["attempted"] == 2 * result["ops_per_pass"]
    assert line["failed"] == 2 * len(result["known_defects"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_per_layer_metric_is_emitted(name, tmp_path):
    result = small_run(name, trace=True)
    line = run.final_line(result)
    units = run.units("per_layer")
    assert set(line["metrics"]) == set(units)
    assert all(line["metrics"][k]["unit"] == u for k, u in units.items())
    assert result["passes"] == {"untraced": 1, "traced": 1, "planned": 2}
    spans = [json.loads(s) for s in (run.ROOT / result["spans_file"]).read_text().splitlines()]
    assert spans and all(s["op"] is not None for s in spans)


def test_known_defects_are_attempted_and_failing(tmp_path, monkeypatch):
    cold = small_run("catalog_cold")
    assert sorted(cold["known_defects"]) == ["reload:K3.bl1", "reload:S4.bl1"]
    glue = small_run("glue_fit")
    assert sorted(glue["known_defects"]) == ["roundtrip:B3/T1", "roundtrip:B4/T1"]
    for result in (cold, glue):
        assert result["failed_ops_frac"] > 0
        assert not result["unexpected_failures"]

    # a known-defect op that fails in another way than its defect is unexpected
    ctx = small_ctx(tmp_path / "cold")
    wl = WORKLOADS["catalog_cold"]()
    state = wl.setup(ctx)
    wl.before_pass(ctx, state)
    reload = {op.name: op for op in wl.ops(ctx, state)}["reload:K3.bl1"]
    with pytest.raises(Failure, match="K3.bl1 not exported") as raised:
        reload.fn()
    assert not reload.known_failure(raised.value)

    ctx = small_ctx(tmp_path / "glue")
    wl = WORKLOADS["glue_fit"]()
    state = wl.setup(ctx)
    ops = {op.name: op for op in wl.ops(ctx, state)}
    ops["glue:B3/T1"].fn()
    roundtrip = ops["roundtrip:B3/T1"]
    with pytest.raises(ctx.pkg.gluing.GluingError, match="disagrees with the declared") as raised:
        roundtrip.fn()
    assert roundtrip.known_failure(raised.value)
    load = ctx.pkg.gluing.glued_from_json
    monkeypatch.setattr(
        ctx.pkg.gluing, "glued_from_json", lambda data: dataclasses.replace(load(data), entries=())
    )
    with pytest.raises(Failure, match="entries changed") as raised:
        roundtrip.fn()
    assert not roundtrip.known_failure(raised.value)


def test_tampered_digest_fails_the_op():
    table = digest_table()
    table["eval/B2"] = "0" * 64
    result = small_run("glue_fit", table=table)
    # the round trip checks its reloaded evaluation against the same digest
    assert sorted(result["unexpected_failures"]) == ["eval:B2:fixed", "roundtrip:B2"]
    assert run.final_line(result)["correct"] is False


def small_ctx(tmp_path):
    run.use_source()
    ctx = Ctx(run.ROOT, tmp_path, Tracer(), Digests(digest_table()), random.Random(5), small=True)
    ctx.pkg = load_package()
    return ctx


def by_name(ops):
    return {op.name: op.fn for op in ops}


def test_corrupted_catalog_file_fails_the_reload(tmp_path):
    ctx = small_ctx(tmp_path)
    wl = WORKLOADS["catalog_cold"]()
    state = wl.setup(ctx)
    ops = wl.ops(ctx, state)
    wl.before_pass(ctx, state)
    for op in ops:
        if op.name.startswith(("derive:", "export:")):
            op.fn()
    path = state.export_dir / "B3.json"
    data = path.read_bytes()
    first_coefficient = data.index(b'"a": "') + len(b'"a": "')
    path.write_bytes(data[:first_coefficient] + b"-" + data[first_coefficient:])
    fns = by_name(ops)
    fns["reload:B2"]()
    with pytest.raises(ctx.pkg.constructions.CatalogMismatch):
        fns["reload:B3"]()


def test_corrupted_glued_copy_fails_the_evaluation(tmp_path):
    ctx = small_ctx(tmp_path)
    wl = WORKLOADS["glue_fit"]()
    state = wl.setup(ctx)
    fns = by_name(wl.ops(ctx, state))
    fns["glue:B3"]()
    gs = state.glued["B3"]
    (j, k, sector, c), rest = gs.entries[0], gs.entries[1:]
    state.glued["B3"] = dataclasses.replace(gs, entries=((j, k, sector, c + Fraction(1)),) + rest)
    with pytest.raises(Failure, match="digest mismatch for eval/B3"):
        fns["eval:B3:fixed"]()


def test_speed_clock_scales_between_probes_and_leaves_them_out():
    ref = REF_PROBE_S
    clock = SpeedClock()
    # a probe at reference speed at t=0, one at half that speed at t=1
    clock.starts, clock.ends, clock.probe_s = [0.0, 1.0], [ref, 1.0 + 2 * ref], [ref, 2 * ref]
    assert clock.busy(0.0, 2.0) == pytest.approx(2.0 - 3 * ref)
    # the stretch between the probes at their mean speed, the rest at the last
    assert clock.scaled(0.0, 2.0) == pytest.approx((1.0 - ref) / 1.5 + (1.0 - 2 * ref) / 2)
    assert clock.scaled(0.5, 0.6) == pytest.approx(0.1 / 1.5)
    assert clock.scaled(1.0, 1.0 + 2 * ref) == 0.0
    assert clock.scaled(-1.0, 0.0) == pytest.approx(1.0)
