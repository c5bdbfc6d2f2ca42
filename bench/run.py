"""Benchmark runner for the donaldson package.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in this process (``all`` runs each in a process of its
own), checks every output, prints one line per metric with its unit and
sample count, and ends with one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The package is imported from ``src/`` beside this directory; nothing is
installed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from speed import REF_PROBE_S, SpeedClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Ctx, Digests, describe, load_package  # noqa: E402

DIGESTS = HERE / "digests.json"
OUT = ROOT / ".bench_out"
# Roughly the seconds one untraced pass takes on the reference machine
# (2 CPUs, Python 3.11).  The pass count comes from --seconds and these, so
# sample counts and the tail percentile stay put when the code gets faster.
NOMINAL_PASS_S = {
    "catalog_cold": 6.0,
    "relation_check": 15.0,
    "glue_fit": 4.0,
    "cli_session": 5.0,
}
MIN_PASSES = 2
# no pass starts once this multiple of --seconds has gone by
OVERRUN = 2.0
TAIL_BEYOND = 10
# where a workload's ops run in child processes, the speed is probed between
# ops instead, once this many seconds have gone by
PROBE_EVERY_S = 0.2
LOADED = 0.75  # 1-minute load average per CPU that flags a loaded machine


def units(kind: str) -> dict:
    """name -> unit of the "end_to_end" or "per_layer" metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def use_source() -> None:
    """Import the package from this checkout's src/, or stop with exit 2."""
    if not (SRC / "donaldson" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_source(pkg) -> None:
    origin = Path(pkg.constructions.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported the package from {origin}, not from {SRC}")


# -- machine record -------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


# -- statistics -----------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has TAIL_BEYOND
    samples beyond it; the maximum when there are no more samples than that."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    i = n - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / n


def plan_passes(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


# -- one workload ---------------------------------------------------------------------


def op_seconds(clock: SpeedClock, t0: float, t1: float, child, scaled: bool) -> float:
    """An op's seconds, as measured or at the reference speed.

    An op whose work ran in a child process under a speed clock of its own
    (cli_child.py) returns that clock's figures; this process's clock then
    counts only the rest of the op: process start-up and exit.
    """
    own = clock.scaled(t0, t1) if scaled else clock.busy(t0, t1)
    if child is None:
        return own
    rest = clock.busy(t0, t1) - child["wall"] - child["probes_outside"]
    if not scaled:
        return rest + child["busy"]
    return rest * own / clock.busy(t0, t1) + child["scaled"]


def op_latencies(passes: list[list[float]]) -> list[float]:
    """One latency per op: its median over the passes."""
    return [statistics.median(x) for x in zip(*passes)]


def timing_metrics(passes: list[list[float]], setups: list[float], completed: int) -> dict:
    """The timing end-to-end metrics from per-op seconds of the untraced passes."""
    walls = [sum(p) for p in passes]
    latencies = op_latencies(passes)
    return {
        "wall_s": statistics.median(walls),
        "ops_per_s": completed / sum(walls),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail(latencies)[0],
        "setup_s": statistics.median(setups),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    small: bool = False,
    digest_table: dict | None = None,
    record: bool = False,
    passes: int | None = None,
) -> dict:
    """Set up, run the passes and return the full result record."""
    use_source()
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    table = digest_table if digest_table is not None else json.loads(DIGESTS.read_text())
    tracer = Tracer(False)
    ctx = Ctx(ROOT, work, tracer, Digests(table, record), random.Random(seed), small)
    wl = WORKLOADS[name]()
    load_before = os.getloadavg()
    clock = SpeedClock()
    tracer.duration = clock.busy
    # one CPU for this process and the CLI processes it starts, so that the
    # speed probes time the CPU the measured work runs on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        setup_raw, setup_norm = [], []
        for _ in range(wl.setup_repeats):
            clock.tick()
            clock.arm()
            t0 = time.perf_counter()
            ctx.pkg = load_package()
            check_source(ctx.pkg)
            state = wl.setup(ctx)
            t1 = time.perf_counter()
            clock.disarm()
            clock.tick()
            setup_raw.append(clock.busy(t0, t1))
            setup_norm.append(clock.scaled(t0, t1))
        ops = wl.ops(ctx, state)
        planned = passes or plan_passes(name, seconds)
        raw: dict[bool, list[list[float]]] = {False: [], True: []}
        norm: dict[bool, list[list[float]]] = {False: [], True: []}
        completed = attempted = failed = 0
        failures: dict[str, str] = {}
        unexpected: list[str] = []
        started = time.perf_counter()
        for p in range(planned):
            if p >= MIN_PASSES and time.perf_counter() - started > OVERRUN * seconds:
                break
            traced = trace and p % 2 == 1
            wl.before_pass(ctx, state)
            gc.collect()  # each pass starts without the garbage of the last one
            tracer.enabled = traced
            op_times = []
            clock.tick()
            if wl.sample_speed:
                clock.arm()
            probed_at = time.perf_counter()
            for op in ops:
                rec = tracer.begin_op(op.name)
                t0 = time.perf_counter()
                try:
                    child = op.fn()
                    err = None
                except Exception as exc:  # an op that raises is a failed op
                    child, err = None, exc
                t1 = time.perf_counter()
                tracer.end_op(rec)
                op_times.append((t0, t1, child))
                attempted += 1
                if err is None:
                    completed += not traced
                else:
                    failed += 1
                    failures.setdefault(op.name, describe(err)[:300])
                    if not op.known_failure(err) and op.name not in unexpected:
                        unexpected.append(op.name)
                if not wl.sample_speed and t1 - probed_at >= PROBE_EVERY_S:
                    clock.tick()
                    probed_at = time.perf_counter()
            clock.disarm()
            clock.tick()
            raw[traced].append([op_seconds(clock, *t, scaled=False) for t in op_times])
            norm[traced].append([op_seconds(clock, *t, scaled=True) for t in op_times])
            tracer.enabled = False
        load_after = os.getloadavg()
    finally:
        clock.disarm()
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if name == "cli_session" else resource.RUSAGE_SELF
    e2e = timing_metrics(norm[False], setup_norm, completed)
    e2e["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024
    latencies = op_latencies(norm[False])
    machine = machine_record()
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": "small" if small else "full",
        "machine": machine,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "loaded": load_before[0] >= LOADED * machine["nproc"],
        "speed": REF_PROBE_S / statistics.median(clock.probe_s),
        "probes": len(clock.probe_s),
        "passes": {"untraced": len(norm[False]), "traced": len(norm[True]), "planned": planned},
        "ops_per_pass": len(ops),
        "tail_percentile": tail(latencies)[1],
        "setup_samples_s": setup_raw,
        "pass_walls_s": [sum(p) for p in raw[False]],
        "op_latency_s": dict(zip((op.name for op in ops), latencies)),
        "untraced_op_latencies_s": raw[False],
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted,
        "failures": failures,
        "unexpected_failures": unexpected,
        "known_defects": [op.name for op in ops if op.defect],
        "e2e": e2e,
        "e2e_raw": timing_metrics(raw[False], setup_raw, completed),
    }
    if trace:
        walls = {t: [sum(p) for p in norm[t]] for t in (False, True)}
        result["layers"] = layer_metrics(tracer, walls)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def layer_metrics(tracer: Tracer, walls: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json, per traced pass.

    ``<prefix>.s`` and ``<prefix>.calls`` come from the spans named
    ``<prefix>``, ``<layer>.self_s`` from span self times, and the other
    names from counters the workloads add; a layer a workload never calls
    reads 0.
    """
    n = len(walls[True])
    seconds, calls, self_s = tracer.totals()
    c = tracer.counters
    bg = {int(tag.split(":")[1]): t for tag, t in tracer.tagged_seconds("constructions.build_bg").items()}
    top = max(bg, default=None)
    traced_wall = statistics.median(walls[True])
    special = {
        "constructions.build_bg.g8_s": bg.get(top, 0.0) / n,
        "constructions.build_bg.growth": bg[top] / bg[top - 1] if top and bg.get(top - 1) else 0.0,
        "gluing.glue.keep_ratio": ratio(c["gluing.glue.pairs_kept"], c["gluing.glue.pairs_total"]),
        "gluing.coefficient_match.hit_ratio": ratio(
            c["gluing.coefficient_match.hits"], calls.get("gluing.coefficient_match", 0)
        ),
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead_s": traced_wall - statistics.median(walls[False]),
        "bench.spans": len(tracer.spans) / n,
    }
    out = {}
    for name in units("per_layer"):
        if name in special:
            value = special[name]
        elif name.endswith(".self_s"):
            value = self_s.get(name[: -len(".self_s")], 0.0) / n
        elif name.endswith(".s"):
            value = seconds.get(name[:-2], 0.0) / n
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0) / n
        else:
            value = c.get(name, 0) / n
        out[name] = value
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- reporting ------------------------------------------------------------------------


def report(result: dict) -> list[str]:
    e2e = result["e2e"]
    passes = result["passes"]["untraced"]
    samples = result["ops_per_pass"]
    m = result["machine"]
    lines = [
        f"{result['workload']}: seed {result['seed']}, trace {result['trace']}, "
        f"scale {result['scale']}, {passes} untraced + {result['passes']['traced']} traced "
        f"passes of {result['ops_per_pass']} ops",
        f"  machine: Python {m['python']}, {m['nproc']} CPUs, {m['cpu_model']}, "
        f"load {result['loadavg_before'][0]:.2f} -> {result['loadavg_after'][0]:.2f}"
        + ("  [started on a loaded machine]" if result["loaded"] else ""),
        f"  speed {result['speed']:.3f} of the reference (median of {result['probes']} probes); "
        "times are at reference speed, as measured in brackets",
    ]
    notes = {
        "wall_s": f"median of {passes} passes",
        "ops_per_s": f"completed ops / timed seconds, {passes} passes",
        "op_p50_ms": f"median of {samples} op latencies, each the median of {passes} passes",
        "op_tail_ms": f"p{result['tail_percentile']:.1f} of the same {samples} "
        f"({TAIL_BEYOND if samples > TAIL_BEYOND else 0} beyond)",
        "setup_s": f"median of {len(result['setup_samples_s'])} set-ups",
        "peak_rss_mib": "peak RSS of the largest CLI process"
        if result["workload"] == "cli_session"
        else "peak RSS of this process",
    }
    raw = result["e2e_raw"]
    for name, unit in units("end_to_end").items():
        measured = f" [{raw[name]:.4f}]" if name in raw else ""
        lines.append(f"  {name:<16} {e2e[name]:>12.4f} {unit:<6} {notes[name]}{measured}")
    known = ", ".join(result["known_defects"]) or "none"
    lines.append(
        f"  {'failed_ops_frac':<16} {result['failed_ops_frac']:>12.4f} {'ratio':<6} "
        f"{result['failed']} failed / {result['attempted']} attempted (known defects: {known})"
    )
    for op, err in result["failures"].items():
        lines.append(f"    failed {op}: {err}")
    if "layers" in result:
        layer_units = units("per_layer")
        for name, value in result["layers"].items():
            lines.append(f"  {name:<40} {value:>14.6f} {layer_units[name]}")
        lines.append(f"  spans written to {result['spans_file']}")
    return lines


def final_line(result: dict) -> dict:
    if result["trace"]:
        kind, values = "per_layer", result["layers"]
    else:
        kind, values = "end_to_end", result["e2e"]
    return {
        "correct": not result["unexpected_failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units(kind).items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, metric in last["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def record_digests() -> int:
    """Rewrite digests.json from one pass of every workload at both scales."""
    table: dict = {}
    for small in (False, True):
        for name in WORKLOADS:
            result = run_workload(name, 0, 0, False, small, table, record=True, passes=1)
            if result["unexpected_failures"]:
                print(json.dumps(result["failures"], indent=2), file=sys.stderr)
                return 1
    DIGESTS.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    print(f"{len(table)} digests written to {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    use_source()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print("\n".join(report(result)))
    print(json.dumps(final_line(result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
