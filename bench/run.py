"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload cf-stream --seed 1 --seconds 25 --trace 0

Run from the repository root (the package is imported from ``src/``;
without it the command exits with code 1 and prints no result).  With
``--trace 0`` the loop runs passes over the workload's design until
``--seconds`` have elapsed and at least three passes are done, and
reports the end-to-end metrics; with ``--trace 1`` it runs one pass under the layer tracer,
then the same pass untraced, and reports the per-layer metrics.
``--workload all`` runs the four workloads one after another, each in
its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full report (every metric with its unit, failures, output
digest and provenance).  See bench/README.md for the metric list.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

if not os.path.isfile(os.path.join(SRC_DIR, "moebius_systems", "__init__.py")):
    sys.exit(f"error: package sources not found under {SRC_DIR}; "
             f"run from a checkout of the repository")
sys.path.insert(0, SRC_DIR)

import numpy  # noqa: E402
from tracer import LAYERS, LayerTracer  # noqa: E402
from workloads import WORKLOADS, Digest, seeded  # noqa: E402

WORKLOAD_NAMES = tuple(WORKLOADS)
SETUP_PROBES = 7
REFERENCE_KERNELS = 9      # kernel runs per set-up probe
# reference_kernel's size and the time it takes at the reference speed (about
# its median on the 2-core Xeon VM the benchmark was tuned on)
REFERENCE_N = 500
REFERENCE_S = 0.7e-3
MIN_PASSES = 3
# the metrics declared in BENCHMARK.json: reported on every workload, never 0
END_TO_END = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb")

# a fresh interpreter times the package import plus the workload's set-up,
# then the reference kernel, to scale the set-up time to the reference speed
_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import moebius_systems
import workloads
workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]), sys.argv[5])
setup = time.perf_counter() - t0
import statistics
from run import REFERENCE_KERNELS, time_reference
print(setup, statistics.median(time_reference() for _ in range(REFERENCE_KERNELS)))
"""


# -- the loop -----------------------------------------------------------------


def reference_kernel(n: int = REFERENCE_N) -> float:
    """Fixed interpreter-bound work that uses nothing of the package: the
    complex and float arithmetic, math calls, small tuples, dict stores and
    sort of the package's inner loops.  Timed between operations to follow
    the machine's speed."""
    z = complex(0.3, 0.4)
    acc = 0.0
    table = {}
    items = []
    for i in range(n):
        a = (i * 0.6180339887498949) % 1.0
        w = (z * a + 1j) / (a - z.conjugate() * 1j + 2.0)
        t = math.atan2(w.imag, w.real)
        items.append((t, i))
        table[i & 63] = t
        acc += abs(w) if t > 0.0 else -t
    items.sort()
    return acc + items[0][0] + len(table)


def time_reference() -> float:
    """Seconds taken by one reference_kernel call.  The collector is off
    meanwhile, so the kernel never pays for scanning the package's objects
    and its time does not depend on what the operations keep alive."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_pass(wl, state, ops, after_op=None, reference=False):
    """Execute ops in order; returns [(op, raw, error, seconds)] and, with
    `reference`, the reference kernel's time before each operation.  An
    exception in an operation is recorded as that operation's failure."""
    perf = time.perf_counter
    out, refs = [], []
    for op in ops:
        if reference:
            refs.append(time_reference())
        t0 = perf()
        try:
            raw, err = wl.run_op(state, op), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            raw, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf() - t0
        if after_op is not None:
            after_op()
        out.append((op, raw, err, dt))
    return (out, refs) if reference else out


def summarize_pass(wl, state, executed):
    records = []
    for op, raw, err, _ in executed:
        if err is None:
            try:
                rec = wl.summarize(state, op, raw)
            except Exception as exc:  # malformed output is a failed op
                rec = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        else:
            rec = {"ok": False, "error": err}
        records.append(rec)
    return records


def pass_order(wl, seed, n, index):
    """Seeded permutation of the design's indices for pass `index`."""
    order = list(range(n))
    seeded(wl.name, seed, f"order{index}").shuffle(order)
    return order


def measure(wl, seed, seconds, workdir, limit=None, min_passes=MIN_PASSES):
    """Untraced run: passes over the design, each in a fresh seeded order,
    until `seconds` have elapsed and at least `min_passes` are done.

    A shared 2-core VM runs the same code up to 2x slower for seconds to
    minutes at a time, so raw wall times of runs a minute apart are not
    comparable.  Each pass therefore also times `reference_kernel` before
    every operation, and the pass's times are scaled by REFERENCE_S over
    the median reference time of that pass: an operation's latency is the
    time it would take on a machine where the kernel takes REFERENCE_S.
    Its reported latency is the median of these scaled times over the
    passes.  `limit` keeps only the design's first (cheapest) operations,
    for quick checks of the harness.
    """
    state = wl.setup(seed, workdir)
    ops = wl.design(state, seed)[:limit]
    scaled = [collections.defaultdict(list) for _ in ops]  # per op: part -> scaled s
    wall = [0.0] * len(ops)            # per op: sum of raw seconds
    first = [None] * len(ops)          # per op: record of its first execution
    attempted, errors, passes, speeds = 0, [], 0, []
    t_start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - t_start < seconds:
        order = pass_order(wl, seed, len(ops), passes)
        executed, refs = run_pass(wl, state, [ops[i] for i in order], reference=True)
        speed = REFERENCE_S / statistics.median(refs)
        speeds.append(speed)
        records = summarize_pass(wl, state, executed)
        if passes == 0:
            by_op = sorted(zip(order, records))
            wl.late_check(state, seed, [rec for _, rec in by_op])
        for i, rec, (*_, dt) in zip(order, records, executed):
            attempted += 1
            if first[i] is None:
                first[i] = rec
            elif rec["ok"] and rec.get("digest") != first[i].get("digest"):
                rec = {"ok": False, "error": f"output changed between passes: {rec['digest']}"}
            if not rec["ok"]:
                errors.append(rec.get("error", rec.get("digest")))
            wall[i] += dt
            for part, t in {"op": dt, **rec.get("times", {})}.items():
                scaled[i][part].append(t * speed)
        passes += 1
    latency = [{part: statistics.median(ts) for part, ts in parts.items()} for parts in scaled]
    digest = Digest()
    for rec in first:
        digest.add(rec.get("digest", ["failed", rec.get("error")]))
    return {"records": first, "latency": latency, "attempted": attempted,
            "failed": len(errors), "errors": errors, "passes": passes,
            "wall_s": time.perf_counter() - t_start, "op_wall_s": sum(wall),
            "speeds": speeds, "digest": digest}


def end_to_end_metrics(wl, run, setup):
    """`setup` is setup_seconds' pair (scaled, raw)."""
    setup_s, setup_wall_s = setup
    lat_ms = sorted(1e3 * lat["op"] for lat in run["latency"])
    n = len(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if n > 1 else lat_ms[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "setup_s_wall": (setup_wall_s, "s"),
        "ops_per_s": (1e3 * n / sum(lat_ms), "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_rate": (run["failed"] / run["attempted"], "ratio"),
        "samples": (n, "count"),
        "ops_beyond_p90": (sum(1 for x in lat_ms if x > p90), "count"),
        "executions": (run["attempted"], "count"),
        "ops_per_s_wall": (run["attempted"] / run["op_wall_s"], "1/s"),
        "speed_median": (statistics.median(run["speeds"]), "ratio"),
    }
    metrics.update(wl.extra_metrics(run["records"], run["latency"]))
    return metrics


def setup_seconds(workload, seed, workdir):
    """Import plus set-up time in fresh interpreters, median over the probes:
    (seconds at the reference speed, raw seconds)."""
    scaled, raw = [], []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe{i}")
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, BENCH_DIR, SRC_DIR, workload, str(seed), probe_dir],
            capture_output=True, text=True, timeout=120, check=True)
        setup, ref = map(float, done.stdout.split())
        raw.append(setup)
        scaled.append(setup * REFERENCE_S / ref)
    return statistics.median(scaled), statistics.median(raw)


# -- the traced run -------------------------------------------------------------


def traced_metrics(wl, seed, workdir, limit=None):
    """Trace the first pass, rerun it untraced, derive the per-layer metrics."""
    state = wl.setup(seed, workdir)
    design = wl.design(state, seed)[:limit]
    order = pass_order(wl, seed, len(design), 0)
    ops = [design[i] for i in order]

    counts = collections.Counter()
    new_specs = []

    def decoded(args, kwargs, result):
        prefix = kwargs.get("prefix", args[3] if len(args) > 3 else ())
        counts["digits_dec"] += len(result) - len(prefix)

    def labelled(args, kwargs, grid):
        for code, name in ((0, "unknown"), (1, "cover"), (2, "inward")):
            counts["cells_" + name] += int((grid.labels == code).sum())

    hooks = {
        "codec.encode": lambda a, k, r: counts.update(digits_enc=r.digits_consumed),
        "codec.decode": decoded,
        "interval_system.NumberSystemSpec.interval_shift_language":
            lambda a, k, r: counts.update(words=len(r)),
        "interval_system.NumberSystemSpec.__init__": lambda a, k, r: new_specs.append(a[0]),
        "sofic.build_automaton": lambda a, k, r: counts.update(states=r.n_states),
        "existence.render_grid": labelled,
    }
    cache_sizes = []
    base_specs = list(state.get("specs", ()))

    def after_op():
        cache_sizes.append(sum(len(s._cache) for s in base_specs + new_specs))
        new_specs.clear()

    tracer = LayerTracer(hooks)
    tracer.install()
    try:
        traced = run_pass(wl, state, ops, after_op)
    finally:
        tracer.uninstall()
    untraced = run_pass(wl, state, ops)
    records = summarize_pass(wl, state, traced)
    wl.late_check(state, seed, [rec for _, rec in sorted(zip(order, records))])

    wall = sum(dt for *_, dt in traced)
    totals = tracer.layer_totals()
    m = {}
    for layer in LAYERS:
        calls, self_s = totals[layer]
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.self_share"] = (self_s / wall, "ratio")
    u = tracer.unit_us
    m.update({
        "transforms.compose_us": (u("transforms.DiscMoebius.compose"), "us"),
        "transforms.apply_angle_us": (u("transforms.DiscMoebius.apply_angle"), "us"),
        "transforms.inverse_us": (u("transforms.DiscMoebius.inverse"), "us"),
        "arcs.image_us": (u("arcs.image"), "us"),
        "arcs.intersect_us": (u("arcs.ArcSet.intersect"), "us"),
        "arcs.from_arcs_us": (u("arcs.ArcSet.from_arcs"), "us"),
        "arcs.distance_calls": (tracer.calls("arcs.ArcSet.distance"), "count"),
        "interval_system.refined_set_us": (
            u("interval_system.NumberSystemSpec.refined_set"), "us"),
        "interval_system.cache_entries": (statistics.mean(cache_sizes) if cache_sizes else 0.0,
                                          "count"),
        "interval_system.words_enumerated": (counts["words"], "count"),
        "subshift.step_calls": (tracer.calls("subshift.FollowerAutomaton.step"), "count"),
        "subshift.step_us": (u("subshift.FollowerAutomaton.step"), "us"),
        "codec.encode_us_per_digit": (u("codec.encode", per=counts["digits_enc"]), "us"),
        "codec.decode_us_per_digit": (u("codec.decode", per=counts["digits_dec"]), "us"),
        "sofic.states": (counts["states"], "count"),
        "sofic.build_us_per_state": (u("sofic.build_automaton", per=counts["states"]), "us"),
        "existence.cover_search_us_per_cell": (u("existence.cover_search"), "us"),
        "existence.inward_test_us_per_cell": (u("existence.inward_region_test"), "us"),
        "existence.cells_unknown": (counts["cells_unknown"], "count"),
        "existence.cells_cover": (counts["cells_cover"], "count"),
        "existence.cells_inward": (counts["cells_inward"], "count"),
        "systems.load_us": (u("systems.builtin", "systems.load_config"), "us"),
        "cli.self_us_per_command": (
            1e6 * totals["cli"][1] / tracer.calls("cli.main") if tracer.calls("cli.main")
            else 0.0, "us"),
        "trace_overhead": (wall / sum(dt for *_, dt in untraced) - 1.0, "ratio"),
    })
    trace = {"workload": wl.name, "seed": seed, "ops": len(ops), "wall_s": wall,
             "residual_s": wall - tracer.top_s,   # harness time outside every span
             **tracer.to_json()}
    failed = sum(1 for r in records if not r["ok"])
    return m, records, failed, trace


# -- reporting -------------------------------------------------------------------


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            **_git_state()}


def _git_state() -> dict:
    """Commit and dirty flag of the checkout, or nulls outside a git work tree."""
    # the ceiling keeps git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30, env=env)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return {"git_commit": None, "git_dirty": None}
        commit = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"git_commit": commit, "git_dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": None, "git_dirty": None}


def emit(workload, seed, seconds, trace, metrics, failed, attempted, extra, contract_names):
    for name, (value, unit) in metrics.items():
        print(f"{workload:10s} {name:40s} {value:>16.6g} {unit}")
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **extra, "provenance": provenance()}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in contract_names},
    }))


def run_one(workload, seed, seconds, trace):
    wl = WORKLOADS[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    try:
        if trace:
            metrics, records, failed, trace_json = traced_metrics(wl, seed, workdir)
            path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
            with open(path, "w") as fh:
                json.dump(trace_json, fh, indent=1, sort_keys=True)
            extra = {"trace_file": os.path.relpath(path, ROOT),
                     "residual_s": trace_json["residual_s"],
                     "wall_s": trace_json["wall_s"],
                     "errors": [r.get("error", r.get("digest")) for r in records
                                if not r["ok"]][:5]}
            emit(workload, seed, seconds, True, metrics, failed, len(records), extra,
                 list(metrics))
            return
        setup = setup_seconds(workload, seed, os.path.join(workdir, "probes"))
        run = measure(wl, seed, seconds, workdir)
        extra = {"passes": run["passes"], "wall_s": run["wall_s"],
                 "digest": run["digest"].hexdigest(), "digest_ops": run["digest"].items,
                 "errors": run["errors"][:5]}
        emit(workload, seed, seconds, False, end_to_end_metrics(wl, run, setup),
             run["failed"], run["attempted"], extra, END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed, seconds, trace):
    """Each workload in its own process (so peak RSS is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, value in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return 0
    run_one(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
