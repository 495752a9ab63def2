"""Tests of the benchmark itself: metrics, failure counting, trace accounting.

    python -m pytest bench/tests -q
"""

import cmath
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from moebius_systems import arcs, codec, existence, interval_system, sofic  # noqa: E402
from moebius_systems.transforms import SpherePoint  # noqa: E402

# first operations of each pass's design order: the cheapest ones
TINY = {"cf-stream": 2, "roundtrip": 8, "certify": 6, "existence": 1}
SEED = 7


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tiny_measure(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    return wl, bench_run.measure(wl, SEED, 0.0, str(tmp_path), limit=TINY[name], min_passes=2)


@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_unit(name, tmp_path, capsys):
    wl, result = tiny_measure(name, tmp_path)
    setup = bench_run.setup_seconds(name, SEED, str(tmp_path / "probes"))
    metrics = bench_run.end_to_end_metrics(wl, result, setup)
    bench_run.emit(name, SEED, 0.0, False, metrics, result["failed"], result["attempted"], {},
                   bench_run.END_TO_END)
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert report["metrics"]["fail_rate"] == {"value": 0.0, "unit": "ratio"}
    named = {"cf-stream": ["encode_digits_per_s"],
             "roundtrip": ["encode_digits_per_s", "decode_digits_per_s"],
             "existence": ["cells_per_s"], "certify": []}[name]
    for metric in named:
        assert report["metrics"][metric]["unit"] == "1/s"
        assert report["metrics"][metric]["value"] > 0
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit", "git_dirty"):
        assert key in report["provenance"]


def _shift_encode(monkeypatch):
    original = codec.encode

    def corrupted(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, point=SpherePoint(res.point.value * cmath.exp(1e-3j)))

    monkeypatch.setattr(codec, "encode", corrupted)


def _flip_labels(monkeypatch):
    original = existence.render_grid

    def corrupted(*args, **kwargs):
        grid = original(*args, **kwargs)
        grid.labels = (grid.labels + 1) % 3
        return grid

    monkeypatch.setattr(existence, "render_grid", corrupted)


CORRUPTIONS = {
    "cf-stream": _shift_encode,
    "roundtrip": _shift_encode,
    "certify": lambda mp: mp.setattr(sofic, "transition_residual", lambda spec, auto: 1.0),
    "existence": _flip_labels,
}


@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
def test_corrupted_output_counts_as_failure(name, tmp_path, monkeypatch):
    CORRUPTIONS[name](monkeypatch)
    _, result = tiny_measure(name, tmp_path)
    assert result["failed"] > 0


def test_latencies_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    # a machine on which the reference kernel takes twice its reference time
    monkeypatch.setattr(bench_run, "time_reference", lambda: 2 * bench_run.REFERENCE_S)
    wl = workloads.WORKLOADS["roundtrip"]
    result = bench_run.measure(wl, SEED, 0.0, str(tmp_path), limit=TINY["roundtrip"],
                               min_passes=1)
    assert result["speeds"] == [0.5]
    assert sum(lat["op"] for lat in result["latency"]) == \
        pytest.approx(0.5 * result["op_wall_s"], rel=1e-9)


def test_traced_self_times_plus_residual_add_up_to_wall(tmp_path):
    wl = workloads.WORKLOADS["certify"]
    metrics, records, failed, trace = bench_run.traced_metrics(wl, SEED, str(tmp_path),
                                                               limit=TINY["certify"])
    assert failed == 0
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    assert trace["residual_s"] >= 0.0
    assert self_total + trace["residual_s"] == pytest.approx(trace["wall_s"], rel=1e-9)
    assert sum(f["self_s"] for f in trace["functions"].values()) == \
        pytest.approx(self_total, rel=1e-9)
    declared = [m["name"] for m in benchmark_spec()["per_layer"]]
    assert sorted(metrics) == sorted(declared)


def test_tracer_wraps_reimported_names_and_restores_them():
    originals = (arcs.image, codec.image, interval_system.image, sofic.image)
    assert len(set(map(id, originals))) == 1
    t = tracer.LayerTracer()
    t.install()
    try:
        wrapped = arcs.image
        assert wrapped is not originals[0]
        assert codec.image is wrapped and interval_system.image is wrapped
        assert sofic.image is wrapped
    finally:
        t.uninstall()
    assert (arcs.image, codec.image, interval_system.image, sofic.image) == originals


def test_existence_touches_no_arc_or_refined_set_layer(tmp_path):
    wl = workloads.WORKLOADS["existence"]
    metrics, _, failed, _ = bench_run.traced_metrics(wl, SEED, str(tmp_path), limit=1)
    assert failed == 0
    for layer in ("arcs", "interval_system", "sofic"):
        assert metrics[f"{layer}.calls"][0] == 0
    assert metrics["existence.calls"][0] > 0


def test_superadditivity_defect():
    assert workloads.superadditivity_defect([1.0, 2.0, 4.0, 8.0]) == 0.0
    # Q_2 below Q_1^2 breaks superadditivity by log(4/3)
    assert workloads.superadditivity_defect([1.0, 2.0, 3.0]) == pytest.approx(math.log(4 / 3))


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "roundtrip",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
