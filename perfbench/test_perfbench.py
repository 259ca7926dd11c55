"""Self-tests of the benchmark harness at a tiny size (seconds in total).

    python3 -m pytest -q perfbench

Every workload's code path runs on an n = 8 mesh with r kept below the POD
rank there; the n = 64/128 workloads are exercised only by run.py itself.
"""

import copy
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import Tracer

run._import_romlab()

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "offline": dict(
        setups=2, reuse=False, prime=None,
        studies=[dict(kind="lrom-r", mesh_n=8, sweep=[2, 4, 6],
                      delta=1e-2, dt=1e-2)]),
    "online": dict(
        setups=1, reuse=True,
        prime=dict(kind="lrom-delta", mesh_n=8, r=6, dt=1e-2, sweep=[5e-1]),
        studies=[dict(kind="lrom-delta", mesh_n=8, r=6, dt=1e-2)]),
    "filter-fine": dict(
        setups=2, reuse=True, prime=None,
        studies=[dict(kind="filter-delta", mesh_n=8, r=6),
                 dict(kind="filter-r", mesh_n=8, sweep=[2, 4, 6])]),
}


def _metrics(name, trace):
    spec = TINY[name]
    tracer = Tracer() if trace else None
    m = run.measure(spec, 0.0, None, tracer)
    assert m["failed"] == 0 and not m["problems"]
    if tracer is None:
        return m, run.end_to_end_metrics(m), None
    return m, run.per_layer_metrics(
        tracer, statistics.median(m["study_s"])), tracer


@pytest.fixture(scope="module", params=sorted(TINY))
def traced(request):
    return request.param, *_metrics(request.param, trace=True)


def test_tiny_specs_cover_every_workload():
    assert set(TINY) == set(run.WORKLOADS) == {
        w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_emitted(name):
    m, metrics, _ = _metrics(name, trace=False)
    assert len(m["setup_s"]) >= TINY[name]["setups"]
    assert {k: u for k, (_, u) in metrics.items()} == {
        e["name"]: e["unit"] for e in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())
    assert metrics["total_s"][0] == pytest.approx(
        metrics["setup_s"][0] + metrics["study_s"][0])


def test_per_layer_metrics_emitted(traced):
    name, m, metrics, tracer = traced
    assert {k: u for k, (_, u) in metrics.items()} == {
        e["name"]: e["unit"] for e in BENCHMARK["per_layer"]}
    assert set(tracer.absent) <= {t[2] for t in run.TARGETS}
    assert metrics["trace.absent_wrappers"][0] == len(tracer.absent)
    # the traced setup and the traced study are the only top-level spans
    roots = [tracer.names[i] for i, p in enumerate(tracer.parent) if p < 0]
    assert roots == ["bench.setup", "bench.study"]


def test_self_times_sum_to_enclosing_span(traced):
    _, _, metrics, tracer = traced
    dur, self_time, root = tracer.arrays()
    assert (self_time >= -1e-9).all()
    for i, p in enumerate(tracer.parent):
        if p < 0:
            assert self_time[root == i].sum() == pytest.approx(dur[i],
                                                               rel=1e-9)
    layers = sum(metrics[f"layer.{x}_s"][0] for x in run.LAYERS)
    assert layers == pytest.approx(metrics["trace.setup_s"][0]
                                   + metrics["trace.study_s"][0], rel=1e-9)
    timed = sum(metrics[f"timed.{x}_s"][0] for x in run.LAYERS)
    assert timed == pytest.approx(metrics["trace.study_s"][0], rel=1e-9)


def test_workload_shapes(traced):
    name, _, metrics, _ = traced
    value = {k: v for k, (v, _) in metrics.items()}
    if name == "online":
        # the primed context serves the timed studies: no tensor rebuilt
        assert value["rom.build_trilinear_tensor_calls"] == 1
        assert value["timed.rom.build_trilinear_tensor_calls"] == 0
        assert value["rom.steps"] == 7 * 100
    elif name == "offline":
        assert value["rom.build_trilinear_tensor_calls"] == 1
        assert value["timed.rom.build_trilinear_tensor_calls"] == 1
        assert value["rom.forcing_levels"] == 101
        assert value["rom.steps"] == 3 * 100
        q = 2 * 8 ** 2 * 6
        assert value["rom.tensor_gflop"] == pytest.approx(4 * q * 6 ** 3 / 1e9)
        assert value["rom.tensor_bytes"] == 8 * 6 ** 3
        assert value["exact.forcing_points"] == 101 * 17 ** 2
    else:
        assert value["layer.rom_s"] == 0 and value["timed.rom_s"] == 0
        assert value["exact.forcing_points"] == 0
        assert value["filtering.apply_filter_calls"] == 6 + 3
        assert value["filtering.solves"] == (6 + 3) * 101
    if name != "filter-fine":
        assert value["rom.picard_iters"] >= value["rom.steps"]
        assert value["rom.picard_per_step_max"] >= 1


def test_perturbed_reference_is_detected():
    spec = TINY["filter-fine"]
    results = run.run_studies(spec, run.setup(spec))
    reference = run.summarize(results)
    assert run.check(results, reference) == (9, 0, [])

    bad = copy.deepcopy(reference)
    bad[0]["points"][2]["e_l2"] *= 1 + 1e-7
    attempted, failed, problems = run.check(results, bad)
    assert (attempted, failed) == (9, 1) and "e_l2" in problems[0]

    bad = copy.deepcopy(reference)
    bad[1]["points"][0]["e_h1"] *= 1 - 1e-7
    assert run.check(results, bad)[1] == 1

    bad = copy.deepcopy(reference)
    bad[1]["slope"] *= 1 + 1e-7
    attempted, failed, problems = run.check(results, bad)
    assert failed == 0 and len(problems) == 1 and "slope" in problems[0]

    # a deviation within the tolerance passes
    ok = copy.deepcopy(reference)
    ok[0]["points"][0]["e_l2"] *= 1 + run.RTOL / 10
    assert run.check(results, ok) == (9, 0, [])


def test_reference_matches_workload_inputs():
    pinned = json.loads((HERE / "reference.json").read_text())["workloads"]
    assert set(pinned) == set(run.WORKLOADS)
    for name, spec in run.WORKLOADS.items():
        assert [s["kind"] for s in pinned[name]] == [
            s["kind"] for s in spec["studies"]]
        for study in pinned[name]:
            assert study["slope"] is not None
            for point in study["points"]:
                assert point["error"] is None and point["e_l2"] > 0


def test_absent_targets_are_reported():
    tracer = Tracer()
    targets = [("rom", "no_such_function", "rom.no_such_function", None),
               ("no_such_module", "f", "gone.f", None),
               ("exact", "AnalyticSolution.no_such_method", "exact.gone",
                None),
               ("pod", "truncation_errors", "pod.truncation_errors", None)]
    from romlab import pod, study
    original = pod.truncation_errors
    with tracer.installed(targets):
        assert study.truncation_errors is not original
        assert pod.truncation_errors is not original
    assert study.truncation_errors is original
    assert pod.truncation_errors is original
    assert tracer.absent == ["exact.gone", "gone.f", "rom.no_such_function"]


def test_exits_nonzero_without_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "offline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
