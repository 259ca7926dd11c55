"""romlab benchmark: times the study pipeline end to end and layer by layer.

    python3 perfbench/run.py --workload offline|online|filter-fine
                             --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ./src, never
from an installed copy; without ./src/romlab the run exits with code 2.
Every workload goes through the public study API (build_context and
run_study) in this one process.  Each timed study's per-point errors and
regression slopes are checked against reference.json.

--trace 0 prints the end-to-end metrics (setup_s, study_s, total_s,
peak_rss_mb).  --trace 1 also wraps each module's public functions in spans
(see tracing.py) and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A run record (versions, BLAS build, inputs, samples) is written to
.perfbench_out/, and with --trace 1 the spans as well.

The inputs are analytic and deterministic: --seed is recorded but changes
nothing.  See README.md in this directory for the workloads and metrics.
"""

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Relative tolerance of the output check (per-point errors and slopes).
RTOL = 1e-8

WORKLOADS = {
    # Cold lrom-r: every call pays the offline stage (tensor at r = 50,
    # forcing projection over 1001 levels), as the romlab lrom-r CLI does.
    "offline": dict(
        setups=3, reuse=False, prime=None,
        studies=[dict(kind="lrom-r", mesh_n=64, sweep=[10, 20, 30, 40, 50],
                      delta=1e-2, dt=1e-3)]),
    # Warm lrom-delta: a primed context serves the six Table-4 radii, so
    # the timed part is the stepper and the filter solves.
    "online": dict(
        setups=1, reuse=True,
        prime=dict(kind="lrom-delta", mesh_n=64, r=50, dt=2.5e-4,
                   sweep=[5e-1]),
        studies=[dict(kind="lrom-delta", mesh_n=64, r=50, dt=2.5e-4)]),
    # Filter studies at 4x the paper's dof count: no tensor, forcing or
    # stepper call; large sparse products and a few batched filter solves.
    "filter-fine": dict(
        setups=3, reuse=True, prime=None,
        studies=[dict(kind="filter-delta", mesh_n=128),
                 dict(kind="filter-r", mesh_n=128)]),
}

LAYERS = ("mesh", "fe", "exact", "pod", "filtering", "rom", "study", "bench")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_romlab():
    if not (SRC / "romlab" / "__init__.py").is_file():
        _fail(f"{SRC / 'romlab'} not found; run from the root of a romlab "
              "checkout")
    sys.path.insert(0, str(SRC))
    import romlab
    if Path(romlab.__file__).resolve().parent != SRC / "romlab":
        _fail(f"imported romlab from {romlab.__file__}, expected "
              f"{SRC / 'romlab'}")


# ---- work counts attached to spans (computed from shapes, not measured) --

def _count_forcing(out, *args, **kwargs):
    return {"forcing_points": out[0].size}


def _count_tensor(out, basis, r, space, *args, **kwargs):
    q = space.edofs.shape[0] * len(space.rule.weights)
    return {"tensor_flops": 4 * q * r ** 3, "tensor_bytes": 8 * r ** 3}


def _count_project_forcing(out, *args, **kwargs):
    return {"forcing_levels": out.shape[0]}


def _count_run(traj, *args, **kwargs):
    iters = traj.iter_counts
    return {"steps": iters.size, "picard_iters": int(iters.sum()),
            "picard_per_step_max": int(iters.max()) if iters.size else 0}


def _count_apply_filter(out, *args, **kwargs):
    return {"solves": out.size // out.shape[0]}


# (module, attribute, span name, count): the public calls crossing layers.
# lrom_step/grom_step are not on the study path today; they are listed so
# that a stepper routed through them is traced, and are reported as absent
# once removed.
TARGETS = [
    ("mesh", "build_mesh", "mesh.build_mesh", None),
    ("fe", "build_space", "fe.build_space", None),
    ("fe", "assemble_mass", "fe.assemble_mass", None),
    ("fe", "assemble_stiffness", "fe.assemble_stiffness", None),
    ("fe", "interpolate", "fe.interpolate", None),
    ("exact", "AnalyticSolution.velocity", "exact.velocity", None),
    ("exact", "AnalyticSolution.forcing", "exact.forcing", _count_forcing),
    ("pod", "collect_snapshots", "pod.collect_snapshots", None),
    ("pod", "build_pod_basis", "pod.build_pod_basis", None),
    ("pod", "rom_stiffness", "pod.rom_stiffness", None),
    ("pod", "project_Pr", "pod.project_Pr", None),
    ("pod", "truncation_errors", "pod.truncation_errors", None),
    ("filtering", "build_filter", "filtering.build_filter", None),
    ("filtering", "apply_filter", "filtering.apply_filter",
     _count_apply_filter),
    ("rom", "build_trilinear_tensor", "rom.build_trilinear_tensor",
     _count_tensor),
    ("rom", "project_forcing", "rom.project_forcing", _count_project_forcing),
    ("rom", "run", "rom.run", _count_run),
    ("rom", "lrom_step", "rom.lrom_step", None),
    ("rom", "grom_step", "rom.grom_step", None),
    ("rom", "stability_check", "rom.stability_check", None),
    ("study", "build_context", "study.build_context", None),
    ("study", "run_study", "study.run_study", None),
    ("study", "avg_filter_errors", "study.avg_filter_errors", None),
    ("study", "final_time_error", "study.final_time_error", None),
]


# ---- workload phases --------------------------------------------------

def setup(spec):
    """Context build, plus the priming study for warm workloads."""
    from romlab import study
    ctx = study.build_context(study.StudyConfig(**spec["studies"][0]))
    if spec["prime"] is not None:
        study.run_study(study.StudyConfig(**spec["prime"]), ctx)
    return ctx


def run_studies(spec, ctx):
    from romlab import study
    return [study.run_study(study.StudyConfig(**s), ctx)
            for s in spec["studies"]]


# ---- output check -------------------------------------------------------

def summarize(results):
    """The checked outputs of a list of StudyResults."""
    return [{
        "kind": res.config.kind,
        "points": [{"value": rec.value, "e_l2": rec.e_l2, "e_h1": rec.e_h1,
                    "error": rec.error} for rec in res.records],
        "slope": res.slope,
        "slope_h1": res.slope_h1,
    } for res in results]


def _close(got, ref):
    if ref is None or got is None:
        return got is None and ref is None
    return abs(got - ref) <= RTOL * abs(ref)


def check(results, expected):
    """Compare results with the reference summary.

    Returns (attempted points, failed points, problems).  A point fails
    when it raised or when a checked error is outside RTOL.  A slope
    outside RTOL is a problem but not a point failure.  With expected
    None, only raised errors are checked.
    """
    got = summarize(results)
    attempted = sum(len(s["points"]) for s in got)
    failed, problems = 0, []
    if expected is not None and len(expected) != len(got):
        return attempted, attempted, ["study count differs from reference"]
    for i, study in enumerate(got):
        ref = None if expected is None else expected[i]
        if ref is not None and len(ref["points"]) != len(study["points"]):
            failed += len(study["points"])
            problems.append(f"{study['kind']}: point count differs")
            continue
        for j, point in enumerate(study["points"]):
            bad = []
            if point["error"] is not None:
                bad.append(f"raised: {point['error']}")
            elif ref is not None:
                rp = ref["points"][j]
                bad += [f"{key}={point[key]!r}, reference {rp[key]!r}"
                        for key in ("value", "e_l2", "e_h1")
                        if not _close(point[key], rp[key])]
            if bad:
                failed += 1
                problems.append(f"{study['kind']} point {j}: "
                                + "; ".join(bad))
        if ref is not None:
            problems += [f"{study['kind']}: {key}={study[key]!r}, "
                         f"reference {ref[key]!r}"
                         for key in ("slope", "slope_h1")
                         if not _close(study[key], ref[key])]
    return attempted, failed, problems


# ---- measurement --------------------------------------------------------

def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def measure(spec, seconds, expected, tracer=None):
    """Run one workload.

    Untraced: set up spec["setups"] times, then run the studies until
    `seconds` have passed (at least once), setting up again before each
    repeat when the context cannot be reused.  With a tracer the first
    setup is traced, the untraced repeats follow, and one traced study
    closes the run.
    """
    m = {"setup_s": [], "study_s": [], "attempted": 0, "failed": 0,
         "problems": []}

    def study_once(ctx):
        results = run_studies(spec, ctx)
        a, f, p = check(results, expected)
        m["attempted"] += a
        m["failed"] += f
        m["problems"] += p

    ctx = None
    if tracer is not None:
        with tracer.installed(TARGETS), tracer.span("bench.setup"):
            ctx = setup(spec)
    else:
        for _ in range(spec["setups"]):
            ctx = None
            ctx, dt = _timed(lambda: setup(spec))
            m["setup_s"].append(dt)
    begin = time.perf_counter()
    while True:
        if ctx is None:
            ctx, dt = _timed(lambda: setup(spec))
            m["setup_s"].append(dt)
        _, dt = _timed(lambda: study_once(ctx))
        m["study_s"].append(dt)
        if not spec["reuse"]:
            ctx = None
        if time.perf_counter() - begin >= seconds:
            break
    if tracer is not None:
        if ctx is None:
            ctx = setup(spec)
        gc.collect()
        with tracer.installed(TARGETS), tracer.span("bench.study"):
            study_once(ctx)
    return m


# ---- metrics ------------------------------------------------------------

def end_to_end_metrics(m):
    setup_s = statistics.median(m["setup_s"])
    study_s = statistics.median(m["study_s"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "study_s": (study_s, "s"),
        "total_s": (setup_s + study_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


class _Spans:
    """Sums over the spans under a chosen set of top-level spans."""

    def __init__(self, tracer, roots):
        dur, self_time, root = tracer.arrays()
        keep = [i for i in range(len(tracer.names)) if root[i] in roots]
        self.keep = set(keep)
        self.self_time, self.dur, self.calls = {}, {}, {}
        for i in keep:
            name = tracer.names[i]
            self.self_time[name] = self.self_time.get(name, 0.0) + self_time[i]
            self.dur[name] = self.dur.get(name, 0.0) + dur[i]
            self.calls[name] = self.calls.get(name, 0) + 1
        self.counts, self.maxima = {}, {}
        for idx, key, value in tracer.counts:
            if idx in self.keep:
                self.counts[key] = self.counts.get(key, 0) + value
                self.maxima[key] = max(self.maxima.get(key, 0), value)

    def self_s(self, *names):
        return sum(self.self_time.get(n, 0.0) for n in names)

    def layer_s(self, layer):
        return sum((t for n, t in self.self_time.items()
                    if n.split(".")[0] == layer), 0.0)

    def count(self, key):
        return self.counts.get(key, 0)


def per_layer_metrics(tracer, untraced_study_s):
    names = tracer.names
    setup_roots = {i for i, p in enumerate(tracer.parent)
                   if p < 0 and names[i] == "bench.setup"}
    study_roots = {i for i, p in enumerate(tracer.parent)
                   if p < 0 and names[i] == "bench.study"}
    every = _Spans(tracer, setup_roots | study_roots)
    timed = _Spans(tracer, study_roots)
    tensor_s = every.dur.get("rom.build_trilinear_tensor", 0.0)
    run_s = every.dur.get("rom.run", 0.0)
    steps = every.count("steps")
    gflop = every.count("tensor_flops") / 1e9
    traced_study_s = timed.dur.get("bench.study", 0.0)
    out = {
        "mesh.build_mesh_s": (every.self_s("mesh.build_mesh"), "s"),
        "fe.build_space_s": (every.self_s("fe.build_space"), "s"),
        "fe.assemble_s": (every.self_s("fe.assemble_mass",
                                       "fe.assemble_stiffness"), "s"),
        "fe.interpolate_s": (every.self_s("fe.interpolate"), "s"),
        "fe.interpolate_calls": (every.calls.get("fe.interpolate", 0),
                                 "count"),
        "exact.forcing_s": (every.self_s("exact.forcing"), "s"),
        "exact.forcing_points": (every.count("forcing_points"), "count"),
        "pod.collect_snapshots_s": (every.self_s("pod.collect_snapshots"),
                                    "s"),
        "pod.build_pod_basis_s": (every.self_s("pod.build_pod_basis"), "s"),
        "rom.build_trilinear_tensor_s": (
            every.self_s("rom.build_trilinear_tensor"), "s"),
        "rom.build_trilinear_tensor_calls": (
            every.calls.get("rom.build_trilinear_tensor", 0), "count"),
        "rom.tensor_gflop": (gflop, "GFLOP"),
        "rom.tensor_gflop_per_s": (gflop / tensor_s if tensor_s else 0.0,
                                   "GFLOP/s"),
        "rom.tensor_bytes": (every.count("tensor_bytes"), "bytes"),
        "rom.project_forcing_s": (every.self_s("rom.project_forcing"), "s"),
        "rom.forcing_levels": (every.count("forcing_levels"), "count"),
        "rom.run_s": (every.self_s("rom.run"), "s"),
        "rom.steps": (steps, "count"),
        "rom.us_per_step": (1e6 * run_s / steps if steps else 0.0, "us"),
        "rom.picard_iters": (every.count("picard_iters"), "count"),
        "rom.picard_per_step_max": (every.maxima.get("picard_per_step_max",
                                                     0), "count"),
        "rom.stability_check_s": (every.self_s("rom.stability_check"), "s"),
        "filtering.build_filter_s": (every.self_s("filtering.build_filter"),
                                     "s"),
        "filtering.apply_filter_s": (every.self_s("filtering.apply_filter"),
                                     "s"),
        "filtering.apply_filter_calls": (
            every.calls.get("filtering.apply_filter", 0), "count"),
        "filtering.solves": (every.count("solves"), "count"),
        "study.avg_filter_errors_s": (
            every.self_s("study.avg_filter_errors"), "s"),
        "study.final_time_error_s": (every.self_s("study.final_time_error"),
                                     "s"),
        "study.self_s": (every.self_s("study.run_study",
                                      "study.build_context"), "s"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}_s"] = (every.layer_s(layer), "s")
    for layer in LAYERS:
        out[f"timed.{layer}_s"] = (timed.layer_s(layer), "s")
    out["timed.rom.run_s"] = (timed.self_s("rom.run"), "s")
    out["timed.rom.build_trilinear_tensor_calls"] = (
        timed.calls.get("rom.build_trilinear_tensor", 0), "count")
    out["trace.setup_s"] = (every.dur.get("bench.setup", 0.0), "s")
    out["trace.study_s"] = (traced_study_s, "s")
    out["trace.overhead_s"] = (traced_study_s - untraced_study_s, "s")
    out["trace.spans"] = (len(names), "count")
    out["trace.absent_wrappers"] = (len(tracer.absent), "count")
    return out


# Work counts derived from array shapes and solver results, not timed.
COMPUTED = ("exact.forcing_points", "rom.tensor_gflop", "rom.tensor_bytes",
            "rom.forcing_levels", "rom.steps", "rom.picard_iters",
            "rom.picard_per_step_max", "filtering.solves")


# ---- run record ---------------------------------------------------------

def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_record(args, spec):
    import numpy as np
    import scipy
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps.get(k) for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "inputs": spec,
        "seed": args.seed,
        "seed_note": "recorded only; the inputs are analytic and fixed",
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


# ---- entry point ---------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    _import_romlab()

    spec = WORKLOADS[args.workload]
    expected = json.loads((HERE / "reference.json").read_text())[
        "workloads"][args.workload]
    tracer = Tracer() if args.trace else None
    m = measure(spec, args.seconds, expected, tracer)
    if tracer is None:
        metrics = end_to_end_metrics(m)
    else:
        metrics = per_layer_metrics(tracer, statistics.median(m["study_s"]))

    correct = m["failed"] == 0 and not m["problems"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key in ("setup_s", "study_s"):
        if m[key]:
            print(f"  {key} samples: "
                  + " ".join(f"{t:.4f}" for t in m[key]))
    for name, (value, unit) in metrics.items():
        tag = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:40s} {value:14.6g} {unit}{tag}")
    frac = m["failed"] / m["attempted"]
    print(f"  points_failed {m['failed']} of {m['attempted']} "
          f"(fraction {frac:.6g})")
    if tracer is not None and tracer.absent:
        print("  absent wrappers: " + ", ".join(tracer.absent))
    for problem in m["problems"]:
        print(f"  CHECK FAILED {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_record(args, spec)
    record.update(samples={k: m[k] for k in ("setup_s", "study_s")},
                  attempted=m["attempted"], failed=m["failed"],
                  problems=m["problems"],
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()},
                  computed=list(COMPUTED) if tracer is not None else [])
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with gzip.open(f"{stem}.spans.json.gz", "wt") as fh:
            json.dump(tracer.dump(), fh)

    print(json.dumps({
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
