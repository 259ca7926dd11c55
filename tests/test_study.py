import dataclasses
import errno
import io
import math
import os
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (avg_filter_errors_fe, final_time_error_fe, interpolate,
                     project_Pr)
from romlab import cli, rom, study
from romlab.cli import main
from romlab.exact import AnalyticSolution
from romlab.fe import MESH_N_MAX, assemble_mass
from romlab.filtering import build_filter
from romlab.pod import default_times
from romlab.rom import (LINEARIZATIONS, LROMConfig, StepDivergenceError,
                        build_trilinear_tensor, project_forcing, run)
from romlab.study import (CSV_HEADER, DEFAULT_SWEEPS, FINAL_ERRORS,
                          STUDY_KINDS, InvalidStudyError, StudyConfig,
                          avg_filter_errors, build_context, final_time_error,
                          loglog_regression, run_study)


# ------------------------------------------------------------- regression

def test_loglog_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    slope, intercept, r2 = loglog_regression(x, 3.0 * x ** 2)
    assert abs(slope - 2.0) < 1e-12
    assert abs(intercept - np.log(3.0)) < 1e-12
    assert abs(r2 - 1.0) < 1e-12


def test_loglog_validation():
    with pytest.raises(ValueError):
        loglog_regression([1.0], [2.0])
    with pytest.raises(ValueError):
        loglog_regression([1.0, -2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        loglog_regression([1.0, 2.0], [1.0, 0.0])


def test_loglog_against_normal_equations(rng):
    """Cross-check the fit against the normal equations solved here."""
    x = np.exp(rng.uniform(-3, 3, 12))
    y = np.exp(1.7 * np.log(x) + 0.3 + 0.05 * rng.standard_normal(12))
    slope, intercept, _ = loglog_regression(x, y)
    a = np.column_stack([np.log(x), np.ones(12)])
    coef, *_ = np.linalg.lstsq(a, np.log(y), rcond=None)
    assert abs(slope - coef[0]) < 1e-10
    assert abs(intercept - coef[1]) < 1e-10


# ------------------------------------------------------------- config

def test_config_defaults():
    cfg = StudyConfig(kind="lrom-dt")
    assert cfg.r == 99 and cfg.delta == 1e-4
    assert cfg.sweep == [1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4]
    assert cfg.param_name == "dt"


@pytest.mark.parametrize("name,value", [
    ("linearization", "bogus"), ("final_error_variant", "bogus"),
    ("mesh_n", 4.5), ("mesh_n", 4.0), ("mesh_n", True),
    pytest.param("mesh_n", MESH_N_MAX + 1, id="mesh_n-cap+1"),
    pytest.param("mesh_n", 10 ** 400, id="mesh_n-400-digits")])
def test_config_rejects_unknown_modes_and_non_int_mesh_n(name, value):
    """An unknown linearization or final-error variant used to fail every
    sweep point after the whole context was built, a float mesh_n
    raised TypeError from build_space, and a 400-digit one OverflowError;
    each is now an invalid config. No mesh near the cap is built."""
    cfg = dict(kind="lrom-dt", mesh_n=4, r=3, sweep=[0.1, 0.05])
    with pytest.raises(InvalidStudyError, match=name):
        StudyConfig(**{**cfg, name: value})
    assert StudyConfig(**{**cfg, "mesh_n": np.int64(4)}).mesh_n == 4


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(kind="bogus")
    with pytest.raises(ValueError):
        StudyConfig(kind="filter-delta", sweep=[])
    with pytest.raises(ValueError):
        StudyConfig(kind="filter-delta", sweep=[1e-2, 5e-2, 1e-3])
    with pytest.raises(ValueError):
        StudyConfig(kind="filter-delta", mesh_n=0)
    with pytest.raises(ValueError):
        StudyConfig(kind="filter-delta", nu=-1.0)


# ------------------------------------------------------------- studies

def _small_cfg(**kw):
    kw.setdefault("mesh_n", 8)
    kw.setdefault("snap_dt", 0.05)
    return StudyConfig(**kw)


def test_filter_delta_study(small_ctx, tmp_path):
    out = tmp_path / "fd.csv"
    cfg = _small_cfg(kind="filter-delta", r=8,
                     sweep=[4e-2, 2e-2, 1e-2], out=str(out))
    res = run_study(cfg, small_ctx)
    assert res.status == "ok"
    assert len(res.records) == 3
    assert all(rec.e_l2 > 0 and rec.e_h1 > 0 for rec in res.records)
    # smaller radius, smaller error
    assert res.records[-1].e_l2 < res.records[0].e_l2
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert all(len(line.split(",")) == 7 for line in lines[1:])
    assert (tmp_path / "fd.csv.plot").exists()


def test_filter_r_study_regresses_on_truncation(small_ctx):
    cfg = _small_cfg(kind="filter-r", delta=1e-3, sweep=[4, 6, 8])
    res = run_study(cfg, small_ctx)
    assert res.status == "ok"
    for rec in res.records:
        assert rec.regression_x == rec.lambda_h1
    assert res.slope is not None and res.slope_h1 is not None


def test_lrom_dt_study_and_stability(small_ctx):
    cfg = _small_cfg(kind="lrom-dt", r=6, delta=1e-3,
                     sweep=[2e-2, 1e-2, 5e-3])
    res = run_study(cfg, small_ctx)
    assert res.status == "ok"
    for rec in res.records:
        assert rec.picard_max >= 1
        assert np.isfinite(rec.stability_max)
    assert res.slope is not None


def test_records_report_the_stepper_path_and_worst_residual():
    """On test_golden.py's n = 8 context, every L-ROM point ran the
    scalar Picard path (tensor_rank 1) and reports its worst final
    Picard residual, which the semi-implicit path does not form; filter
    points run no stepper and report neither."""
    ctx = build_context(StudyConfig(kind="lrom-dt", mesh_n=8))
    picard = run_study(StudyConfig(kind="lrom-r", mesh_n=8, delta=1e-2,
                                   dt=1e-2, sweep=[2, 4, 6]), ctx)
    for rec in picard.records:
        assert rec.tensor_rank == 1
        assert 0 < rec.picard_residual_max <= LROMConfig(dt=1.0).picard_tol
    ops = ctx.operators(6, 1e-2)
    traj = run(ops, build_filter(ops.s_r, 1e-2), LROMConfig(dt=1e-2))
    assert picard.records[-1].picard_residual_max == traj.residuals.max()
    semi = run_study(StudyConfig(kind="lrom-dt", mesh_n=8, r=6, delta=1e-2,
                                 sweep=[5e-2],
                                 linearization="semi-implicit"), ctx)
    assert semi.records[0].tensor_rank == 1
    assert semi.records[0].picard_residual_max is None
    filt = run_study(StudyConfig(kind="filter-r", mesh_n=8, delta=1e-2,
                                 sweep=[2, 4]), ctx)
    for rec in filt.records:
        assert rec.tensor_rank is None and rec.picard_residual_max is None


def test_lrom_r_sweep_ending_at_d(small_ctx, tmp_path):
    """At r = d the abscissa Lambda_H1 is 0: the row is kept, the fit
    leaves it out."""
    d = small_ctx.basis.d
    out = tmp_path / "r.csv"
    cfg = _small_cfg(kind="lrom-r", dt=1e-2, sweep=[d - 8, d - 4, d],
                     out=str(out))
    res = run_study(cfg, small_ctx)
    assert res.status == "ok"
    assert res.records[-1].regression_x == 0 and res.records[-1].e_l2 > 0
    assert not res.records[-1].usable
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 3 and rows[-1].endswith(",")
    assert main(["lrom-r", "--mesh-n", "8", "--dt", "1e-2",
                 "--sweep", f"{d - 8},{d - 4},{d}"]) == 0


def test_lrom_sweep_point_failure(small_ctx):
    """A step too large for Picard to converge (relative residual near
    1 after 200 iterations) fails that point only."""
    cfg = _small_cfg(kind="lrom-dt", r=6, delta=1e-3,
                     sweep=[1e-2, 5e-1])
    res = run_study(cfg, small_ctx)
    assert res.status == "sweep-failures"
    assert res.n_failed == 1
    assert res.records[0].ok and not res.records[1].ok
    assert res.slope is None  # one surviving point


def test_failed_point_records_its_exception_type_and_step(small_ctx):
    """The divergent point records StepDivergenceError and the step,
    last Picard residual and residual ratio that run raised it with; a
    point that fails without them (delta^2 S_r overflows in
    build_filter) records ValueError and none of them; a point that
    passes records none of the failure fields."""
    res = run_study(_small_cfg(kind="lrom-dt", r=6, delta=1e-3,
                               sweep=[1e-2, 5e-1]), small_ctx)
    passed, diverged = res.records
    fields = ("error_type", "error_step", "error_residual", "error_ratio")
    assert all(getattr(passed, name) is None for name in fields)
    ops = small_ctx.operators(6, 5e-1)
    with pytest.raises(StepDivergenceError) as info:
        run(ops, build_filter(ops.s_r, 1e-3), LROMConfig(dt=5e-1))
    assert info.value.step is not None
    assert diverged.error_type == "StepDivergenceError"
    assert diverged.error_step == info.value.step
    assert diverged.error == str(info.value)
    # Picard's residual stalls near 1: finite, and equal to run's own
    assert 0 < diverged.error_residual == info.value.residual
    assert 0 < diverged.error_ratio == info.value.ratio
    overflow = run_study(_small_cfg(kind="filter-delta", r=2,
                                    sweep=[1e150, 1e154]), small_ctx)
    assert overflow.records[0].ok
    assert overflow.records[1].error_type == "ValueError"
    assert all(getattr(overflow.records[1], name) is None
               for name in fields[1:])


def test_study_deterministic(small_ctx, tmp_path):
    cfg = dict(kind="filter-delta", r=8, sweep=[2e-2, 1e-2])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_study(_small_cfg(out=str(out1), **cfg), small_ctx)
    run_study(_small_cfg(out=str(out2), **cfg), small_ctx)
    assert out1.read_bytes() == out2.read_bytes()


def test_r_outside_basis_rank_raises(small_ctx):
    """The reduced stiffness exists for 1 <= r <= d only."""
    for r in (0, small_ctx.basis.d + 1):
        with pytest.raises(ValueError, match=f"r={r} outside"):
            avg_filter_errors(small_ctx.basis, r, 1e-3)
        with pytest.raises(ValueError, match=f"r={r} outside"):
            small_ctx.operators(r, 0.1)


def test_avg_filter_errors_decrease_with_r(small_ctx):
    e4 = avg_filter_errors(small_ctx.basis, 4, 1e-3)
    e8 = avg_filter_errors(small_ctx.basis, 8, 1e-3)
    assert e8[0] < e4[0]
    assert e8[1] < e4[1]


@pytest.mark.parametrize("k,stride", [(None, 1), (6, 1), (None, 2)])
def test_avg_filter_errors_match_fe_oracle(small_ctx, small, k, stride):
    """Errors from the snapshots' POD coordinates equal the FE-space
    ones: on small_ctx's basis; on a basis of k = 6 modes (built with a
    larger rank_tol, so the snapshots leave span(Phi)); and on a basis
    built from every other snapshot (d = K = 11).

    rtol is 1e-12. At r = d a floor of 1e-17 times the mean squared
    snapshot norm joins it. At delta = 0 the error there is roundoff
    (about 1e-30 in the FE space, exactly 0 when d = K). At delta = 1e-3
    it is about 1e-7 of the snapshot norm, so the modes' 4e-15 departure
    from orthonormality shows at 1e-12: against an extended-precision
    evaluation, this one is off by 2.0e-12 (small_ctx) and 4.2e-12
    (every other snapshot), the oracle by 4.8e-13 and 8.7e-13."""
    basis, u = small_ctx.basis, small.snapshots[:, ::stride]
    if stride > 1:
        basis = small.pod(np.s_[::stride])
    if k is not None:
        lam = basis.eigenvalues
        basis = small.pod(np.s_[::stride],
                          rank_tol=np.sqrt(lam[k - 1] * lam[k]) / lam[0])
        assert basis.d == k
        assert np.all(basis.residual_energy.mean(axis=1) > [1e-3, 1.0])
    energy = np.array([np.mean(np.sum(u * (op @ u), axis=0))
                       for op in (small.m_op, small.s_op)])
    for r in (1, basis.d // 2, basis.d):
        atol = 1e-17 * energy if r == basis.d else 0.0
        for delta in (0.0, 1e-3, 1e-1):
            got = avg_filter_errors(basis, r, delta)
            want = avg_filter_errors_fe(basis, r, delta, u,
                                        small.m_op, small.s_op)
            err = np.abs(np.subtract(got, want))
            assert np.all(err <= 1e-12 * np.abs(want) + atol), \
                (r, delta, got, want)


def test_final_time_error_variants(small_ctx):
    ops = small_ctx.operators(6, 2e-2)
    filt = build_filter(ops.s_r, 1e-3)
    traj = run(ops, filt, LROMConfig(dt=2e-2))
    e_rom = final_time_error(traj, small_ctx.basis, 6)
    e_snap = final_time_error(traj, small_ctx.basis, 6,
                              variant="filtered-snapshot", filt=filt)
    assert e_rom > 0 and e_snap > 0
    with pytest.raises(ValueError):
        final_time_error(traj, small_ctx.basis, 6,
                         variant="filtered-snapshot")
    with pytest.raises(ValueError):
        final_time_error(traj, small_ctx.basis, 6, variant="bogus")


@pytest.mark.parametrize("k", [None, 6])
def test_final_time_error_matches_fe_oracle(small_ctx, small, k):
    """The final-time error from the last snapshot's POD coordinates
    equals the one formed in the FE space from the interpolant of u(T),
    for both variants: on small_ctx's basis, and on a basis of k = 6
    modes, where u(T) leaves span(Phi) and its part outside counts."""
    ctx = small_ctx
    if k is not None:
        lam = ctx.basis.eigenvalues
        ctx = dataclasses.replace(ctx, basis=small.pod(
            rank_tol=np.sqrt(lam[k - 1] * lam[k]) / lam[0]))
        assert ctx.basis.d == k and ctx.basis.residual_energy[0, -1] > 1e-3
    d = ctx.basis.d
    for r in (1, d // 2, d):
        ops = ctx.operators(r, 1e-2)
        filt = build_filter(ops.s_r, 1e-2)
        traj = run(ops, filt, LROMConfig(dt=1e-2))
        for variant in ("rom", "filtered-snapshot"):
            got = final_time_error(traj, ctx.basis, r, variant, filt)
            want = final_time_error_fe(traj, ctx.solution, ctx.basis, r,
                                       small.m_op, ctx.space,
                                       1.0, variant, filt)
            assert abs(got - want) <= 1e-12 * want, (r, variant, got, want)


@pytest.fixture
def build_counts(monkeypatch):
    """Widths of the tensor and forcing builds a StudyContext makes."""
    counts = {"tensor": [], "forcing": []}

    def tensor(basis, r, space):
        counts["tensor"].append(r)
        return build_trilinear_tensor(basis, r, space)

    def forcing(basis, r, *args):
        counts["forcing"].append(r)
        return project_forcing(basis, r, *args)

    monkeypatch.setattr(study, "build_trilinear_tensor", tensor)
    monkeypatch.setattr(study, "project_forcing", forcing)
    return counts


def test_context_caches_are_read_only():
    """The arrays a context hands out are views of its caches and of the
    basis; a write into one raises instead of changing every later
    operators() result (a tensor entry changed in place broke the skew
    symmetry of all of them)."""
    ctx = build_context(_small_cfg(kind="lrom-r"))
    ops = ctx.operators(4, 0.1)
    before = dataclasses.replace(ops, **{f.name: getattr(ops, f.name).copy()
                                         for f in dataclasses.fields(ops)
                                         if f.init})
    basis = ctx.basis
    for arr in (ops.tensor, ops.forcing, ops.s_r, basis.grad_gram,
                basis.snap_coords, basis.residual_energy, basis.modes,
                basis.rows, basis.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] += 1
    ops.a0[0] += 1   # a copy of the caller's own
    again = ctx.operators(4, 0.1)
    for f in dataclasses.fields(ops):
        assert np.array_equal(getattr(again, f.name), getattr(before, f.name))
    assert np.array_equal(again.tensor, -again.tensor.transpose(0, 2, 1))


def test_context_unfolded_r_cache():
    """The context forms each r's R factor once, read-only and equal to
    the one run would form, and a wider tensor drops the old factors."""
    ctx = build_context(_small_cfg(kind="lrom-r"))
    ops = ctx.operators(4, 0.1)
    assert ctx.operators(4, 0.05).unfolded_r is ops.unfolded_r
    assert np.array_equal(ops.unfolded_r, oracles.unfolded_r(ops.tensor))
    with pytest.raises(ValueError, match="read-only"):
        ops.unfolded_r[0, 0] += 1
    wide = ctx.operators(6, 0.1)
    again = ctx.operators(4, 0.1)
    assert again.unfolded_r is not ops.unfolded_r
    assert np.array_equal(again.unfolded_r, oracles.unfolded_r(again.tensor))
    assert np.array_equal(wide.unfolded_r, oracles.unfolded_r(wide.tensor))


def test_context_frees_old_arrays_before_a_wider_tensor(monkeypatch):
    """A wider r drops the old tensor, forcing series and R factors
    before the new tensor is built, so they are not alive next to it."""
    ctx = build_context(_small_cfg(kind="lrom-r"))
    ctx.operators(4, 0.1)
    seen = []

    def tensor(basis, r, space):
        seen.append((ctx._tensor, dict(ctx._forcing),
                     dict(ctx._unfolded_r)))
        return build_trilinear_tensor(basis, r, space)

    monkeypatch.setattr(study, "build_trilinear_tensor", tensor)
    ops = ctx.operators(6, 0.1)
    assert seen == [(None, {}, {})]
    assert ops.tensor.shape == (6, 6, 6) and ops.forcing.shape == (11, 6)


def test_context_tensor_and_forcing_caches(build_counts):
    ctx = build_context(_small_cfg(kind="lrom-r"))
    ops4 = ctx.operators(4, 0.1)
    ops6 = ctx.operators(6, 0.1)
    assert build_counts == {"tensor": [4, 6], "forcing": [4, 6]}
    again = ctx.operators(4, 0.1)
    assert build_counts == {"tensor": [4, 6], "forcing": [4, 6]}
    assert np.array_equal(again.tensor, ops6.tensor[:4, :4, :4])
    assert again.forcing.shape == (11, 4)
    assert np.array_equal(again.forcing, ops6.forcing[:, :4])
    # a new time grid is projected at the context's width
    assert ctx.operators(4, 0.05).forcing.shape == (21, 4)
    assert build_counts["forcing"] == [4, 6, 6]
    # the initial coordinates are the first snapshot's POD coordinates,
    # the L2 projection of u0, at any r
    u0 = interpolate(ctx.space, ctx.solution.velocity, 0.0)
    ref = project_Pr(ctx.basis, 6, assemble_mass(
        ctx.space, np.arange(ctx.space.n_dofs)), u0)
    tol = 1e-14 * np.abs(ref).max()
    assert np.abs(ops6.a0 - ref).max() <= tol
    assert np.abs(ops4.a0 - ref[:4]).max() <= tol


@pytest.mark.parametrize("kind", ["lrom-dt", "lrom-delta", "lrom-r"])
def test_study_builds_tensor_and_forcing_once(build_counts, kind):
    """Each array is built once per study, at the study's largest r."""
    sweep = {"lrom-dt": [1e-1, 5e-2], "lrom-delta": [1e-1, 5e-2],
             "lrom-r": [2, 4, 6]}[kind]
    cfg = _small_cfg(kind=kind, r=6, dt=5e-2, delta=1e-2, sweep=sweep)
    run_study(cfg, build_context(cfg))
    assert build_counts["tensor"] == [6]
    assert build_counts["forcing"] == [6] * (2 if kind == "lrom-dt" else 1)


@pytest.mark.parametrize("name,value", [
    ("mesh_n", 8), ("snap_dt", 0.05), ("t_final", 0.5), ("nu", 0.1)])
def test_run_study_rejects_context_built_for_other_settings(
        build_counts, name, value):
    """A context serves only studies with the settings it was built
    from; any other mesh, snapshot step, final time or viscosity is
    refused before an operator is built."""
    ctx = build_context(StudyConfig(kind="lrom-dt", mesh_n=4))
    assert ctx.settings == dict(mesh_n=4, snap_dt=1e-2, t_final=1.0, nu=1e-3)
    cfg = dict(kind="lrom-dt", mesh_n=4, r=4, delta=1e-2, sweep=[0.1, 0.05])
    cfg[name] = value
    with pytest.raises(InvalidStudyError, match=f"{name}="):
        run_study(StudyConfig(**cfg), ctx)
    assert build_counts == {"tensor": [], "forcing": []}


@pytest.mark.parametrize("kind,sweep", [
    ("filter-delta", [4e-2, 2e-2, 1e-2, 5e-3]), ("filter-r", [2, 4, 6])])
def test_filter_study_needs_no_fe_space(small_ctx, kind, sweep):
    """A filter study reads only the POD basis: without the FE space it
    gives the same records."""
    cfg = _small_cfg(kind=kind, r=8, delta=1e-3, sweep=sweep)
    bare = dataclasses.replace(small_ctx, space=None)
    result = run_study(cfg, bare)
    assert result.n_failed == 0 and len(result.records) == len(sweep)
    assert result.records == run_study(cfg, small_ctx).records


@pytest.mark.parametrize("variant", ["rom", "filtered-snapshot"])
def test_warm_lrom_study_needs_no_fe_space(variant):
    """Once a context holds the tensor and the forcing at (r, dt), an
    L-ROM study there reads only them and the POD basis: without the FE
    space and the analytic solution it gives the same records."""
    cfg = _small_cfg(kind="lrom-delta", r=6, dt=5e-2, sweep=[1e-1, 5e-2],
                     final_error_variant=variant)
    ctx = build_context(cfg)
    primed = run_study(cfg, ctx)
    assert primed.n_failed == 0
    ctx.space = ctx.solution = None
    assert run_study(cfg, ctx).records == primed.records


# ------------------------------------------------------------- CLI

def test_cli_success(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["filter-delta", "--mesh-n", "4", "--r", "6",
                 "--sweep", "2e-2,1e-2,5e-3", "--out", str(out)])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "slope=" in captured.out


def test_cli_lrom_reports_solver_stats(tmp_path, capsys):
    """Each converged L-ROM line carries its Picard mean/max and the
    energy-ledger maximum; the CSV keeps its fixed header and columns."""
    out = tmp_path / "lrom.csv"
    code = main(["lrom-delta", "--mesh-n", "4", "--r", "4", "--dt", "1e-2",
                 "--sweep", "0.1,0.05", "--out", str(out)])
    assert code == 0
    points = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("delta=")]
    assert len(points) == 2
    for line in points:
        picard = line.split("picard=")[1].split()[0]
        mean, worst = picard.split("/")
        assert 1.0 <= float(mean) <= int(worst)
        assert float(line.split("energy=")[1]) > 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert all(len(line.split(",")) == 7 for line in lines)


def test_cli_invalid_config(capsys):
    assert main(["filter-delta", "--mesh-n", "0"]) == 2
    assert main(["filter-delta", "--sweep", "1e-2,5e-2,1e-3"]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_cli_sweep_failure(tmp_path):
    out = tmp_path / "part.csv"
    code = main(["lrom-dt", "--mesh-n", "4", "--r", "4",
                 "--delta", "1e-3", "--sweep", "1e-2,5e-1",
                 "--out", str(out)])
    assert code == 3
    # partial output still written
    assert out.exists()
    assert len(out.read_text().strip().split("\n")) == 3


def _out_of_memory(*args):
    raise MemoryError("Unable to allocate 7.28 TiB for an array")


def test_cli_out_of_memory_building_the_context(monkeypatch, capsys):
    """A mesh the machine cannot hold, such as --mesh-n 1048576, raised
    numpy's MemoryError out of main: exit 1 with a traceback. It is
    exit 2 now, with one line on stderr. The allocation is stubbed."""
    monkeypatch.setattr(study, "build_space", _out_of_memory)
    assert main(["filter-delta", "--mesh-n", "2", "--r", "3",
                 "--sweep", "0.1,0.05"]) == 2
    assert capsys.readouterr().err == \
        "romlab: out of memory: Unable to allocate 7.28 TiB for an array\n"


def test_cli_out_of_memory_fails_only_its_point(monkeypatch, tmp_path,
                                                capsys):
    """A time grid the machine cannot hold, such as --sweep 1e-12 in an
    lrom-dt study, failed the whole study with a traceback. It fails its
    own point now: exit 3, with the partial CSV. The allocation of the
    dt = 0.025 grid is stubbed; the snapshot grid and the others are
    built."""
    real = study.default_times
    monkeypatch.setattr(study, "default_times", lambda step, t_final: (
        _out_of_memory() if step == 0.025 else real(step, t_final)))
    out = tmp_path / "oom.csv"
    assert main(["lrom-dt", "--mesh-n", "4", "--r", "4", "--sweep",
                 "0.1,0.05,0.025", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == \
        "dt=0.025  FAILED: Unable to allocate 7.28 TiB for an array\n"
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [row[2] != "" for row in rows] == [True, True, False]


def test_cli_out_of_memory_in_the_forcing_fails_lrom_points(monkeypatch,
                                                            tmp_path, capsys):
    """The forcing's mass rows are assembled at each L-ROM point's first
    forcing series, not with the context, so an out-of-memory there
    fails the L-ROM points: exit 3, with the partial CSV. A filter study
    never projects the forcing and exits 0. The forcing's row-mapped
    assembly is stubbed; the POD's, which the context runs, is not."""
    monkeypatch.setattr(rom, "assemble_mass", _out_of_memory)
    out = tmp_path / "oom.csv"
    assert main(["lrom-dt", "--mesh-n", "4", "--r", "4", "--sweep",
                 "0.1,0.05", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines()[:2] == [
        f"dt={dt}  FAILED: Unable to allocate 7.28 TiB for an array"
        for dt in ("0.1", "0.05")]
    assert len(out.read_text().splitlines()) == 3
    assert main(["filter-delta", "--mesh-n", "4", "--r", "6",
                 "--sweep", "2e-2,1e-2"]) == 0


def test_cli_picard_converges_where_50_iterations_did_not(capsys):
    """At r = 4 on an n = 4 mesh, dt = 0.1 and 0.05 need up to 157 and
    76 Picard iterations per step; the default limit admits both."""
    code = main(["lrom-dt", "--mesh-n", "4", "--r", "4",
                 "--sweep", "0.2,0.1,0.05"])
    assert code == 0, capsys.readouterr().err
    worst = [int(line.split("picard=")[1].split()[0].split("/")[1])
             for line in capsys.readouterr().out.splitlines()
             if line.startswith("dt=")]
    assert len(worst) == 3 and max(worst) > 50


def test_cli_r_sweep_through_d(tmp_path):
    """d = 7 on the n = 4 mesh; r = 7 used to crash the regression."""
    out = tmp_path / "r.csv"
    code = main(["filter-r", "--mesh-n", "4", "--delta", "1e-3",
                 "--sweep", "3,5,7", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 3 and rows[-1].split(",")[5:] == ["0", ""]
    plot = (tmp_path / "r.csv.plot").read_text().split("\n\n")[0]
    assert len(plot.strip().split("\n")) == 1 + 2


def test_cli_no_regression(tmp_path):
    code = main(["filter-delta", "--mesh-n", "4", "--r", "6",
                 "--sweep", "1e-2"])
    assert code == 4


def test_cli_unknown_kind():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-study"])
    assert exc.value.code == 2


def test_cli_cache_option_is_gone(tmp_path, capsys):
    """The POD basis is always built in process; --cache is an unknown
    option, refused before anything is written."""
    with pytest.raises(SystemExit) as exc:
        main(["filter-delta", "--mesh-n", "4", "--cache", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["directory", "plot directory",
                                   "under a file", "name too long"])
def test_cli_refuses_unwritable_out_before_building(where, tmp_path,
                                                    monkeypatch, capsys):
    """An --out that cannot be written, an existing directory (for the
    CSV or its .plot file), a path under a regular file or a name too
    long to look up, gave a traceback and exit 1, the first three once
    the whole study had run. It is an invalid config now: no context is
    built and no file is made."""
    built = []
    monkeypatch.setattr(study, "build_context", built.append)
    blocker = tmp_path / "file"
    blocker.write_text("")
    (tmp_path / "x.csv.plot").mkdir()
    before = sorted(tmp_path.rglob("*"))
    out = {"directory": tmp_path, "plot directory": tmp_path / "x.csv",
           "under a file": blocker / "x.csv",
           "name too long": tmp_path / f"{'a' * 300}.csv"}[where]
    argv = ["filter-r", "--mesh-n", "2", "--sweep", "2,3", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("romlab: invalid config: ")
    assert built == []
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_reports_a_failed_write(tmp_path, monkeypatch, capsys):
    """A write that fails once the study has run, such as on a full
    disk, gave a traceback and exit 1; it exits 2 and names the file."""
    out = tmp_path / "x.csv"

    def full(path, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(study, "write_csv", full)
    argv = ["filter-r", "--mesh-n", "2", "--sweep", "2,3", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"romlab: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"


def test_cli_parser_holds_no_defaults():
    """The parser passes on only the options given, under the names of
    the StudyConfig fields they set, and its choices are the config's own
    name lists; StudyConfig holds every default."""
    parser = cli.build_parser()
    assert vars(parser.parse_args(["lrom-dt"])) == {"kind": "lrom-dt"}
    args = parser.parse_args(["lrom-r", "--t-final", "0.5",
                              "--final-error", "filtered-snapshot"])
    assert vars(args) == {"kind": "lrom-r", "t_final": 0.5,
                          "final_error_variant": "filtered-snapshot"}
    choices = {a.dest: a.choices for a in parser._actions if a.choices}
    assert choices == {"kind": STUDY_KINDS, "linearization": LINEARIZATIONS,
                       "final_error_variant": FINAL_ERRORS}


def test_cli_rejects_unparsable_sweep(capsys):
    assert main(["lrom-dt", "--sweep", "a,b"]) == 2
    assert capsys.readouterr().err == \
        "romlab: invalid config: could not convert string to float: 'a'\n"


def test_cli_usage_lists_exactly_the_parser_options():
    """The usage in the module docstring names every --option the
    parser accepts, and no other."""
    documented = set(re.findall(r"--[a-z][a-z-]*", cli.__doc__))
    parsed = {opt for action in cli.build_parser()._actions
              for opt in action.option_strings if opt.startswith("--")}
    assert documented == parsed - {"--help"}


# ------------------------------------------------------------- hardening

@pytest.mark.parametrize("name", ["nu", "snap_dt", "t_final", "delta", "dt",
                                  "r"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_config_rejects_nonfinite(name, bad):
    with pytest.raises(InvalidStudyError, match="finite"):
        StudyConfig(kind="lrom-dt", **{name: bad})


@pytest.mark.parametrize("kind,kw", [
    ("lrom-delta", dict(snap_dt=0.03)),
    ("lrom-delta", dict(dt=3e-3)),
    ("lrom-dt", dict(sweep=[1e-2, 3e-3])),
    ("lrom-delta", dict(t_final=0.5, snap_dt=0.3)),
    ("lrom-delta", dict(t_final=1e-12, dt=1e-13)),
])
def test_config_rejects_t_final_off_the_time_grid(kind, kw):
    """t_final must be a positive integer multiple of snap_dt and of
    every dt: a rounded grid would not match the recorded spacing, and a
    t_final below one snapshot spacing would round to 0 steps."""
    with pytest.raises(InvalidStudyError, match="integer multiple"):
        StudyConfig(kind=kind, **kw)


def test_config_rejects_nonfinite_sweep():
    with pytest.raises(InvalidStudyError, match="finite"):
        StudyConfig(kind="lrom-dt", sweep=[1e-2, float("nan")])


# an int that no float can hold
_HUGE = 10 ** 400


@pytest.mark.parametrize("make,error", [
    *(pytest.param(partial(StudyConfig, kind="lrom-dt", **{name: _HUGE}),
                   InvalidStudyError, id=f"StudyConfig-{name}")
      for name in ("snap_dt", "t_final", "nu", "delta")),
    pytest.param(partial(StudyConfig, kind="lrom-delta", dt=_HUGE),
                 InvalidStudyError, id="StudyConfig-dt"),
    pytest.param(partial(StudyConfig, kind="lrom-dt", sweep=[1e-2, _HUGE]),
                 InvalidStudyError, id="StudyConfig-sweep"),
    *(pytest.param(partial(LROMConfig, **{"dt": 1e-2, name: _HUGE}),
                   ValueError, id=f"LROMConfig-{name}")
      for name in ("dt", "t_final", "nu", "picard_tol")),
    pytest.param(partial(build_filter, np.eye(2), _HUGE), ValueError,
                 id="build_filter"),
    pytest.param(partial(default_times, 0.0, 1.0), ValueError,
                 id="default_times-zero-step"),
    pytest.param(partial(default_times, 1e-2, _HUGE), ValueError,
                 id="default_times-huge-t_final"),
    pytest.param(partial(AnalyticSolution, nu=math.nan), ValueError,
                 id="AnalyticSolution-nan-nu"),
    pytest.param(partial(AnalyticSolution, nu=math.inf), ValueError,
                 id="AnalyticSolution-inf-nu")])
def test_settings_no_float_can_hold_are_refused(make, error):
    """A setting counts as finite only if a float can hold it. A 400-digit
    int used to raise OverflowError from StudyConfig, LROMConfig and
    build_filter, or pass StudyConfig as nu and fail in run_study; a zero
    snapshot step raised ZeroDivisionError, and AnalyticSolution took a
    NaN or infinite nu. Each is now refused as an invalid value."""
    with pytest.raises(error):
        make()


def test_config_rejects_non_integer_r():
    with pytest.raises(InvalidStudyError, match="integer"):
        StudyConfig(kind="lrom-r", sweep=[3.7, 5])
    with pytest.raises(InvalidStudyError, match="integer"):
        StudyConfig(kind="filter-r", sweep=[4, 6.5])
    with pytest.raises(InvalidStudyError, match="integer"):
        StudyConfig(kind="lrom-dt", r=4.5)
    cfg = StudyConfig(kind="lrom-r", sweep=[3.0, 5.0])
    assert cfg.sweep == [3, 5] and all(type(v) is int for v in cfg.sweep)


@pytest.mark.parametrize("kind,extra", [
    ("lrom-dt", dict(r=500)),
    ("lrom-r", dict(sweep=[4, 500])),
    ("filter-delta", dict(r=500)),
    ("filter-r", dict(sweep=[4, 500])),
    ("lrom-delta", dict(r=0)),
])
def test_r_outside_basis_rank_raises_before_any_point(small_ctx, kind, extra):
    with pytest.raises(InvalidStudyError, match="outside"):
        run_study(_small_cfg(kind=kind, **extra), small_ctx)


@pytest.mark.parametrize("argv", [
    ["lrom-dt", "--r", "500", "--sweep", "0.01,0.005"],
    ["filter-delta", "--r", "500", "--sweep", "1e-2,5e-3"],
    ["lrom-r", "--sweep", "5,500"],
    ["lrom-r", "--nu", "nan", "--sweep", "5,10"],
    ["lrom-r", "--sweep", "3.7,5"],
    ["filter-delta", "--r", "6", "--sweep", "1e-2,inf"],
    ["filter-delta", "--r", "6", "--sweep=-1e-2,-5e-3"],
    ["lrom-delta", "--r", "6", "--dt=-0.1", "--sweep", "0.1,0.05"],
    ["lrom-dt", "--r", "6", "--sweep", "0.1,0"],
    ["lrom-delta", "--r", "1", "--t-final", "1e-12", "--dt", "1e-13"],
])
def test_cli_rejects_out_of_range_and_nonfinite(argv, capsys):
    assert main(argv + ["--mesh-n", "8"]) == 2
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lrom-delta", "--mesh-n", "2", "--r", "2", "--sweep", "1e308"],
    ["filter-r", "--mesh-n", "4", "--sweep", "1,2", "--delta", "1e200"],
])
def test_cli_rejects_radius_whose_square_overflows(argv, capsys):
    """delta ** 2 used to raise OverflowError here, a traceback with
    exit 1."""
    assert main(argv) == 2
    assert "delta squared must be finite" in capsys.readouterr().err


def test_cli_huge_radius_with_finite_square_runs(capsys):
    """A radius whose square is finite is still a valid config."""
    argv = ["lrom-delta", "--mesh-n", "2", "--r", "2",
            "--sweep", "1e100,1e150"]
    assert main(argv) == 0, capsys.readouterr().err


def test_cli_viscosity_whose_squares_overflow_runs_quietly(capsys):
    """nu = 1e300 makes |rhs|^2 overflow in every step. That printed an
    overflow warning from rom.run (a traceback under -W error), and the
    relative Picard residual read 0."""
    argv = ["lrom-dt", "--mesh-n", "2", "--r", "3", "--nu", "1e300",
            "--sweep", "0.5,0.25"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []


def test_cli_radius_overflowing_with_s_r_fails_its_point(tmp_path, capsys):
    """delta = 1e154 has a finite square, but delta^2 S_r overflows: that
    point fails (exit 3) instead of giving the delta -> inf limit."""
    out = tmp_path / "fd.csv"
    argv = ["filter-delta", "--mesh-n", "2", "--r", "2",
            "--sweep", "1e150,1e153,1e154", "--out", str(out)]
    assert main(argv) == 3
    assert "delta=1e+154  FAILED: delta^2 S_r overflows" \
        in capsys.readouterr().err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[2] != "" for row in rows] == [True, True, False]


@pytest.mark.parametrize("argv,name", [
    (["filter-delta", "--r", "2", "--t-final", "1e20"], "snap_dt"),
    (["filter-delta", "--r", "2", "--t-final", "1e300", "--dt", "1e-300"],
     "snap_dt"),
    (["lrom-r", "--sweep", "1,2", "--dt", "1e-17"], "dt"),
])
def test_cli_rejects_time_grid_of_2_53_steps_or_more(argv, name, capsys):
    """From t_final/step = 2**53 on, every float ratio is an integer, so
    the multiple test passed and building the time grid raised ValueError
    or OverflowError, a traceback with exit 1."""
    assert main(argv + ["--mesh-n", "2"]) == 2
    assert f"t_final/{name} = " in capsys.readouterr().err


def test_cli_rejects_dt_off_the_time_grid(capsys):
    argv = ["lrom-dt", "--mesh-n", "4", "--r", "3", "--sweep", "0.03,0.02"]
    assert main(argv) == 2
    assert "integer multiple of dt" in capsys.readouterr().err


@pytest.mark.parametrize("argv,points", [
    (["lrom-delta", "--mesh-n", "2", "--r", "3", "--dt", "0.005",
      "--nu", "1.7976931348623157e308", "--t-final", "0.05"], 6),
    (["lrom-r", "--mesh-n", "2", "--sweep", "2,3", "--nu", "1e308",
      "--t-final", "0.05"], 2),
])
def test_cli_viscosity_whose_forcing_overflows_fails_each_point(argv, points,
                                                                capsys):
    """nu g_ss overflows in the forcing. That printed two overflow
    warnings, and the study's first operators call raised ValueError
    outside the per-point handling: a traceback with exit 1."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert err.count("FAILED: non-finite forcing values") == points
    assert "Traceback" not in err


# ------------------------------------------------------ exit-code property
# (ordinary, extreme) option values for romlab's argv. Every step ratio
# they make is at most 1000 or at least 2**53, which StudyConfig rejects
# before any array is made: a t_final is 0.01 to 0.1, or StudyConfig
# refuses it (alone, or by its ratio to the snapshot spacing 0.01), and a
# step is at least 1e-4 (the default dt) or at most 1e-20.
_T_FINALS = (["0.01", "0.02", "0.05", "0.1"],
             ["0", "-0.05", "0.015", "5e-324", "1e20", "1e308", "nan", "inf",
              "-inf"])
_STEPS = (["0.01", "0.005", "0.0025", "1e-3"],
          ["0.02", "0.03", "0.05", "0", "-0.01", "5e-324", "1e-300", "1e-20",
           "1e308", "nan", "inf"])
_RADII = (["0", "1e-3", "0.1", "0.5", "1e100"],
          ["1e154", "1e200", "1e308", "5e-324", "-0.01", "nan", "inf"])
_MESH_SIZES = (["1", "2"],
               ["0", "-1", "1" + "0" * 400, str(MESH_N_MAX + 1)])
_MODES = (["1", "2"],
          ["3", "5", "0", "-2", "99", "1" + "0" * 400, "2.5", "nan"])
_VISCOSITIES = (["1e-3", "0.1", "1"],
                ["1e300", "1e308", "1.7976931348623157e308", "5e-324", "0",
                 "-1e-3", "nan", "inf"])
_OPTIONS = {"--r": _MODES, "--delta": _RADII, "--dt": _STEPS,
            "--nu": _VISCOSITIES, "--linearization": (LINEARIZATIONS,
                                                      ["explicit"]),
            "--final-error": (FINAL_ERRORS, ["exact"])}
_SWEPT = {"delta": _RADII, "r": _MODES, "dt": _STEPS}


@st.composite
def _romlab_argv(draw):
    """(argv, number of sweep points) over every kind and option. One
    time in ten, a value is extreme, an option is left out, and a sweep
    is not sorted. The choices come from a Random that hypothesis seeds:
    its own draws lean to the ends of a range, and nearly every argv
    they made was refused."""
    rnd = draw(st.randoms(use_true_random=True))

    def one_in_ten():
        return rnd.random() < 0.1

    def value(pools):
        return rnd.choice(pools[one_in_ten()])

    kind = rnd.choice(STUDY_KINDS)
    argv = [kind, "--mesh-n=" + value(_MESH_SIZES),
            "--t-final=" + value(_T_FINALS)]
    argv += [f"{opt}={value(pools)}" for opt, pools in _OPTIONS.items()
             if not one_in_ten()]
    sweep = DEFAULT_SWEEPS[kind]
    if not one_in_ten():
        pools = _SWEPT[StudyConfig(kind=kind).param_name]
        sweep = [value(pools) for _ in range(rnd.randint(1, 4))]
        if not one_in_ten():
            sweep = sorted(set(sweep), key=float, reverse=rnd.random() < 0.5)
        argv.append("--sweep=" + ",".join(sweep))
    return argv, len(sweep)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_romlab_argv())
def test_cli_exit_code_contract(case):
    """Any argv exits 0, 2, 3 or 4, with no traceback and no warning, and
    a study that ran writes the CSV header and one row per sweep value."""
    argv, points = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            redirect_stderr(err), redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        out = Path(tmp) / "study.csv"
        try:
            code = main(argv + [f"--out={out}"])
        except SystemExit as exc:   # argparse refuses the argv
            code = exc.code
        rows = out.read_text().splitlines() if code != 2 else None
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
    if rows is not None:
        assert rows[0] == CSV_HEADER and len(rows) == 1 + points

