import dataclasses

import numpy as np
import pytest

from oracles import avg_filter_errors_fe
from romlab import study
from romlab.cli import main
from romlab.fe import interpolate
from romlab.filtering import build_filter
from romlab.pod import build_pod_basis, project_Pr
from romlab.rom import LROMConfig, build_trilinear_tensor, project_forcing, run
from romlab.study import (CSV_HEADER, InvalidStudyError, StudyConfig,
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


def test_study_deterministic(small_ctx, tmp_path):
    cfg = dict(kind="filter-delta", r=8, sweep=[2e-2, 1e-2])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_study(_small_cfg(out=str(out1), **cfg), small_ctx)
    run_study(_small_cfg(out=str(out2), **cfg), small_ctx)
    assert out1.read_bytes() == out2.read_bytes()


def test_context_cache_roundtrip(tmp_path):
    cfg = _small_cfg(kind="filter-delta", r=8, cache_dir=str(tmp_path))
    ctx1 = build_context(cfg)
    files = list(tmp_path.glob("*.rlpod"))
    assert len(files) == 1
    ctx2 = build_context(cfg)
    assert np.array_equal(ctx1.basis.modes, ctx2.basis.modes)
    assert np.array_equal(ctx1.basis.eigenvalues, ctx2.basis.eigenvalues)


def test_r_outside_basis_rank_raises(small_ctx):
    """The reduced stiffness exists for 1 <= r <= d only."""
    for r in (0, small_ctx.basis.d + 1):
        with pytest.raises(ValueError, match=f"r={r} outside"):
            avg_filter_errors(small_ctx.basis, r, 1e-3)
        with pytest.raises(ValueError, match=f"r={r} outside"):
            small_ctx.operators(r, 0.1, 1.0)


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
        basis = build_pod_basis(u, small.m_op, small.s_op)
    if k is not None:
        lam = basis.eigenvalues
        basis = build_pod_basis(u, small.m_op, small.s_op,
                                rank_tol=np.sqrt(lam[k - 1] * lam[k]) / lam[0])
        assert basis.d == k and np.all(basis.residual_energy > [1e-3, 1.0])
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
    ops = small_ctx.operators(6, 2e-2, 1.0)
    filt = build_filter(ops.s_r, 1e-3)
    traj = run(ops, filt, LROMConfig(dt=2e-2))
    e_rom = final_time_error(traj, small_ctx.solution, small_ctx.basis, 6,
                             small_ctx.m_op, small_ctx.space, 1.0)
    e_snap = final_time_error(traj, small_ctx.solution, small_ctx.basis, 6,
                              small_ctx.m_op, small_ctx.space, 1.0,
                              variant="filtered-snapshot", filt=filt)
    assert e_rom > 0 and e_snap > 0
    with pytest.raises(ValueError):
        final_time_error(traj, small_ctx.solution, small_ctx.basis, 6,
                         small_ctx.m_op, small_ctx.space, 1.0,
                         variant="filtered-snapshot")
    with pytest.raises(ValueError):
        final_time_error(traj, small_ctx.solution, small_ctx.basis, 6,
                         small_ctx.m_op, small_ctx.space, 1.0,
                         variant="bogus")


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


def test_context_tensor_and_forcing_caches(build_counts):
    ctx = build_context(_small_cfg(kind="lrom-r"))
    ops4 = ctx.operators(4, 0.1, 1.0)
    ops6 = ctx.operators(6, 0.1, 1.0)
    assert build_counts == {"tensor": [4, 6], "forcing": [4, 6]}
    again = ctx.operators(4, 0.1, 1.0)
    assert build_counts == {"tensor": [4, 6], "forcing": [4, 6]}
    assert np.array_equal(again.tensor, ops6.tensor[:4, :4, :4])
    assert again.forcing.shape == (11, 4)
    assert np.array_equal(again.forcing, ops6.forcing[:, :4])
    # a new time grid is projected at the context's width
    assert ctx.operators(4, 0.05, 1.0).forcing.shape == (21, 4)
    assert build_counts["forcing"] == [4, 6, 6]
    # the initial coordinates are the L2 projection of u0 at any r
    # (projected per call, so equal to roundoff across r)
    u0 = interpolate(ctx.space, ctx.solution.velocity, 0.0)
    ref = project_Pr(ctx.basis, 6, ctx.m_op, u0)
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


@pytest.mark.parametrize("kind,sweep", [
    ("filter-delta", [4e-2, 2e-2, 1e-2, 5e-3]), ("filter-r", [2, 4, 6])])
def test_filter_study_needs_no_fe_space(small_ctx, kind, sweep):
    """A filter study reads only the POD basis: without the FE space and
    operators it gives the same records."""
    cfg = _small_cfg(kind=kind, r=8, delta=1e-3, sweep=sweep)
    bare = dataclasses.replace(small_ctx, space=None, m_op=None, s_op=None)
    result = run_study(cfg, bare)
    assert result.n_failed == 0 and len(result.records) == len(sweep)
    assert result.records == run_study(cfg, small_ctx).records


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


def test_cli_no_regression(tmp_path):
    code = main(["filter-delta", "--mesh-n", "4", "--r", "6",
                 "--sweep", "1e-2"])
    assert code == 4


def test_cli_unknown_kind():
    with pytest.raises(SystemExit):
        main(["not-a-study"])


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


def test_cli_rejects_dt_off_the_time_grid(capsys):
    argv = ["lrom-dt", "--mesh-n", "4", "--r", "3", "--sweep", "0.03,0.02"]
    assert main(argv) == 2
    assert "integer multiple of dt" in capsys.readouterr().err
