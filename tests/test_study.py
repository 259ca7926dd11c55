import numpy as np
import pytest

from oracles import avg_filter_errors_fe
from romlab import study
from romlab.cli import main
from romlab.fe import interpolate
from romlab.filtering import build_filter
from romlab.pod import PODBasis, SnapshotSet, project_Pr
from romlab.rom import LROMConfig, build_trilinear_tensor, project_forcing, run
from romlab.study import (CSV_HEADER, InvalidStudyError, StudyConfig,
                          avg_filter_errors, build_context, final_time_error,
                          loglog_regression, run_study, snapshot_coords)


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
    1 after 50 iterations) fails that point only."""
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


def test_avg_filter_errors_decrease_with_r(small_ctx):
    coords = snapshot_coords(small_ctx.basis, small_ctx.snapshots,
                             small_ctx.m_op, small_ctx.s_op)
    e4 = avg_filter_errors(coords, small_ctx.basis, 4, 1e-3)
    e8 = avg_filter_errors(coords, small_ctx.basis, 8, 1e-3)
    assert e8[0] < e4[0]
    assert e8[1] < e4[1]


@pytest.mark.parametrize("k,stride", [(None, 1), (6, 1), (6, 2)])
def test_avg_filter_errors_match_fe_oracle(small_ctx, k, stride):
    """POD-coordinate errors equal the FE-space ones. On the leading
    k < d modes the snapshots leave span(Phi), so w carries real weight;
    on every other snapshot the H1 cross term (Phi^T S w) . e is far
    from 0 (on all snapshots it vanishes, since e and w then lie in
    orthogonal right singular subspaces of the snapshot matrix)."""
    basis = small_ctx.basis
    if k is not None:
        basis = PODBasis(eigenvalues=basis.eigenvalues[:k],
                         modes=basis.modes[:, :k],
                         grad_gram=basis.grad_gram[:k, :k],
                         phi_h1_sq=basis.phi_h1_sq[:k])
    snaps = small_ctx.snapshots
    snaps = SnapshotSet(space=snaps.space, times=snaps.times[::stride],
                        matrix=snaps.matrix[:, ::stride])
    coords = snapshot_coords(basis, snaps, small_ctx.m_op, small_ctx.s_op)
    if k is not None:
        assert coords.w_l2 > 1e-3 and coords.w_h1 > 1.0
    for r in (1, basis.d // 2, basis.d):
        for delta in (0.0, 1e-3, 1e-1):
            got = avg_filter_errors(coords, basis, r, delta)
            want = avg_filter_errors_fe(basis, r, delta, snaps,
                                        small_ctx.m_op, small_ctx.s_op)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


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
def test_filter_study_builds_snapshot_coords_once(small_ctx, monkeypatch,
                                                  kind, sweep):
    calls = []

    def coords(*args):
        calls.append(1)
        return snapshot_coords(*args)

    monkeypatch.setattr(study, "snapshot_coords", coords)
    result = run_study(_small_cfg(kind=kind, r=8, delta=1e-3, sweep=sweep),
                       small_ctx)
    assert result.n_failed == 0 and len(result.records) == len(sweep)
    assert len(calls) == 1


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
])
def test_config_rejects_t_final_off_the_time_grid(kind, kw):
    """t_final must be an integer multiple of snap_dt and of every dt:
    a rounded grid would not match the recorded spacing."""
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
])
def test_cli_rejects_out_of_range_and_nonfinite(argv, capsys):
    assert main(argv + ["--mesh-n", "8"]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_cli_rejects_dt_off_the_time_grid(capsys):
    argv = ["lrom-dt", "--mesh-n", "4", "--r", "3", "--sweep", "0.03,0.02"]
    assert main(argv) == 2
    assert "integer multiple of dt" in capsys.readouterr().err


def test_pod_cache_respects_h1_convention(tmp_path):
    """Both conventions through one cache dir, in both orders."""
    fresh = {semi: build_context(_small_cfg(kind="filter-r", delta=1e-3,
                                            h1_seminorm=semi))
             for semi in (False, True)}
    for order in ((False, True), (True, False)):
        cache = tmp_path / str(order[0])
        for semi in order:
            ctx = build_context(_small_cfg(kind="filter-r", delta=1e-3,
                                           h1_seminorm=semi,
                                           cache_dir=str(cache)))
            assert np.array_equal(ctx.basis.phi_h1_sq,
                                  fresh[semi].basis.phi_h1_sq), (order, semi)
        assert len(list(cache.iterdir())) == 1  # no temp files left behind
    full, semi = fresh[False].basis.phi_h1_sq, fresh[True].basis.phi_h1_sq
    assert np.allclose(full - semi, 1.0, rtol=0, atol=1e-12)
