import numpy as np
import pytest

from romlab.cli import main
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

@pytest.fixture(scope="module")
def small_ctx():
    return build_context(StudyConfig(kind="filter-delta", mesh_n=8,
                                     snap_dt=0.05, r=8))


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
    """A dt that does not divide t_final fails that point only."""
    cfg = _small_cfg(kind="lrom-dt", r=6, delta=1e-3,
                     sweep=[1e-2, 3e-3])
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
    e4 = avg_filter_errors(small_ctx.basis, 4, 1e-3, small_ctx.snapshots,
                           small_ctx.m_op, small_ctx.s_op)
    e8 = avg_filter_errors(small_ctx.basis, 8, 1e-3, small_ctx.snapshots,
                           small_ctx.m_op, small_ctx.s_op)
    assert e8[0] < e4[0]
    assert e8[1] < e4[1]


def test_final_time_error_variants(small_ctx):
    from romlab import LROMConfig, build_filter, build_rom_operators, run
    ops = build_rom_operators(small_ctx.basis, 6, small_ctx.space,
                              small_ctx.m_op, small_ctx.solution,
                              np.linspace(0.0, 1.0, 51))
    filt = build_filter(ops.s_r, 1e-3)
    traj = run(ops, filt, LROMConfig(r=6, delta=1e-3, dt=2e-2))
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


def test_context_tensor_and_forcing_caches(small_ctx):
    t6 = small_ctx.tensor(6)
    t4 = small_ctx.tensor(4)
    assert np.array_equal(t4, t6[:4, :4, :4])
    f = small_ctx.forcing(0.1, 1.0, 4)
    assert f.shape == (11, 4)
    f2 = small_ctx.forcing(0.1, 1.0, 6)
    assert np.array_equal(f, f2[:, :4])
    a0 = small_ctx.a0(4)
    assert np.array_equal(a0, small_ctx.a0(6)[:4])


# ------------------------------------------------------------- CLI

def test_cli_success(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["filter-delta", "--mesh-n", "4", "--r", "6",
                 "--sweep", "2e-2,1e-2,5e-3", "--out", str(out)])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "slope=" in captured.out


def test_cli_invalid_config(capsys):
    assert main(["filter-delta", "--mesh-n", "0"]) == 2
    assert main(["filter-delta", "--sweep", "1e-2,5e-2,1e-3"]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_cli_sweep_failure(tmp_path):
    out = tmp_path / "part.csv"
    code = main(["lrom-dt", "--mesh-n", "4", "--r", "4",
                 "--delta", "1e-3", "--sweep", "1e-2,3e-3",
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
