from dataclasses import replace

import numpy as np
import pytest

from oracles import reference_run, trilinear_bstar
from romlab.filtering import build_filter
from romlab.rom import (LROMConfig, ROMOperators, StepDivergenceError,
                        _advection_matrix, build_trilinear_tensor,
                        project_forcing, run, stability_check)
from romlab.study import StudyConfig, build_context


R_SMALL = 6


def _one_step(ops, filt, cfg, a_k, f_next):
    """One step through run: t_final = dt, a0 = a_k, forcing rows [0, f].

    Returns (a_next, picard_iterations).
    """
    one = ROMOperators(r=ops.r, s_r=ops.s_r, tensor=ops.tensor,
                       forcing=np.vstack([np.zeros(ops.r), f_next]),
                       a0=np.asarray(a_k, dtype=float))
    traj = run(one, filt, replace(cfg, t_final=cfg.dt))
    return traj.states[1], int(traj.iter_counts[0])


@pytest.fixture
def tensor(small):
    return build_trilinear_tensor(small.basis, R_SMALL, small.space)


def test_tensor_validation(small):
    with pytest.raises(ValueError):
        build_trilinear_tensor(small.basis, 0, small.space)
    with pytest.raises(ValueError):
        build_trilinear_tensor(small.basis, small.basis.d + 1, small.space)


def test_tensor_skew_and_diag(small, tensor):
    assert tensor.shape == (R_SMALL, R_SMALL, R_SMALL)
    assert np.abs(tensor + tensor.transpose(0, 2, 1)).max() == 0.0
    idx = np.arange(R_SMALL)
    assert np.abs(tensor[:, idx, idx]).max() == 0.0


def test_tensor_matches_bstar_per_triple(small, tensor):
    """Every entry equals the trilinear form on the corresponding modes."""
    phi = small.basis.modes
    scale = np.abs(tensor).max()
    for i in range(R_SMALL):
        for j in range(R_SMALL):
            for k in range(R_SMALL):
                ref = trilinear_bstar(small.space, phi[:, i], phi[:, j],
                                      phi[:, k])
                assert abs(tensor[i, j, k] - ref) <= 1e-11 * scale, (i, j, k)


def test_tensor_block_streaming_invariant(small):
    """The blocked accumulation is independent of the block budget."""
    a = build_trilinear_tensor(small.basis, 4, small.space)
    b = build_trilinear_tensor(small.basis, 4, small.space,
                               block_bytes=1 << 14)
    # summation order differs between block sizes; allow roundoff
    assert np.abs(a - b).max() < 1e-13 * (1 + np.abs(a).max())


def test_tensor_nested(small, tensor):
    sub = build_trilinear_tensor(small.basis, 3, small.space)
    assert np.abs(sub - tensor[:3, :3, :3]).max() < 1e-14


def test_advection_matrix_definition(tensor, rng):
    abar = rng.standard_normal(R_SMALL)
    b = _advection_matrix(tensor, abar)
    for m in range(R_SMALL):
        for j in range(R_SMALL):
            assert abs(b[m, j] - abar @ tensor[:, j, m]) < 1e-13


class _ModeForcing:
    """Stub whose forcing equals a fixed nodal field at every time.

    Relies on project_forcing evaluating on the (t, y, x) axes of the
    y-major P2 node grid.
    """

    def __init__(self, space, coeffs):
        ns = space.n_scalar
        m = 2 * space.mesh.n + 1
        self.fx = np.asarray(coeffs[:ns]).reshape(m, m)
        self.fy = np.asarray(coeffs[ns:]).reshape(m, m)

    def forcing(self, x, y, t):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
        return (np.broadcast_to(self.fx, shape),
                np.broadcast_to(self.fy, shape))


def test_project_forcing_mode_is_unit_vector(small):
    stub = _ModeForcing(small.space, small.basis.modes[:, 2])
    f = project_forcing(small.basis, R_SMALL, small.m_op, stub,
                        [0.0, 0.5], small.space)
    assert f.shape == (2, R_SMALL)
    assert np.abs(f - np.eye(R_SMALL)[2]).max() < 1e-10


class _PolyForcing:
    """Quadratic polynomial forcing: the nodal P2 interpolant is exact,
    so the projected coordinates are exact integrals."""

    def forcing(self, x, y, t):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
        return (np.broadcast_to(x ** 2 + y + 0.0 * t, shape),
                np.broadcast_to(x - y ** 2 + 0.0 * t, shape))


def test_project_forcing_quadrature_oracle(small):
    import oracles
    f = project_forcing(small.basis, 3, small.m_op, _PolyForcing(),
                        [0.25], small.space)
    pts, w = oracles.triangle_quad_points(small.n, p=6)
    fx = pts[:, 0] ** 2 + pts[:, 1]
    fy = pts[:, 0] - pts[:, 1] ** 2
    for i in range(3):
        vals = oracles.p2_eval(small.n, small.basis.modes[:, i],
                               pts[:, 0], pts[:, 1])
        ref = np.sum(w * (fx * vals[:, 0] + fy * vals[:, 1]))
        assert abs(f[0, i] - ref) < 1e-12 * (1 + abs(ref))


def test_project_forcing_matches_nodal_evaluation(small):
    """Grid evaluation equals the pointwise nodal interpolant, across
    more than one time chunk."""
    from romlab import rom
    space = small.space
    chunk = rom._FORCING_CHUNK_BYTES // (8 * space.n_dofs)
    times = np.linspace(0.0, 1.0, 2 * chunk + 3)
    f = project_forcing(small.basis, 5, small.m_op, small.solution, times,
                        space)
    q = small.m_op @ small.basis.modes[:, :5]
    x = space.dof_coords[:, 0][None, :]
    y = space.dof_coords[:, 1][None, :]
    ref = np.empty_like(f)
    for start in range(0, times.size, 1000):
        f1, f2 = small.solution.forcing(x, y, times[start:start + 1000, None])
        ref[start:start + 1000] = np.hstack([f1, f2]) @ q
    assert np.abs(f - ref).max() <= 1e-13 * np.abs(ref).max()


def test_project_forcing_rejects_non_grid_space(small):
    """An x-major node order is not the y-major grid: refuse it."""
    from dataclasses import replace
    x_major = replace(small.space,
                      dof_coords=small.space.dof_coords[:, ::-1].copy())
    with pytest.raises(ValueError, match="grid"):
        project_forcing(small.basis, 2, small.m_op, small.solution, [0.0],
                        x_major)


def test_project_forcing_rejects_nonfinite(small):
    class Bad:
        def forcing(self, x, y, t):
            shape = np.broadcast_shapes(np.shape(x), np.shape(t))
            return (np.broadcast_to(np.nan, shape),
                    np.broadcast_to(0.0, shape))
    with pytest.raises(ValueError):
        project_forcing(small.basis, 2, small.m_op, Bad(), [0.0],
                        small.space)


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, False, "50", None])
def test_config_rejects_bad_picard_max_iters(bad):
    with pytest.raises(ValueError, match="picard_max_iters"):
        LROMConfig(dt=0.1, picard_max_iters=bad)


@pytest.mark.parametrize("nu", [0.0, -1e-3])
def test_config_rejects_nonpositive_nu(nu):
    with pytest.raises(ValueError, match="nu must be positive"):
        LROMConfig(dt=0.1, nu=nu)


def test_config_validation():
    assert LROMConfig(dt=0.1, picard_max_iters=np.int64(3)) \
        .picard_max_iters == 3
    with pytest.raises(ValueError):
        LROMConfig(dt=0.0)
    with pytest.raises(ValueError):
        LROMConfig(dt=3e-3)  # 1/dt not an integer
    with pytest.raises(ValueError):
        LROMConfig(dt=1e-2, linearization="explicit")
    assert LROMConfig(dt=1e-2).n_steps == 100


@pytest.mark.parametrize("name", ["dt", "delta", "t_final", "nu",
                                  "picard_tol"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_config_rejects_nonfinite(name, bad):
    """The step settings are checked by LROMConfig; delta by the filter
    that carries it."""
    if name == "delta":
        with pytest.raises(ValueError, match="finite"):
            build_filter(np.ones((1, 1)), bad)
        return
    kw = dict(dt=1e-2)
    kw[name] = bad
    with pytest.raises(ValueError, match="finite"):
        LROMConfig(**kw)


def test_r1_closed_form_step(small_ctx):
    """With one mode the advection term vanishes (T_111 = 0) and the
    implicit step has a scalar closed form."""
    ops = small_ctx.operators(1, 1e-2, 1.0)
    cfg = LROMConfig(dt=1e-2)
    s = ops.s_r[0, 0]
    a_next, iters = _one_step(ops, None, cfg, ops.a0, ops.forcing[1])
    expect = (ops.a0[0] / cfg.dt + ops.forcing[1, 0]) \
        / (1.0 / cfg.dt + cfg.nu * s)
    assert abs(a_next[0] - expect) < 1e-12 * (1 + abs(expect))
    assert iters <= 2


def test_zero_delta_equals_grom(small_ctx, rng):
    ops = small_ctx.operators(R_SMALL, 1e-2, 1.0)
    cfg = LROMConfig(dt=1e-2)
    filt = build_filter(ops.s_r, 0.0)
    a = rng.standard_normal(R_SMALL)
    f = rng.standard_normal(R_SMALL)
    a_l, _ = _one_step(ops, filt, cfg, a, f)
    a_g, _ = _one_step(ops, None, cfg, a, f)
    assert np.abs(a_l - a_g).max() < 1e-12 * (1 + np.abs(a_g).max())


def test_grom_step_newton_oracle(small_ctx, rng):
    """The Picard fixed point solves the nonlinear step equation;
    cross-checked with a Newton iteration written from scratch."""
    ops = small_ctx.operators(R_SMALL, 1e-2, 1.0)
    cfg = LROMConfig(dt=1e-2, picard_tol=1e-13)
    a_k = ops.a0 + 0.1 * rng.standard_normal(R_SMALL)
    f = ops.forcing[1]
    a_pic, _ = _one_step(ops, None, cfg, a_k, f)

    t = ops.tensor
    core = np.eye(ops.r) / cfg.dt + cfg.nu * ops.s_r
    a = a_k.copy()
    for _ in range(60):
        nl = np.einsum("i,j,ijm->m", a, a, t)
        g = core @ a - a_k / cfg.dt - f + nl
        jac = core + np.einsum("j,jim->mi", a, t) \
            + np.einsum("i,ijm->mj", a, t)
        newton = np.linalg.solve(jac, g)
        a = a - newton
        if np.linalg.norm(newton) < 1e-14 * (1 + np.linalg.norm(a)):
            break
    assert np.abs(a_pic - a).max() < 1e-8 * (1 + np.abs(a).max())


@pytest.mark.parametrize("delta, linearization", [
    (None, "picard-implicit"), (0.0, "picard-implicit"),
    (1e-2, "picard-implicit"), (1e-1, "picard-implicit"),
    (1e-2, "semi-implicit")])
def test_run_matches_reference_stepper(small_ctx, delta, linearization):
    """The folded stepper (filter applied to T once per run, one
    contraction per Picard iteration) follows the stepper that filters
    and contracts on every iteration, with the same Picard counts."""
    ops = small_ctx.operators(R_SMALL, 1e-2, 1.0)
    filt = None if delta is None else build_filter(ops.s_r, delta)
    cfg = LROMConfig(dt=1e-2, linearization=linearization)
    traj = run(ops, filt, cfg)
    states, iters = reference_run(ops, filt, cfg)
    assert np.array_equal(traj.iter_counts, iters)
    assert np.abs(traj.states - states).max() <= 1e-12 * np.abs(states).max()


def test_semi_implicit_variant(small_ctx):
    ops = small_ctx.operators(R_SMALL, 1e-2, 1.0)
    filt = build_filter(ops.s_r, 1e-2)
    cfg = LROMConfig(dt=1e-2, linearization="semi-implicit")
    traj = run(ops, filt, cfg)
    assert traj.states.shape == (101, R_SMALL)
    assert np.all(traj.iter_counts == 1)
    # close to the fully implicit trajectory at this step size
    traj_full = run(ops, filt, LROMConfig(dt=1e-2))
    diff = np.abs(traj.final_state - traj_full.final_state).max()
    assert diff < 0.1 * (1 + np.abs(traj_full.final_state).max())


def test_run_shapes_and_projection_start(small_ctx):
    ops = small_ctx.operators(4, 5e-2, 1.0)
    filt = build_filter(ops.s_r, 1e-2)
    traj = run(ops, filt, LROMConfig(dt=5e-2))
    assert traj.states.shape == (21, 4)
    assert np.array_equal(traj.states[0], ops.a0)
    assert np.all(traj.iter_counts >= 1)


def test_run_forcing_length_guard(small_ctx):
    ops = small_ctx.operators(4, 1e-1, 1.0)
    filt = build_filter(ops.s_r, 0.0)
    with pytest.raises(ValueError):
        run(ops, filt, LROMConfig(dt=1e-2))


def test_energy_decay_without_forcing(small_ctx):
    """f = 0, skew advection and PSD stiffness: the implicit step is
    unconditionally dissipative."""
    ops = small_ctx.operators(R_SMALL, 1e-2, 1.0)
    no_force = ROMOperators(r=ops.r, s_r=ops.s_r, tensor=ops.tensor,
                            forcing=np.zeros((1001, ops.r)), a0=ops.a0)
    cfg = LROMConfig(dt=1e-3)
    traj = run(no_force, None, cfg)
    energy = np.sum(traj.states ** 2, axis=1)
    assert np.all(np.diff(energy) <= 1e-12 * energy[0])


def test_delta_continuity(small_ctx):
    ops = small_ctx.operators(R_SMALL, 1e-2, 1.0)
    t0 = run(ops, build_filter(ops.s_r, 0.0), LROMConfig(dt=1e-2))
    t1 = run(ops, build_filter(ops.s_r, 1e-8), LROMConfig(dt=1e-2))
    assert np.abs(t0.states - t1.states).max() < 1e-6


def test_picard_nonconvergence_raises():
    """A strong synthetic nonlinearity with a single allowed iteration."""
    tensor = np.zeros((2, 2, 2))
    tensor[0, 1, 0], tensor[0, 0, 1] = 5.0, -5.0
    tensor[1, 0, 1], tensor[1, 1, 0] = 3.0, -3.0
    ops = ROMOperators(r=2, s_r=np.zeros((2, 2)), tensor=tensor,
                       forcing=np.zeros((2, 2)), a0=np.array([1.0, -1.0]))
    cfg = LROMConfig(dt=1.0, t_final=1.0, picard_max_iters=1)
    with pytest.raises(StepDivergenceError) as exc:
        run(ops, None, cfg)
    assert exc.value.step == 0
    assert exc.value.residual is not None
    # one iteration leaves no ratio of successive residuals
    assert np.isnan(exc.value.ratio)


def test_picard_slow_contraction_reports_ratio():
    """On an n = 4 context, lrom-dt at r = 4, dt = 0.1 fails step 5 at
    50 iterations while the residual still contracts by about 0.65 per
    iteration; 80 iterations converge that step."""
    cfg = StudyConfig(kind="lrom-dt", mesh_n=4, r=4, sweep=[0.1])
    ctx = build_context(cfg)
    ops = ctx.operators(4, 0.1, 1.0)
    filt = build_filter(ops.s_r, cfg.delta)
    with pytest.raises(StepDivergenceError) as exc:
        run(ops, filt, LROMConfig(dt=0.1, picard_max_iters=50))
    assert exc.value.step == 5
    assert exc.value.residual > 1e-10
    assert 0.5 < exc.value.ratio < 0.8
    assert f"last ratio {exc.value.ratio:.3g}" in str(exc.value)
    prefix = run(ops, filt, LROMConfig(dt=0.1, t_final=0.5))
    a6, iters = _one_step(ops, filt, LROMConfig(dt=0.1, picard_max_iters=80),
                          prefix.final_state, ops.forcing[6])
    assert 50 < iters <= 80
    assert np.all(np.isfinite(a6))


def test_blowup_guard():
    ops = ROMOperators(r=1, s_r=np.zeros((1, 1)), tensor=np.zeros((1, 1, 1)),
                       forcing=np.full((3, 1), 1e9), a0=np.zeros(1))
    cfg = LROMConfig(dt=1.0, t_final=2.0)
    with pytest.raises(StepDivergenceError) as exc:
        run(ops, None, cfg)
    assert "blow-up" in str(exc.value)


def test_nonfinite_state_guard(small_ctx):
    ops = small_ctx.operators(4, 1e-1, 1.0)
    cfg = LROMConfig(dt=1e-1)
    with pytest.raises(StepDivergenceError, match="non-finite state"):
        _one_step(ops, None, cfg, np.array([np.nan, 0.0, 0.0, 0.0]),
                  ops.forcing[1])


def test_stability_check(small_ctx):
    ops = small_ctx.operators(4, 1e-1, 1.0)
    filt = build_filter(ops.s_r, 1e-2)
    cfg = LROMConfig(dt=1e-1)
    traj = run(ops, filt, cfg)
    series = stability_check(traj, ops, cfg)
    assert np.all(np.isfinite(series))
    assert series.shape == (11,)
    assert series.max() >= np.sum(traj.states[0] ** 2)
    # the accumulated gradient part is non-decreasing
    grad_part = series - np.sum(traj.states ** 2, axis=1)
    assert np.all(np.diff(grad_part) >= -1e-14)
