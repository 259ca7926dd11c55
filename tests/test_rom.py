import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (_lu_factor, _lu_solve, energy_ledger_einsum,
                     folded_tensor, full_modes, longdouble_run, node_coords,
                     reference_run, trilinear_bstar, unfolded_r)
from romlab import rom
from romlab.filtering import apply_filter, build_filter
from romlab.rom import (_RANK_TOL, LINEARIZATIONS, LROMConfig, ROMOperators,
                        ROMTrajectory, StepDivergenceError,
                        _advection_matrix, _norm, build_trilinear_tensor,
                        project_forcing, run, stability_check)
from romlab.study import StudyConfig, build_context


R_SMALL = 6


def _one_step(ops, filt, cfg, a_k, f_next):
    """One step through run: t_final = dt, a0 = a_k, forcing rows [0, f].

    Returns (a_next, picard_iterations).
    """
    r = ops.s_r.shape[0]
    one = ROMOperators(s_r=ops.s_r, tensor=ops.tensor,
                       forcing=np.vstack([np.zeros(r), f_next]),
                       a0=np.asarray(a_k, dtype=float))
    traj = run(one, filt, replace(cfg, t_final=cfg.dt))
    return traj.states[1], int(traj.iter_counts[0])


def _ops_on_path(small_ctx, rng, path):
    """small_ctx's operators at dt = 1e-2, whose tensor has rank one
    (path "scalar"), or the same with a random tensor, skew in its last
    two indices and of full rank in its first (path "general")."""
    ops = small_ctx.operators(R_SMALL, 1e-2)
    if path == "general":
        t = rng.standard_normal((R_SMALL,) * 3)
        ops = replace(ops, tensor=np.abs(ops.tensor).max() * (t - t.mT))
    return ops


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
    phi = full_modes(small.basis)
    scale = np.abs(tensor).max()
    for i in range(R_SMALL):
        for j in range(R_SMALL):
            for k in range(R_SMALL):
                ref = trilinear_bstar(small.space, phi[:, i], phi[:, j],
                                      phi[:, k])
                assert abs(tensor[i, j, k] - ref) <= 1e-11 * scale, (i, j, k)


def _spy(monkeypatch, name):
    """Record the calls to rom.<name>, which still runs."""
    calls, real = [], getattr(rom, name)

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]
    monkeypatch.setattr(rom, name, spy)
    return calls


def test_tensor_rank_one_in_first_index(small, monkeypatch):
    """Every snapshot of the benchmark flow is (g(y, t), g(x, t)), so
    every mode is (psi(y), psi(x)) and T_ijk = mu_i (C_jk - C_kj): the
    (r, r^2) unfolding of the full build has one nonzero singular value.
    The probe build, which returns mu (x) A, takes its place, within
    1e-13 of it (measured 1.4e-15 relative to max |T|)."""
    d = small.basis.d
    full = rom._full_tensor(small.basis, d, small.space)
    sv = np.linalg.svd(full.reshape(d, d * d), compute_uv=False)
    assert sv[1] <= 1e-12 * sv[0]
    full_builds = _spy(monkeypatch, "_full_tensor")
    tensor = build_trilinear_tensor(small.basis, d, small.space)
    assert full_builds == []
    assert np.abs(tensor - full).max() <= 1e-13 * np.abs(full).max()


def _random_basis(small, rng):
    """small's basis with random full-height modes: its tensor has full
    rank in the first index."""
    n_dofs = small.space.n_dofs
    return replace(small.basis, rows=np.arange(n_dofs),
                   modes=rng.standard_normal((n_dofs, small.basis.d)))


def test_full_rank_tensor_takes_the_full_build(small, rng, monkeypatch):
    """On random modes the sketch fails, and the full build's tensor is
    returned bit for bit."""
    basis = _random_basis(small, rng)
    full_builds = _spy(monkeypatch, "_full_tensor")
    mu_passes = _spy(monkeypatch, "_mu")
    tensor = build_trilinear_tensor(basis, R_SMALL, small.space)
    assert len(full_builds) == 1 and mu_passes == []
    assert tensor is full_builds[0]
    assert np.array_equal(tensor,
                          rom._full_tensor(basis, R_SMALL, small.space))
    sv = np.linalg.svd(tensor.reshape(R_SMALL, -1), compute_uv=False)
    assert sv[-1] > 1e-3 * sv[0]


def test_sketch_just_above_its_tolerance_takes_the_full_build(
        small, rng, monkeypatch):
    """Rank-one modes perturbed by eps E, E random on the distinct rows,
    differ between the u and v profiles: the tensor gains a second term
    of size eps. eps is scaled so that the sketch reads sigma_2 / sigma_1
    between 1 and 4 times rom._SKETCH_TOL; the full build runs."""
    noise = rng.standard_normal(small.basis.modes.shape)

    def build(eps):
        basis = replace(small.basis, modes=small.basis.modes + eps * noise)
        probes = _spy(monkeypatch, "_probe_slices")
        full_builds = _spy(monkeypatch, "_full_tensor")
        build_trilinear_tensor(basis, R_SMALL, small.space)
        monkeypatch.undo()
        sketch = probes[0][:-1].reshape(len(probes[0]) - 1, -1)
        sv = np.linalg.svd(sketch, compute_uv=False)
        return sv[-1] / sv[0], len(full_builds)

    ratio, _ = build(1e-6)
    ratio, full_builds = build(1e-6 * 2 * rom._SKETCH_TOL / ratio)
    assert rom._SKETCH_TOL < ratio < 4 * rom._SKETCH_TOL
    assert full_builds == 1


def test_check_probe_catches_a_sketch_that_passes(small, rng, monkeypatch):
    """With the two sketching probes made equal, a full-rank tensor's
    sketch has rank one; the third probe's check fails, and the full
    build runs."""
    basis = _random_basis(small, rng)
    real = rom._probe_slices

    def equal_sketch_probes(basis, r, space, z):
        z = z.copy()
        z[:, 1] = z[:, 0]
        return real(basis, r, space, z)
    monkeypatch.setattr(rom, "_probe_slices", equal_sketch_probes)
    mu_passes = _spy(monkeypatch, "_mu")
    full_builds = _spy(monkeypatch, "_full_tensor")
    tensor = build_trilinear_tensor(basis, R_SMALL, small.space)
    assert len(mu_passes) == 1 and len(full_builds) == 1
    assert tensor is full_builds[0]


def test_r1_tensor_is_zero_from_the_probes(small, monkeypatch):
    """At r = 1, T_111 = 0: the sketch is 0 and passes with mu = 0, with
    no division (warnings are errors in this suite)."""
    full_builds = _spy(monkeypatch, "_full_tensor")
    tensor = build_trilinear_tensor(small.basis, 1, small.space)
    assert tensor.shape == (1, 1, 1) and not tensor.any()
    assert full_builds == []


def test_tensor_block_streaming_invariant(small, monkeypatch):
    """The blocked accumulation is independent of the block budget, down
    to 1 byte: one element of each orientation per block."""
    a = build_trilinear_tensor(small.basis, 4, small.space)
    for block_bytes in (1 << 14, 1):
        monkeypatch.setattr(rom, "BLOCK_BYTES", block_bytes)
        b = build_trilinear_tensor(small.basis, 4, small.space)
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
        m = 2 * space.n + 1
        self.fx = np.asarray(coeffs[:ns]).reshape(m, m)
        self.fy = np.asarray(coeffs[ns:]).reshape(m, m)

    def forcing(self, x, y, t):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
        return (np.broadcast_to(self.fx, shape),
                np.broadcast_to(self.fy, shape))


def test_project_forcing_mode_is_unit_vector(small):
    stub = _ModeForcing(small.space, full_modes(small.basis)[:, 2])
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
        vals = oracles.p2_eval(small.n, full_modes(small.basis)[:, i],
                               pts[:, 0], pts[:, 1])
        ref = np.sum(w * (fx * vals[:, 0] + fy * vals[:, 1]))
        assert abs(f[0, i] - ref) < 1e-12 * (1 + abs(ref))


def test_project_forcing_matches_nodal_evaluation(small):
    """Grid evaluation equals the pointwise nodal interpolant, across
    more than one time chunk."""
    space = small.space
    chunk = rom.BLOCK_BYTES // (8 * space.n_dofs)
    times = np.linspace(0.0, 1.0, 2 * chunk + 3)
    f = project_forcing(small.basis, 5, small.m_op, small.solution, times,
                        space)
    q = small.m_op @ full_modes(small.basis)[:, :5]
    x, y = node_coords(space).T[:, None, :]
    ref = np.empty_like(f)
    for start in range(0, times.size, 1000):
        f1, f2 = small.solution.forcing(x, y, times[start:start + 1000, None])
        ref[start:start + 1000] = np.hstack([f1, f2]) @ q
    assert np.abs(f - ref).max() <= 1e-13 * np.abs(ref).max()


def test_project_forcing_holds_one_chunk_of_fields(small):
    """The two T x m^2 fields of a chunk are freed before the next chunk's
    are made: over two full chunks and one level, the traced peak stays
    below 1.6 times one chunk's fields (measured 1.31 at n = 8; 2.31 when
    the previous chunk's fields were still alive)."""
    space = small.space
    chunk = rom.BLOCK_BYTES // (8 * space.n_dofs)
    times = np.linspace(0.0, 1.0, 2 * chunk + 1)
    tracemalloc.start()
    try:
        project_forcing(small.basis, 4, small.m_op, small.solution, times,
                        space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 8 * chunk * space.n_dofs


def test_project_forcing_rejects_nonfinite(small, monkeypatch):
    class Bad:
        def forcing(self, x, y, t):
            shape = np.broadcast_shapes(np.shape(x), np.shape(t))
            return (np.broadcast_to(np.nan, shape),
                    np.broadcast_to(0.0, shape))
    with pytest.raises(ValueError):
        project_forcing(small.basis, 2, small.m_op, Bad(), [0.0],
                        small.space)

    class OneNode:
        """Finite but for one node at t = 1, on the (t, y, x) axes."""

        def __init__(self, bad, component):
            self.bad, self.component = bad, component

        def forcing(self, x, y, t):
            shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
            fields = np.ones((2,) + shape)
            fields[self.component, t[:, 0, 0] == 1.0, 2, 3] = self.bad
            return fields[0], fields[1]
    # one time level per chunk: t = 1 is in the second
    monkeypatch.setattr(rom, "BLOCK_BYTES", 8 * small.space.n_dofs)
    for bad, component in [(np.nan, 0), (np.inf, 1)]:
        with pytest.raises(ValueError, match="non-finite forcing values"):
            project_forcing(small.basis, 2, small.m_op,
                            OneNode(bad, component), [0.0, 1.0, 2.0],
                            small.space)
    fine = project_forcing(small.basis, 2, small.m_op, OneNode(1.0, 0),
                           [0.0, 1.0, 2.0], small.space)
    assert np.isfinite(fine).all()


def _mass_modes(basis, m_op, m):
    """q = M Phi per component on the (y, x) node grid, (2, m, m, d)."""
    return (m_op @ full_modes(basis)).reshape(2, m, m, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_benchmark_mass_modes_have_four_node_classes(n, rng):
    """On the benchmark flow's rows, M Phi repeats its lines in the 4
    classes that _node_classes reads off the rows, per component u's
    along x and v's along y: the two boundary lines, the interior
    midpoint lines and the interior vertex lines. This is a property of
    M and P, not of the modes: for the basis's modes and for seeded
    random ones on the same rows, the representatives rebuild q bit for
    bit. At n = 1 (m = 3) no class holds two lines, and p is None."""
    ctx = build_context(StudyConfig(kind="filter-delta", mesh_n=n, r=8))
    m = 2 * n + 1
    rows = ctx.basis.rows.reshape(2, m, m)
    noise = replace(ctx.basis,
                    modes=rng.standard_normal(ctx.basis.modes.shape))
    expect = np.r_[0, np.where(np.arange(1, m - 1) % 2, 1, 2), 3]
    for basis in (ctx.basis, noise):
        q = _mass_modes(basis, ctx.m_op, m)
        for qc, rc, class_axis in zip(q, rows, [1, 0]):
            axis, p, b = rom._node_classes(qc, rc)
            if n == 1:
                assert p is None and np.array_equal(b, qc.reshape(m * m, -1))
                continue
            assert axis == class_axis
            assert p.shape == (m, 4) and set(np.unique(p)) == {0.0, 1.0}
            labels = p.argmax(axis=1)
            assert np.array_equal(labels, expect)
            # b's rows are (class, x) along y and (y, class) along x
            reps = b.reshape((4, m, -1) if axis == 0 else (m, 4, -1))
            reps = np.moveaxis(reps, axis, 0)
            assert np.array_equal(reps[labels].view(np.uint64),
                                  np.moveaxis(qc, axis, 0).view(np.uint64))


def test_project_forcing_without_repeated_slices(small, rng):
    """Seeded random modes repeat no slice of M Phi along either axis:
    k = m, and the projection is the dense one."""
    space = small.space
    m = 2 * small.n + 1
    basis = _random_basis(small, rng)
    q = _mass_modes(basis, small.m_op, m)[..., :5]
    for qc, rc in zip(q, basis.rows.reshape(2, m, m)):
        axis, p, b = rom._node_classes(qc, rc)
        assert p is None and b.shape == (m * m, 5)
    times = np.linspace(0.0, 1.0, 7)
    f = project_forcing(basis, 5, small.m_op, small.solution, times, space)
    x, y = node_coords(space).T[:, None, :]
    f1, f2 = small.solution.forcing(x, y, times[:, None])
    ref = np.hstack([f1, f2]) @ q.reshape(-1, 5)
    assert np.abs(f - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("component", [0, 1])
def test_project_forcing_rejects_nonfinite_inside_a_class(small, bad,
                                                          component):
    """A non-finite value at one node whose class holds many nodes
    reaches the projection through the class sum."""
    m = 2 * small.n + 1
    q = _mass_modes(small.basis, small.m_op, m)[:, :, :, :2]
    node = (m // 2, 3)  # (y, x), both interior
    rows = small.basis.rows.reshape(2, m, m)
    axis, p, _ = rom._node_classes(q[component], rows[component])
    assert p[:, p[node[axis]].argmax()].sum() > 1

    class OneNode:
        def forcing(self, x, y, t):
            shape = np.broadcast_shapes(np.shape(x), np.shape(y),
                                        np.shape(t))
            fields = np.ones((2,) + shape)
            fields[(component, slice(None)) + node] = bad
            return fields[0], fields[1]
    with pytest.raises(ValueError, match="non-finite forcing values"):
        project_forcing(small.basis, 2, small.m_op, OneNode(), [0.0, 1.0],
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


def test_config_uses_the_study_time_grid_rule():
    """LROMConfig checks its grid by the rule StudyConfig uses: at least
    one step, and fewer than 2**53. It used to accept t_final = 0 (no
    step) and dt = 1e-300, with a 300-digit n_steps."""
    with pytest.raises(ValueError, match=r"t_final/dt = .* 2\*\*53"):
        LROMConfig(dt=1e-300)
    with pytest.raises(ValueError, match="t_final"):
        LROMConfig(dt=0.5, t_final=0.0)
    with pytest.raises(ValueError, match="integer multiple of dt"):
        LROMConfig(dt=0.4, t_final=1.0)


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
    ops = small_ctx.operators(1, 1e-2)
    cfg = LROMConfig(dt=1e-2)
    s = ops.s_r[0, 0]
    a_next, iters = _one_step(ops, None, cfg, ops.a0, ops.forcing[1])
    expect = (ops.a0[0] / cfg.dt + ops.forcing[1, 0]) \
        / (1.0 / cfg.dt + cfg.nu * s)
    assert abs(a_next[0] - expect) < 1e-12 * (1 + abs(expect))
    assert iters <= 2


def test_zero_delta_equals_grom(small_ctx, rng):
    ops = small_ctx.operators(R_SMALL, 1e-2)
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
    ops = small_ctx.operators(R_SMALL, 1e-2)
    cfg = LROMConfig(dt=1e-2, picard_tol=1e-13)
    a_k = ops.a0 + 0.1 * rng.standard_normal(R_SMALL)
    f = ops.forcing[1]
    a_pic, _ = _one_step(ops, None, cfg, a_k, f)

    t = ops.tensor
    core = np.eye(R_SMALL) / cfg.dt + cfg.nu * ops.s_r
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
    ops = small_ctx.operators(R_SMALL, 1e-2)
    filt = None if delta is None else build_filter(ops.s_r, delta)
    cfg = LROMConfig(dt=1e-2, linearization=linearization)
    traj = run(ops, filt, cfg)
    states, iters = reference_run(ops, filt, cfg)
    assert traj.tensor_rank == 1  # the scalar Picard path
    assert np.array_equal(traj.iter_counts, iters)
    assert np.abs(traj.states - states).max() <= 1e-12 * np.abs(states).max()
    if linearization == "semi-implicit":
        assert np.all(np.isnan(traj.residuals))
    else:
        assert np.all(traj.residuals <= cfg.picard_tol)


@pytest.mark.parametrize("linearization", ["picard-implicit",
                                           "semi-implicit"])
def test_full_rank_tensor_takes_general_loop(small_ctx, rng, linearization):
    """A random tensor, skew in its last two indices and of full rank in
    its first, takes the solve-and-contract loop and matches the
    reference stepper."""
    ops = _ops_on_path(small_ctx, rng, "general")
    filt = build_filter(ops.s_r, 1e-2)
    sv = np.linalg.svd(ops.tensor.reshape(R_SMALL, -1), compute_uv=False)
    assert sv[-1] > 1e-2 * sv[0]
    cfg = LROMConfig(dt=1e-2, linearization=linearization)
    traj = run(ops, filt, cfg)
    states, iters = reference_run(ops, filt, cfg)
    assert traj.tensor_rank == R_SMALL
    assert iters.max() > 1 or linearization == "semi-implicit"
    assert np.array_equal(traj.iter_counts, iters)
    assert np.abs(traj.states - states).max() <= 1e-12 * np.abs(states).max()


@pytest.mark.parametrize("delta", [None, 0.0, 1e-2, 1.0])
@pytest.mark.parametrize("kind", ["zero", "benchmark", "rank-two", "random"])
def test_rank_from_the_r_by_r_factor(small_ctx, rng, kind, delta):
    """run counts the folded tensor's rank from the SVD of an (r, r)
    factor: the same rank as the SVD of the folded (r, r^2) tensor, and
    singular values within 1e-13 of the largest."""
    ops = small_ctx.operators(R_SMALL, 1e-2)
    scale = np.abs(ops.tensor).max()
    if kind == "zero":
        tensor = np.zeros_like(ops.tensor)
    elif kind == "benchmark":
        tensor = ops.tensor
    elif kind == "rank-two":  # sum_c w_ci A_cjk for two skew A_c
        a = rng.standard_normal((2, R_SMALL, R_SMALL))
        tensor = scale * np.einsum("ci,cjk->ijk",
                                   rng.standard_normal((2, R_SMALL)),
                                   a - a.mT)
    else:
        t = rng.standard_normal((R_SMALL,) * 3)
        tensor = scale * (t - t.mT)
    filt = None if delta is None else build_filter(ops.s_r, delta)
    ref = np.linalg.svd(folded_tensor(tensor, filt), compute_uv=False)
    factor = unfolded_r(tensor).T
    if filt is not None:
        factor = apply_filter(filt, factor)
    sv = np.linalg.svd(factor, compute_uv=False)
    expect = int(np.count_nonzero(ref > _RANK_TOL * ref[0]))
    assert expect == {"zero": 0, "benchmark": 1, "rank-two": 2,
                      "random": R_SMALL}[kind]
    assert np.abs(sv - ref).max() <= 1e-13 * ref[0]
    traj = run(replace(ops, tensor=tensor), filt,
               LROMConfig(dt=1e-2, t_final=2e-2))
    assert traj.tensor_rank == expect


def _same_run(a, b):
    return (a.tensor_rank == b.tensor_rank
            and np.array_equal(a.states, b.states)
            and np.array_equal(a.iter_counts, b.iter_counts)
            and np.array_equal(a.residuals, b.residuals, equal_nan=True))


def test_replaced_tensor_gets_its_own_r_factor(small_ctx, rng):
    """dataclasses.replace of the tensor forms the new tensor's R factor:
    on the context's operators, whose rank-one tensor's R is cached, a
    random full-rank tensor runs at full rank (it used to keep the old
    tensor's R and run at rank 1)."""
    ops = small_ctx.operators(R_SMALL, 1e-2)
    t = rng.standard_normal((R_SMALL,) * 3)
    swapped = replace(ops, tensor=np.abs(ops.tensor).max() * (t - t.mT))
    assert np.array_equal(swapped.unfolded_r, unfolded_r(swapped.tensor))
    cfg = LROMConfig(dt=1e-2, t_final=2e-2)
    assert run(ops, None, cfg).tensor_rank == 1
    for filt in (None, build_filter(ops.s_r, 1e-2)):
        assert run(swapped, filt, cfg).tensor_rank == R_SMALL


@pytest.mark.parametrize("path", ["scalar", "general"])
def test_given_unfolded_r_changes_no_bit(small_ctx, rng, path):
    """run on operators handed the tensor's R factor gives the states,
    Picard counts and residuals of operators that form R themselves."""
    ops = _ops_on_path(small_ctx, rng, path)
    given = ROMOperators(s_r=ops.s_r, tensor=ops.tensor, forcing=ops.forcing,
                         a0=ops.a0, cached_r=unfolded_r(ops.tensor))
    bare = replace(ops)
    for delta in (None, 1e-4, 5e-2):
        filt = None if delta is None else build_filter(ops.s_r, delta)
        for linearization in LINEARIZATIONS:
            cfg = LROMConfig(dt=1e-2, t_final=0.2,
                             linearization=linearization)
            assert _same_run(run(given, filt, cfg), run(bare, filt, cfg))


def test_context_unfolded_r_changes_no_bit_at_r99(bench_ctx):
    """The context's R factor leaves the r = 99 runs of dt = 1e-2,
    delta in {1e-4, 1/64} bit for bit as they were."""
    ops = bench_ctx.operators(99, 1e-2)
    cfg = LROMConfig(dt=1e-2)
    for delta in (1e-4, 1 / 64):
        filt = build_filter(ops.s_r, delta)
        assert _same_run(run(ops, filt, cfg), run(replace(ops), filt, cfg))


def test_longdouble_solve(rng):
    """The oracle's elimination pivots (a zero leading entry) and solves
    to long-double roundoff: a residual below 1e-17 of |a| |x|
    (measured 5.1e-19), where numpy's double solve leaves 6.8e-16."""
    a = rng.standard_normal((40, 40))
    a[0, 0] = 0.0
    b = rng.standard_normal(40)
    x = _lu_solve(_lu_factor(a), b)
    assert x.dtype == np.longdouble
    res = a.astype(np.longdouble) @ x - b
    assert np.abs(res).max() <= 1e-17 * np.abs(a).max() * np.abs(x).max()
    np.testing.assert_allclose(x.astype(float), np.linalg.solve(a, b),
                               rtol=1e-12)


@pytest.mark.parametrize("delta", [1e-4, 1 / 64])
def test_steppers_against_longdouble_march_at_r99(bench_ctx, delta):
    """At r = 99, dt = 1e-2, run's scalar path and the reference stepper
    both stay within a few roundoffs of the reference scheme marched in
    long double, with its Picard counts step by step. Relative to the
    largest state entry, on bases built with POD budgets of 0.5 to
    16 MB, run read 1.9e-15 to 4.1e-15 and the reference 4.4e-15 to
    6.0e-15. On the basis built on the snapshots' distinct rows they
    read 4.3e-15 and 4.2e-15 at delta = 1e-4, 3.2e-15 and 5.6e-15 at
    1/64 (on the full-height basis 2.8e-15 and 4.8e-15, 2.7e-15 and
    4.9e-15). With the tensor built from probes they read 4.0e-15 and
    4.4e-15 at delta = 1e-4, 3.8e-15 and 5.5e-15 at 1/64."""
    ops = bench_ctx.operators(99, 1e-2)
    cfg = LROMConfig(dt=1e-2)
    filt = build_filter(ops.s_r, delta)
    states, iters = longdouble_run(ops, filt, cfg)
    scale = np.abs(states).max()
    traj = run(ops, filt, cfg)
    ref, ref_iters = reference_run(ops, filt, cfg)
    assert np.array_equal(traj.iter_counts, iters)
    assert np.array_equal(ref_iters, iters)
    assert np.abs(traj.states - states).max() <= 8e-15 * scale
    assert np.abs(ref - states).max() <= 1.2e-14 * scale


def test_zero_tensor_at_r1_takes_scalar_path(small_ctx):
    """At r = 1, T_111 = 0: rank 0, and one Picard iteration per step."""
    ops = small_ctx.operators(1, 1e-2)
    assert not ops.tensor.any()
    filt = build_filter(ops.s_r, 1e-2)
    cfg = LROMConfig(dt=1e-2)
    traj = run(ops, filt, cfg)
    states, iters = reference_run(ops, filt, cfg)
    assert traj.tensor_rank == 0
    assert np.all(iters == 1) and np.array_equal(traj.iter_counts, iters)
    assert np.abs(traj.states - states).max() <= 1e-12 * np.abs(states).max()


def test_semi_implicit_variant(small_ctx):
    ops = small_ctx.operators(R_SMALL, 1e-2)
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
    ops = small_ctx.operators(4, 5e-2)
    filt = build_filter(ops.s_r, 1e-2)
    traj = run(ops, filt, LROMConfig(dt=5e-2))
    assert traj.states.shape == (21, 4)
    assert np.array_equal(traj.states[0], ops.a0)
    assert np.all(traj.iter_counts >= 1)


def test_run_forcing_length_guard(small_ctx):
    ops = small_ctx.operators(4, 1e-1)
    filt = build_filter(ops.s_r, 0.0)
    with pytest.raises(ValueError):
        run(ops, filt, LROMConfig(dt=1e-2))


def test_energy_decay_without_forcing(small_ctx):
    """f = 0, skew advection and PSD stiffness: the implicit step is
    unconditionally dissipative."""
    ops = small_ctx.operators(R_SMALL, 1e-2)
    no_force = ROMOperators(s_r=ops.s_r, tensor=ops.tensor,
                            forcing=np.zeros((1001, R_SMALL)), a0=ops.a0)
    cfg = LROMConfig(dt=1e-3)
    traj = run(no_force, None, cfg)
    energy = np.sum(traj.states ** 2, axis=1)
    assert np.all(np.diff(energy) <= 1e-12 * energy[0])


def test_delta_continuity(small_ctx):
    ops = small_ctx.operators(R_SMALL, 1e-2)
    t0 = run(ops, build_filter(ops.s_r, 0.0), LROMConfig(dt=1e-2))
    t1 = run(ops, build_filter(ops.s_r, 1e-8), LROMConfig(dt=1e-2))
    assert np.abs(t0.states - t1.states).max() < 1e-6


def test_picard_nonconvergence_raises():
    """A strong synthetic nonlinearity with a single allowed iteration."""
    tensor = np.zeros((2, 2, 2))
    tensor[0, 1, 0], tensor[0, 0, 1] = 5.0, -5.0
    tensor[1, 0, 1], tensor[1, 1, 0] = 3.0, -3.0
    ops = ROMOperators(s_r=np.zeros((2, 2)), tensor=tensor,
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
    ops = ctx.operators(4, 0.1)
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
    ops = ROMOperators(s_r=np.zeros((1, 1)), tensor=np.zeros((1, 1, 1)),
                       forcing=np.full((3, 1), 1e9), a0=np.zeros(1))
    cfg = LROMConfig(dt=1.0, t_final=2.0)
    with pytest.raises(StepDivergenceError) as exc:
        run(ops, None, cfg)
    assert "blow-up" in str(exc.value)


def test_nonfinite_state_guard(small_ctx):
    ops = small_ctx.operators(4, 1e-1)
    cfg = LROMConfig(dt=1e-1)
    with pytest.raises(StepDivergenceError, match="non-finite state"):
        _one_step(ops, None, cfg, np.array([np.nan, 0.0, 0.0, 0.0]),
                  ops.forcing[1])


@pytest.mark.parametrize("path", ["scalar", "general"])
def test_nonfinite_a0_raises_entering_step_0(small_ctx, rng, path):
    ops = _ops_on_path(small_ctx, rng, path)
    a0 = ops.a0.copy()
    a0[2] = np.nan
    with pytest.raises(StepDivergenceError,
                       match="non-finite state entering step") as exc:
        run(replace(ops, a0=a0), build_filter(ops.s_r, 1e-2),
            LROMConfig(dt=1e-2))
    assert exc.value.step == 0


@pytest.mark.parametrize("linearization, message", [
    ("picard-implicit", "non-finite Picard residual"),
    ("semi-implicit", "semi-implicit solve produced non-finite state")])
@pytest.mark.parametrize("path", ["scalar", "general"])
def test_nan_forcing_row_raises_at_its_step(small_ctx, rng, path,
                                            linearization, message):
    """Step k = 3 reads the forcing row F_4; a NaN there fails step 3."""
    ops = _ops_on_path(small_ctx, rng, path)
    forcing = ops.forcing.copy()
    forcing[4, 1] = np.nan
    cfg = LROMConfig(dt=1e-2, linearization=linearization)
    with pytest.raises(StepDivergenceError, match=message) as exc:
        run(replace(ops, forcing=forcing), build_filter(ops.s_r, 1e-2), cfg)
    assert exc.value.step == 3


@pytest.mark.parametrize("r, signs", [(2, [1, 1]), (2, [-1, -1]),
                                      (16, [1, -1] * 8)])
def test_scalar_path_nonfinite_advecting_scalar(r, signs):
    """A finite a0 near overflow along w = (1, ..., 1)/sqrt(r) makes
    s = w.a0 non-finite: +-inf at r = 2, and at r = 16 with alternating
    signs NaN where the dot sums in several lanes (OpenBLAS's kernel
    does). The first Picard residual is then non-finite, and step 0
    fails with that message, with no RuntimeWarning on the way."""
    w = np.ones(r) / np.sqrt(r)
    skew = np.zeros((r, r))
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    ops = ROMOperators(s_r=np.eye(r), tensor=w[:, None, None] * skew,
                       forcing=np.zeros((3, r)),
                       a0=1.7e308 * np.array(signs, dtype=float))
    cfg = LROMConfig(dt=1.0, t_final=2.0)
    with pytest.raises(StepDivergenceError,
                       match="non-finite Picard residual") as exc:
        run(ops, None, cfg)
    assert exc.value.step == 0


def test_infinite_state_raises_under_infinite_blowup_bound():
    """1e6 |a0| overflows, so the blow-up bound is inf, and an inf state
    with no NaN must still raise. With T_0 = 0 and a0 along e_0 the
    advection vanishes, core = I/dt = 1e-300 I, and the semi-implicit
    solve of the general path overflows: a_1 = (1e10 + 1e3, 0, 0, 0)
    / 1e-300."""
    r = 4
    t = np.random.default_rng(4).standard_normal((r, r, r))
    t = t - t.mT
    t[0] = 0.0
    assert np.linalg.matrix_rank(t.reshape(r, -1)) == 3  # the general path
    ops = ROMOperators(s_r=np.zeros((r, r)), tensor=t,
                       forcing=np.array([[0.0] * r, [1e10, 0.0, 0.0, 0.0]]),
                       a0=np.array([1e303, 0.0, 0.0, 0.0]))
    cfg = LROMConfig(dt=1e300, t_final=1e300, linearization="semi-implicit")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            StepDivergenceError, match="non-finite state") as exc:
        run(ops, None, cfg)
    assert exc.value.step == 0


def test_norm_rescales_only_an_overflowing_square():
    """Below overflow _norm is sqrt(x.x) bit for bit, as np.linalg.norm;
    when x.x overflows it is still the finite |x|. run calls it with
    overflow warnings off."""
    x = np.random.default_rng(7).standard_normal(50)
    assert _norm(x) == np.linalg.norm(x)
    with np.errstate(over="ignore"):
        assert _norm(np.array([3e200, -4e200])) \
            == pytest.approx(5e200, rel=1e-15)
        assert _norm(np.array([np.inf, 1.0])) == np.inf
    assert np.isnan(_norm(np.array([np.nan, 1.0])))


@pytest.mark.parametrize("path", ["scalar", "general"])
def test_picard_residual_when_squares_overflow(small_ctx, rng, path):
    """a0 and F times lam = 2**530 with T / lam scale the trajectory by
    lam, and |rhs|^2 overflows. The residual used to read 0 there (one
    Picard iteration per step, and states 8% off on the scalar path) or
    raise (general path); now the iteration counts are the unscaled
    run's, with no overflow warning."""
    ops = _ops_on_path(small_ctx, rng, path)
    lam = 2.0 ** 530
    big = replace(ops, tensor=ops.tensor / lam, forcing=ops.forcing * lam,
                  a0=ops.a0 * lam)
    filt = build_filter(ops.s_r, 1e-2)
    cfg = LROMConfig(dt=1e-2)
    ref = run(ops, filt, cfg)
    traj = run(big, filt, cfg)
    assert np.array_equal(traj.iter_counts, ref.iter_counts)
    assert ref.iter_counts.max() > 1
    assert np.all(np.isfinite(traj.residuals))
    assert np.abs(traj.states / lam - ref.states).max() \
        <= 1e-12 * np.abs(ref.states).max()


def test_stability_check(small_ctx):
    ops = small_ctx.operators(4, 1e-1)
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


def test_stability_check_matches_einsum_oracle(small_ctx, rng):
    """The one-GEMM ledger against the einsum sum of its quadratic forms,
    on a small_ctx trajectory and on a random r = 7 state series."""
    ops = small_ctx.operators(R_SMALL, 1e-2)
    cfg = LROMConfig(dt=1e-2)
    traj = run(ops, build_filter(ops.s_r, 1e-2), cfg)
    g = rng.standard_normal((7, 7))
    states = rng.standard_normal((41, 7))
    rand_ops = ROMOperators(s_r=g @ g.T, tensor=np.zeros((7, 7, 7)),
                            forcing=np.zeros((41, 7)), a0=states[0])
    rand_traj = ROMTrajectory(states=states, iter_counts=np.ones(40, int),
                              residuals=np.zeros(40), tensor_rank=0)
    rand_cfg = LROMConfig(dt=2.5e-2)
    for t, o, c in [(traj, ops, cfg), (rand_traj, rand_ops, rand_cfg)]:
        ref = energy_ledger_einsum(t.states, o.s_r, c.dt)
        series = stability_check(t, o, c)
        assert series.shape == ref.shape
        assert np.all(np.abs(series - ref) <= 1e-14 * ref)
