import tracemalloc

import numpy as np
import pytest

from oracles import (correlation_matrix, full_modes, interpolate, l2_norm,
                     project_Pr, symmetric_eig)
from romlab import pod
from romlab.exact import AnalyticSolution
from romlab.fe import assemble_mass, assemble_stiffness, build_space
from romlab.pod import (build_pod_basis, collapse, collect_snapshots,
                        default_times, truncation_errors)
from romlab.rom import build_trilinear_tensor, project_forcing
from romlab.study import StudyConfig, build_context


def _ensemble(n):
    """The 101 benchmark snapshots on [0, 1] at mesh size n at full
    height, U = u[rows] (N, K), with the identity row map arange(N) and
    the FE mass and stiffness: the build of a flow that broadcasts along
    no axis."""
    space = build_space(n)
    u, rows = collect_snapshots(space, AnalyticSolution(),
                                default_times(0.01, 1.0))
    return (u[rows], np.arange(space.n_dofs), assemble_mass(space),
            assemble_stiffness(space))


def test_default_times():
    t = default_times(1e-2, 1.0)
    assert t.size == 101
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.allclose(np.diff(t), 1e-2)
    # 1/0.03 is not an integer: refuse instead of rounding the spacing
    with pytest.raises(ValueError, match="multiple"):
        default_times(0.03, 1.0)
    # t_final below one spacing rounds to 0 steps: refuse, not [0.]
    with pytest.raises(ValueError, match="multiple"):
        default_times(1e-2, 1e-12)


def test_default_times_rejects_2_53_levels_or_more():
    """From t_final/dt_snap = 2**53 on, every float ratio is an integer:
    such a grid used to pass the multiple test and fail in np.linspace.
    The ratio is rejected before any array is made."""
    with pytest.raises(ValueError, match=r"t_final/dt_snap = .* 2\*\*53"):
        default_times(1e-300, 1.0)


def test_collect_snapshots_validation(small):
    sol = AnalyticSolution()
    with pytest.raises(ValueError):
        collect_snapshots(small.space, sol, [])
    with pytest.raises(ValueError):
        collect_snapshots(small.space, sol, [0.0, 0.5, 0.5])


def test_collect_snapshots_columns(small):
    """The broadcast grid evaluation equals each column's interpolant.
    u = g(y, t) keeps one row per y and v = g(x, t) one per x, so the
    snapshots are 2m distinct rows."""
    m = 2 * small.n + 1
    distinct, rows = collect_snapshots(small.space, small.solution,
                                       small.times)
    assert distinct.shape == (2 * m, small.times.size)
    grid = rows.reshape(2, m, m)     # (component, y, x)
    assert np.array_equal(grid[0], np.broadcast_to(np.arange(m)[:, None],
                                                   (m, m)))
    assert np.array_equal(grid[1], np.broadcast_to(m + np.arange(m), (m, m)))
    assert small.snapshots.shape == (small.space.n_dofs, small.times.size)
    for k, t in enumerate(small.times):
        u = interpolate(small.space, small.solution.velocity, t)
        assert np.array_equal(small.snapshots[:, k], u)


def test_collect_snapshots_rejects_nonfinite(small):
    class Bad:
        def velocity(self, x, y, t):
            return np.nan * (x + t), y + t
    with pytest.raises(ValueError, match="non-finite"):
        collect_snapshots(small.space, Bad(), [0.0, 0.5])


class _FullGrid(AnalyticSolution):
    """The benchmark flow with velocity components on the full (m, m, K)
    grid: nothing broadcasts."""

    def velocity(self, x, y, t):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
        return tuple(np.broadcast_to(c, shape).copy()
                     for c in super().velocity(x, y, t))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_collapse_matches_dense_product(n):
    """collapse(op, rows) is P^T op P: for the benchmark flow's row map
    within roundoff of the dense product (the sums run in another
    order), and for the identity map op itself, bit for bit."""
    space = build_space(n)
    _, rows = collect_snapshots(space, AnalyticSolution(), [0.0, 0.5])
    p = np.zeros((space.n_dofs, 2 * (2 * n + 1)))    # P[i, rows[i]] = 1
    p[np.arange(space.n_dofs), rows] = 1.0
    for op in (assemble_mass(space), assemble_stiffness(space)):
        dense = op.toarray()
        got = collapse(op, rows)
        assert got.shape == (p.shape[1],) * 2
        want = p.T @ dense @ p
        assert np.abs(got.toarray() - want).max() \
            <= 1e-15 * np.abs(want).max()
        ident = collapse(op, np.arange(space.n_dofs))
        assert np.array_equal(ident.toarray(), dense)


def test_one_path_for_a_flow_that_does_not_broadcast():
    """A velocity on the full grid gives rows = arange(N) and goes
    through the same functions, with the operators collapsed by the
    identity map. At n = 8, on the 101 benchmark snapshots, its basis
    equals the broadcast path's within 1e-13 relative: the full basis's
    (d = 15) eigenvalues, grad_gram, snap_coords, leading six expanded
    modes and r = 6 tensor and forcing; its residual_energy, roundoff
    in both, against the mean snapshot energy; and all five arrays of
    a 6-mode basis, whose residual energies are far above roundoff. The
    full basis's trailing modes are left out: small eigenvalue gaps
    amplify the two paths' summation orders there to 6.4e-14 to 8.5e-14
    of max |Phi| (modes 9, 10, 14 and 15; the leading six, at most
    3.3e-15)."""
    space = build_space(8)
    m_op, s_op = assemble_mass(space), assemble_stiffness(space)
    times = default_times(0.01, 1.0)
    bases = []
    for sol in (AnalyticSolution(), _FullGrid()):
        u, rows = collect_snapshots(space, sol, times)
        ops = collapse(m_op, rows), collapse(s_op, rows)
        full = build_pod_basis(u, rows, *ops)
        lam = full.eigenvalues
        six = build_pod_basis(u, rows, *ops,
                              rank_tol=np.sqrt(lam[5] * lam[6]) / lam[0])
        bases.append((full, six))
    (full, six), (full_ref, six_ref) = bases
    assert full.modes.shape[0] == 2 * 17
    assert np.array_equal(full_ref.rows, np.arange(space.n_dofs))
    assert full.d == full_ref.d == 15 and six.d == six_ref.d == 6

    def close(got, want, scale=None):
        scale = np.abs(want).max() if scale is None else scale
        return np.abs(got - want).max() <= 1e-13 * scale

    for name in ("eigenvalues", "grad_gram", "snap_coords"):
        assert close(getattr(full, name), getattr(full_ref, name)), name
    # u is the full grid's (N, K): the snapshots' mean squared L2 norm
    # and H1 seminorm scale the two rows of residual_energy
    for op, got, want in zip((m_op, s_op), full.residual_energy,
                             full_ref.residual_energy):
        assert close(got, want, np.mean(np.sum(u * (op @ u), axis=0)))
    assert close(full_modes(full)[:, :6], full_modes(full_ref)[:, :6])
    for name in ("eigenvalues", "grad_gram", "snap_coords",
                 "residual_energy"):
        assert close(getattr(six, name), getattr(six_ref, name)), name
    assert close(full_modes(six), full_modes(six_ref))
    assert close(build_trilinear_tensor(full, 6, space),
                 build_trilinear_tensor(full_ref, 6, space))
    sol = AnalyticSolution()
    assert close(project_forcing(full, 6, m_op, sol, times, space),
                 project_forcing(full_ref, 6, m_op, sol, times, space))


def test_correlation_matrix_properties(small):
    k = correlation_matrix(small.snapshots, small.m_op)
    mp1 = small.snapshots.shape[1]
    assert k.shape == (mp1, mp1)
    assert np.abs(k - k.T).max() == 0.0
    # trace identity: (M+1) tr K = sum_k |u_k|^2
    energies = [l2_norm(small.m_op, small.snapshots[:, j]) ** 2
                for j in range(mp1)]
    assert abs(mp1 * np.trace(k) - sum(energies)) < 1e-12 * sum(energies)
    # diagonal entries are snapshot energies / (M+1)
    assert np.allclose(np.diag(k) * mp1, energies, rtol=1e-12)


def test_symmetric_eig_examples():
    vals, vecs = symmetric_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-14)
    assert abs(abs(vecs[:, 0] @ [1, 1] / np.sqrt(2)) - 1) < 1e-14
    vals, vecs = symmetric_eig(np.eye(3))
    assert np.allclose(vals, 1.0)


def test_symmetric_eig_reconstruction(rng):
    a = rng.standard_normal((20, 20))
    a = a + a.T
    vals, vecs = symmetric_eig(a)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.abs(vecs @ np.diag(vals) @ vecs.T - a).max() < 1e-9
    assert np.abs(vecs.T @ vecs - np.eye(20)).max() < 1e-12


def test_symmetric_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_single_snapshot_basis(small):
    snaps, rows = collect_snapshots(small.space, small.solution, [0.4])
    basis = build_pod_basis(snaps, rows, collapse(small.m_op, rows),
                            collapse(small.s_op, rows))
    assert basis.d == 1
    u = snaps[rows, 0]
    nrm = l2_norm(small.m_op, u)
    assert abs(basis.eigenvalues[0] - nrm ** 2) < 1e-12 * nrm ** 2
    assert np.abs(np.abs(full_modes(basis)[:, 0]) - np.abs(u) / nrm).max() \
        < 1e-10


def test_modes_orthonormal(small):
    phi = full_modes(small.basis)
    gram = phi.T @ (small.m_op @ phi)
    assert np.abs(gram - np.eye(small.basis.d)).max() < 1e-10


def _fe_residual_energy(basis, u, m_op, s_op):
    """Squared norms of each column of u - Phi Phi^T M u, formed in the
    FE space: shape (2, K)."""
    phi = full_modes(basis)
    w = u - phi @ (phi.T @ (m_op @ u))
    return np.array([np.sum(w * (op @ w), axis=0) for op in (m_op, s_op)])


def _trace_residual_energy(u, m_op, s_op, d):
    """Mean squared norms of the snapshots' parts outside the span of
    the d leading POD modes, as the traces tr(Z^T op Z) / K of
    Z = U V over the dropped correlation eigenvectors V."""
    z = u @ symmetric_eig(correlation_matrix(u, m_op))[1][:, d:]
    return np.array([np.einsum("ij,ij->", z, op @ z)
                     for op in (m_op, s_op)]) / u.shape[1]


def test_snapshot_coords_and_residual_energy(small):
    """snap_coords is Phi^T M U, and residual_energy holds the squared
    norms of each snapshot's part outside span(Phi): roundoff on the
    full basis (the 21 snapshots have rank 15), exactly 0 when d = K,
    and the FE-space values on a 6-mode basis, whose mean is the trace
    of the dropped block of the snapshot Gram matrices."""
    basis, u = small.basis, small.snapshots
    direct = full_modes(basis).T @ (small.m_op @ u)
    assert basis.snap_coords.shape == (basis.d, u.shape[1])
    assert np.abs(basis.snap_coords - direct).max() \
        < 1e-13 * np.abs(direct).max()
    energy = np.array([np.mean(np.sum(u * (op @ u), axis=0))
                       for op in (small.m_op, small.s_op)])
    assert basis.residual_energy.shape == (2, u.shape[1])
    assert np.all(0 <= basis.residual_energy)
    assert np.all(basis.residual_energy < 1e-20 * energy[:, None])
    full_rank = small.pod(np.s_[::2])
    assert full_rank.d == u[:, ::2].shape[1]
    assert np.array_equal(full_rank.residual_energy,
                          np.zeros((2, full_rank.d)))
    lam = basis.eigenvalues
    six = small.pod(rank_tol=np.sqrt(lam[5] * lam[6]) / lam[0])
    assert six.d == 6
    want = _fe_residual_energy(six, u, small.m_op, small.s_op)
    assert np.all(want.mean(axis=1) > [1e-3, 1.0])
    np.testing.assert_allclose(six.residual_energy, want, rtol=1e-12)
    # the two differ in summation order only: 4.1e-15 and 3.3e-15
    # relative, as do tr(Z^T op Z) by one GEMM and by one einsum
    np.testing.assert_allclose(
        six.residual_energy.mean(axis=1),
        _trace_residual_energy(u, small.m_op, small.s_op, 6), rtol=1e-14)


@pytest.mark.parametrize("n, d, block_bytes", [
    pytest.param(16, 31, 1 << 16, id="16-31"),
    pytest.param(32, 63, 1 << 16, id="32-63"),
    pytest.param(32, 63, None, id="32-63-shipped")])
def test_build_holds_one_snapshot_sized_array(monkeypatch, n, d,
                                              block_bytes):
    """Next to the snapshots U, the build holds one more N x K array at
    a time (M U, then U V over the dropped eigenvectors V, then the
    modes) and one row block: with 64 KB blocks, and with the shipped
    budget's four at n = 32, it allocates at most 1.1 |U| beyond its
    input. A build that held M Phi, or the old and the corrected modes,
    next to the modes peaked at 1.50 |U| (n = 16) and 1.30 |U|
    (n = 32). At the shipped budget U V and the modes are written block
    by block into their arrays (measured 1.012 |U|); whole-height
    products U C beside 16 MB blocks peaked at 1.295 |U| (1.645 at
    n = 64, against 1.113 in row blocks). Both ensembles have d < K, so
    the residual pass is streamed too. At n = 8 the K x K correlation
    product alone is 0.18 |U|, so the bound would measure the small
    arrays there."""
    u, rows, m_op, s_op = _ensemble(n)
    if block_bytes is not None:
        monkeypatch.setattr(pod, "BLOCK_BYTES", block_bytes)
    tracemalloc.start()
    try:
        basis = build_pod_basis(u, rows, m_op, s_op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.d == d
    assert peak <= 1.1 * u.nbytes, peak / u.nbytes


def test_context_build_holds_no_snapshot_sized_array():
    """build_context runs the POD on the snapshots' 2m distinct rows and
    never forms an N x K array: at n = 32 it allocates at most 0.75 of
    one 8 N K snapshot array (measured 0.51; 2.36 when the POD ran on
    the full-height snapshots)."""
    n = 32
    cfg = StudyConfig(kind="filter-delta", mesh_n=n)
    tracemalloc.start()
    try:
        ctx = build_context(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    snapshots = 8 * ctx.space.n_dofs * ctx.basis.snap_coords.shape[1]
    assert ctx.basis.modes.shape[0] == 2 * (2 * n + 1)
    assert peak <= 0.75 * snapshots, peak / snapshots


def test_pod_block_streaming_invariant(monkeypatch):
    """The basis does not depend on the block budget beyond roundoff:
    64 KB blocks (105 at n = 32) against the shipped budget's four, on
    the full basis and on a 6-mode one, whose residual energies are far
    above roundoff."""
    u, rows, m_op, s_op = _ensemble(32)
    full = build_pod_basis(u, rows, m_op, s_op)
    lam = full.eigenvalues
    six_tol = np.sqrt(lam[5] * lam[6]) / lam[0]
    want = [full, build_pod_basis(u, rows, m_op, s_op, rank_tol=six_tol)]
    monkeypatch.setattr(pod, "BLOCK_BYTES", 1 << 16)
    got = [build_pod_basis(u, rows, m_op, s_op),
           build_pod_basis(u, rows, m_op, s_op, rank_tol=six_tol)]
    for a, b in zip(want, got):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        for name in ("modes", "grad_gram", "snap_coords", "residual_energy"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.abs(x - y).max() <= 1e-13 * np.abs(x).max(), name


@pytest.mark.parametrize("rank_tol", [-1.0, np.nan])
def test_build_pod_basis_rejects_bad_rank_tol(rank_tol):
    """A negative rank_tol kept every eigenvalue, the negative roundoff
    ones too, whose square roots made NaN modes; NaN kept none and read
    as an ensemble with all eigenvalues below tolerance."""
    u, rows, m_op, s_op = _ensemble(2)
    with pytest.raises(ValueError, match="rank_tol"):
        build_pod_basis(u, rows, m_op, s_op, rank_tol=rank_tol)


def test_degenerate_ensemble_raises(small):
    zero = np.zeros((small.space.n_dofs, 1))
    with pytest.raises(ValueError):
        build_pod_basis(zero, np.arange(small.space.n_dofs), small.m_op,
                        small.s_op)


def test_truncation_error_matches_projection(small):
    """Tail eigenvalue sums equal the mean squared projection errors,
    computed here by explicit projection."""
    basis, m_op = small.basis, small.m_op
    u = small.snapshots
    for r in (2, 5, 10):
        lam_l2, lam_h1 = truncation_errors(basis, r)
        phi = full_modes(basis)[:, :r]
        err = u - phi @ (phi.T @ (m_op @ u))
        mean_l2 = np.mean(np.sum(err * (m_op @ err), axis=0))
        assert abs(mean_l2 - lam_l2) <= 1e-8 * lam_l2
        # full H1 norm of the error reproduces the weighted tail sum
        mean_h1 = np.mean(np.sum(err * (small.s_op @ err), axis=0)) \
            + mean_l2
        assert abs(mean_h1 - lam_h1) <= 1e-6 * lam_h1


def test_truncation_monotone(small):
    vals = [truncation_errors(small.basis, r) for r in range(small.basis.d + 1)]
    l2 = [v[0] for v in vals]
    h1 = [v[1] for v in vals]
    assert all(a >= b - 1e-15 for a, b in zip(l2, l2[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(h1, h1[1:]))
    assert l2[-1] < 1e-12 * l2[0]
    with pytest.raises(ValueError):
        truncation_errors(small.basis, small.basis.d + 1)


def test_grad_gram_nested(small):
    """The leading blocks of grad_gram are the reduced stiffnesses S_r.
    The spectrum of S_3 interlaces that of S_8 (Cauchy), so the 2-norm
    grows with r."""
    gram = small.basis.grad_gram
    assert np.array_equal(gram, gram.T)
    s3, s8 = gram[:3, :3], gram[:8, :8]
    mu3, mu8 = np.linalg.eigvalsh(s3), np.linalg.eigvalsh(s8)
    tol = 1e-12 * mu8[-1]
    assert np.all(mu8[:3] <= mu3 + tol) and np.all(mu3 <= mu8[5:] + tol)
    # entries are gradient inner products of the modes
    phi = full_modes(small.basis)
    direct = phi[:, :3].T @ (small.s_op @ phi[:, :3])
    assert np.abs(s3 - direct).max() < 1e-10


def test_truncation_errors_h1_weights(small):
    """Lambda_H1 weighs each tail eigenvalue by the full squared H1 norm
    of its mode, 1 + phi_j^T S phi_j with the FE stiffness S."""
    basis, phi = small.basis, full_modes(small.basis)
    h1_sq = 1.0 + np.einsum("ij,ij->j", phi, small.s_op @ phi)
    for r in (0, 3, basis.d - 1):
        want = float(np.sum(h1_sq[r:] * basis.eigenvalues[r:]))
        assert abs(truncation_errors(basis, r)[1] - want) <= 1e-12 * want


def test_project_pr_reproduces_rom_fields(small, rng):
    r = 6
    c = rng.standard_normal(r)
    v = full_modes(small.basis)[:, :r] @ c
    a = project_Pr(small.basis, r, small.m_op, v)
    assert np.abs(a - c).max() < 1e-10
    # projection never increases the L2 norm
    for _ in range(20):
        w = rng.standard_normal(small.space.n_dofs)
        a = project_Pr(small.basis, r, small.m_op, w)
        assert np.linalg.norm(a) <= l2_norm(small.m_op, w) * (1 + 1e-10)

