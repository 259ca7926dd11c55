import tracemalloc

import numpy as np
import pytest

from oracles import (correlation_matrix, interpolate, l2_norm, project_Pr,
                     symmetric_eig)
from romlab import pod
from romlab.exact import AnalyticSolution
from romlab.fe import assemble_mass, assemble_stiffness, build_space
from romlab.pod import (build_pod_basis, collect_snapshots, default_times,
                        truncation_errors)


def _ensemble(n):
    """The 101 benchmark snapshots on [0, 1] at mesh size n, with the
    FE mass and stiffness."""
    space = build_space(n)
    u = collect_snapshots(space, AnalyticSolution(), default_times(0.01, 1.0))
    return u, assemble_mass(space), assemble_stiffness(space)


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
    """The broadcast grid evaluation equals each column's interpolant."""
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
    snaps = collect_snapshots(small.space, small.solution, [0.4])
    basis = build_pod_basis(snaps, small.m_op, small.s_op)
    assert basis.d == 1
    u = snaps[:, 0]
    nrm = l2_norm(small.m_op, u)
    assert abs(basis.eigenvalues[0] - nrm ** 2) < 1e-12 * nrm ** 2
    assert np.abs(np.abs(basis.modes[:, 0]) - np.abs(u) / nrm).max() < 1e-10


def test_modes_orthonormal(small):
    phi = small.basis.modes
    gram = phi.T @ (small.m_op @ phi)
    assert np.abs(gram - np.eye(small.basis.d)).max() < 1e-10


def _fe_residual_energy(basis, u, m_op, s_op):
    """Squared norms of each column of u - Phi Phi^T M u, formed in the
    FE space: shape (2, K)."""
    w = u - basis.modes @ (basis.modes.T @ (m_op @ u))
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
    direct = basis.modes.T @ (small.m_op @ u)
    assert basis.snap_coords.shape == (basis.d, u.shape[1])
    assert np.abs(basis.snap_coords - direct).max() \
        < 1e-13 * np.abs(direct).max()
    energy = np.array([np.mean(np.sum(u * (op @ u), axis=0))
                       for op in (small.m_op, small.s_op)])
    assert basis.residual_energy.shape == (2, u.shape[1])
    assert np.all(0 <= basis.residual_energy)
    assert np.all(basis.residual_energy < 1e-20 * energy[:, None])
    full_rank = build_pod_basis(u[:, ::2], small.m_op, small.s_op)
    assert full_rank.d == u[:, ::2].shape[1]
    assert np.array_equal(full_rank.residual_energy,
                          np.zeros((2, full_rank.d)))
    lam = basis.eigenvalues
    six = build_pod_basis(u, small.m_op, small.s_op,
                          rank_tol=np.sqrt(lam[5] * lam[6]) / lam[0])
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
    u, m_op, s_op = _ensemble(n)
    if block_bytes is not None:
        monkeypatch.setattr(pod, "BLOCK_BYTES", block_bytes)
    tracemalloc.start()
    try:
        basis = build_pod_basis(u, m_op, s_op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.d == d
    assert peak <= 1.1 * u.nbytes, peak / u.nbytes


def test_pod_block_streaming_invariant(monkeypatch):
    """The basis does not depend on the block budget beyond roundoff:
    64 KB blocks (105 at n = 32) against the shipped budget's four, on
    the full basis and on a 6-mode one, whose residual energies are far
    above roundoff."""
    u, m_op, s_op = _ensemble(32)
    full = build_pod_basis(u, m_op, s_op)
    lam = full.eigenvalues
    six_tol = np.sqrt(lam[5] * lam[6]) / lam[0]
    want = [full, build_pod_basis(u, m_op, s_op, rank_tol=six_tol)]
    monkeypatch.setattr(pod, "BLOCK_BYTES", 1 << 16)
    got = [build_pod_basis(u, m_op, s_op),
           build_pod_basis(u, m_op, s_op, rank_tol=six_tol)]
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
    u, m_op, s_op = _ensemble(2)
    with pytest.raises(ValueError, match="rank_tol"):
        build_pod_basis(u, m_op, s_op, rank_tol=rank_tol)


def test_degenerate_ensemble_raises(small):
    zero = np.zeros((small.space.n_dofs, 1))
    with pytest.raises(ValueError):
        build_pod_basis(zero, small.m_op, small.s_op)


def test_truncation_error_matches_projection(small):
    """Tail eigenvalue sums equal the mean squared projection errors,
    computed here by explicit projection."""
    basis, m_op = small.basis, small.m_op
    u = small.snapshots
    for r in (2, 5, 10):
        lam_l2, lam_h1 = truncation_errors(basis, r)
        phi = basis.modes[:, :r]
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
    phi = small.basis.modes
    direct = phi[:, :3].T @ (small.s_op @ phi[:, :3])
    assert np.abs(s3 - direct).max() < 1e-10


def test_truncation_errors_h1_weights(small):
    """Lambda_H1 weighs each tail eigenvalue by the full squared H1 norm
    of its mode, 1 + phi_j^T S phi_j with the FE stiffness S."""
    basis, phi = small.basis, small.basis.modes
    h1_sq = 1.0 + np.einsum("ij,ij->j", phi, small.s_op @ phi)
    for r in (0, 3, basis.d - 1):
        want = float(np.sum(h1_sq[r:] * basis.eigenvalues[r:]))
        assert abs(truncation_errors(basis, r)[1] - want) <= 1e-12 * want


def test_project_pr_reproduces_rom_fields(small, rng):
    r = 6
    c = rng.standard_normal(r)
    v = small.basis.modes[:, :r] @ c
    a = project_Pr(small.basis, r, small.m_op, v)
    assert np.abs(a - c).max() < 1e-10
    # projection never increases the L2 norm
    for _ in range(20):
        w = rng.standard_normal(small.space.n_dofs)
        a = project_Pr(small.basis, r, small.m_op, w)
        assert np.linalg.norm(a) <= l2_norm(small.m_op, w) * (1 + 1e-10)

