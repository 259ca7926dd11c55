import numpy as np
import pytest

from oracles import l2_norm
from romlab.exact import AnalyticSolution
from romlab.pod import (build_pod_basis, cache_path, collect_snapshots,
                        correlation_matrix, default_times, load_pod_cache,
                        project_Pr, save_pod_cache, symmetric_eig,
                        truncation_errors)


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


def test_collect_snapshots_validation(small):
    sol = AnalyticSolution()
    with pytest.raises(ValueError):
        collect_snapshots(small.space, sol, [])
    with pytest.raises(ValueError):
        collect_snapshots(small.space, sol, [0.0, 0.5, 0.5])


def test_collect_snapshots_columns(small):
    from romlab.fe import interpolate
    k = 10
    t = small.times[k]
    u = interpolate(small.space, small.solution.velocity, t)
    assert small.snapshots.shape == (small.space.n_dofs, small.times.size)
    assert np.array_equal(small.snapshots[:, k], u)


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
    """Mean squared norms of u - Phi Phi^T M u, formed in the FE space."""
    w = u - basis.modes @ (basis.modes.T @ (m_op @ u))
    return np.array([np.mean(np.sum(w * (op @ w), axis=0))
                     for op in (m_op, s_op)])


def test_snapshot_coords_and_residual_energy(small):
    """snap_coords is Phi^T M U, and residual_energy the mean squared
    norms of the snapshots' parts outside span(Phi): roundoff on the
    full basis (the 21 snapshots have rank 15), exactly 0 when d = K,
    and the FE-space value on a 6-mode basis."""
    basis, u = small.basis, small.snapshots
    direct = basis.modes.T @ (small.m_op @ u)
    assert basis.snap_coords.shape == (basis.d, u.shape[1])
    assert np.abs(basis.snap_coords - direct).max() \
        < 1e-13 * np.abs(direct).max()
    energy = np.array([np.mean(np.sum(u * (op @ u), axis=0))
                       for op in (small.m_op, small.s_op)])
    assert np.all(0 <= basis.residual_energy)
    assert np.all(basis.residual_energy < 1e-20 * energy)
    full_rank = build_pod_basis(u[:, ::2], small.m_op, small.s_op)
    assert full_rank.d == u[:, ::2].shape[1]
    assert np.array_equal(full_rank.residual_energy, [0.0, 0.0])
    lam = basis.eigenvalues
    six = build_pod_basis(u, small.m_op, small.s_op,
                          rank_tol=np.sqrt(lam[5] * lam[6]) / lam[0])
    assert six.d == 6
    want = _fe_residual_energy(six, u, small.m_op, small.s_op)
    assert np.all(want > [1e-3, 1.0])
    np.testing.assert_allclose(six.residual_energy, want, rtol=1e-12)


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


def test_cache_roundtrip(tmp_path, small):
    m = small.snapshots.shape[1] - 1
    path = cache_path(tmp_path, small.n, 0.05, m)
    save_pod_cache(path, small.basis, small.n, 0.05, m)
    loaded = load_pod_cache(path, small.n, 0.05, m)
    assert loaded is not None
    for name in ("eigenvalues", "modes", "grad_gram", "snap_coords",
                 "residual_energy"):
        assert np.array_equal(getattr(loaded, name),
                              getattr(small.basis, name)), name
    assert loaded.snap_coords.shape == (small.basis.d, m + 1)
    assert loaded.residual_energy.shape == (2,)
    # a basis from another snapshot count is refused, not written
    with pytest.raises(ValueError, match="snapshots"):
        save_pod_cache(path, small.basis, small.n, 0.05, m + 1)
    assert list(tmp_path.iterdir()) == [path]  # no temp files left behind


def test_cache_mismatch_and_corruption(tmp_path, small):
    m = small.snapshots.shape[1] - 1
    path = cache_path(tmp_path, small.n, 0.05, m)
    save_pod_cache(path, small.basis, small.n, 0.05, m)
    assert load_pod_cache(path, small.n + 1, 0.05, m) is None
    assert load_pod_cache(path, small.n, 0.01, m) is None
    assert load_pod_cache(path, small.n, 0.05, m + 2) is None
    assert load_pod_cache(tmp_path / "missing.rlpod", small.n, 0.05, m) is None
    # truncated file
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    assert load_pod_cache(path, small.n, 0.05, m) is None
    # wrong magic
    path.write_bytes(b"XXXXXXXX" + data[8:])
    assert load_pod_cache(path, small.n, 0.05, m) is None
    # the older layouts: V2 also stored the correlation eigenvectors,
    # V3 lacked the snapshot coordinates and residual energies
    for magic in (b"RLPODV2\0", b"RLPODV3\0"):
        path.write_bytes(magic + data[8:])
        assert load_pod_cache(path, small.n, 0.05, m) is None
