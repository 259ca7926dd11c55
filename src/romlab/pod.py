"""Proper orthogonal decomposition via the method of snapshots.

Snapshots are nodal interpolants of the analytic velocity, inner
products are taken with the FE mass operator (L2), and the basis comes
from the eigendecomposition of the (M+1) x (M+1) snapshot correlation
matrix. No centering is applied.
"""

import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fe import VelocitySpace

__all__ = [
    "collect_snapshots",
    "PODBasis",
    "build_pod_basis",
    "truncation_errors",
]


def grid_steps(t_final: float, step: float, name: str = "dt") -> int:
    """The number of steps of size step from 0 to t_final, the one time
    grid rule: a positive integer below 2**53, with t_final/step within
    1e-9 of it. name is the step's name in the error messages."""
    # before the division; a float must hold both
    if not all(0 < v <= sys.float_info.max for v in (t_final, step)):
        raise ValueError(f"t_final and {name} must be positive and finite, "
                         f"got t_final={t_final}, {name}={step}")
    ratio = t_final / step
    # from 2**53 on every float is an integer, so the multiple test below
    # cannot fail, and the time grid would not fit
    if not ratio < 2 ** 53:
        raise ValueError(f"t_final/{name} = {ratio:g} must be below 2**53")
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9:
        raise ValueError(f"t_final must be a positive integer multiple of "
                         f"{name}, got {name}={step}")
    return steps


def default_times(dt_snap: float, t_final: float) -> np.ndarray:
    """Equispaced snapshot times 0, dt_snap, ..., t_final."""
    return np.linspace(0.0, t_final,
                       grid_steps(t_final, dt_snap, "dt_snap") + 1)


def collect_snapshots(space: VelocitySpace, solution, times) -> np.ndarray:
    """The nodal interpolants of the exact velocity at the given times:
    an (N, K) array with one snapshot per column. The velocity is called
    once on broadcast (y, x, t) axes of the y-major node grid."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty snapshot time list")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("snapshot times must be strictly increasing")
    side = space.grid_side()
    m = side.size
    vel = solution.velocity(side[None, :, None], side[:, None, None], times)
    if not all(np.all(np.isfinite(c)) for c in vel):
        raise ValueError("function evaluation produced non-finite nodal values")
    cols = np.empty((2, m, m, times.size))    # (N, K) in dof order
    cols[0], cols[1] = vel
    return cols.reshape(space.n_dofs, times.size)


@dataclass(frozen=True)
class PODBasis:
    """L2-orthonormal POD modes with their energies.

    Attributes
    ----------
    eigenvalues : (d,) descending energies of the correlation matrix.
    modes : (N, d) mode coefficient vectors, columns L2-orthonormal.
    grad_gram : (d, d) Gram matrix of mode gradients; its leading r x r
        block is the reduced stiffness S_r for any r <= d, and its
        diagonal holds the squared H1 seminorms of the modes.
    snap_coords : (d, K) POD coordinates Phi^T M U of the K snapshots U;
        in a study, column 0 is t = 0 and column K - 1 is t_final.
    residual_energy : (2, K) squared L2 norm and H1 seminorm of each
        snapshot's part outside span(Phi), w = u - Phi Phi^T M u; all
        are 0 when d = K.

    snap_coords and residual_energy belong to the basis as built: a
    basis with fewer modes comes from a larger rank_tol, not from
    slicing the per-mode arrays. Every array is read-only, as a study
    context hands out views of them.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    grad_gram: np.ndarray
    snap_coords: np.ndarray
    residual_energy: np.ndarray

    @property
    def d(self) -> int:
        return self.eigenvalues.size


# Budget of one row block of the POD's passes after the correlation
# matrix; the tensor and the forcing have their own, rom.BLOCK_BYTES.
# Whole-height GEMMs make OpenBLAS's threads touch about 20 MB of their
# buffers, and 16 MB temporaries stay resident on the heap once the
# mmap threshold has risen. At n = 64 the `online` benchmark peaked at
# 124, 125, 128, 133 and 153 MB with 1, 2, 4, 8 and 16 MB blocks, and
# 1 MB blocks made the POD at n = 128 about 5% slower.
BLOCK_BYTES = 2 * 2 ** 20


def _row_block(op: sp.csr_matrix, rows: slice) -> sp.csr_matrix:
    """The given rows of op, on views of its index and value arrays."""
    ptr = op.indptr[rows.start:rows.stop + 1]
    return sp.csr_matrix((op.data[ptr[0]:ptr[-1]], op.indices[ptr[0]:ptr[-1]],
                          ptr - ptr[0]), shape=(ptr.size - 1, op.shape[1]))


def build_pod_basis(u: np.ndarray, m_op: sp.csr_matrix,
                    s_op: sp.csr_matrix, rank_tol: float = 1e-14) -> PODBasis:
    """Eigendecompose the correlation matrix of the (N, K) snapshots u
    and assemble the modes.

    The numerical rank d keeps eigenvalues above rank_tol * lambda_1.
    Next to u, the build holds one more array of at most N x K floats
    (M U, then U V over the dropped eigenvectors V, then the modes) and
    one row block of at most BLOCK_BYTES. Every N-row product after the
    correlation matrix runs over those row blocks; U V and the modes
    are written block by block into their preallocated arrays.
    """
    if not rank_tol >= 0:
        raise ValueError(f"rank_tol must be >= 0, got {rank_tol}")
    n_dofs, m_plus_1 = u.shape
    # the correlation matrix U^T M U / K, made exactly symmetric
    k = u.T @ (m_op @ u) / m_plus_1
    vals, vecs = np.linalg.eigh(0.5 * (k + k.T))
    del k
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    if vals.size == 0 or vals[0] <= 0:
        raise ValueError("degenerate snapshot ensemble: no positive energy")
    d = int(np.sum(vals > rank_tol * vals[0]))
    if d == 0:
        raise ValueError("degenerate snapshot ensemble: all eigenvalues below tolerance")
    # Every later N-sized pass runs over row blocks of N x K arrays
    rows = max(1, BLOCK_BYTES // (8 * m_plus_1))
    blocks = [slice(i, i + rows) for i in range(0, n_dofs, rows)]

    def gram(op, x):
        """x^T op x, accumulated over the row blocks of op x."""
        acc = 0
        for b in blocks:
            acc += x[b].T @ (_row_block(op, b) @ x)
        return acc

    def u_times(coef):
        """u @ coef, one row block at a time."""
        out = np.empty((n_dofs, coef.shape[1]))
        for b in blocks:
            np.matmul(u[b], coef, out=out[b])
        return out

    # The snapshots' parts outside span(Phi) are U V V^T over the dropped
    # eigenvectors V, so their squared norms are the diagonal of
    # V (Z^T op Z) V^T with Z = U V, for op = M and S; Z is empty when
    # d = K.
    drop = vecs[:, d:]
    z = u_times(drop)
    residual = np.array([np.sum((drop @ gram(op, z)) * drop, axis=1)
                         for op in (m_op, s_op)])
    del z
    vals = vals[:d]
    vecs = vecs[:, :d]
    modes = u_times(vecs / np.sqrt(m_plus_1 * vals))
    # The trailing eigenvalues sit near the rank cutoff, where the
    # 1/sqrt(lambda) normalization amplifies roundoff to ~1e-9 in the
    # Gram matrix. One triangular correction restores orthonormality to
    # machine precision while leaving the leading modes (and all nested
    # spans, since L^-1 is lower triangular) essentially untouched. L^-1
    # is at most K x K, so it is formed once and applied by GEMMs in
    # numpy: scipy.linalg would map a second OpenBLAS with its own
    # thread pool next to numpy's.
    mass_gram = np.zeros((d, d))
    raw_coords = np.zeros((d, m_plus_1))     # (M Phi)^T U
    for b in blocks:
        m_modes = _row_block(m_op, b) @ modes
        mass_gram += modes[b].T @ m_modes
        raw_coords += m_modes.T @ u[b]
        del m_modes     # before the next block's is made
    low = np.linalg.cholesky(0.5 * (mass_gram + mass_gram.T))
    low_inv = np.tril(np.linalg.inv(low))     # exact zeros above the diagonal
    # the corrected modes are Phi L^-T, so Phi^T M U = L^-1 (M Phi)^T U
    snap_coords = low_inv @ raw_coords
    for b in blocks:
        modes[b] = modes[b] @ low_inv.T
    grad_gram = gram(s_op, modes)
    grad_gram = 0.5 * (grad_gram + grad_gram.T)
    for a in (vals, modes, grad_gram, snap_coords, residual):
        a.flags.writeable = False
    return PODBasis(eigenvalues=vals, modes=modes, grad_gram=grad_gram,
                    snap_coords=snap_coords, residual_energy=residual)


def truncation_errors(basis: PODBasis, r: int):
    """Tail sums (sum lambda_j, sum |phi_j|_1^2 lambda_j) for j > r, with
    the full H1 norm |phi_j|_1^2 = |phi_j|^2 + |grad phi_j|^2 = 1 + S_jj."""
    if not 0 <= r <= basis.d:
        raise ValueError(f"r={r} outside [0, d={basis.d}]")
    tail = basis.eigenvalues[r:]
    h1_sq = np.diag(basis.grad_gram)[r:] + 1.0
    return float(tail.sum()), float((h1_sq * tail).sum())

