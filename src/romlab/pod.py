"""Proper orthogonal decomposition via the method of snapshots.

Snapshots are nodal interpolants of the analytic velocity, inner
products are taken with the FE mass operator (L2), and the basis comes
from the eigendecomposition of the (M+1) x (M+1) snapshot correlation
matrix. No centering is applied.

The POD runs on the snapshots' distinct rows. A velocity component that
does not vary along a grid axis repeats its rows along it, so the
(N, K) snapshots are U = P u for the (R, K) distinct rows u and the
0/1 map P from dofs to rows, P[i, rows[i]] = 1. Every product of the
build then has the form U^T op U = u^T (P^T op P) u, and it runs on u
with the (R, R) operators P^T M P and P^T S P, which fe assembles
through the row map with no N x N operator. The modes are (R, d) as
well; the full-height modes are modes[rows].
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


def collect_snapshots(space: VelocitySpace, solution,
                      times) -> tuple[np.ndarray, np.ndarray]:
    """The nodal interpolants of the exact velocity at the given times,
    as their distinct rows: (u, rows), with u an (R, K) array and rows
    the (N,) row of each dof, so that the (N, K) snapshots, one per
    column, are u[rows]. The velocity is called once on broadcast
    (y, x, t) axes of the y-major node grid, and each component keeps
    one row per point of the axes it varies along: the benchmark flow's
    u = g(y, t) and v = g(x, t) give R = 2m for m = 2n + 1. When
    nothing broadcasts, R = N and rows = arange(N)."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty snapshot time list")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("snapshot times must be strictly increasing")
    side = space.grid_side()
    m, k = side.size, times.size
    vel = solution.velocity(side[None, :, None], side[:, None, None], times)
    shapes = [np.broadcast_shapes(np.shape(c), (1, 1, k)) for c in vel]
    u = np.empty((sum(s[0] * s[1] for s in shapes), k))
    rows = np.empty((2, m, m), dtype=sp.get_index_dtype(maxval=space.n_dofs))
    start = 0
    for c, (ny, nx, _), out in zip(vel, shapes, rows):
        u[start:start + ny * nx].reshape(ny, nx, k)[:] = c
        out[:] = start + np.arange(ny * nx).reshape(ny, nx)
        start += ny * nx
    if not np.all(np.isfinite(u)):
        raise ValueError("function evaluation produced non-finite nodal values")
    return u, rows.reshape(-1)


@dataclass(frozen=True)
class PODBasis:
    """L2-orthonormal POD modes with their energies.

    Attributes
    ----------
    eigenvalues : (d,) descending energies of the correlation matrix.
    modes : (R, d) the modes on the snapshots' distinct rows; the mode
        coefficient vectors are the columns of modes[rows], (N, d) and
        L2-orthonormal.
    rows : (N,) the row of modes that each dof reads, from
        collect_snapshots.
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
    rows: np.ndarray
    grad_gram: np.ndarray
    snap_coords: np.ndarray
    residual_energy: np.ndarray

    @property
    def d(self) -> int:
        return self.eigenvalues.size


def build_pod_basis(u: np.ndarray, rows: np.ndarray, m_op: sp.csr_matrix,
                    s_op: sp.csr_matrix, rank_tol: float = 1e-14) -> PODBasis:
    """Eigendecompose the correlation matrix of the snapshots u[rows]
    and assemble the modes, from their (R, K) distinct rows u and the
    (R, R) operators on those rows, P^T M P and P^T S P
    (fe.assemble_mass(space, rows) and fe.assemble_stiffness(space,
    rows)); the identity map rows = arange(N), R = N, gives M and S.

    The numerical rank d keeps eigenvalues above rank_tol * lambda_1.
    Every product is one whole-array expression: next to u, the build
    holds at most two more arrays of up to R x K floats at a time (u V
    over the dropped eigenvectors V and op u V, then the modes and M or
    S times them). On the benchmark flow's R = 2m rows, K = 101, each
    is at most 0.2 MB at n = 64.
    """
    if not rank_tol >= 0:
        raise ValueError(f"rank_tol must be >= 0, got {rank_tol}")
    m_plus_1 = u.shape[1]
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
    # The snapshots' parts outside span(Phi) are U V V^T over the dropped
    # eigenvectors V, so their squared norms are the diagonal of
    # V (Z^T op Z) V^T with Z = U V, for op = M and S; Z is empty when
    # d = K.
    drop = vecs[:, d:]
    z = u @ drop
    residual = np.array([np.sum((drop @ (z.T @ (op @ z))) * drop, axis=1)
                         for op in (m_op, s_op)])
    del z
    vals = vals[:d]
    vecs = vecs[:, :d]
    modes = u @ (vecs / np.sqrt(m_plus_1 * vals))
    # The trailing eigenvalues sit near the rank cutoff, where the
    # 1/sqrt(lambda) normalization amplifies roundoff to ~1e-9 in the
    # Gram matrix. One triangular correction restores orthonormality to
    # machine precision while leaving the leading modes (and all nested
    # spans, since L^-1 is lower triangular) essentially untouched. L^-1
    # is at most K x K, so it is formed once and applied by GEMMs in
    # numpy: scipy.linalg would map a second OpenBLAS with its own
    # thread pool next to numpy's.
    m_modes = m_op @ modes
    mass_gram = modes.T @ m_modes
    raw_coords = m_modes.T @ u     # (M Phi)^T U
    del m_modes
    low = np.linalg.cholesky(0.5 * (mass_gram + mass_gram.T))
    low_inv = np.tril(np.linalg.inv(low))     # exact zeros above the diagonal
    # the corrected modes are Phi L^-T, so Phi^T M U = L^-1 (M Phi)^T U
    snap_coords = low_inv @ raw_coords
    modes = modes @ low_inv.T
    grad_gram = modes.T @ (s_op @ modes)
    grad_gram = 0.5 * (grad_gram + grad_gram.T)
    rows = np.array(rows)    # the basis's own, read-only
    for a in (vals, modes, rows, grad_gram, snap_coords, residual):
        a.flags.writeable = False
    return PODBasis(eigenvalues=vals, modes=modes, rows=rows,
                    grad_gram=grad_gram, snap_coords=snap_coords,
                    residual_energy=residual)


def truncation_errors(basis: PODBasis, r: int):
    """Tail sums (sum lambda_j, sum |phi_j|_1^2 lambda_j) for j > r, with
    the full H1 norm |phi_j|_1^2 = |phi_j|^2 + |grad phi_j|^2 = 1 + S_jj."""
    if not 0 <= r <= basis.d:
        raise ValueError(f"r={r} outside [0, d={basis.d}]")
    tail = basis.eigenvalues[r:]
    h1_sq = np.diag(basis.grad_gram)[r:] + 1.0
    return float(tail.sum()), float((h1_sq * tail).sum())

