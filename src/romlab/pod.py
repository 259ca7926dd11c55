"""Proper orthogonal decomposition via the method of snapshots.

Snapshots are nodal interpolants of the analytic velocity, inner
products are taken with the FE mass operator (L2), and the basis comes
from the eigendecomposition of the (M+1) x (M+1) snapshot correlation
matrix. No centering is applied.
"""

import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular

from .fe import VelocitySpace, interpolate

__all__ = [
    "collect_snapshots",
    "correlation_matrix",
    "symmetric_eig",
    "PODBasis",
    "build_pod_basis",
    "truncation_errors",
    "project_Pr",
    "save_pod_cache",
    "load_pod_cache",
]


def default_times(dt_snap: float = 1e-2, t_final: float = 1.0) -> np.ndarray:
    """Equispaced snapshot times 0, dt_snap, ..., t_final."""
    m = round(t_final / dt_snap)
    if m < 1 or abs(t_final / dt_snap - m) > 1e-9:
        raise ValueError("t_final must be a positive integer multiple of "
                         "dt_snap")
    return np.linspace(0.0, t_final, m + 1)


def collect_snapshots(space: VelocitySpace, solution, times) -> np.ndarray:
    """The exact velocity on the FE mesh at the given times: an (N, K)
    array with one snapshot per column."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty snapshot time list")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("snapshot times must be strictly increasing")
    cols = np.empty((space.n_dofs, times.size))
    for k, t in enumerate(times):
        cols[:, k] = interpolate(space, solution.velocity, t)
    return cols


def correlation_matrix(u: np.ndarray, m_op: sp.csr_matrix) -> np.ndarray:
    """K = U^T M U / (M+1), symmetric positive semidefinite."""
    if u.shape[0] != m_op.shape[0]:
        raise ValueError("dimension mismatch between snapshots and mass operator")
    k = u.T @ (m_op @ u) / u.shape[1]
    return 0.5 * (k + k.T)


def symmetric_eig(a: np.ndarray):
    """Full spectrum of a dense symmetric matrix, eigenvalues descending."""
    a = np.asarray(a, dtype=float)
    scale = np.abs(a).max() if a.size else 0.0
    if scale > 0 and np.abs(a - a.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    return vals[::-1].copy(), vecs[:, ::-1].copy()


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
    snap_coords : (d, K) POD coordinates Phi^T M U of the K snapshots U.
    residual_energy : (2,) mean squared L2 norm and H1 seminorm of the
        snapshots' parts outside span(Phi), w = u - Phi Phi^T M u; both
        are 0 when d = K.

    snap_coords and residual_energy belong to the basis as built: a
    basis with fewer modes comes from a larger rank_tol, not from
    slicing the per-mode arrays.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    grad_gram: np.ndarray
    snap_coords: np.ndarray
    residual_energy: np.ndarray

    @property
    def d(self) -> int:
        return self.eigenvalues.size


def build_pod_basis(u: np.ndarray, m_op: sp.csr_matrix,
                    s_op: sp.csr_matrix, rank_tol: float = 1e-14) -> PODBasis:
    """Eigendecompose the correlation matrix of the (N, K) snapshots u
    and assemble the modes.

    The numerical rank d keeps eigenvalues above rank_tol * lambda_1.
    """
    k = correlation_matrix(u, m_op)
    vals, vecs = symmetric_eig(k)
    if vals.size == 0 or vals[0] <= 0:
        raise ValueError("degenerate snapshot ensemble: no positive energy")
    d = int(np.sum(vals > rank_tol * vals[0]))
    if d == 0:
        raise ValueError("degenerate snapshot ensemble: all eigenvalues below tolerance")
    m_plus_1 = u.shape[1]
    # The snapshots' parts outside span(Phi) are U V V^T over the dropped
    # eigenvectors V, so their mean squared norms are tr(Z^T M Z) / K and
    # tr(Z^T S Z) / K with Z = U V; Z is empty when d = K.
    z = u @ vecs[:, d:]
    residual = np.array([np.einsum("ij,ij->", z, op @ z)
                         for op in (m_op, s_op)]) / m_plus_1
    del z
    vals = vals[:d]
    vecs = vecs[:, :d]
    modes = u @ (vecs / np.sqrt(m_plus_1 * vals))
    # The trailing eigenvalues sit near the rank cutoff, where the
    # 1/sqrt(lambda) normalization amplifies roundoff to ~1e-9 in the
    # Gram matrix. One triangular correction restores orthonormality to
    # machine precision while leaving the leading modes (and all nested
    # spans, since L is lower triangular) essentially untouched.
    m_modes = m_op @ modes
    gram = modes.T @ m_modes
    low = np.linalg.cholesky(0.5 * (gram + gram.T))
    # the corrected modes are Phi L^-T, so Phi^T M U = L^-1 (M Phi)^T U
    snap_coords = solve_triangular(low, m_modes.T @ u, lower=True)
    del m_modes
    modes = solve_triangular(low, modes.T, lower=True).T
    grad_gram = modes.T @ (s_op @ modes)
    grad_gram = 0.5 * (grad_gram + grad_gram.T)
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


def project_Pr(basis: PODBasis, r: int, m_op: sp.csr_matrix,
               v) -> np.ndarray:
    """ROM L2 projection coordinates a_i = (v, phi_i), i = 1..r."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != m_op.shape[0]:
        raise ValueError("dimension mismatch")
    return basis.modes[:, :r].T @ (m_op @ v)


# ---------------------------------------------------------------------------
# Binary cache: little-endian array dump with a version header.
#
# Layout (all little-endian):
#   magic   8 bytes  b"RLPODV4\0"
#   header  <IIdQQ   n, M, dT, N, d
#   arrays  float64, C order: eigenvalues (d), modes (N*d), grad_gram
#           (d*d), snap_coords (d*K), residual_energy (2), with
#           K = M + 1 snapshots
# ---------------------------------------------------------------------------

_MAGIC = b"RLPODV4\0"
_FIELDS = ("eigenvalues", "modes", "grad_gram", "snap_coords",
           "residual_energy")
_HEADER = "<IIdQQ"


def cache_path(cache_dir, n: int, dt_snap: float, m: int) -> Path:
    return Path(cache_dir) / f"pod_n{n}_dT{dt_snap:g}_M{m}.rlpod"


def save_pod_cache(path, basis: PODBasis, n: int, dt_snap: float, m: int) -> None:
    """Write the cache atomically: a temp file in the same directory is
    renamed over path, so concurrent writers never interleave."""
    if basis.snap_coords.shape[1] != m + 1:
        raise ValueError(f"basis built from {basis.snap_coords.shape[1]} "
                         f"snapshots, expected M + 1 = {m + 1}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    nn = basis.modes.shape[0]
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack(_HEADER, n, m, dt_snap, nn, basis.d))
            for name in _FIELDS:
                fh.write(np.ascontiguousarray(getattr(basis, name),
                                              dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_pod_cache(path, n: int, dt_snap: float, m: int) -> PODBasis | None:
    """Load a cached basis; returns None on any key or format mismatch."""
    path = Path(path)
    if not path.exists():
        return None
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            return None
        hdr = fh.read(struct.calcsize(_HEADER))
        if len(hdr) != struct.calcsize(_HEADER):
            return None
        cn, cm, cdt, nn, d = struct.unpack(_HEADER, hdr)
        if (cn, cm) != (n, m) or cdt != dt_snap:
            return None
        def rd(*shape):
            count = int(np.prod(shape))
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                return None
            return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        k = m + 1
        shapes = ((d,), (nn, d), (d, d), (d, k), (2,))
        arrays = dict(zip(_FIELDS, (rd(*shape) for shape in shapes)))
        if any(a is None for a in arrays.values()):
            return None
    return PODBasis(**arrays)
