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
    "SnapshotSet",
    "collect_snapshots",
    "correlation_matrix",
    "symmetric_eig",
    "PODBasis",
    "build_pod_basis",
    "truncation_errors",
    "RomStiffness",
    "rom_stiffness",
    "project_Pr",
    "save_pod_cache",
    "load_pod_cache",
]


@dataclass(frozen=True)
class SnapshotSet:
    space: VelocitySpace
    times: np.ndarray      # (M+1,)
    matrix: np.ndarray     # (N, M+1), one snapshot per column

    @property
    def count(self) -> int:
        return self.matrix.shape[1]


def default_times(dt_snap: float = 1e-2, t_final: float = 1.0) -> np.ndarray:
    """Equispaced snapshot times 0, dt_snap, ..., t_final."""
    m = round(t_final / dt_snap)
    if abs(t_final / dt_snap - m) > 1e-9:
        raise ValueError("t_final must be an integer multiple of dt_snap")
    return np.linspace(0.0, t_final, m + 1)


def collect_snapshots(space: VelocitySpace, solution, times) -> SnapshotSet:
    """Record the exact velocity on the FE mesh at the given times."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty snapshot time list")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("snapshot times must be strictly increasing")
    cols = np.empty((space.n_dofs, times.size))
    for k, t in enumerate(times):
        cols[:, k] = interpolate(space, solution.velocity, t).coeffs
    return SnapshotSet(space=space, times=times, matrix=cols)


def correlation_matrix(snapshots: SnapshotSet,
                       m_op: sp.csr_matrix) -> np.ndarray:
    """K = U^T M U / (M+1), symmetric positive semidefinite."""
    u = snapshots.matrix
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
        block is the reduced stiffness for any r <= d.
    phi_h1_sq : (d,) squared H1 norms of the modes.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    grad_gram: np.ndarray
    phi_h1_sq: np.ndarray

    @property
    def d(self) -> int:
        return self.eigenvalues.size


def build_pod_basis(snapshots: SnapshotSet, m_op: sp.csr_matrix,
                    s_op: sp.csr_matrix, rank_tol: float = 1e-14,
                    h1_seminorm: bool = False) -> PODBasis:
    """Eigendecompose the correlation matrix and assemble the modes.

    The numerical rank d keeps eigenvalues above rank_tol * lambda_1.
    phi_h1_sq uses the full H1 norm 1 + |grad phi|^2 by default; set
    h1_seminorm=True for the seminorm convention.
    """
    k = correlation_matrix(snapshots, m_op)
    vals, vecs = symmetric_eig(k)
    if vals.size == 0 or vals[0] <= 0:
        raise ValueError("degenerate snapshot ensemble: no positive energy")
    d = int(np.sum(vals > rank_tol * vals[0]))
    if d == 0:
        raise ValueError("degenerate snapshot ensemble: all eigenvalues below tolerance")
    vals = vals[:d]
    vecs = vecs[:, :d]
    m_plus_1 = snapshots.count
    modes = snapshots.matrix @ (vecs / np.sqrt(m_plus_1 * vals))
    # The trailing eigenvalues sit near the rank cutoff, where the
    # 1/sqrt(lambda) normalization amplifies roundoff to ~1e-9 in the
    # Gram matrix. One triangular correction restores orthonormality to
    # machine precision while leaving the leading modes (and all nested
    # spans, since L is lower triangular) essentially untouched.
    gram = modes.T @ (m_op @ modes)
    low = np.linalg.cholesky(0.5 * (gram + gram.T))
    modes = solve_triangular(low, modes.T, lower=True).T
    grad_gram = modes.T @ (s_op @ modes)
    grad_gram = 0.5 * (grad_gram + grad_gram.T)
    return PODBasis(eigenvalues=vals, modes=modes, grad_gram=grad_gram,
                    phi_h1_sq=_h1_norms_sq(grad_gram, h1_seminorm))


def _h1_norms_sq(grad_gram: np.ndarray, h1_seminorm: bool) -> np.ndarray:
    """Squared mode H1 norms: |grad phi|^2, plus |phi|^2 = 1 for the full norm."""
    semi = np.diag(grad_gram).copy()
    return semi if h1_seminorm else semi + 1.0


def truncation_errors(basis: PODBasis, r: int):
    """Tail sums (sum lambda_j, sum |phi_j|_1^2 lambda_j) for j > r."""
    if not 0 <= r <= basis.d:
        raise ValueError(f"r={r} outside [0, d={basis.d}]")
    tail = basis.eigenvalues[r:]
    return float(tail.sum()), float((basis.phi_h1_sq[r:] * tail).sum())


@dataclass(frozen=True)
class RomStiffness:
    """Dense reduced stiffness (gradient Gram matrix) and its 2-norm."""

    r: int
    matrix: np.ndarray
    norm2: float


def rom_stiffness(basis: PODBasis, r: int) -> RomStiffness:
    if not 1 <= r <= basis.d:
        raise ValueError(f"r={r} outside [1, d={basis.d}]")
    s_r = basis.grad_gram[:r, :r].copy()
    evals = np.linalg.eigvalsh(s_r)
    return RomStiffness(r=r, matrix=s_r, norm2=float(evals[-1]))


def project_Pr(basis: PODBasis, r: int, m_op: sp.csr_matrix,
               v) -> np.ndarray:
    """ROM L2 projection coordinates a_i = (v, phi_i), i = 1..r."""
    coeffs = v.coeffs if hasattr(v, "coeffs") else np.asarray(v, dtype=float)
    if coeffs.shape[0] != m_op.shape[0]:
        raise ValueError("dimension mismatch")
    return basis.modes[:, :r].T @ (m_op @ coeffs)


# ---------------------------------------------------------------------------
# Binary cache: little-endian array dump with a version header.
#
# Layout (all little-endian):
#   magic   8 bytes  b"RLPODV3\0"
#   header  <IIdQQ   n, M, dT, N, d
#   arrays  float64: eigenvalues (d), modes (N*d, C order), grad_gram (d*d)
#
# The squared mode H1 norms are not stored: they depend on the norm
# convention and are rebuilt from the diagonal of grad_gram on load.
# ---------------------------------------------------------------------------

_MAGIC = b"RLPODV3\0"
_HEADER = "<IIdQQ"


def cache_path(cache_dir, n: int, dt_snap: float, m: int) -> Path:
    return Path(cache_dir) / f"pod_n{n}_dT{dt_snap:g}_M{m}.rlpod"


def save_pod_cache(path, basis: PODBasis, n: int, dt_snap: float, m: int) -> None:
    """Write the cache atomically: a temp file in the same directory is
    renamed over path, so concurrent writers never interleave."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    nn = basis.modes.shape[0]
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack(_HEADER, n, m, dt_snap, nn, basis.d))
            for arr in (basis.eigenvalues, basis.modes, basis.grad_gram):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_pod_cache(path, n: int, dt_snap: float, m: int,
                   h1_seminorm: bool = False) -> PODBasis | None:
    """Load a cached basis; returns None on any key or format mismatch.

    phi_h1_sq follows the requested convention, as in build_pod_basis.
    """
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
        vals = rd(d)
        modes = rd(nn, d)
        gram = rd(d, d)
        if any(a is None for a in (vals, modes, gram)):
            return None
    return PODBasis(eigenvalues=vals, modes=modes, grad_gram=gram,
                    phi_h1_sq=_h1_norms_sq(gram, h1_seminorm))
