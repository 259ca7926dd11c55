"""Reduced operators and the backward-Euler Leray-ROM / G-ROM stepper.

The fully implicit step solves
    (a_{k+1} - a_k)/dt + nu S_r a_{k+1} + N(abar_{k+1}, a_{k+1}) = F_{k+1}
with N_m(abar, a) = sum_ij abar_i a_j T_ijm, by Picard iteration on the
(filtered) advecting field. The G-ROM is the same scheme with the filter
replaced by the identity.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fe import VelocitySpace, quad_point_data
from .filtering import FilterOperator, apply_filter
from .pod import PODBasis

__all__ = [
    "ROMOperators",
    "LROMConfig",
    "ROMTrajectory",
    "StepDivergenceError",
    "build_trilinear_tensor",
    "project_forcing",
    "run",
    "stability_check",
]


class StepDivergenceError(RuntimeError):
    """Raised when a time step fails to converge or blows up."""

    def __init__(self, message, residual=None, step=None, ratio=None):
        super().__init__(message)
        self.residual = residual
        self.step = step
        # last Picard residual_k / residual_{k-1}: below 1 is slow
        # contraction, about 1 a stall; nan after a single iteration
        self.ratio = ratio


def build_trilinear_tensor(basis: PODBasis, r: int, space: VelocitySpace,
                           block_bytes: int = 16 * 2 ** 20) -> np.ndarray:
    """Tensor T_ijk = b*(phi_i, phi_j, phi_k), streamed over element blocks.

    Per block the mode values V[q,i,a] and gradients G[q,j,c,a] are
    evaluated at the quadrature points and contracted; the skew
    symmetrization T_ijk = -T_ikj is exact by construction. Small blocks
    keep the dominant intermediate in cache; 16 MB was fastest at r = 99.
    """
    if not 1 <= r <= basis.d:
        raise ValueError(f"r={r} outside [1, d={basis.d}]")
    phi = basis.modes[:, :r]
    nel = space.edofs.shape[0]
    nq = len(space.rule.weights)
    # dominant intermediate: D (qb, r, 2, r) float64
    per_el = nq * (2 * r * r + 6 * r) * 8
    el_block = max(2, min(nel, int(block_bytes // per_el)))
    el_block += el_block % 2  # keep both orientations per block

    t1 = np.zeros((r, r, r))
    for start in range(0, nel, el_block):
        els = np.arange(start, min(start + el_block, nel))
        vals, grads, wdet = quad_point_data(space, phi, els)
        vw = vals * wdet[:, None, None]                       # (q, i, a)
        # D[q,a,j,k] = sum_c G[q,j,c,a] V[q,k,c], already in GEMM layout
        d = np.matmul(grads.transpose(0, 3, 1, 2),
                      vals.transpose(0, 2, 1)[:, None])       # (q, a, j, k)
        qb = len(wdet)
        vwf = vw.transpose(1, 0, 2).reshape(r, qb * 2)
        t1 += (vwf @ d.reshape(qb * 2, r * r)).reshape(r, r, r)
    return 0.5 * (t1 - t1.transpose(0, 2, 1))


# Budget for one chunk of nodal forcing values (time levels x dofs).
_FORCING_CHUNK_BYTES = 16 * 2 ** 20


def project_forcing(basis: PODBasis, r: int, m_op: sp.csr_matrix,
                    solution, times, space: VelocitySpace) -> np.ndarray:
    """Forcing coordinates F_k,i = (f_h(t_k), phi_i) for each time level.

    f_h is the nodal interpolant of the analytic forcing, consistent
    with the snapshot convention. The P2 nodes form a y-major m x m grid
    (m = 2n + 1), so the forcing is called on broadcast axes (t, y, x):
    a flow that is separable in x and y evaluates its closed forms on
    T*m points rather than T*m^2.
    """
    times = np.asarray(times, dtype=float)
    m = 2 * space.mesh.n + 1
    side = space.dof_coords[:m, 0]
    grid = np.column_stack([np.tile(side, m), np.repeat(side, m)])
    if space.dof_coords.shape != grid.shape or \
            not np.array_equal(space.dof_coords, grid):
        raise ValueError("dof coordinates are not a y-major tensor grid")
    q = m_op @ basis.modes[:, :r]                     # (N, r)
    x = side[None, None, :]
    y = side[None, :, None]
    chunk = max(1, _FORCING_CHUNK_BYTES // (8 * space.n_dofs))
    out = np.empty((times.size, r))
    for start in range(0, times.size, chunk):
        tt = times[start:start + chunk, None, None]
        fh = np.empty((tt.shape[0], 2, m, m))         # (chunk, N) in dof order
        fh[:, 0], fh[:, 1] = solution.forcing(x, y, tt)
        fh = fh.reshape(tt.shape[0], space.n_dofs)
        if not np.all(np.isfinite(fh)):
            raise ValueError("non-finite forcing values")
        out[start:start + chunk] = fh @ q
    return out


@dataclass(frozen=True)
class ROMOperators:
    """Everything the stepper needs, in ROM coordinates."""

    r: int
    s_r: np.ndarray           # (r, r) reduced stiffness, grad_gram[:r, :r]
    tensor: np.ndarray        # (r, r, r), T_ijk = b*(phi_i, phi_j, phi_k)
    forcing: np.ndarray       # (M+1, r) forcing coordinates at the t_k
    a0: np.ndarray            # initial coordinates, L2 projection of u0


@dataclass(frozen=True)
class LROMConfig:
    """Time-stepping settings; delta enters through the filter."""

    dt: float
    t_final: float = 1.0
    nu: float = 1e-3
    picard_tol: float = 1e-10
    picard_max_iters: int = 200
    linearization: str = "picard-implicit"

    def __post_init__(self):
        for name in ("dt", "t_final", "nu", "picard_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0 and name != "t_final":
                raise ValueError(f"{name} must be positive")
        its = self.picard_max_iters
        if isinstance(its, bool) or not isinstance(its, (int, np.integer)) \
                or its < 1:
            raise ValueError(f"picard_max_iters must be an int >= 1: {its!r}")
        steps = round(self.t_final / self.dt)
        if steps < 0 or abs(self.t_final / self.dt - steps) > 1e-9:
            raise ValueError("t_final must be an integer multiple of dt")
        if self.linearization not in ("picard-implicit", "semi-implicit"):
            raise ValueError(f"unknown linearization {self.linearization!r}")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)


@dataclass
class ROMTrajectory:
    states: np.ndarray        # (M+1, r)
    iter_counts: np.ndarray   # (M,) Picard iterations per step

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _advection_matrix(tensor: np.ndarray, abar: np.ndarray) -> np.ndarray:
    # B_mj = sum_i abar_i T_ijm; tensor is T or its (r, r*r) reshape
    return (abar @ tensor.reshape(abar.size, -1)).reshape(abar.size, -1).T


def _folded_tensor(tensor: np.ndarray, filt: FilterOperator | None):
    # (r, r*r) tensor t2 with _advection_matrix(t2, a) = B(filt(a))
    t2 = tensor.reshape(tensor.shape[0], -1)
    return t2 if filt is None else apply_filter(filt, t2)


def run(ops: ROMOperators, filt: FilterOperator | None,
        cfg: LROMConfig) -> ROMTrajectory:
    """March from the projected initial condition to t_final.

    filt(a) advects (filt=None: G-ROM); the filter is folded into the
    tensor once, so a Picard iteration is one solve and one contraction
    (reused by the next solve). Semi-implicit: the first solve only.
    """
    m, r, dt = cfg.n_steps, ops.r, cfg.dt
    if ops.forcing.shape[0] < m + 1:
        raise ValueError("forcing series shorter than the number of time levels")
    t2 = _folded_tensor(ops.tensor, filt)
    core = np.eye(r) / dt + cfg.nu * ops.s_r
    semi = cfg.linearization == "semi-implicit"
    states = np.empty((m + 1, r))
    iters = np.zeros(m, dtype=int)
    states[0] = a = ops.a0
    adv = _advection_matrix(t2, a)
    blowup = 1e6 * (1.0 + np.linalg.norm(ops.a0))
    for k in range(m):
        if not np.all(np.isfinite(a)):
            raise StepDivergenceError("non-finite state entering step", step=k)
        rhs = a / dt + ops.forcing[k + 1]
        denom = np.linalg.norm(rhs) or 1.0
        residual = np.nan
        for it in range(1, 2 if semi else cfg.picard_max_iters + 1):
            a = np.linalg.solve(core + adv, rhs)
            adv = _advection_matrix(t2, a)
            if semi:
                if not np.all(np.isfinite(a)):
                    raise StepDivergenceError(
                        "semi-implicit solve produced non-finite state", step=k)
                break
            last = residual
            residual = np.linalg.norm(core @ a + adv @ a - rhs) / denom
            if not np.isfinite(residual):
                raise StepDivergenceError("non-finite Picard residual",
                                          residual=residual, step=k)
            if residual <= cfg.picard_tol:
                break
        else:
            ratio = residual / last
            raise StepDivergenceError(
                f"Picard failed to converge in {it} iterations "
                f"(relative residual {residual:.3e}, last ratio {ratio:.3g})",
                residual=residual, step=k, ratio=ratio)
        if not np.all(np.isfinite(a)) or np.linalg.norm(a) > blowup:
            raise StepDivergenceError(
                f"trajectory blow-up at step {k + 1}", step=k)
        states[k + 1] = a
        iters[k] = it
    return ROMTrajectory(states=states, iter_counts=iters)


def stability_check(traj: ROMTrajectory, ops: ROMOperators,
                    cfg: LROMConfig) -> np.ndarray:
    """Discrete energy ledger, one value per time level M~:
    q(M~) = |a_{M~}|^2 + dt * sum_{k<M~} a_{k+1}^T S_r a_{k+1}.
    """
    a = traj.states
    grad_energy = np.einsum("ki,ij,kj->k", a[1:], ops.s_r, a[1:])
    cum = cfg.dt * np.concatenate([[0.0], np.cumsum(grad_energy)])
    return np.sum(a * a, axis=1) + cum
