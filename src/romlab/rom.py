"""Reduced operators and the backward-Euler Leray-ROM / G-ROM stepper.

The fully implicit step solves
    (a_{k+1} - a_k)/dt + nu S_r a_{k+1} + N(abar_{k+1}, a_{k+1}) = F_{k+1}
with N_m(abar, a) = sum_ij abar_i a_j T_ijm, by Picard iteration on the
(filtered) advecting field. The G-ROM is the same scheme with the filter
replaced by the identity.
"""

import math
import sys
from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.sparse as sp

from .fe import VelocitySpace
from .filtering import apply_filter
from .pod import PODBasis, grid_steps

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

# Budget of one block of a streamed pass: the tensor's element blocks and
# the forcing's time levels.
BLOCK_BYTES = 16 * 2 ** 20


class StepDivergenceError(RuntimeError):
    """Raised when a time step fails to converge or blows up."""

    def __init__(self, message, residual=None, step=None, ratio=None):
        super().__init__(message)
        self.residual = residual
        self.step = step
        # last Picard residual_k / residual_{k-1}: below 1 is slow
        # contraction, about 1 a stall; nan after a single iteration
        self.ratio = ratio


def build_trilinear_tensor(basis: PODBasis, r: int,
                           space: VelocitySpace) -> np.ndarray:
    """Tensor T_ijk = b*(phi_i, phi_j, phi_k), exactly skew in j and k.

    Built from probes when T has rank one in its first index,
    T = mu (x) A, as it has for a flow u = g(y, t), v = g(x, t) (see
    README): the slices T x_1 z of two Gaussian probes z sketch T's
    range, as in the randomized range finder of Halko, Martinsson and
    Tropp (SIAM Review 53(2), 2011). If the sketch's SVD has
    sigma_2 <= _SKETCH_TOL sigma_1, A is its first left singular vector
    made exactly skew, mu_i = sum_jk T_ijk A_jk takes one more pass, and
    a third probe, their a-posteriori check, must give
    |T x_1 z_3 - (mu.z_3) A| <= _CHECK_TOL |mu| |z_3| |A|. Any other
    tensor takes the full build, which forms every per-point r x r array
    and does about r/4 times the probe build's flops. The probes come
    from a fixed seed, so a build is reproducible.
    """
    if not 1 <= r <= basis.d:
        raise ValueError(f"r={r} outside [1, d={basis.d}]")
    z = np.random.default_rng(_PROBE_SEED).standard_normal((r, _PROBES))
    slices = _probe_slices(basis, r, space, z)
    u, sv, _ = np.linalg.svd(slices[:-1].reshape(-1, r * r).T,
                             full_matrices=False)
    # sv[-1] is sv[0] at r = 1, where T = 0; a zero sketch passes with
    # mu = 0, and nothing is divided
    if sv[-1] <= _SKETCH_TOL * sv[0]:
        a = u[:, 0].reshape(r, r)
        a = 0.5 * (a - a.T)
        mu = _mu(basis, r, space, a)
        miss = np.linalg.norm(slices[-1] - (mu @ z[:, -1]) * a)
        if miss <= _CHECK_TOL * (np.linalg.norm(mu) * np.linalg.norm(a)
                                 * np.linalg.norm(z[:, -1])):
            return mu[:, None, None] * a
    return _full_tensor(basis, r, space)


def _point_blocks(basis: PODBasis, r: int, space: VelocitySpace,
                  point_floats: int):
    """Yield the modes' values v[q, e, c, k] and gradients g[a, q, e, c, j]
    at the quadrature points, per element block and orientation.

    One gather takes the modes' values on the 6 local nodes,
    el[l, (e, c, k)], and two GEMMs with the local shape functions give
    v and g. A block holds as many elements as fit BLOCK_BYTES with the
    6r values of v and g and the caller's point_floats more float64s per
    point, among them what the caller keeps of the last block while the
    next is formed. Blocks of 16 to 32 MB were within 7% of each other for the
    full build at r = 50 and r = 99 (n = 64); 4 and 8 MB were 8-80%
    slower.
    """
    ns = space.n_scalar
    nq = len(space.rule.weights)
    # one row of (component, mode) values per scalar dof, from the
    # full-height modes modes[rows]
    nodes = basis.modes[basis.rows.reshape(2, ns).T, :r].reshape(ns, 2 * r)
    # shape-function gradient rows (derivative a, point q) per orientation
    grads = space.phys_grads.transpose(0, 3, 1, 2).reshape(2, 2 * nq, 6)
    nel = space.edofs.shape[0]
    per_el = nq * (point_floats + 6 * r) * 8
    pairs = max(1, min(nel // 2, BLOCK_BYTES // per_el // 2))
    for start in range(0, nel, 2 * pairs):
        for o in range(2):  # orientation is element parity
            ed = space.edofs[start + o:start + 2 * pairs:2]
            m = ed.shape[0]
            el = nodes[ed.T].reshape(6, m * 2 * r)
            yield ((space.shape_vals @ el).reshape(nq, m, 2, r),
                   (grads[o] @ el).reshape(2, nq, m, 2, r))


def _full_tensor(basis: PODBasis, r: int,
                 space: VelocitySpace) -> np.ndarray:
    """T from every per-point D = G^T V (summed over c, batched over
    q, e, a), contracted with the weighted values in one GEMM per block;
    the skew symmetrization T_ijk = -T_ikj is exact by construction."""
    wdet = (space.rule.weights * space.det_j)[:, None, None, None]
    d_buf = None  # one D buffer, sized by the first and largest block
    t1 = np.zeros((r, r * r))
    for v, g in _point_blocks(basis, r, space, 2 * r * r):
        n = v.shape[0] * v.shape[1] * 2 * r * r
        if d_buf is None:
            d_buf = np.empty(n)
        # D[q, e, a, j, k] = sum_c G[a, q, e, c, j] V[q, e, c, k]
        d = d_buf[:n].reshape(*v.shape[:2], 2, r, r)
        np.matmul(g.transpose(1, 2, 0, 4, 3), v[:, :, None], out=d)
        vw = v * wdet                                     # q, e, a, i
        t1 += vw.reshape(-1, r).T @ d.reshape(-1, r * r)
    t1 = t1.reshape(r, r, r)
    return 0.5 * (t1 - t1.transpose(0, 2, 1))


def _probe_slices(basis: PODBasis, r: int, space: VelocitySpace,
                  z: np.ndarray) -> np.ndarray:
    """The slices T x_1 z[:, p], (p, r, r), with no per-point r x r array:
    each probe is contracted into the weighted values first,
    w_a = (V wdet) z per point, and a block adds (sum_a w_a G_a)^T V for
    every probe in one GEMM."""
    p = z.shape[1]
    wq = space.rule.weights * space.det_j
    t1 = np.zeros((p * r, r))
    # per point: h, its temporary and the last block's h (2pr each), w
    # and the last block's (2p each), the last v, g and gather (8r)
    for v, g in _point_blocks(basis, r, space, 6 * p * r + 4 * p + 8 * r):
        nq, m = v.shape[:2]
        w = (v.reshape(-1, r) @ z).reshape(nq, -1) * wq[:, None]
        w = w.reshape(nq, m, 2, 1, p, 1)                  # q, e, a, ., p, .
        # h[q, e, c, p, j] = sum_a w[q, e, a, p] G[a, q, e, c, j]
        h = w[:, :, 0] * g[0][:, :, :, None]
        h += w[:, :, 1] * g[1][:, :, :, None]
        t1 += h.reshape(-1, p * r).T @ v.reshape(-1, r)
    t1 = t1.reshape(p, r, r)
    return 0.5 * (t1 - t1.transpose(0, 2, 1))


def _mu(basis: PODBasis, r: int, space: VelocitySpace,
        a: np.ndarray) -> np.ndarray:
    """mu_i = sum_jk T_ijk a_jk for a skew a: h = V a^T per point, reduced
    against G, then one product with the weighted values."""
    wq = space.rule.weights * space.det_j
    mu = np.zeros(r)
    # per point: h and the last block's (2r each), the last v, g and
    # gather (8r); blocks sized by h alone held 28.6 MiB at r = 50
    # (n = 64) against 19.8 MiB, and were 8-20% slower
    for v, g in _point_blocks(basis, r, space, 12 * r):
        nq, m = v.shape[:2]
        h = (v @ a.T).reshape(nq * m, 2 * r)              # (q, e), (c, j)
        s = np.einsum("aqx,qx->qa", g.reshape(2, nq * m, 2 * r), h)
        mu += v.reshape(-1, r).T @ (s.reshape(nq, -1) * wq[:, None]).ravel()
    return mu


def _node_classes(q: np.ndarray, rows: np.ndarray):
    """One component's q (m, m, r) on the (y, x) node grid, as the
    classes of its grid lines along the first axis, 0 (y) or 1 (x), on
    which its rows (m, m) do not vary: (axis, p, b), with p the 0/1
    (m, 4) class matrix and b the (m 4, r) class representatives, as
    (class, x) rows along y and (y, class) rows along x. The classes are
    the first boundary line, the odd (midpoint) lines, the even interior
    (vertex) lines and the last boundary line, represented by lines 0,
    1, 2 and m - 1. When the rows vary along both axes, or no class
    holds two lines (m = 3), p is None, for the identity, and b is q."""
    m, r = q.shape[1:]
    axis = next((a for a in (0, 1) if not np.diff(rows, axis=a).any()), None)
    if axis is None or m == 3:
        return 0, None, q.reshape(-1, r)
    labels = np.where(np.arange(m) % 2, 1, 2)
    labels[[0, -1]] = 0, 3
    return (axis, np.eye(4)[labels],
            np.take(q, [0, 1, 2, m - 1], axis=axis).reshape(-1, r))


def project_forcing(basis: PODBasis, r: int, m_op: sp.csr_matrix,
                    solution, times, space: VelocitySpace) -> np.ndarray:
    """Forcing coordinates F_k,i = (f_h(t_k), phi_i) for each time level.

    f_h is the nodal interpolant of the analytic forcing, consistent
    with the snapshot convention. The P2 nodes form a y-major m x m grid
    (m = 2n + 1), so the forcing is called on broadcast axes (t, y, x):
    a flow that is separable in x and y evaluates its closed forms on
    T*m points rather than T*m^2.

    The fields are contracted with q = M Phi through its node classes,
    as DEIM (Chaturantabut and Sorensen, SIAM J. Sci. Comput. 32(5),
    2010) projects without full-size products. The classes are read
    off the rows, not off q. Along an axis on which a component's rows
    do not vary (u's along x and v's along y, for the benchmark flow),
    q = M P Phi repeats wherever M P does. The uniform mesh is unchanged
    by a shift of one element, so M P has one stencil, summed in one
    order, on every interior vertex line and one on every interior
    midpoint line; only the two boundary lines differ. So q has k = 4
    classes of lines along that axis, bit for bit. Per time chunk each
    field is summed over its classes by a product with the 0/1 (m, k)
    class matrix, then multiplied by the (m k, r) class representatives
    of q in one (T, m k) (m k, r) GEMM, m/k times smaller than the dense
    (T, m^2) (m^2, r) one. When the rows vary along both axes, or
    k = m (n = 1), the sum is skipped, and the GEMM is the dense one.
    """
    times = np.asarray(times, dtype=float)
    side = space.grid_side()
    m = side.size
    # M Phi per component, for the full-height modes Phi = modes[rows],
    # as M P times the distinct-row modes: M with its column indices
    # mapped through rows sums the same products in the same order, with
    # no N x r gather. Only q's class representatives are kept.
    m_p = sp.csr_matrix((m_op.data, basis.rows[m_op.indices], m_op.indptr),
                        shape=(m_op.shape[0], basis.modes.shape[0]))
    q = (m_p @ basis.modes[:, :r]).reshape(2, m, m, r)
    del m_p
    parts = [_node_classes(qc, rc)
             for qc, rc in zip(q, basis.rows.reshape(2, m, m))]
    del q
    x = side[None, None, :]
    y = side[None, :, None]
    chunk = max(1, BLOCK_BYTES // (8 * space.n_dofs))  # time levels
    out = np.empty((times.size, r))
    for start in range(0, times.size, chunk):
        tt = times[start:start + chunk, None, None]
        t = tt.shape[0]
        block = out[start:start + chunk]
        # checked on the projection: a NaN or inf field value reaches it,
        # as x * 0 is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            fields = solution.forcing(x, y, tt)
            block[:] = 0.0
            for f, (axis, p, b) in zip(fields, parts):
                f = np.ascontiguousarray(np.broadcast_to(f, (t, m, m)))
                if p is not None:
                    f = p.T @ f if axis == 0 else f.reshape(-1, m) @ p
                block += f.reshape(t, -1) @ b
            del fields, f  # before the next chunk's are made
        if not np.isfinite(block).all():
            raise ValueError("non-finite forcing values")
    return out


@dataclass(frozen=True)
class ROMOperators:
    """Everything the stepper needs, in ROM coordinates."""

    s_r: np.ndarray           # (r, r) reduced stiffness, grad_gram[:r, :r]
    tensor: np.ndarray        # (r, r, r), T_ijk = b*(phi_i, phi_j, phi_k)
    forcing: np.ndarray       # (M+1, r) forcing coordinates at the t_k
    a0: np.ndarray            # initial coordinates, L2 projection of u0
    # (r, r) R of tensor.reshape(r, r*r).T = Q R, formed from tensor unless
    # cached_r hands in this tensor's own (a study context's cache); as
    # dataclasses.replace never carries cached_r over, a copy forms its own.
    cached_r: InitVar[np.ndarray | None] = None
    unfolded_r: np.ndarray = field(init=False)

    def __post_init__(self, cached_r):
        if cached_r is None:
            t2 = self.tensor.reshape(self.tensor.shape[0], -1)
            cached_r = np.linalg.qr(t2.T, mode="r")
        object.__setattr__(self, "unfolded_r", cached_r)


# The step's linearizations; the first is the default.
LINEARIZATIONS = ("picard-implicit", "semi-implicit")


@dataclass(frozen=True)
class LROMConfig:
    """Time-stepping settings; delta enters through the filter."""

    dt: float
    t_final: float = 1.0
    nu: float = 1e-3
    picard_tol: float = 1e-10
    picard_max_iters: int = 200
    linearization: str = LINEARIZATIONS[0]

    def __post_init__(self):
        for name in ("dt", "t_final", "nu", "picard_tol"):
            value = getattr(self, name)
            # a float must hold it (math.isfinite overflows on a huge int)
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        its = self.picard_max_iters
        if isinstance(its, bool) or not isinstance(its, (int, np.integer)) \
                or its < 1:
            raise ValueError(f"picard_max_iters must be an int >= 1: {its!r}")
        grid_steps(self.t_final, self.dt)
        if self.linearization not in LINEARIZATIONS:
            raise ValueError(f"unknown linearization {self.linearization!r}")

    @property
    def n_steps(self) -> int:
        return grid_steps(self.t_final, self.dt)


@dataclass
class ROMTrajectory:
    states: np.ndarray        # (M+1, r)
    iter_counts: np.ndarray   # (M,) Picard iterations per step
    residuals: np.ndarray     # (M,) final relative Picard residual per
                              # step; nan for the semi-implicit variant
    tensor_rank: int          # numerical rank of the folded (r, r*r)
                              # tensor; <= 1: the scalar Picard path ran

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# Singular values of the folded tensor up to this fraction of the largest
# count as zero: the benchmark flow's second is 7.7e-16 at r = 99 (n = 64).
_RANK_TOL = 1e-12
# build_trilinear_tensor's probes: _PROBES Gaussian vectors drawn from
# _PROBE_SEED, all but the last sketching the tensor. The sketch passes
# when its sigma_2 <= _SKETCH_TOL sigma_1, the rank-one fit when the last
# probe misses by at most _CHECK_TOL |mu| |z| |A|. At n = 64 they read
# 1.3e-16 and 1.7e-16 at r = 50, 2.4e-16 and 1.3e-16 at r = 99. The miss
# is scaled by |mu| |z|, not by the probe's own slice, which is small
# when z is nearly orthogonal to mu.
_PROBES = 3
_PROBE_SEED = 2011
_SKETCH_TOL = 1e-12
_CHECK_TOL = 1e-12


def _advection_matrix(tensor: np.ndarray, abar: np.ndarray) -> np.ndarray:
    # B_mj = sum_i abar_i T_ijm; tensor is T or its (r, r*r) reshape
    return (abar @ tensor.reshape(abar.size, -1)).reshape(abar.size, -1).T


def _norm(x: np.ndarray) -> float:
    """|x| as sqrt(x.x), which is what np.linalg.norm computes; only when
    x.x overflows is x first scaled by max|x|, so that a finite norm
    reads finite and not inf."""
    sq = x.dot(x)
    if sq != math.inf:
        return math.sqrt(sq)
    scale = float(np.abs(x).max())
    if scale == math.inf:
        return scale
    x = x / scale
    return scale * math.sqrt(x.dot(x))


def run(ops: ROMOperators, filt: np.ndarray | None,
        cfg: LROMConfig) -> ROMTrajectory:
    """March from the projected initial condition to t_final.

    The filtered coordinates filt^-1 a advect, for the filter matrix
    filt from build_filter; filt=None is the zero-radius filter, the
    identity (G-ROM). The rank of the folded (r, r*r) tensor filt^-1 t2
    is read from the SVD of the (r, r) factor filt^-1 R^T, for the
    unfolding t2^T = Q R (R = ops.unfolded_r): as Q^T Q = I, the folded
    tensor is (filt^-1 R^T) Q^T. If its rank is at most one,
    B(a) = (w.a) A for one skew A, and a Picard iteration is O(r) work
    on the scalar w.a plus one product for its residual; the whole
    tensor is never folded. Otherwise the filter is folded into the
    tensor once per run, and an iteration is one solve and one
    contraction (reused by the next solve). Either way the residual is
    |core a + B(a) a - rhs| / |rhs|. Semi-implicit: the first solve only.
    """
    m, r, dt = cfg.n_steps, ops.s_r.shape[0], cfg.dt
    if filt is None:
        filt = np.eye(r)
    if ops.forcing.shape[0] < m + 1:
        raise ValueError("forcing series shorter than the number of time levels")
    if not np.all(np.isfinite(ops.a0)):
        raise StepDivergenceError("non-finite state entering step", step=0)
    core = np.eye(r) / dt + cfg.nu * ops.s_r
    u, sv, _ = np.linalg.svd(apply_filter(filt, ops.unfolded_r.T))
    rank = int(np.count_nonzero(sv > _RANK_TOL * sv[0]))
    scalar = rank <= 1
    if scalar:
        # the folded tensor is w (w^T filt^-1 t2) = w (filt^-1 w)^T t2, as
        # filt is symmetric, and B(a) = (w.a) skew
        w = u[:, 0]
        skew = apply_filter(filt, w) @ ops.tensor.reshape(r, r * r)
        skew = skew.reshape(r, r).T
        # core = L L^T and the Hermitian i L^-1 A L^-T = Q diag(lam) Q^H give
        # (core + s A)^-1 = Z diag(1 / (1 - i s lam)) C, C = Q^H L^-1 and
        # Z = L^-T Q. The loop calls ndarray.dot, the same BLAS call as @
        # with less overhead per call, on these r-sized operands.
        chol = np.linalg.cholesky(core)
        l_inv = np.linalg.inv(chol)
        lam, q = np.linalg.eigh(1j * (l_inv @ skew @ l_inv.T))
        to_eig, from_eig = q.conj().T @ l_inv, l_inv.T @ q
        p = q.T @ (l_inv @ w)                 # w.(Z y) = p.y
        skew_eig = (chol @ q) * (-1j * lam)   # A (Z y) = skew_eig y
        # d = 1 - i s lam is formed in place: its real part stays 1, and
        # -lam s is the imaginary part of 1 + s (-i lam) bit for bit for
        # a finite s. C takes complex operands, as C rhs did after a cast.
        neg_lam, d = -lam, np.ones(r, dtype=complex)
        d_imag, cplx = d.imag, np.zeros(r, dtype=complex)
        cplx_re = cplx.real
    else:
        t2 = apply_filter(filt, ops.tensor.reshape(r, r * r))
    semi = cfg.linearization == "semi-implicit"
    max_iters, tol = 1 if semi else cfg.picard_max_iters, cfg.picard_tol
    forcing = ops.forcing
    states = np.empty((m + 1, r))
    iters = np.zeros(m, dtype=int)
    residuals = np.full(m, np.nan)
    states[0] = a = ops.a0
    adv = None if scalar else _advection_matrix(t2, a)
    # a finite a_k enters step k: a0 is checked above, and every later
    # state by the end-of-step guard. _norm rescales a squared sum that
    # overflows, and any other inf or NaN (such as s = w.a when the sum
    # overflows) ends the run at the residual or state guard, so neither
    # is warned about as well.
    with np.errstate(over="ignore", invalid="ignore"):
        blowup = 1e6 * (1.0 + _norm(ops.a0))
        for k in range(m):
            rhs = a / dt + forcing[k + 1]
            denom = _norm(rhs) or 1.0
            residual = math.nan
            if scalar:
                s = float(w.dot(a))
                cplx_re[:] = rhs
                c = to_eig.dot(cplx)
            for it in range(1, max_iters + 1):
                if scalar:  # y = C rhs / (1 - i s lam) stands for a = Z y
                    np.multiply(neg_lam, s, d_imag)
                    y = c / d
                    s_solved = s
                    if semi:  # no residual, and s is formed again next step
                        break
                    s = float(p.dot(y).real)
                    # contiguous: a strided dot would sum in another
                    # order
                    v = skew_eig.dot(y).real.copy()
                    change = abs(s - s_solved) * _norm(v)
                else:
                    a = np.linalg.solve(core + adv, rhs)
                    adv = _advection_matrix(t2, a)
                    if semi:
                        break
                    change = _norm(core @ a + adv @ a - rhs)
                last, residual = residual, change / denom
                if not math.isfinite(residual):
                    raise StepDivergenceError("non-finite Picard residual",
                                              residual=residual, step=k)
                if residual <= tol:
                    break
            else:
                ratio = residual / last
                raise StepDivergenceError(
                    f"Picard failed to converge in {it} iterations "
                    f"(relative residual {residual:.3e}, "
                    f"last ratio {ratio:.3g})",
                    residual=residual, step=k, ratio=ratio)
            if scalar:  # the last iterate, refined once in real arithmetic
                a = from_eig.dot(y).real
                # the real residual rhs - core a - s A a, put through C
                cplx_re[:] = rhs - core.dot(a) - s_solved * skew.dot(a)
                a += from_eig.dot(to_eig.dot(cplx) / d).real
            row = states[k + 1]
            row[:] = a
            size = _norm(row)
            # NaN fails the comparison, and inf passes it only when
            # 1e6 (1 + |a0|) overflowed and blowup is inf
            if not size <= blowup or (size == math.inf
                                      and not np.isfinite(row).all()):
                raise StepDivergenceError(
                    "semi-implicit solve produced non-finite state"
                    if semi and not np.isfinite(row).all()
                    else f"trajectory blow-up at step {k + 1}", step=k)
            iters[k] = it
            residuals[k] = residual
    return ROMTrajectory(states=states, iter_counts=iters,
                         residuals=residuals, tensor_rank=rank)


def stability_check(traj: ROMTrajectory, ops: ROMOperators,
                    cfg: LROMConfig) -> np.ndarray:
    """Discrete energy ledger, one value per time level M~:
    q(M~) = |a_{M~}|^2 + dt * sum_{k<M~} a_{k+1}^T S_r a_{k+1}.
    """
    a = traj.states
    grad_energy = np.sum((a[1:] @ ops.s_r) * a[1:], axis=1)
    cum = cfg.dt * np.concatenate([[0.0], np.cumsum(grad_energy)])
    return np.sum(a * a, axis=1) + cum
