"""Independent reference implementations used only by the tests.

Everything here is written from scratch against the mathematical
definitions (barycentric P2 shape functions, per-triangle Gauss
quadrature via the Duffy map) and deliberately shares no code paths
with the package internals it is used to check. The exceptions are at
the end. trilinear_bstar evaluates b* one triple at a time from the
package's quadrature-point data, and checks the blocked tensor build
that contracts the same data for all triples at once. reference_step
is the Picard step in its unfolded form (filter, then contract, on
every iteration), and checks the stepper that folds the filter into
the tensor once per run. avg_filter_errors_fe forms each snapshot's
filtering error in the FE space, and checks the filter studies, which
evaluate it from the snapshot Gram matrices. l2_norm, h1_semi_norm and
l2_inner are the FE norms of coefficient vectors, through the assembled
operators. signed_areas and velocity_grad are the mesh's triangle areas
and the analytic velocity's Jacobian, which only the tests read.
"""

import numpy as np
from scipy.linalg import cho_solve

from romlab.fe import VelocitySpace, quad_point_data
from romlab.filtering import apply_filter, build_filter


def _p2_local(lam):
    """P2 nodal basis from barycentric coordinates lam (..., 3).

    Node order: the 3 vertices, then the midpoints of edges
    (0,1), (1,2), (0,2).
    """
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    return np.stack(
        [
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l0 * l1, 4 * l1 * l2, 4 * l0 * l2,
        ],
        axis=-1,
    )


def _p2_local_grad(lam, grad_lam):
    """Physical gradients of the P2 nodal basis.

    grad_lam is the constant (3, 2) array of barycentric gradients of
    the containing triangle.
    """
    lam = np.asarray(lam, dtype=float)
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    g0, g1, g2 = grad_lam
    out = np.empty(lam.shape[:-1] + (6, 2))
    out[..., 0, :] = (4 * l0 - 1)[..., None] * g0
    out[..., 1, :] = (4 * l1 - 1)[..., None] * g1
    out[..., 2, :] = (4 * l2 - 1)[..., None] * g2
    out[..., 3, :] = 4 * (l1[..., None] * g0 + l0[..., None] * g1)
    out[..., 4, :] = 4 * (l2[..., None] * g1 + l1[..., None] * g2)
    out[..., 5, :] = 4 * (l0[..., None] * g2 + l2[..., None] * g0)
    return out


def _locate(n, x, y):
    """Containing triangle of each point on the structured mesh.

    Returns (verts, lam, grad_lam): triangle vertex coordinates
    (m, 3, 2), barycentric coordinates (m, 3) and their gradients
    (m, 3, 2). Squares are split along the lower-left to upper-right
    diagonal; points on the diagonal go to the lower triangle.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    h = 1.0 / n
    i = np.clip((x / h).astype(int), 0, n - 1)
    j = np.clip((y / h).astype(int), 0, n - 1)
    x0, y0 = i * h, j * h
    lower = (y - y0) <= (x - x0) + 1e-14

    verts = np.empty((x.size, 3, 2))
    # lower: (x0,y0), (x0+h,y0), (x0+h,y0+h); upper: (x0,y0), (x0+h,y0+h), (x0,y0+h)
    verts[:, 0, 0], verts[:, 0, 1] = x0, y0
    verts[:, 1, 0] = x0 + h
    verts[:, 1, 1] = np.where(lower, y0, y0 + h)
    verts[:, 2, 0] = np.where(lower, x0 + h, x0)
    verts[:, 2, 1] = y0 + h

    lam = np.empty((x.size, 3))
    grad_lam = np.empty((x.size, 3, 2))
    for k in range(x.size):
        a = np.vstack([verts[k].T, np.ones(3)])        # 3x3: [x; y; 1]
        b = np.array([x[k], y[k], 1.0])
        ainv = np.linalg.inv(a)
        lam[k] = ainv @ b
        grad_lam[k] = ainv[:, :2]   # d lam / d (x, y)
    return verts, lam, grad_lam


def _fine_index(n, pts):
    """Global scalar dof index of P2 nodes from coordinates."""
    m = 2 * n + 1
    fx = np.rint(pts[..., 0] * 2 * n).astype(int)
    fy = np.rint(pts[..., 1] * 2 * n).astype(int)
    return fy * m + fx


def p2_eval(n, coeffs, x, y, grad=False):
    """Evaluate a vector P2 field (and optionally its Jacobian) at points.

    coeffs stacks the x-component scalar dofs first. Returns vals of
    shape (m, 2); with grad=True also jac of shape (m, 2, 2) indexed as
    (component, derivative direction).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    ns = (2 * n + 1) ** 2
    verts, lam, grad_lam = _locate(n, x, y)
    mids = 0.5 * (verts + np.roll(verts, -1, axis=1))
    node_pts = np.concatenate([verts, mids], axis=1)   # (m, 6, 2)
    idx = _fine_index(n, node_pts)                     # (m, 6)
    shape = _p2_local(lam)                             # (m, 6)
    vals = np.stack(
        [np.sum(shape * coeffs[c * ns:(c + 1) * ns][idx], axis=1)
         for c in range(2)],
        axis=-1,
    )
    if not grad:
        return vals
    gshape = np.stack([_p2_local_grad(lam[k], grad_lam[k])
                       for k in range(lam.shape[0])])  # (m, 6, 2)
    jac = np.stack(
        [np.einsum("mla,ml->ma", gshape, coeffs[c * ns:(c + 1) * ns][idx])
         for c in range(2)],
        axis=1,
    )
    return vals, jac


def triangle_quad_points(n, p=8):
    """Per-triangle Gauss points via the Duffy map, built from scratch.

    Returns (pts, w): all quadrature points (nt*p*p, 2) on the n x n
    structured triangulation and matching weights (physical measure
    included).
    """
    gu, wu = np.polynomial.legendre.leggauss(p)
    gu = 0.5 * (gu + 1.0)
    wu = 0.5 * wu
    u, v = np.meshgrid(gu, gu, indexing="ij")
    wq = (np.outer(wu, wu) * (1.0 - u)).ravel()
    xi = u.ravel()
    eta = (v * (1.0 - u)).ravel()

    h = 1.0 / n
    pts, wts = [], []
    for j in range(n):
        for i in range(n):
            x0, y0 = i * h, j * h
            for tri in (
                [(x0, y0), (x0 + h, y0), (x0 + h, y0 + h)],
                [(x0, y0), (x0 + h, y0 + h), (x0, y0 + h)],
            ):
                (ax, ay), (bx, by), (cx, cy) = tri
                px = ax + (bx - ax) * xi + (cx - ax) * eta
                py = ay + (by - ay) * xi + (cy - ay) * eta
                detj = abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay))
                pts.append(np.column_stack([px, py]))
                wts.append(wq * detj)
    return np.vstack(pts), np.concatenate(wts)


def bstar_reference(n, cu, cv, cw, p=8):
    """Skew-symmetric convection form by independent quadrature.

    0.5 * [ integral((u . grad) v) . w - integral((u . grad) w) . v ]
    with all fields evaluated through the stand-alone P2 evaluator.
    """
    pts, w = triangle_quad_points(n, p)
    uu = p2_eval(n, cu, pts[:, 0], pts[:, 1])
    vv, gv = p2_eval(n, cv, pts[:, 0], pts[:, 1], grad=True)
    ww, gw = p2_eval(n, cw, pts[:, 0], pts[:, 1], grad=True)
    conv_v = np.einsum("pa,pca->pc", uu, gv)
    conv_w = np.einsum("pa,pca->pc", uu, gw)
    t1 = np.sum(w * np.sum(conv_v * ww, axis=1))
    t2 = np.sum(w * np.sum(conv_w * vv, axis=1))
    return 0.5 * (t1 - t2)


def integrate(n, fn, p=8):
    """Integrate a smooth scalar function over the unit square by the
    same per-triangle rule (useful as an exact-value oracle)."""
    pts, w = triangle_quad_points(n, p)
    return float(np.sum(w * fn(pts[:, 0], pts[:, 1])))


def _convective_integral(space: VelocitySpace, u: np.ndarray, v: np.ndarray,
                         w: np.ndarray) -> float:
    """Integral of ((u . grad) v) . w over the domain."""
    all_el = np.arange(space.edofs.shape[0])

    def at_points(f):
        vals, grads, wdet = quad_point_data(space, f[:, None], all_el)
        return vals[:, 0], grads[:, 0], wdet

    uu, _, wdet = at_points(u)
    vv, gv, _ = at_points(v)
    ww, _, _ = at_points(w)
    conv = np.einsum("pa,pca->pc", uu, gv)
    return float(np.einsum("p,pc,pc->", wdet, conv, ww))


def trilinear_bstar(space: VelocitySpace, u, v, w) -> float:
    """Skew-symmetric trilinear convection form
    0.5 * [((u . grad) v, w) - ((u . grad) w, v)].
    """
    t1 = _convective_integral(space, u, v, w)
    t2 = _convective_integral(space, u, w, v)
    return 0.5 * (t1 - t2)


def reference_step(ops, filt, cfg, a_k, f_next):
    """One implicit Euler step, filtering then contracting on every
    Picard iteration; returns (a_next, picard_iterations).

    The advecting field filt(a) is solved for and contracted with T
    afresh for each solve and each residual.
    """

    def adv(a):
        abar = cho_solve(filt.cho, a) if filt is not None else a
        return np.tensordot(abar, ops.tensor, axes=(0, 0)).T

    core = np.eye(ops.r) / cfg.dt + cfg.nu * ops.s_r
    rhs = a_k / cfg.dt + f_next
    denom = np.linalg.norm(rhs) or 1.0
    if cfg.linearization == "semi-implicit":
        return np.linalg.solve(core + adv(a_k), rhs), 1
    a = a_k
    for it in range(1, cfg.picard_max_iters + 1):
        a = np.linalg.solve(core + adv(a), rhs)
        residual = np.linalg.norm(core @ a + adv(a) @ a - rhs) / denom
        if residual <= cfg.picard_tol:
            return a, it
    raise RuntimeError(f"reference Picard did not converge ({residual:.3e})")


def reference_run(ops, filt, cfg):
    """March reference_step from ops.a0; returns (states, iter_counts)."""
    states = [ops.a0]
    iters = []
    for k in range(cfg.n_steps):
        a, it = reference_step(ops, filt, cfg, states[-1], ops.forcing[k + 1])
        states.append(a)
        iters.append(it)
    return np.array(states), np.array(iters)


def avg_filter_errors_fe(basis, r, delta, u, m_op, s_op):
    """Mean squared L2 and H1-seminorm filtering errors of the (N, K)
    snapshots u, each snapshot's error u_k - Phi_r filt(a_k) formed as
    an FE vector."""
    filt = build_filter(basis.grad_gram[:r, :r], delta)
    coords = basis.modes[:, :r].T @ (m_op @ u)
    abar = apply_filter(filt, coords)
    err = u - basis.modes[:, :r] @ abar
    e_l2 = float(np.mean(np.sum(err * (m_op @ err), axis=0)))
    e_h1 = float(np.mean(np.sum(err * (s_op @ err), axis=0)))
    return e_l2, e_h1


def _coeffs(u, op):
    u = np.asarray(u, dtype=float)
    if u.shape[0] != op.shape[0]:
        raise ValueError("dimension mismatch")
    return u


def l2_norm(m_op, u) -> float:
    u = _coeffs(u, m_op)
    return float(np.sqrt(max(u @ (m_op @ u), 0.0)))


def h1_semi_norm(s_op, u) -> float:
    u = _coeffs(u, s_op)
    return float(np.sqrt(max(u @ (s_op @ u), 0.0)))


def l2_inner(m_op, u, v) -> float:
    return float(_coeffs(u, m_op) @ (m_op @ _coeffs(v, m_op)))


def signed_areas(mesh) -> np.ndarray:
    """Signed area of each triangle, positive when counterclockwise."""
    p = mesh.nodes[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def velocity_grad(sol, x, y, t):
    """Jacobian entries (du/dx, du/dy, dv/dx, dv/dy) of the analytic
    velocity, from the profile derivative its forcing uses.

    du/dx and dv/dy vanish identically.
    """
    zeros = np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)
    return zeros, sol._g_s(y, t), sol._g_s(x, t), zeros.copy()
