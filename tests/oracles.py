"""Independent reference implementations used only by the tests.

Everything here is written from scratch against the mathematical
definitions (barycentric P2 shape functions, per-triangle Gauss
quadrature by duffy_rule, the Gauss product rule collapsed onto the
triangle) and deliberately shares no code paths with the package
internals it is used to check. The exceptions are at the end.
space_on_rule rebuilds a space's shape tables on another rule, such as
duffy_rule's, with the package's own P2 shape functions; it checks
assembly and b* on rules of higher degree than the package's one
degree-4 rule. quad_point_data evaluates fields at the quadrature points
element by element from the space's shape tables, and trilinear_bstar
evaluates b* from it one triple at a time; they check the blocked
tensor build, which evaluates all modes by dense products against the
same tables and contracts all triples at once. reference_step
is the Picard step in its unfolded form (filter, then contract, on
every iteration), and checks the stepper that folds the filter into
the tensor once per run. longdouble_run marches the same scheme in
np.longdouble, with Gaussian elimination for its solves, as numpy.linalg
has no long double: it measures the accuracy of both double steppers,
where reference_step measures only their agreement. folded_tensor is that folded (r, r^2) tensor
and unfolded_r the R factor of T's unfolding, from which run reads the
folded tensor's rank. energy_ledger_einsum sums the energy ledger's
quadratic forms with one three-operand einsum, and checks
stability_check, which forms them by one GEMM. avg_filter_errors_fe
forms each snapshot's filtering error in the FE space, and checks the
filter studies, which evaluate it from the snapshot Gram matrices.
interpolate is the nodal interpolant of a function called on the dof
coordinates, and checks the snapshots, which call the velocity once on
broadcast grid axes. project_Pr gives the coordinates (v, phi_i) of an
FE vector. final_time_error_fe forms the final-time error in the FE
space from the interpolant of u(T), and checks final_time_error, which
reads the last snapshot's POD coordinates. correlation_matrix and
symmetric_eig are the POD's correlation matrix and its eigendecomposition
with a symmetry check, which build_pod_basis forms inline. full_modes
expands a basis's modes, kept on the snapshots' distinct rows, to the
(N, d) mode coefficient vectors that the FE-space oracles read. l2_norm,
h1_semi_norm and l2_inner are the FE norms of coefficient vectors,
through the assembled operators. node_coords and signed_areas are the dofs' coordinates and
the triangle areas, and velocity_grad is the analytic velocity's
Jacobian, which only the tests read. assemble_scalar and vectorize
build M and S through int64 COO triplets, (a + a.T) * 0.5 and
sp.block_diag, and check fe's assembly, whose CSR arrays must equal
theirs bit for bit. p2_1d_matrices, separable_pod and separable_tensor
solve the benchmark flow as the 1-D P2 problem it reduces to, from
closed-form element matrices and with no use of romlab.fe, and check
the operators, the POD and the tensor.
"""

from dataclasses import replace
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from romlab.fe import TriangleRule, VelocitySpace, _p2_ref_grads, _p2_values
from romlab.filtering import apply_filter, build_filter
from romlab.pod import PODBasis


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


def duffy_rule(p) -> TriangleRule:
    """The p x p Gauss-Legendre product rule collapsed onto the reference
    triangle (0,0)-(1,0)-(0,1) by the Duffy map xi = u, eta = v (1 - u).

    The Jacobian (1 - u) raises the u-degree by one, so the rule is exact
    for polynomials of degree 2p - 2. The weights sum to 1/2.
    """
    gu, wu = np.polynomial.legendre.leggauss(p)
    gu = 0.5 * (gu + 1.0)
    wu = 0.5 * wu
    u, v = np.meshgrid(gu, gu, indexing="ij")
    return TriangleRule(
        points=np.column_stack([u.ravel(), (v * (1.0 - u)).ravel()]),
        weights=(np.outer(wu, wu) * (1.0 - u)).ravel())


def triangle_quad_points(n, p=8):
    """Per-triangle Gauss points via the Duffy map, built from scratch.

    Returns (pts, w): all quadrature points (nt*p*p, 2) on the n x n
    structured triangulation and matching weights (physical measure
    included).
    """
    rule = duffy_rule(p)
    xi, eta = rule.points.T
    wq = rule.weights

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


def space_on_rule(space: VelocitySpace, rule: TriangleRule) -> VelocitySpace:
    """The space with its quadrature rule replaced by rule: the package's
    P2 shape tables at the new points, with the gradients mapped by each
    orientation's Jacobian, read from its first element's vertices."""
    verts = node_coords(space)[space.edofs[:2, :3]]         # (2, 3, 2)
    # columns p1 - p0 and p2 - p0 per orientation
    jac = (verts[:, 1:] - verts[:, :1]).transpose(0, 2, 1)
    ref_grads = _p2_ref_grads(rule.points)
    phys_grads = np.stack([ref_grads @ np.linalg.inv(j) for j in jac])
    return replace(space, rule=rule, shape_vals=_p2_values(rule.points),
                   phys_grads=phys_grads)


def quad_point_data(space: VelocitySpace, coeffs: np.ndarray,
                    elements: np.ndarray):
    """Values and gradients at the quadrature points of given elements.

    coeffs is an (n_dofs, r) matrix, one field per column. Returns
    (vals, grads, wdet) with shapes (ne*nq, r, 2), (ne*nq, r, 2, 2),
    (ne*nq,); the gradient axes are (component, derivative direction).
    """
    r = coeffs.shape[1]
    ns = space.n_scalar
    nq = len(space.rule.weights)
    ne = len(elements)
    nvals = space.shape_vals

    vals = np.empty((ne, nq, r, 2))
    grads = np.empty((ne, nq, r, 2, 2))
    # orientation is element parity on this structured mesh
    for o in range(2):
        sel = np.nonzero(elements % 2 == o)[0]
        if len(sel) == 0:
            continue
        ed = space.edofs[elements[sel]]            # (m, 6)
        g = space.phys_grads[o]                    # (nq, 6, 2)
        for comp in range(2):
            el_c = coeffs[comp * ns:(comp + 1) * ns][ed]   # (m, 6, r)
            vals[sel, :, :, comp] = np.einsum("ql,mlr->mqr", nvals, el_c)
            grads[sel, :, :, comp, :] = np.einsum("qla,mlr->mqra", g, el_c)
    wdet = np.tile(space.rule.weights * space.det_j, ne)
    return vals.reshape(ne * nq, r, 2), grads.reshape(ne * nq, r, 2, 2), wdet


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
        abar = (cho_solve(cho_factor(filt), a) if filt is not None
                else a)
        return np.tensordot(abar, ops.tensor, axes=(0, 0)).T

    core = np.eye(ops.s_r.shape[0]) / cfg.dt + cfg.nu * ops.s_r
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


def _lu_factor(a):
    """Gaussian elimination with partial pivoting in np.longdouble:
    (lu, piv) with the unit lower and the upper factor in lu, and
    a[piv] = L U. Column k of L and row k of U are formed from the
    earlier ones by one np.dot each (Crout's order), which runs about
    2.5 times faster on long doubles than rank-one updates."""
    lu = np.array(a, dtype=np.longdouble)
    piv = np.arange(lu.shape[0])
    for k in range(lu.shape[0]):
        lu[k:, k] -= np.dot(lu[k:, :k], lu[:k, k])
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        lu[[k, p]] = lu[[p, k]]
        piv[[k, p]] = piv[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k, k + 1:] -= np.dot(lu[:k, k + 1:].T, lu[k, :k])
    return lu, piv


def _lu_solve(factors, b):
    """x with a x = b for the factors of a from _lu_factor, b a vector."""
    lu, piv = factors
    x = np.asarray(b, dtype=np.longdouble)[piv]
    for k in range(x.size):
        x[k + 1:] -= lu[k + 1:, k] * x[k]
    for k in range(x.size - 1, -1, -1):
        x[k] /= lu[k, k]
        x[:k] -= lu[:k, k] * x[k]
    return x


def longdouble_run(ops, filt, cfg):
    """reference_run's Picard scheme (the default linearization) marched
    in np.longdouble from the double inputs (T, S_r, a0, F and the filter
    matrix), taken exactly; returns (states, iter_counts), the states in
    long double. The filter is factored once, and the matrix of each
    Picard solve by _lu_factor. The advection matrix formed for an
    iterate's residual is that of the next solve, so it is formed once."""
    ld = np.longdouble
    # T as [k, j, i], so that the contraction over i runs along rows
    t_kji = np.ascontiguousarray(ops.tensor.transpose(2, 1, 0), dtype=ld)
    f_lu = _lu_factor(filt)
    core = np.eye(ops.s_r.shape[0], dtype=ld) / ld(cfg.dt) \
        + ld(cfg.nu) * ops.s_r.astype(ld)

    def adv(a):
        return np.dot(t_kji, _lu_solve(f_lu, a))

    states = [ops.a0.astype(ld)]
    iters = []
    for k in range(cfg.n_steps):
        rhs = states[-1] / ld(cfg.dt) + ops.forcing[k + 1].astype(ld)
        denom = np.sqrt(rhs @ rhs) or ld(1)
        adv_a = adv(states[-1])
        for it in range(1, cfg.picard_max_iters + 1):
            a = _lu_solve(_lu_factor(core + adv_a), rhs)
            adv_a = adv(a)
            res = core @ a + adv_a @ a - rhs
            if np.sqrt(res @ res) / denom <= cfg.picard_tol:
                break
        else:
            raise RuntimeError("long-double Picard did not converge")
        states.append(a)
        iters.append(it)
    return np.array(states), np.array(iters)


def folded_tensor(tensor, filt):
    """The (r, r*r) tensor t2 whose advection matrix at a is B(filt^-1 a),
    the filter folded into T; filt=None is the identity."""
    t2 = tensor.reshape(tensor.shape[0], -1)
    return t2 if filt is None else apply_filter(filt, t2)


def unfolded_r(tensor):
    """R of the QR of the transposed unfolding, t2^T = Q R for the
    (r, r*r) reshape t2 of T."""
    return np.linalg.qr(tensor.reshape(tensor.shape[0], -1).T, mode="r")


def energy_ledger_einsum(states, s_r, dt):
    """q(M~) = |a_M~|^2 + dt * sum_{k<M~} a_{k+1}^T S_r a_{k+1} for the
    (M+1, r) state series, the quadratic forms by einsum."""
    grad_energy = np.einsum("ki,ij,kj->k", states[1:], s_r, states[1:])
    cum = dt * np.concatenate([[0.0], np.cumsum(grad_energy)])
    return np.sum(states * states, axis=1) + cum


def avg_filter_errors_fe(basis, r, delta, u, m_op, s_op):
    """Mean squared L2 and H1-seminorm filtering errors of the (N, K)
    snapshots u, each snapshot's error u_k - Phi_r filt(a_k) formed as
    an FE vector."""
    filt = build_filter(basis.grad_gram[:r, :r], delta)
    phi = full_modes(basis)[:, :r]
    coords = phi.T @ (m_op @ u)
    abar = apply_filter(filt, coords)
    err = u - phi @ abar
    e_l2 = float(np.mean(np.sum(err * (m_op @ err), axis=0)))
    e_h1 = float(np.mean(np.sum(err * (s_op @ err), axis=0)))
    return e_l2, e_h1


def interpolate(space: VelocitySpace, g: Callable,
                t: float | None = None) -> np.ndarray:
    """Nodal interpolant: the coefficient vector of g at the P2 nodes.

    g is called as g(x, y) or g(x, y, t) and must return the two
    velocity components (arrays broadcast over the nodes).
    """
    x, y = node_coords(space).T
    out = g(x, y) if t is None else g(x, y, t)
    u, v = out
    u = np.broadcast_to(np.asarray(u, dtype=float), x.shape)
    v = np.broadcast_to(np.asarray(v, dtype=float), x.shape)
    coeffs = np.concatenate([u, v])
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("function evaluation produced non-finite nodal values")
    return coeffs


def project_Pr(basis: PODBasis, r: int, m_op: sp.csr_matrix,
               v) -> np.ndarray:
    """ROM L2 projection coordinates a_i = (v, phi_i), i = 1..r."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != m_op.shape[0]:
        raise ValueError("dimension mismatch")
    return full_modes(basis)[:, :r].T @ (m_op @ v)


def final_time_error_fe(traj, solution, basis: PODBasis, r: int,
                        m_op: sp.csr_matrix, space, t_final: float,
                        variant: str = "rom", filt=None) -> float:
    """L2 error at the final time, formed as an FE vector.

    variant="rom" measures |u(T) - u_r(T)|; variant="filtered-snapshot"
    measures |u(T) - filt(P_r u(T))| instead (the literal filtered-
    snapshot definition), which needs the filter matrix.
    """
    u_exact = interpolate(space, solution.velocity, t_final)
    phi = full_modes(basis)[:, :r]
    if variant == "rom":
        approx = phi @ traj.final_state
    elif variant == "filtered-snapshot":
        if filt is None:
            raise ValueError("filtered-snapshot variant needs a filter")
        coords = project_Pr(basis, r, m_op, u_exact)
        approx = phi @ apply_filter(filt, coords)
    else:
        raise ValueError(f"unknown final-error variant {variant!r}")
    diff = u_exact - approx
    return float(np.sqrt(max(diff @ (m_op @ diff), 0.0)))


def full_modes(basis: PODBasis) -> np.ndarray:
    """The (N, d) mode coefficient vectors, modes[rows]."""
    return basis.modes[basis.rows]


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


def node_coords(space: VelocitySpace) -> np.ndarray:
    """(N_s, 2) coordinates of the scalar dofs, the y-major grid of
    grid_side() with x fastest."""
    side = space.grid_side()
    return np.column_stack([np.tile(side, side.size),
                            np.repeat(side, side.size)])


def signed_areas(space: VelocitySpace) -> np.ndarray:
    """Signed area of each triangle, from its vertex dofs' coordinates;
    positive when counterclockwise."""
    p = node_coords(space)[space.edofs[:, :3]]
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


def assemble_scalar(space: VelocitySpace, local: np.ndarray) -> sp.csr_matrix:
    """Scatter per-orientation 6x6 local matrices into a scalar CSR."""
    ns = space.n_scalar
    rows, cols, vals = [], [], []
    for o in range(2):
        ed = space.edofs[o::2]
        rows.append(np.repeat(ed, 6, axis=1).ravel())
        cols.append(np.tile(ed, (1, 6)).ravel())
        vals.append(np.tile(local[o].ravel(), len(ed)))
    a = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ns, ns),
    ).tocsr()
    a = (a + a.T) * 0.5  # enforce exact symmetry
    a.eliminate_zeros()
    return a


def vectorize(scalar: sp.csr_matrix) -> sp.csr_matrix:
    return sp.block_diag([scalar, scalar], format="csr")


def p2_1d_matrices(n: int) -> np.ndarray:
    """The 1-D P2 mass M1, stiffness K1 and D1[a, b] = int N_a' N_b on
    the m = 2n + 1 equispaced nodes of [0, 1], stacked (3, m, m), from
    the closed-form element matrices (nodes left, middle, right; element
    length h = 1/n)."""
    h = 1.0 / n
    local = np.array([
        h / 30 * np.array([[4, 2, -1], [2, 16, 2], [-1, 2, 4]]),
        1 / (3 * h) * np.array([[7, -8, 1], [-8, 16, -8], [1, -8, 7]]),
        np.array([[-3, -4, 1], [4, 0, -4], [-1, 4, 3]]) / 6])
    out = np.zeros((3, 2 * n + 1, 2 * n + 1))
    for e in range(n):
        out[:, 2 * e:2 * e + 3, 2 * e:2 * e + 3] += local
    return out


def separable_pod(n: int, solution, times, rank_tol: float = 1e-14):
    """The POD of the benchmark flow u = (g(y, t), g(x, t)) as a 1-D P2
    problem on the m = 2n + 1 grid nodes.

    On every triangle the six P2 nodes sit at y in {0, h/2, h}, so the
    P2 interpolant of a function of y alone is its 1-D P2 interpolant,
    and the degree-4 rule integrates its mass and stiffness exactly. A
    mode is (psi(y), psi(x)) for a profile psi, so with the profile
    samples G (m x K) the correlation matrix is 2 G^T M1 G / K and the
    gradient Gram matrix 2 Psi^T K1 Psi. Returns (eigenvalues, profiles
    Psi (m x d), grad_gram).
    """
    m1, k1, _ = p2_1d_matrices(n)
    side = np.linspace(0.0, 1.0, 2 * n + 1)
    g = solution.velocity(0.0, side[:, None], np.asarray(times))[0]
    count = g.shape[1]
    vals, vecs = symmetric_eig(2 * g.T @ (m1 @ g) / count)
    d = int(np.sum(vals > rank_tol * vals[0]))
    profiles = g @ (vecs[:, :d] / np.sqrt(count * vals[:d]))
    return vals[:d], profiles, 2 * profiles.T @ (k1 @ profiles)


def separable_tensor(profiles: np.ndarray) -> tuple:
    """(mu, T) for modes (psi_i(y), psi_i(x)): b*(phi_i, phi_j, phi_k) =
    mu_i (C_jk - C_kj) with mu = Psi^T M1 1 and C = Psi^T D1 Psi."""
    n = (profiles.shape[0] - 1) // 2
    m1, _, d1 = p2_1d_matrices(n)
    mu = profiles.T @ m1.sum(axis=1)
    c = profiles.T @ (d1 @ profiles)
    return mu, mu[:, None, None] * (c - c.T)[None]
