"""Quadratic Lagrange vector finite elements on structured triangle meshes.

Only the velocity component of the Taylor-Hood pair is built: scalar P2
shape functions on each triangle, two components stacked as
[x-component dofs | y-component dofs]. No essential boundary conditions
are eliminated anywhere; operators are assembled over all dofs.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh, build_mesh

__all__ = [
    "TriangleRule",
    "triangle_rule",
    "VelocitySpace",
    "build_space",
    "assemble_mass",
    "assemble_stiffness",
    "interpolate",
]


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature rule on the reference triangle (0,0)-(1,0)-(0,1).

    Weights include the reference-triangle area, i.e. they sum to 1/2.
    """

    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)
    degree: int


# Symmetric 6-point rule, exact for polynomials of degree 4.
_DUNAVANT4_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_A1, _B1 = 0.445948490915965, 0.108103018168070
_A2, _B2 = 0.091576213509771, 0.816847572980459
_DUNAVANT4_P = np.array(
    [
        [_A1, _A1], [_B1, _A1], [_A1, _B1],
        [_A2, _A2], [_B2, _A2], [_A2, _B2],
    ]
)


def triangle_rule(degree: int) -> TriangleRule:
    """Return a quadrature rule exact for polynomials up to `degree`.

    Degree <= 4 uses the symmetric 6-point rule; higher degrees use a
    Gauss-Legendre product rule collapsed onto the triangle (Duffy map),
    which is exact for any requested degree.
    """
    if degree <= 4:
        return TriangleRule(points=_DUNAVANT4_P.copy(),
                            weights=0.5 * _DUNAVANT4_W.copy(), degree=4)
    # Duffy: xi = u, eta = v * (1 - u), Jacobian (1 - u). The extra factor
    # raises the u-degree by one, hence the +2 below.
    p = (degree + 3) // 2
    gu, wu = np.polynomial.legendre.leggauss(p)
    gu = 0.5 * (gu + 1.0)
    wu = 0.5 * wu
    u, v = np.meshgrid(gu, gu, indexing="ij")
    wuu, wvv = np.meshgrid(wu, wu, indexing="ij")
    xi = u.ravel()
    eta = (v * (1.0 - u)).ravel()
    w = (wuu * wvv * (1.0 - u)).ravel()
    return TriangleRule(points=np.column_stack([xi, eta]), weights=w,
                        degree=degree)


def _p2_values(pts: np.ndarray) -> np.ndarray:
    """P2 shape functions at reference points, shape (nq, 6).

    Local node order: 3 vertices, then midpoints of edges (0,1), (1,2),
    (0,2).
    """
    xi, eta = pts[:, 0], pts[:, 1]
    l0 = 1.0 - xi - eta
    l1 = xi
    l2 = eta
    return np.column_stack(
        [
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l0 * l1,
            4 * l1 * l2,
            4 * l0 * l2,
        ]
    )


def _p2_ref_grads(pts: np.ndarray) -> np.ndarray:
    """Reference gradients of the P2 shape functions, shape (nq, 6, 2)."""
    xi, eta = pts[:, 0], pts[:, 1]
    l0 = 1.0 - xi - eta
    nq = len(xi)
    g = np.zeros((nq, 6, 2))
    # dl0 = (-1,-1), dl1 = (1,0), dl2 = (0,1)
    g[:, 0, 0] = -(4 * l0 - 1)
    g[:, 0, 1] = -(4 * l0 - 1)
    g[:, 1, 0] = 4 * xi - 1
    g[:, 2, 1] = 4 * eta - 1
    g[:, 3, 0] = 4 * (l0 - xi)
    g[:, 3, 1] = -4 * xi
    g[:, 4, 0] = 4 * eta
    g[:, 4, 1] = 4 * xi
    g[:, 5, 0] = -4 * eta
    g[:, 5, 1] = 4 * (l0 - eta)
    return g


@dataclass(frozen=True)
class VelocitySpace:
    """Vector P2 space on a structured TriMesh.

    Scalar dofs live on the refined (2n+1) x (2n+1) grid (vertices plus
    edge midpoints). The full coefficient vector stacks the x-component
    first, then the y-component.
    """

    mesh: TriMesh
    rule: TriangleRule
    edofs: np.ndarray         # (nel, 6) scalar dof indices per triangle
    dof_coords: np.ndarray    # (Ns, 2) P2 node coordinates
    shape_vals: np.ndarray    # (nq, 6)
    phys_grads: np.ndarray    # (2, nq, 6, 2): per orientation
    det_j: float

    @property
    def n_scalar(self) -> int:
        return self.dof_coords.shape[0]

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_scalar

    def orientation_elements(self, o: int) -> np.ndarray:
        """Element indices of orientation o (0: lower, 1: upper triangle)."""
        return np.arange(o, self.edofs.shape[0], 2)


def build_space(n_or_mesh, quad_degree: int = 4) -> VelocitySpace:
    """Construct the vector P2 space on an n x n structured mesh."""
    mesh = n_or_mesh if isinstance(n_or_mesh, TriMesh) else build_mesh(n_or_mesh)
    n = mesh.n
    m = 2 * n + 1
    side = np.linspace(0.0, 1.0, m)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    dof_coords = np.column_stack([xx.ravel(), yy.ravel()])

    # Triangle vertices on the fine grid (units of h/2).
    vi = mesh.triangles % (n + 1)
    vj = mesh.triangles // (n + 1)
    fx = 2 * vi
    fy = 2 * vj
    mid_fx = (fx + np.roll(fx, -1, axis=1))[:, [0, 1, 2]] // 2
    mid_fy = (fy + np.roll(fy, -1, axis=1))[:, [0, 1, 2]] // 2
    # local order: v0 v1 v2, mid(0,1), mid(1,2), mid(0,2)
    efx = np.column_stack([fx, mid_fx[:, 0], mid_fx[:, 1], mid_fx[:, 2]])
    efy = np.column_stack([fy, mid_fy[:, 0], mid_fy[:, 1], mid_fy[:, 2]])
    edofs = efy * m + efx

    rule = triangle_rule(quad_degree)
    shape_vals = _p2_values(rule.points)
    ref_grads = _p2_ref_grads(rule.points)

    h = mesh.h
    jac = np.array(
        [
            [[h, h], [0.0, h]],   # (p00, p10, p11)
            [[h, 0.0], [h, h]],   # (p00, p11, p01)
        ]
    )
    det_j = h * h
    phys_grads = np.empty((2, len(rule.weights), 6, 2))
    for o in range(2):
        jinv_t = np.linalg.inv(jac[o]).T
        phys_grads[o] = ref_grads @ jinv_t.T
    return VelocitySpace(mesh=mesh, rule=rule, edofs=edofs,
                         dof_coords=dof_coords, shape_vals=shape_vals,
                         phys_grads=phys_grads, det_j=det_j)


def _assemble_scalar(space: VelocitySpace, local: np.ndarray) -> sp.csr_matrix:
    """Scatter per-orientation 6x6 local matrices into a scalar CSR."""
    ns = space.n_scalar
    rows, cols, vals = [], [], []
    for o in range(2):
        els = space.orientation_elements(o)
        ed = space.edofs[els]
        rows.append(np.repeat(ed, 6, axis=1).ravel())
        cols.append(np.tile(ed, (1, 6)).ravel())
        vals.append(np.tile(local[o].ravel(), len(els)))
    a = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ns, ns),
    ).tocsr()
    a = (a + a.T) * 0.5  # enforce exact symmetry
    a.eliminate_zeros()
    return a


def _vectorize(scalar: sp.csr_matrix) -> sp.csr_matrix:
    return sp.block_diag([scalar, scalar], format="csr")


def assemble_mass(space: VelocitySpace) -> sp.csr_matrix:
    """L2 mass operator, block-diagonal over the two components."""
    w = space.rule.weights
    nvals = space.shape_vals
    mloc = space.det_j * np.einsum("q,ql,qm->lm", w, nvals, nvals)
    mloc = 0.5 * (mloc + mloc.T)
    return _vectorize(_assemble_scalar(space, np.stack([mloc, mloc])))


def assemble_stiffness(space: VelocitySpace) -> sp.csr_matrix:
    """Gradient inner-product operator (no boundary elimination)."""
    w = space.rule.weights
    local = np.empty((2, 6, 6))
    for o in range(2):
        g = space.phys_grads[o]
        kloc = space.det_j * np.einsum("q,qla,qma->lm", w, g, g)
        local[o] = 0.5 * (kloc + kloc.T)
    return _vectorize(_assemble_scalar(space, local))


def interpolate(space: VelocitySpace, g: Callable,
                t: float | None = None) -> np.ndarray:
    """Nodal interpolant: the coefficient vector of g at the P2 nodes.

    g is called as g(x, y) or g(x, y, t) and must return the two
    velocity components (arrays broadcast over the nodes).
    """
    x = space.dof_coords[:, 0]
    y = space.dof_coords[:, 1]
    out = g(x, y) if t is None else g(x, y, t)
    u, v = out
    u = np.broadcast_to(np.asarray(u, dtype=float), x.shape)
    v = np.broadcast_to(np.asarray(v, dtype=float), x.shape)
    coeffs = np.concatenate([u, v])
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("function evaluation produced non-finite nodal values")
    return coeffs


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
