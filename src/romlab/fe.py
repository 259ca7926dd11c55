"""Quadratic Lagrange vector finite elements on structured triangle meshes.

Only the velocity component of the Taylor-Hood pair is built: scalar P2
shape functions on each triangle, two components stacked as
[x-component dofs | y-component dofs]. No essential boundary conditions
are eliminated anywhere; operators are assembled over all dofs. Every
space integrates with one rule, the symmetric 6-point rule of degree 4.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "TriangleRule",
    "VelocitySpace",
    "build_space",
    "assemble_mass",
    "assemble_stiffness",
]


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature rule on the reference triangle (0,0)-(1,0)-(0,1).

    Weights include the reference-triangle area, i.e. they sum to 1/2.
    """

    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)


# Symmetric 6-point rule, exact for polynomials of degree 4. Every space
# shares it, so its arrays are read-only.
_A1, _B1 = 0.445948490915965, 0.108103018168070
_A2, _B2 = 0.091576213509771, 0.816847572980459
_RULE = TriangleRule(
    points=np.array([[_A1, _A1], [_B1, _A1], [_A1, _B1],
                     [_A2, _A2], [_B2, _A2], [_A2, _B2]]),
    weights=0.5 * np.array([0.223381589678011] * 3
                           + [0.109951743655322] * 3))
_RULE.points.flags.writeable = _RULE.weights.flags.writeable = False


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
    """Vector P2 space on the n x n structured triangulation of [0,1]^2.

    Scalar dofs are the nodes of the y-major m x m grid (m = 2n + 1,
    x fastest): vertices plus edge midpoints. Square s = j n + i is
    split along its lower-left to upper-right diagonal; triangles 2s and
    2s + 1 are its lower and upper halves. The full coefficient vector
    stacks the x-component first, then the y-component.
    """

    n: int
    rule: TriangleRule
    edofs: np.ndarray         # (nel, 6) scalar dof indices per triangle
    shape_vals: np.ndarray    # (nq, 6)
    phys_grads: np.ndarray    # (2, nq, 6, 2): per orientation
    det_j: float

    @property
    def n_scalar(self) -> int:
        return (2 * self.n + 1) ** 2

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_scalar

    def grid_side(self) -> np.ndarray:
        """The m = 2n + 1 node coordinates along a side."""
        return np.linspace(0.0, 1.0, 2 * self.n + 1)


# The largest mesh size: node indices, below 2 (2n + 1)^2, stay far inside
# int64, and memory limits a practical n long before: n = 1024 has 8.4
# million dofs, M and S take 1.2 GB each, and the tensor's and the
# forcing's N x r inputs, the full-height modes, 6.7 GB each at r = 99.
MESH_N_MAX = 2 ** 20


def check_mesh_n(n) -> None:
    """The one mesh-size rule: an int, not a bool, in [1, MESH_N_MAX]."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) \
            or not 1 <= n <= MESH_N_MAX:
        raise ValueError(f"mesh_n must be an integer n in [1, {MESH_N_MAX}],"
                         f" got {n!r}")


def build_space(n: int) -> VelocitySpace:
    """Construct the vector P2 space on the n x n structured mesh."""
    check_mesh_n(n)
    m = 2 * n + 1
    # Offsets from the square's lower-left node, in the local order
    # v0 v1 v2, mid(0,1), mid(1,2), mid(0,2).
    offsets = np.array([[0, 2, 2 * m + 2, 1, m + 2, m + 1],     # lower
                        [0, 2 * m + 2, 2 * m, m + 1, 2 * m + 1, m]],  # upper
                       dtype=np.int64)
    sq = np.arange(n, dtype=np.int64)
    corner = 2 * (m * sq[:, None] + sq).ravel()
    edofs = (corner[:, None, None] + offsets).reshape(-1, 6)

    shape_vals = _p2_values(_RULE.points)
    ref_grads = _p2_ref_grads(_RULE.points)

    h = 1.0 / n
    jac = np.array(
        [
            [[h, h], [0.0, h]],   # (p00, p10, p11)
            [[h, 0.0], [h, h]],   # (p00, p11, p01)
        ]
    )
    det_j = h * h
    phys_grads = np.empty((2, len(_RULE.weights), 6, 2))
    for o in range(2):
        jinv_t = np.linalg.inv(jac[o]).T
        phys_grads[o] = ref_grads @ jinv_t.T
    return VelocitySpace(n=n, rule=_RULE, edofs=edofs, shape_vals=shape_vals,
                         phys_grads=phys_grads, det_j=det_j)


def _assemble(space: VelocitySpace, local: np.ndarray) -> sp.csr_matrix:
    """Scatter per-orientation 6x6 local matrices into the two-component
    block-diagonal CSR.

    scipy's coo -> csr conversion sums the duplicate triplets, and its
    order of summation sets the bits. The triplets' indices are int32
    unless scipy's index-dtype rule needs int64, and they are freed
    before exact symmetry is enforced. Both components' blocks are then
    written from the one scalar CSR's arrays.
    """
    ns, nel = space.n_scalar, space.edofs.shape[0]
    idx = sp.get_index_dtype(maxval=max(36 * nel, ns))
    rows = np.empty((2, nel // 2, 6, 6), dtype=idx)  # orientation 0 first
    cols = np.empty_like(rows)
    vals = np.empty(rows.shape)
    for o in range(2):
        ed = space.edofs[o::2]
        rows[o] = ed[:, :, None]
        cols[o] = ed[:, None, :]
        vals[o] = local[o]
    a = sp.coo_matrix((vals.reshape(-1), (rows.reshape(-1), cols.reshape(-1))),
                      shape=(ns, ns))
    del rows, cols, vals
    a = a.tocsr()
    # (a + a^T) / 2 for exact symmetry: an element couples its six dofs
    # both ways, so a^T has a's sorted pattern, and its values are those
    # of a.T.tocsr() in a's order (x + y == y + x, bit for bit)
    a.data += a.T.tocsr().data
    a.data *= 0.5
    a.eliminate_zeros()
    nnz = a.nnz
    idx = sp.get_index_dtype(maxval=2 * max(nnz, ns))
    indptr = np.empty(2 * ns + 1, dtype=idx)
    indices = np.empty(2 * nnz, dtype=idx)
    indptr[:ns + 1], indices[:nnz] = a.indptr, a.indices
    np.add(a.indptr[1:], nnz, out=indptr[ns + 1:], dtype=idx)
    np.add(a.indices, ns, out=indices[nnz:], dtype=idx)
    return sp.csr_matrix((np.concatenate([a.data, a.data]), indices, indptr),
                         shape=(2 * ns, 2 * ns))


def assemble_mass(space: VelocitySpace) -> sp.csr_matrix:
    """L2 mass operator, block-diagonal over the two components."""
    w = space.rule.weights
    nvals = space.shape_vals
    mloc = space.det_j * np.einsum("q,ql,qm->lm", w, nvals, nvals)
    mloc = 0.5 * (mloc + mloc.T)
    return _assemble(space, np.stack([mloc, mloc]))


def assemble_stiffness(space: VelocitySpace) -> sp.csr_matrix:
    """Gradient inner-product operator (no boundary elimination)."""
    w = space.rule.weights
    local = np.empty((2, 6, 6))
    for o in range(2):
        g = space.phys_grads[o]
        kloc = space.det_j * np.einsum("q,qla,qma->lm", w, g, g)
        local[o] = 0.5 * (kloc + kloc.T)
    return _assemble(space, local)

