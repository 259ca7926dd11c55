"""Structured triangular meshes on the unit square."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TriMesh:
    """Uniform triangulation of [0,1]^2 with n x n squares, each split
    along the lower-left to upper-right diagonal.

    Attributes
    ----------
    n : int
        Squares per side; the mesh size is h = 1/n.
    nodes : (n+1)^2 x 2 array
        Vertex coordinates, lexicographic in (x, y) with x fastest.
    triangles : 2*n^2 x 3 int array
        Vertex index triples, counterclockwise (positive signed area).
    """

    n: int
    nodes: np.ndarray
    triangles: np.ndarray

    @property
    def h(self) -> float:
        return 1.0 / self.n


def build_mesh(n: int) -> TriMesh:
    """Build the n x n structured triangle mesh on the unit square.

    Every square (i, j) is split into the two triangles
    (p00, p10, p11) and (p00, p11, p01), i.e. along the diagonal from
    the lower-left to the upper-right corner.
    """
    if n < 1:
        raise ValueError(f"mesh requires n >= 1, got {n}")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    i = i.ravel()
    j = j.ravel()
    p00 = j * (n + 1) + i
    p10 = j * (n + 1) + i + 1
    p11 = (j + 1) * (n + 1) + i + 1
    p01 = (j + 1) * (n + 1) + i

    tri = np.empty((2 * n * n, 3), dtype=np.int64)
    tri[0::2] = np.column_stack([p00, p10, p11])
    tri[1::2] = np.column_stack([p00, p11, p01])
    return TriMesh(n=n, nodes=nodes, triangles=tri)
