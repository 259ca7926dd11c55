import itertools

import numpy as np
import pytest

from oracles import signed_areas
from romlab.mesh import build_mesh


def test_single_square():
    mesh = build_mesh(1)
    assert mesh.nodes.shape == (4, 2)
    assert mesh.triangles.shape == (2, 3)
    assert mesh.h == 1.0


def test_invalid_n():
    with pytest.raises(ValueError):
        build_mesh(0)
    with pytest.raises(ValueError):
        build_mesh(-3)


def test_counts_and_tiling():
    for n in (1, 2, 3, 8):
        mesh = build_mesh(n)
        assert mesh.nodes.shape == ((n + 1) ** 2, 2)
        assert mesh.triangles.shape == (2 * n * n, 3)
        areas = signed_areas(mesh)
        assert np.all(areas > 0)
        assert np.allclose(areas, 0.5 / n ** 2, rtol=1e-13)
        assert abs(areas.sum() - 1.0) < 1e-13
        assert mesh.nodes.min() == 0.0 and mesh.nodes.max() == 1.0


def test_edge_incidence_brute_force():
    """Every interior edge is shared by exactly two triangles, every
    boundary edge by one, counted from scratch on the n = 3 mesh."""
    mesh = build_mesh(3)
    counts = {}
    for tri in mesh.triangles:
        for a, b in itertools.combinations(sorted(tri), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    on_boundary = np.any(
        (mesh.nodes == 0.0) | (mesh.nodes == 1.0), axis=1)
    for (a, b), c in counts.items():
        pa, pb = mesh.nodes[a], mesh.nodes[b]
        boundary_edge = (
            on_boundary[a] and on_boundary[b]
            and (pa[0] == pb[0] and pa[0] in (0.0, 1.0)
                 or pa[1] == pb[1] and pa[1] in (0.0, 1.0)))
        assert c == (1 if boundary_edge else 2), (a, b)
    # Euler check: V - E + F = 1 for a planar disc triangulation
    v = mesh.nodes.shape[0]
    e = len(counts)
    f = mesh.triangles.shape[0]
    assert v - e + f == 1


def test_diagonal_orientation():
    """The split runs from the lower-left to the upper-right corner."""
    mesh = build_mesh(2)
    first = mesh.nodes[mesh.triangles[0]]
    assert np.allclose(first, [[0, 0], [0.5, 0], [0.5, 0.5]])
    second = mesh.nodes[mesh.triangles[1]]
    assert np.allclose(second, [[0, 0], [0.5, 0.5], [0, 0.5]])
