import itertools

import numpy as np
import pytest

import oracles
from oracles import (duffy_rule, h1_semi_norm, interpolate, l2_inner,
                     l2_norm, node_coords, signed_areas, space_on_rule,
                     trilinear_bstar)
from romlab import fe
from romlab.exact import AnalyticSolution
from romlab.fe import (MESH_N_MAX, assemble_mass, assemble_stiffness,
                       build_space)
from romlab.pod import collect_snapshots


# ---------------------------------------------------------------- quadrature

def test_rule_weights():
    low = build_space(1).rule
    assert low.points.shape == (6, 2)
    assert np.all(low.weights > 0)
    assert abs(low.weights.sum() - 0.5) < 1e-14
    high = duffy_rule(6)
    assert np.all(high.weights > 0)
    assert abs(high.weights.sum() - 0.5) < 1e-14


@pytest.mark.parametrize("degree", [5, 7, 10])
def test_rule_monomial_exactness(degree):
    """The oracle's product rule on (degree + 3) // 2 Gauss points per
    axis integrates x^a y^b exactly on the reference triangle; exact
    value a! b! / (a + b + 2)!."""
    rule = duffy_rule((degree + 3) // 2)
    from math import factorial
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = np.sum(rule.weights
                            * rule.points[:, 0] ** a
                            * rule.points[:, 1] ** b)
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            assert abs(approx - exact) < 1e-14, (a, b)


def test_dunavant_degree4_exact():
    rule = build_space(1).rule
    from math import factorial
    for a in range(5):
        for b in range(5 - a):
            approx = np.sum(rule.weights
                            * rule.points[:, 0] ** a
                            * rule.points[:, 1] ** b)
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            assert abs(approx - exact) < 1e-15, (a, b)


def test_spaces_share_no_writable_array():
    """Every space reads the one degree-4 rule, which is read-only."""
    a, b = build_space(2), build_space(3)
    assert a.rule is b.rule
    for arr in (a.rule.points, a.rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert not np.shares_memory(a.shape_vals, b.shape_vals)
    assert not np.shares_memory(a.phys_grads, b.phys_grads)


# ---------------------------------------------------------------- mesh
# The triangulation is read from the space: vertex dofs edofs[:, :3] and
# node coordinates from grid_side().

def test_mesh_single_square():
    space = build_space(1)
    assert len(np.unique(space.edofs[:, :3])) == 4
    assert space.edofs.shape == (2, 6)
    assert space.det_j == 1.0


def test_mesh_invalid_n():
    with pytest.raises(ValueError):
        build_space(0)
    with pytest.raises(ValueError):
        build_space(-3)
    # above the cap, refused before any array is made
    for n in (10 ** 400, MESH_N_MAX + 1):
        with pytest.raises(ValueError, match="integer n"):
            build_space(n)


@pytest.mark.parametrize("n", [True, np.True_, 4.5, 4.0, "4"],
                         ids=["True", "np.True_", "4.5", "4.0", "str"])
def test_build_space_rejects_non_int_n(n):
    with pytest.raises(ValueError, match="integer n"):
        build_space(n)


def test_mesh_counts_and_tiling():
    for n in (1, 2, 3, 8):
        space = build_space(n)
        verts = np.unique(space.edofs[:, :3])
        assert verts.size == (n + 1) ** 2
        assert space.edofs.shape == (2 * n * n, 6)
        assert space.edofs.dtype == np.int64
        areas = signed_areas(space)
        assert np.all(areas > 0)
        assert np.allclose(areas, 0.5 / n ** 2, rtol=1e-13)
        assert abs(areas.sum() - 1.0) < 1e-13
        xy = node_coords(space)[verts]
        assert xy.min() == 0.0 and xy.max() == 1.0


def test_mesh_edge_incidence_brute_force():
    """Every interior edge is shared by exactly two triangles, every
    boundary edge by one, counted from scratch on the n = 3 mesh."""
    space = build_space(3)
    nodes = node_coords(space)
    counts = {}
    for tri in space.edofs[:, :3]:
        for a, b in itertools.combinations(sorted(tri), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    on_boundary = np.any((nodes == 0.0) | (nodes == 1.0), axis=1)
    for (a, b), c in counts.items():
        pa, pb = nodes[a], nodes[b]
        boundary_edge = (
            on_boundary[a] and on_boundary[b]
            and (pa[0] == pb[0] and pa[0] in (0.0, 1.0)
                 or pa[1] == pb[1] and pa[1] in (0.0, 1.0)))
        assert c == (1 if boundary_edge else 2), (a, b)
    # Euler check: V - E + F = 1 for a planar disc triangulation
    v = len(np.unique(space.edofs[:, :3]))
    e = len(counts)
    f = space.edofs.shape[0]
    assert v - e + f == 1


def test_mesh_diagonal_orientation():
    """The split runs from the lower-left to the upper-right corner."""
    space = build_space(2)
    nodes = node_coords(space)
    first = nodes[space.edofs[0, :3]]
    assert np.allclose(first, [[0, 0], [0.5, 0], [0.5, 0.5]])
    second = nodes[space.edofs[1, :3]]
    assert np.allclose(second, [[0, 0], [0.5, 0.5], [0, 0.5]])


def test_midpoint_dofs_bisect_their_edges():
    """Local dofs 3, 4, 5 sit at the midpoints of edges (0,1), (1,2) and
    (0,2), and each triangle's six dofs are distinct."""
    for n in (1, 3, 8):
        space = build_space(n)
        p = node_coords(space)[space.edofs]            # (nel, 6, 2)
        for mid, (a, b) in zip((3, 4, 5), ((0, 1), (1, 2), (0, 2))):
            assert np.abs(p[:, mid] - 0.5 * (p[:, a] + p[:, b])).max() \
                <= 1e-15
        assert all(len(set(row)) == 6 for row in space.edofs)


# ---------------------------------------------------------------- operators

def test_space_shapes():
    space = build_space(4)
    assert space.n_scalar == 81
    assert space.n_dofs == 162
    assert space.edofs.shape == (32, 6)
    # every scalar dof appears in some element
    assert set(space.edofs.ravel()) == set(range(81))


def test_mass_partition_of_unity():
    space = build_space(6)
    m_op = assemble_mass(space, np.arange(space.n_dofs))
    ones = np.ones(space.n_dofs)
    # (1, 1) over two components on the unit square
    assert abs(ones @ (m_op @ ones) - 2.0) < 1e-12


def test_mass_spd(rng):
    space = build_space(3)
    m_op = assemble_mass(space, np.arange(space.n_dofs))
    assert abs(m_op - m_op.T).max() == 0.0
    dense = m_op.toarray()
    assert np.linalg.eigvalsh(dense).min() > 0


def test_stiffness_kernel_and_psd(rng):
    space = build_space(5)
    s_op = assemble_stiffness(space, np.arange(space.n_dofs))
    const = np.concatenate([np.full(space.n_scalar, 2.0),
                            np.full(space.n_scalar, -1.0)])
    assert np.abs(s_op @ const).max() < 1e-12
    for _ in range(20):
        x = rng.standard_normal(space.n_dofs)
        assert x @ (s_op @ x) > -1e-10


def test_stiffness_linear_field():
    """u = (x, 0) has |grad u|^2 integral exactly 1."""
    space = build_space(4)
    s_op = assemble_stiffness(space, np.arange(space.n_dofs))
    u = interpolate(space, lambda x, y: (x, 0.0 * x))
    assert abs(u @ (s_op @ u) - 1.0) < 1e-12


def test_mass_independent_of_quadrature_degree():
    space = build_space(4)
    ident = np.arange(space.n_dofs)
    a = assemble_mass(space, ident).toarray()
    b = assemble_mass(space_on_rule(space, duffy_rule(5)), ident).toarray()
    assert np.abs(a - b).max() < 1e-14



@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_assembly_matches_coo_reference_bit_for_bit(n):
    """M and S through the identity row map arange(N) have the CSR
    arrays, dtypes and shape of the COO triplet and sp.block_diag
    assembly in oracles exactly: the same duplicate summation,
    symmetrization and zero removal, over both components."""
    space = build_space(n)
    ident = np.arange(space.n_dofs)
    got = [assemble_mass(space, ident), assemble_stiffness(space, ident)]
    want = [oracles.vectorize(oracles.assemble_scalar(space, local))
            for local in oracles.local_matrices(space)]
    for a, b in zip(got, want):
        assert type(a) is type(b) and a.shape == b.shape
        for name in ("data", "indices", "indptr"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


def test_assembly_int64_indices_give_the_same_operator(monkeypatch):
    """Where scipy's index-dtype rule asks for int64 (above 2**31 - 1
    triplets or rows), the triplets are built in int64; forced at n = 3,
    they give the same values and pattern, through the identity map and
    through the benchmark flow's map to 2m rows, whose groups of
    elements are summed once, times their count."""
    space = build_space(3)
    _, rows = collect_snapshots(space, AnalyticSolution(), [0.0, 0.5])
    assert rows.max() + 1 == 2 * 7
    maps = (np.arange(space.n_dofs), rows)
    want = [assemble(space, m) for m in maps
            for assemble in (assemble_mass, assemble_stiffness)]
    forced = []
    monkeypatch.setattr(fe.sp, "get_index_dtype", lambda *args, **kwargs: (
        forced.append(kwargs), np.int64)[1])
    got = [assemble(space, m) for m in maps
           for assemble in (assemble_mass, assemble_stiffness)]
    assert len(forced) == len(got)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ------------------------------------------------------------- interpolation

def test_interpolate_quadratic_reproduction(rng):
    """P2 interpolation reproduces quadratics; checked at random points
    through the independent evaluator."""
    n = 4
    space = build_space(n)

    def g(x, y):
        return x ** 2 + 2 * x * y - y + 1.0, 3 * y ** 2 - x

    u = interpolate(space, g)
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    vals = oracles.p2_eval(n, u, pts[:, 0], pts[:, 1])
    gx, gy = g(pts[:, 0], pts[:, 1])
    assert np.abs(vals[:, 0] - gx).max() < 1e-12
    assert np.abs(vals[:, 1] - gy).max() < 1e-12


def test_quadratic_norms_against_independent_quadrature():
    n = 3
    space = build_space(n)
    m_op = assemble_mass(space, np.arange(space.n_dofs))
    s_op = assemble_stiffness(space, np.arange(space.n_dofs))

    def g(x, y):
        return x * y + y ** 2, x ** 2 - 2 * x

    u = interpolate(space, g)
    l2_sq = oracles.integrate(n, lambda x, y: (x * y + y ** 2) ** 2
                              + (x ** 2 - 2 * x) ** 2)
    h1_sq = oracles.integrate(
        n, lambda x, y: y ** 2 + (x + 2 * y) ** 2 + (2 * x - 2) ** 2)
    assert abs(l2_norm(m_op, u) ** 2 - l2_sq) < 1e-13
    assert abs(h1_semi_norm(s_op, u) ** 2 - h1_sq) < 1e-12


def test_interpolate_time_argument():
    space = build_space(2)
    u = interpolate(space, lambda x, y, t: (x + t, y - t), t=0.25)
    v = interpolate(space, lambda x, y: (x + 0.25, y - 0.25))
    assert np.array_equal(u, v)


def test_interpolate_rejects_nonfinite():
    space = build_space(2)
    with pytest.raises(ValueError):
        interpolate(space, lambda x, y: (np.full_like(x, np.inf), y))


def test_norm_convergence_smooth_field():
    """Interpolated sin(pi x) sin(pi y) norms approach the exact values
    with at least second order."""
    exact_l2_sq = 0.25
    exact_h1_sq = np.pi ** 2 / 2.0
    errs_l2, errs_h1 = [], []
    for n in (8, 16):
        space = build_space(n)
        u = interpolate(space, lambda x, y: (
            np.sin(np.pi * x) * np.sin(np.pi * y), 0.0 * x))
        ident = np.arange(space.n_dofs)
        errs_l2.append(abs(l2_norm(assemble_mass(space, ident), u) ** 2
                           - exact_l2_sq))
        errs_h1.append(abs(h1_semi_norm(assemble_stiffness(space, ident), u)
                           ** 2 - exact_h1_sq))
    assert errs_l2[1] < errs_l2[0] / 6.0
    assert errs_h1[1] < errs_h1[0] / 3.0
    assert errs_l2[1] < 1e-4
    assert errs_h1[1] < 2e-2


# ------------------------------------------------------------ trilinear form

def test_bstar_skew_symmetry(rng):
    space = build_space(4)
    for _ in range(100):
        u, v, w = rng.standard_normal((3, space.n_dofs))
        bvw = trilinear_bstar(space, u, v, w)
        bwv = trilinear_bstar(space, u, w, v)
        scale = 1.0 + abs(bvw)
        assert abs(bvw + bwv) < 1e-13 * scale
    for _ in range(20):
        u, v = rng.standard_normal((2, space.n_dofs))
        assert abs(trilinear_bstar(space, u, v, v)) < 1e-13 * (
            1.0 + np.abs(v).max() ** 2 * np.abs(u).max())


def test_bstar_against_independent_quadrature(rng):
    """Random P2 fields, exact per-triangle quadrature on both sides.

    The integrand has degree 5, so the package space is rebuilt on a
    degree-6 rule for this comparison.
    """
    n = 3
    space = space_on_rule(build_space(n), duffy_rule(4))
    for _ in range(5):
        cu, cv, cw = rng.standard_normal((3, space.n_dofs))
        got = trilinear_bstar(space, cu, cv, cw)
        ref = oracles.bstar_reference(n, cu, cv, cw, p=8)
        assert abs(got - ref) < 1e-11 * (1.0 + abs(ref))


def test_bstar_default_rule_close_to_exact(rng):
    """The production degree-4 rule slightly under-integrates the
    degree-5 integrand; the committed variational crime stays small."""
    n = 3
    space = build_space(n)
    cu, cv, cw = rng.standard_normal((3, space.n_dofs))
    got = trilinear_bstar(space, cu, cv, cw)
    ref = oracles.bstar_reference(n, cu, cv, cw, p=8)
    assert abs(got - ref) < 5e-2 * (1.0 + abs(ref))


def test_norm_dimension_checks():
    space = build_space(2)
    m_op = assemble_mass(space, np.arange(space.n_dofs))
    with pytest.raises(ValueError):
        l2_norm(m_op, np.zeros(3))
    with pytest.raises(ValueError):
        l2_inner(m_op, np.zeros(space.n_dofs), np.zeros(3))


def test_quad_point_data_matches_pointwise_evaluation(small, rng):
    """The oracle's quadrature-point values and gradients equal the
    stand-alone P2 evaluator at the physical points of the default
    degree-4 rule, on an odd, unsorted, non-contiguous set of elements
    of both orientations."""
    space = small.space
    coeffs = rng.standard_normal((space.n_dofs, 3))
    els = np.array([77, 4, 127, 9, 30, 1, 100])
    vals, grads, wdet = oracles.quad_point_data(space, coeffs, els)
    verts = oracles.node_coords(space)[space.edofs[els, :3]]  # (ne, 3, 2)
    xi, eta = space.rule.points.T
    p0, p1, p2 = (verts[:, None, i] for i in range(3))        # (ne, 1, 2)
    pts = p0 + xi[:, None] * (p1 - p0) + eta[:, None] * (p2 - p0)
    px, py = pts.reshape(-1, 2).T
    for k in range(3):
        ref_vals, ref_jac = oracles.p2_eval(small.n, coeffs[:, k], px, py,
                                            grad=True)
        scale = np.abs(ref_jac).max()
        assert np.abs(vals[:, k] - ref_vals).max() <= \
            1e-13 * np.abs(ref_vals).max()
        assert np.abs(grads[:, k] - ref_jac).max() <= 1e-13 * scale
    assert np.allclose(wdet, np.tile(space.rule.weights / space.n ** 2,
                                     els.size), rtol=1e-15, atol=0)
