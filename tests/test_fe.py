import numpy as np
import pytest

import oracles
from oracles import h1_semi_norm, l2_inner, l2_norm, trilinear_bstar
from romlab.fe import (assemble_mass, assemble_stiffness, build_space,
                       interpolate, triangle_rule)


# ---------------------------------------------------------------- quadrature

def test_rule_weights():
    low = triangle_rule(4)
    assert low.points.shape == (6, 2)
    assert np.all(low.weights > 0)
    assert abs(low.weights.sum() - 0.5) < 1e-14
    high = triangle_rule(9)
    assert np.all(high.weights > 0)
    assert abs(high.weights.sum() - 0.5) < 1e-14


@pytest.mark.parametrize("degree", [5, 7, 10])
def test_rule_monomial_exactness(degree):
    """The product rule integrates x^a y^b exactly on the reference
    triangle; exact value a! b! / (a + b + 2)!."""
    rule = triangle_rule(degree)
    from math import factorial
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = np.sum(rule.weights
                            * rule.points[:, 0] ** a
                            * rule.points[:, 1] ** b)
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            assert abs(approx - exact) < 1e-14, (a, b)


def test_dunavant_degree4_exact():
    rule = triangle_rule(4)
    from math import factorial
    for a in range(5):
        for b in range(5 - a):
            approx = np.sum(rule.weights
                            * rule.points[:, 0] ** a
                            * rule.points[:, 1] ** b)
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            assert abs(approx - exact) < 1e-15, (a, b)


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
    m_op = assemble_mass(space)
    ones = np.ones(space.n_dofs)
    # (1, 1) over two components on the unit square
    assert abs(ones @ (m_op @ ones) - 2.0) < 1e-12


def test_mass_spd(rng):
    space = build_space(3)
    m_op = assemble_mass(space)
    assert abs(m_op - m_op.T).max() == 0.0
    dense = m_op.toarray()
    assert np.linalg.eigvalsh(dense).min() > 0


def test_stiffness_kernel_and_psd(rng):
    space = build_space(5)
    s_op = assemble_stiffness(space)
    const = np.concatenate([np.full(space.n_scalar, 2.0),
                            np.full(space.n_scalar, -1.0)])
    assert np.abs(s_op @ const).max() < 1e-12
    for _ in range(20):
        x = rng.standard_normal(space.n_dofs)
        assert x @ (s_op @ x) > -1e-10


def test_stiffness_linear_field():
    """u = (x, 0) has |grad u|^2 integral exactly 1."""
    space = build_space(4)
    s_op = assemble_stiffness(space)
    u = interpolate(space, lambda x, y: (x, 0.0 * x))
    assert abs(u @ (s_op @ u) - 1.0) < 1e-12


def test_mass_independent_of_quadrature_degree():
    a = assemble_mass(build_space(4, quad_degree=4)).toarray()
    b = assemble_mass(build_space(4, quad_degree=8)).toarray()
    assert np.abs(a - b).max() < 1e-14


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
    m_op = assemble_mass(space)
    s_op = assemble_stiffness(space)

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
        errs_l2.append(abs(l2_norm(assemble_mass(space), u) ** 2
                           - exact_l2_sq))
        errs_h1.append(abs(h1_semi_norm(assemble_stiffness(space), u) ** 2
                           - exact_h1_sq))
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

    The integrand has degree 5, so the package space is built with a
    degree >= 5 rule for this comparison.
    """
    n = 3
    space = build_space(n, quad_degree=6)
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
    m_op = assemble_mass(space)
    with pytest.raises(ValueError):
        l2_norm(m_op, np.zeros(3))
    with pytest.raises(ValueError):
        l2_inner(m_op, np.zeros(space.n_dofs), np.zeros(3))
