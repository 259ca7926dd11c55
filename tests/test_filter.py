import numpy as np
import pytest

from romlab.filtering import apply_filter, build_filter
from romlab.pod import RomStiffness, project_Pr, rom_stiffness


@pytest.fixture
def s_r(small):
    return rom_stiffness(small.basis, 8)


def test_build_filter_validation(s_r):
    with pytest.raises(ValueError):
        build_filter(s_r, -1e-3)


def test_zero_radius_is_identity(s_r, rng):
    filt = build_filter(s_r, 0.0)
    a = rng.standard_normal((8, 5))
    assert np.abs(apply_filter(filt, a) - a).max() < 1e-12


def test_scalar_case():
    s_r = RomStiffness(r=1, matrix=np.array([[4.0]]), norm2=4.0)
    filt = build_filter(s_r, 0.5)
    out = apply_filter(filt, np.array([3.0]))
    assert abs(out[0] - 3.0 / (1 + 0.25 * 4.0)) < 1e-14


def test_cholesky_factor_reconstruction(s_r):
    filt = build_filter(s_r, 2e-2)
    low = np.tril(filt.cho[0])
    a = np.eye(8) + 4e-4 * s_r.matrix
    assert np.abs(filt.matrix - a).max() == 0.0
    assert np.abs(low @ low.T - a).max() < 1e-12 * np.abs(a).max()


def test_eigenvector_scaling(s_r):
    """Filtering scales each stiffness eigenvector by 1/(1 + delta^2 mu)."""
    delta = 3e-2
    filt = build_filter(s_r, delta)
    mu, w = np.linalg.eigh(s_r.matrix)
    for j in (0, 4, 7):
        expect = w[:, j] / (1.0 + delta ** 2 * mu[j])
        assert np.abs(apply_filter(filt, w[:, j]) - expect).max() < 1e-10


def test_filter_solves_shifted_system(s_r, rng):
    filt = build_filter(s_r, 1e-2)
    a = rng.standard_normal(8)
    abar = apply_filter(filt, a)
    assert np.abs(filt.matrix @ abar - a).max() < 1e-12


def test_l2_stability(s_r, rng):
    filt = build_filter(s_r, 5e-2)
    for _ in range(100):
        a = rng.standard_normal(8)
        assert np.linalg.norm(apply_filter(filt, a)) \
            <= np.linalg.norm(a) * (1 + 1e-12)


def test_self_adjointness(s_r, rng):
    filt = build_filter(s_r, 2.5e-2)
    for _ in range(50):
        a, b = rng.standard_normal((2, 8))
        lhs = apply_filter(filt, a) @ b
        rhs = a @ apply_filter(filt, b)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_gradient_bounds(s_r, rng):
    """|grad abar| <= |grad a| and delta |grad abar| <= |a| / 2."""
    delta = 4e-2
    filt = build_filter(s_r, delta)
    s = s_r.matrix
    for _ in range(100):
        a = rng.standard_normal(8)
        ab = apply_filter(filt, a)
        g_ab = np.sqrt(ab @ s @ ab)
        g_a = np.sqrt(a @ s @ a)
        assert g_ab <= g_a * (1 + 1e-10)
        assert delta * g_ab <= 0.5 * np.linalg.norm(a) * (1 + 1e-10)


def test_dimension_checks(s_r, rng):
    filt = build_filter(s_r, 1e-2)
    with pytest.raises(ValueError):
        apply_filter(filt, np.zeros(5))


def test_filter_fe_weak_form(small, rng):
    """The filtered field satisfies the variational problem
    delta^2 (grad(Phi abar), grad(phi_i)) + (Phi abar - v, phi_i) = 0
    tested with the full FE operators."""
    r, delta = 8, 2e-2
    s_r = rom_stiffness(small.basis, r)
    filt = build_filter(s_r, delta)
    v = rng.standard_normal(small.space.n_dofs)
    abar = apply_filter(filt, project_Pr(small.basis, r, small.m_op, v))
    phi = small.basis.modes[:, :r]
    vb = phi @ abar
    resid = delta ** 2 * (phi.T @ (small.s_op @ vb)) \
        + phi.T @ (small.m_op @ (vb - v))
    assert np.abs(resid).max() < 1e-9 * (1 + np.abs(abar).max())


def test_filter_fe_on_mode(small):
    r = 6
    s_r = rom_stiffness(small.basis, r)
    filt = build_filter(s_r, 0.0)
    out = apply_filter(filt, project_Pr(small.basis, r, small.m_op,
                                        small.basis.modes[:, 2]))
    assert np.abs(out - np.eye(r)[2]).max() < 1e-10


def test_monotone_smoothing(s_r, rng):
    """Larger radii remove more energy from a fixed input."""
    a = rng.standard_normal(8)
    norms = [np.linalg.norm(apply_filter(build_filter(s_r, d), a))
             for d in (0.0, 1e-3, 1e-2, 1e-1, 1.0)]
    assert all(x >= y - 1e-12 for x, y in zip(norms, norms[1:]))
