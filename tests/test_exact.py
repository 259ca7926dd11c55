import numpy as np
import pytest

from oracles import velocity_grad
from romlab.exact import AnalyticSolution


def test_validation():
    with pytest.raises(ValueError):
        AnalyticSolution(nu=0.0)
    with pytest.raises(ValueError):
        AnalyticSolution(nu=-1e-3)


def test_known_values():
    sol = AnalyticSolution()
    # sin(pi y) vanishes on y in {0, 1}; same for the second component
    u, v = sol.velocity(np.array([0.3]), np.array([0.0]), 0.5)
    assert u[0] == 0.0
    u, v = sol.velocity(np.array([1.0]), np.array([0.4]), 0.5)
    assert abs(v[0]) < 1e-15  # sin(pi * 1.0) rounds to ~1e-16, not 0
    # at y = t the arctan argument is zero
    u, v = sol.velocity(np.array([0.2]), np.array([0.5]), 0.5)
    assert u[0] == 0.0


def test_divergence_free():
    sol = AnalyticSolution()
    rng = np.random.default_rng(7)
    x, y = rng.uniform(0, 1, size=(2, 200))
    dudx, dudy, dvdx, dvdy = velocity_grad(sol, x, y, 0.37)
    assert np.all(dudx == 0.0)
    assert np.all(dvdy == 0.0)
    # u does not depend on x, nor v on y
    assert np.all(sol.velocity(x + 0.1, y, 0.37)[0]
                  == sol.velocity(x, y, 0.37)[0])
    assert np.all(sol.velocity(x, y + 0.1, 0.37)[1]
                  == sol.velocity(x, y, 0.37)[1])


def _fd(fn, z, h=1e-6):
    return (fn(z + h) - fn(z - h)) / (2.0 * h)


def _fd2(fn, z, h=1e-5):
    return (fn(z + h) - 2.0 * fn(z) + fn(z - h)) / h ** 2


def test_gradient_finite_difference(rng):
    sol = AnalyticSolution()
    x = rng.uniform(0.05, 0.95, 50)
    y = rng.uniform(0.05, 0.95, 50)
    t = rng.uniform(0.0, 1.0)
    _, dudy, dvdx, _ = velocity_grad(sol, x, y, t)
    fd_dudy = _fd(lambda z: sol.velocity(x, z, t)[0], y)
    fd_dvdx = _fd(lambda z: sol.velocity(z, y, t)[1], x)
    assert np.abs(dudy - fd_dudy).max() <= 1e-5 * (1 + np.abs(dudy)).max()
    assert np.abs(dvdx - fd_dvdx).max() <= 1e-5 * (1 + np.abs(dvdx)).max()


def test_time_derivative_finite_difference(rng):
    sol = AnalyticSolution()
    x = rng.uniform(0.05, 0.95, 50)
    y = rng.uniform(0.05, 0.95, 50)
    t = rng.uniform(0.1, 0.9)
    ut, vt = sol.velocity_dt(x, y, t)
    fd_ut = _fd(lambda s: sol.velocity(x, y, s)[0], t)
    fd_vt = _fd(lambda s: sol.velocity(x, y, s)[1], t)
    assert np.abs(ut - fd_ut).max() <= 1e-5 * (1 + np.abs(ut)).max()
    assert np.abs(vt - fd_vt).max() <= 1e-5 * (1 + np.abs(vt)).max()


def test_laplacian_finite_difference(rng):
    sol = AnalyticSolution()
    x = rng.uniform(0.05, 0.95, 50)
    y = rng.uniform(0.05, 0.95, 50)
    t = rng.uniform(0.0, 1.0)
    l1, l2 = sol.laplacian(x, y, t)
    # u depends on y only, v on x only
    fd_l1 = _fd2(lambda z: sol.velocity(x, z, t)[0], y)
    fd_l2 = _fd2(lambda z: sol.velocity(z, y, t)[1], x)
    scale = np.abs(l1).max() + 1.0
    assert np.abs(l1 - fd_l1).max() <= 1e-4 * scale
    assert np.abs(l2 - fd_l2).max() <= 1e-4 * scale


def test_forcing_finite_difference(rng):
    """Reassemble f from finite differences of the velocity alone."""
    sol = AnalyticSolution()
    x = rng.uniform(0.05, 0.95, 50)
    y = rng.uniform(0.05, 0.95, 50)
    t = rng.uniform(0.1, 0.9)
    f1, f2 = sol.forcing(x, y, t)

    u, v = sol.velocity(x, y, t)
    ut = _fd(lambda s: sol.velocity(x, y, s)[0], t)
    vt = _fd(lambda s: sol.velocity(x, y, s)[1], t)
    lap_u = _fd2(lambda z: sol.velocity(x, z, t)[0], y)
    lap_v = _fd2(lambda z: sol.velocity(z, y, t)[1], x)
    dudy = _fd(lambda z: sol.velocity(x, z, t)[0], y)
    dvdx = _fd(lambda z: sol.velocity(z, y, t)[1], x)
    fd_f1 = ut - sol.nu * lap_u + v * dudy
    fd_f2 = vt - sol.nu * lap_v + u * dvdx
    scale = 1 + max(np.abs(f1).max(), np.abs(f2).max())
    assert np.abs(f1 - fd_f1).max() <= 1e-4 * scale
    assert np.abs(f2 - fd_f2).max() <= 1e-4 * scale


def test_viscous_term_isolation(rng):
    """f depends on nu only through -nu * lap(u)."""
    x = rng.uniform(0, 1, 100)
    y = rng.uniform(0, 1, 100)
    t = 0.42
    a = AnalyticSolution(nu=1e-3)
    b = AnalyticSolution(nu=3e-3)
    fa1, fa2 = a.forcing(x, y, t)
    fb1, fb2 = b.forcing(x, y, t)
    l1, l2 = a.laplacian(x, y, t)
    assert np.abs((fa1 - fb1) - 2e-3 * l1).max() < 1e-10 * (1 + np.abs(l1).max())
    assert np.abs((fa2 - fb2) - 2e-3 * l2).max() < 1e-10 * (1 + np.abs(l2).max())


def test_forcing_term_sum(rng):
    """f equals the momentum-equation terms assembled from the public
    derivative methods."""
    sol = AnalyticSolution()
    x = rng.uniform(0, 1, 100)
    y = rng.uniform(0, 1, 100)
    t = 0.65
    f1, f2 = sol.forcing(x, y, t)
    u, v = sol.velocity(x, y, t)
    ut, vt = sol.velocity_dt(x, y, t)
    l1, l2 = sol.laplacian(x, y, t)
    _, dudy, dvdx, _ = velocity_grad(sol, x, y, t)
    assert np.allclose(f1, ut - sol.nu * l1 + v * dudy, rtol=0, atol=1e-12)
    assert np.allclose(f2, vt - sol.nu * l2 + u * dvdx, rtol=0, atol=1e-12)


def test_broadcasting():
    sol = AnalyticSolution()
    x = np.linspace(0, 1, 7)[None, :]
    y = np.linspace(0, 1, 7)[None, :]
    t = np.linspace(0, 1, 3)[:, None]
    f1, f2 = sol.forcing(x, y, t)
    assert f1.shape == (3, 7) and f2.shape == (3, 7)
