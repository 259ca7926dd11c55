import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import romlab

from oracles import full_modes, project_Pr
from romlab.filtering import apply_filter, build_filter


@pytest.fixture
def s_r(small):
    return small.basis.grad_gram[:8, :8]


def test_build_filter_validation(s_r):
    with pytest.raises(ValueError):
        build_filter(s_r, -1e-3)
    # finite, but delta ** 2 overflows
    with pytest.raises(ValueError, match="finite square"):
        build_filter(s_r, 1e200)
    # delta ** 2 is finite, but delta ** 2 * S_r overflows (no warning)
    delta = 2.0 * np.sqrt(np.finfo(float).max / s_r.diagonal().max())
    assert np.isfinite(delta ** 2)
    with pytest.raises(ValueError, match="overflows"):
        build_filter(s_r, delta)


def test_zero_radius_is_identity(s_r, rng):
    filt = build_filter(s_r, 0.0)
    a = rng.standard_normal((8, 5))
    assert np.abs(apply_filter(filt, a) - a).max() < 1e-12


def test_scalar_case():
    filt = build_filter(np.array([[4.0]]), 0.5)
    out = apply_filter(filt, np.array([3.0]))
    assert abs(out[0] - 3.0 / (1 + 0.25 * 4.0)) < 1e-14


def test_filter_matrix(s_r):
    filt = build_filter(s_r, 2e-2)
    assert np.array_equal(filt, np.eye(8) + 2e-2 ** 2 * s_r)
    np.linalg.cholesky(filt)  # SPD: raises LinAlgError otherwise


@pytest.mark.parametrize("delta", [0.0, 1e-2, 0.5, 5.0])
def test_apply_filter_matches_cholesky(small_ctx, rng, delta):
    """numpy's LU solve agrees with scipy's Cholesky solve of the same
    SPD system, to roundoff scaled by the condition number."""
    s = small_ctx.basis.grad_gram
    f = np.eye(s.shape[0]) + delta ** 2 * s
    filt = build_filter(s, delta)
    cho = cho_factor(f)
    tol = 1e-14 * np.linalg.cond(f)
    for a in (rng.standard_normal(s.shape[0]),
              rng.standard_normal((s.shape[0], 7))):
        err = np.abs(apply_filter(filt, a) - cho_solve(cho, a)).max()
        assert err <= tol * np.abs(a).max()


def test_no_romlab_module_imports_scipy_linalg():
    """scipy.linalg links its own OpenBLAS, with its own thread pool. Small
    ROM-space solves on that pool alternating with numpy products (G @ e)
    on numpy's pool made one filter sweep point 12x slower on 2 cores
    (8.0 ms against 0.65-0.69 ms at n = 64, r = 95), and the POD's two
    triangular solves there cost 0.1-0.2 s per build even at n = 2.
    Every dense solve stays in numpy."""
    importers = set()
    for path in sorted(Path(romlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}"
                                         for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            if any(n == "scipy.linalg" or n.startswith("scipy.linalg.")
                   for n in names):
                importers.add(path.name)
    assert importers == set()


_ALL_KINDS = """
import sys
from romlab.cli import main
for argv in (
        ["filter-delta", "--mesh-n", "2", "--r", "2", "--sweep", "1e-2,5e-3"],
        ["filter-r", "--mesh-n", "3", "--sweep", "1,2"],
        ["lrom-dt", "--mesh-n", "2", "--r", "2", "--sweep", "1e-2,5e-3"],
        ["lrom-delta", "--mesh-n", "3", "--r", "2", "--dt", "1e-2",
         "--sweep", "0.5,0.25"],
        ["lrom-r", "--mesh-n", "4", "--dt", "0.1", "--sweep", "1,2"]):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.startswith("scipy.linalg"))
assert not loaded, loaded
"""


def test_study_kinds_leave_scipy_linalg_unloaded(tmp_path):
    """No module that the five study kinds run imports scipy.linalg, not
    even indirectly. The tests import it themselves (cho_solve), so the
    check runs in a process of its own."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _ALL_KINDS],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_eigenvector_scaling(s_r):
    """Filtering scales each stiffness eigenvector by 1/(1 + delta^2 mu)."""
    delta = 3e-2
    filt = build_filter(s_r, delta)
    mu, w = np.linalg.eigh(s_r)
    for j in (0, 4, 7):
        expect = w[:, j] / (1.0 + delta ** 2 * mu[j])
        assert np.abs(apply_filter(filt, w[:, j]) - expect).max() < 1e-10


def test_filter_solves_shifted_system(s_r, rng):
    filt = build_filter(s_r, 1e-2)
    a = rng.standard_normal(8)
    abar = apply_filter(filt, a)
    shifted = np.eye(8) + 1e-4 * s_r
    assert np.abs(shifted @ abar - a).max() < 1e-12


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
    s = s_r
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
    filt = build_filter(small.basis.grad_gram[:r, :r], delta)
    v = rng.standard_normal(small.space.n_dofs)
    abar = apply_filter(filt, project_Pr(small.basis, r, small.m_op, v))
    phi = full_modes(small.basis)[:, :r]
    vb = phi @ abar
    resid = delta ** 2 * (phi.T @ (small.s_op @ vb)) \
        + phi.T @ (small.m_op @ (vb - v))
    assert np.abs(resid).max() < 1e-9 * (1 + np.abs(abar).max())


def test_filter_fe_on_mode(small):
    r = 6
    filt = build_filter(small.basis.grad_gram[:r, :r], 0.0)
    out = apply_filter(filt, project_Pr(small.basis, r, small.m_op,
                                        full_modes(small.basis)[:, 2]))
    assert np.abs(out - np.eye(r)[2]).max() < 1e-10


def test_monotone_smoothing(s_r, rng):
    """Larger radii remove more energy from a fixed input."""
    a = rng.standard_normal(8)
    norms = [np.linalg.norm(apply_filter(build_filter(s_r, d), a))
             for d in (0.0, 1e-3, 1e-2, 1e-1, 1.0)]
    assert all(x >= y - 1e-12 for x, y in zip(norms, norms[1:]))
