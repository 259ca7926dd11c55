"""The benchmark flow as a 1-D P2 problem, an oracle for the operators.

u = (g(y, t), g(x, t)), and on every triangle the six P2 nodes sit at
y in {0, h/2, h}, so the 2-D pipeline at n = 64 is a 1-D P2 problem on
the m = 2n + 1 grid nodes (oracles.separable_pod). Its closed-form mass,
stiffness and D1 share no code with romlab.fe, so these checks cover
the assembled M and S, the POD built on them and the r = 99 tensor.

Tolerances are about ten times the values measured at n = 64. Through
the eigenvectors of the 1-D correlation matrix, the trailing modes move
with roundoff amplified by the small eigenvalue gaps (mode 101 by 1.4e-4),
so the checks against the 1-D POD stop at r = 99; the checks on the 2-D
modes' own profiles hold to roundoff at every r.
"""

import numpy as np

import oracles
from romlab.fe import assemble_mass
from romlab.pod import default_times

R = 99


def test_pod_and_tensor_match_the_1d_problem(bench_ctx):
    ctx, basis = bench_ctx, bench_ctx.basis
    n, ns = ctx.space.n, ctx.space.n_scalar
    m = 2 * n + 1
    times = default_times(ctx.settings["snap_dt"], ctx.settings["t_final"])
    vals, profiles, grad_gram = oracles.separable_pod(n, ctx.solution, times)

    # the first component of every mode is a profile psi(y) (measured:
    # constant in x to the last bit)
    first = oracles.full_modes(basis)[:ns].reshape(m, m, basis.d)
    psi = first[:, 0]
    assert np.abs(first - psi[:, None]).max() <= 1e-14 * np.abs(psi).max()
    # d = K: no snapshot part outside span(Phi), in either problem
    assert basis.d == vals.size == times.size
    assert not basis.residual_energy.any()

    # the 1-D POD: eigenvalues within 1e-14 lambda_1 (measured 1.1e-15)
    assert np.abs(basis.eigenvalues - vals).max() <= 1e-14 * vals[0]
    signs = np.sign(np.sum(psi * profiles, axis=0))
    profiles = profiles * signs
    grad_gram = grad_gram * np.outer(signs, signs)
    # grad_gram (measured 9.8e-10 of its largest entry), mu = Phi^T M (1, 0)
    # (3.5e-10 of the largest |mu|) and T (2.6e-9 of max |T|) up to r = 99
    scale = np.abs(grad_gram[:R, :R]).max()
    assert np.abs(basis.grad_gram[:R, :R] - grad_gram[:R, :R]).max() \
        <= 1e-8 * scale
    mu, tensor = oracles.separable_tensor(profiles[:, :R])
    one_x = np.concatenate([np.ones(ns), np.zeros(ns)])
    m_op = assemble_mass(ctx.space, np.arange(2 * ns))
    mu_2d = oracles.full_modes(basis)[:, :R].T @ (m_op @ one_x)
    assert np.abs(mu_2d - mu).max() <= 1e-8 * np.abs(mu).max()
    got = ctx.operators(R, 1e-2).tensor
    assert np.abs(got - tensor).max() <= 2e-8 * np.abs(got).max()

    # the 2-D modes' own profiles through the 1-D operators: orthonormal
    # (measured 2.5e-15), grad_gram (1.3e-15 of its largest entry) and
    # T (1.8e-15 of max |T|)
    m1, k1, _ = oracles.p2_1d_matrices(n)
    assert np.abs(2 * psi.T @ m1 @ psi - np.eye(basis.d)).max() <= 2e-14
    ref = 2 * psi.T @ k1 @ psi
    assert np.abs(basis.grad_gram - ref).max() <= 1e-14 * np.abs(ref).max()
    _, tensor = oracles.separable_tensor(psi[:, :R])
    assert np.abs(got - tensor).max() <= 1e-14 * np.abs(got).max()
