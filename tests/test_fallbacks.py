"""Every general fallback, end to end.

The benchmark flow takes every fast path: each velocity component
varies along one grid axis only, so the POD runs on 2m distinct rows,
the tensor comes from the modes' 1-D profiles and has rank one in its
first index (the scalar stepper), and q = M Phi repeats its grid lines
in 4 classes. The flow here varies in x and y in both components, so
every stage takes its general path: R = N rows, the full tensor build,
the general Picard path and the dense forcing product. The five study
kinds run on one context, and each table value is checked against a
dense pipeline built from the oracles alone.
"""

from types import SimpleNamespace

import numpy as np

import oracles
from oracles import (avg_filter_errors_fe, correlation_matrix,
                     final_time_error_fe, full_modes, interpolate,
                     node_coords, reference_run, symmetric_eig,
                     trilinear_bstar)
from romlab import study
from romlab.exact import AnalyticSolution
from romlab.filtering import build_filter
from romlab.pod import default_times
from romlab.rom import LROMConfig, ROMOperators
from romlab.study import StudyConfig, build_context, run_study
from test_rom import _spy


def _bump(s):
    return 1.0 + s * (1.0 - s)


class _FullGridFlow(AnalyticSolution):
    """The benchmark profile g, each component scaled along its other
    axis: u = g(y, t) a(x) and v = g(x, t) a(y), a(s) = 1 + s (1 - s).
    The forcing is u_t - nu lap(u) + (u . grad) u, in closed form."""

    def velocity(self, x, y, t):
        return self._g(y, t) * _bump(x), self._g(x, t) * _bump(y)

    def _component(self, s, w, t):
        # u's with s = y and w = x, v's with s = x and w = y
        g, a = self._g(s, t), _bump(w)
        return (self._g_t(s, t) * a
                - self.nu * (self._g_ss(s, t) * a - 2 * g)
                + g * g * a * (1 - 2 * w)
                + self._g(w, t) * _bump(s) * self._g_s(s, t) * a)

    def forcing(self, x, y, t):
        return self._component(y, x, t), self._component(x, y, t)


_SNAP_DT = 0.05
_R = 6  # the leading modes, stable across summation orders (test_pod)
# lrom-delta first: the r = 6 tensor it builds serves the later kinds'
# leading blocks. From r = 3 on, a skew tensor can have rank above one.
_KINDS = {
    "lrom-delta": dict(r=_R, dt=1e-2, sweep=[0.5, 0.1, 0.02]),
    "lrom-dt": dict(r=_R, delta=1e-2, sweep=[0.1, 0.05, 0.025]),
    "lrom-r": dict(delta=1e-2, dt=1e-2, sweep=[3, 4, 6]),
    "filter-delta": dict(r=_R, sweep=[0.1, 0.05, 0.025]),
    "filter-r": dict(delta=1e-2, sweep=[3, 4, 6]),
}


def _close(got, want, rtol=1e-12):
    return np.abs(np.subtract(got, want)).max() <= rtol * np.abs(want).max()


def test_every_fallback_end_to_end(monkeypatch):
    """On one n = 8 context of _FullGridFlow, the five kinds took the
    general paths and their table values equal the dense pipeline's:
    M and S from the COO triplet assembly, the POD by eigh of the
    full-height U^T M U, b* triple by triple, the forcing as the nodal
    fields times M Phi, the unfolded Picard march and the filtering and
    final-time errors formed in the FE space."""
    full_builds = _spy(monkeypatch, "_full_tensor")
    classes = _spy(monkeypatch, "_node_classes")
    monkeypatch.setattr(study, "AnalyticSolution", _FullGridFlow)
    ctx = build_context(StudyConfig(kind="filter-r", mesh_n=8,
                                    snap_dt=_SNAP_DT))
    results = {kind: run_study(StudyConfig(kind=kind, mesh_n=8,
                                           snap_dt=_SNAP_DT, **kwargs), ctx)
               for kind, kwargs in _KINDS.items()}
    space, flow = ctx.space, ctx.solution
    n_dofs = space.n_dofs
    assert np.array_equal(ctx.basis.rows, np.arange(n_dofs))  # R = N
    assert [t.shape for t in full_builds] == [(_R,) * 3]
    assert classes and all(p is None for _, p, _ in classes)
    assert all(res.status == "ok" for res in results.values())
    assert all(rec.tensor_rank > 1 for kind, res in results.items()
               if kind.startswith("lrom") for rec in res.records)

    m_op, s_op = (oracles.vectorize(oracles.assemble_scalar(space, local))
                  for local in oracles.local_matrices(space))
    times = default_times(_SNAP_DT, 1.0)
    u = np.column_stack([interpolate(space, flow.velocity, t)
                         for t in times])
    lam, vecs = symmetric_eig(correlation_matrix(u, m_op))
    d = ctx.basis.d
    assert _close(ctx.basis.eigenvalues, lam[:d])
    lam = lam[:d]
    phi = u @ (vecs[:, :d] / np.sqrt(times.size * lam))
    # a mode's sign is arbitrary: take the pipeline's
    phi *= np.sign(np.sum(phi * full_modes(ctx.basis), axis=0))
    assert _close(full_modes(ctx.basis)[:, :_R], phi[:, :_R])
    grad_gram = phi.T @ (s_op @ phi)
    dense = SimpleNamespace(modes=phi, rows=np.arange(n_dofs),
                            grad_gram=grad_gram)

    tensor = np.empty((_R,) * 3)
    for i, j, k in np.ndindex(tensor.shape):
        tensor[i, j, k] = trilinear_bstar(space, phi[:, i], phi[:, j],
                                          phi[:, k])
    x, y = node_coords(space).T[:, None, :]

    def table(r, delta, dt, lrom):
        """(e_l2, e_h1, lambda_l2, lambda_h1) of the point (r, delta, dt)."""
        lambdas = (lam[r:].sum(),
                   ((1 + np.diag(grad_gram)[r:]) * lam[r:]).sum())
        if not lrom:
            return *avg_filter_errors_fe(dense, r, delta, u, m_op, s_op), \
                *lambdas
        f1, f2 = flow.forcing(x, y, default_times(dt, 1.0)[:, None])
        q = m_op @ phi[:, :r]
        ops = ROMOperators(s_r=grad_gram[:r, :r], tensor=tensor[:r, :r, :r],
                           forcing=np.hstack([f1, f2]) @ q,
                           a0=q.T @ u[:, 0])
        cfg = LROMConfig(dt=dt)
        states, _ = reference_run(ops, build_filter(ops.s_r, delta), cfg)
        traj = SimpleNamespace(final_state=states[-1])
        return final_time_error_fe(traj, flow, dense, r, m_op, space,
                                   cfg.t_final), None, *lambdas

    for kind, res in results.items():
        cfg = res.config
        for rec in res.records:
            point = {"r": cfg.r, "delta": cfg.delta, "dt": cfg.dt,
                     cfg.param_name: rec.value}
            want = table(**point, lrom=kind.startswith("lrom"))
            for name, w in zip(("e_l2", "e_h1", "lambda_l2", "lambda_h1"),
                               want):
                g = getattr(rec, name)
                assert (g is None) == (w is None), (kind, rec.value, name)
                assert w is None or _close(g, w), (kind, rec.value, name)
