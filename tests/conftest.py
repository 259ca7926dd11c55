"""Shared fixtures.

Two tiers are used throughout:

* small tier: n = 8 mesh, 21 snapshots. Cheap; used by the unit tests.
* benchmark tier: n = 64 mesh, 101 snapshots over [0, 1]. Expensive;
  built once per session and shared by the acceptance tests.
"""

import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from romlab.exact import AnalyticSolution
from romlab.fe import assemble_mass, assemble_stiffness, build_space
from romlab.pod import (build_pod_basis, collapse, collect_snapshots,
                        default_times)
from romlab.study import StudyConfig, build_context


def _bundle(n, snap_dt):
    """The small tier's space, operators and basis. snapshots is the
    full-height (N, K) U = u[rows] for the FE-space oracles; pod(cols,
    rank_tol) builds a basis from the snapshot columns cols the way
    build_context does, on the distinct rows u and the collapsed M and
    S."""
    space = build_space(n)
    m_op = assemble_mass(space)
    s_op = assemble_stiffness(space)
    solution = AnalyticSolution()
    times = default_times(snap_dt, 1.0)
    u, rows = collect_snapshots(space, solution, times)
    ops = collapse(m_op, rows), collapse(s_op, rows)

    def pod(cols=slice(None), **kwargs):
        return build_pod_basis(u[:, cols], rows, *ops, **kwargs)

    return SimpleNamespace(n=n, space=space, m_op=m_op, s_op=s_op,
                           solution=solution, times=times,
                           snapshots=u[rows], pod=pod, basis=pod())


@pytest.fixture(scope="session")
def small():
    return _bundle(8, 0.05)


@pytest.fixture(scope="session")
def small_ctx():
    """Small-tier study context; the same basis as the small fixture."""
    return build_context(StudyConfig(kind="filter-delta", mesh_n=8,
                                     snap_dt=0.05, r=8))


@pytest.fixture(scope="session")
def bench_ctx():
    """Benchmark-tier study context (n = 64, 101 snapshots)."""
    return build_context(StudyConfig(kind="lrom-dt"))


@pytest.fixture
def rng(request):
    # stable per-test seed (hash() is salted per process)
    seed = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng(seed)
