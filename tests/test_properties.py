"""Property tests of the stepper's algebra on small random operators.

The operators are synthetic: a random tensor that is skew in its last
two indices (as b* makes T) and a random symmetric positive
semidefinite stiffness, for r and the filter radius drawn by
hypothesis.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from romlab.filtering import apply_filter, build_filter
from romlab.rom import (LROMConfig, ROMOperators, _advection_matrix,
                        _folded_tensor, run, stability_check)

_SETTINGS = settings(deadline=None, derandomize=True, database=None)


def _random_operators(r, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((r, r, r))
    g = rng.standard_normal((r, r))
    return g @ g.T, x - x.transpose(0, 2, 1), rng.standard_normal(r)


_r = st.integers(1, 8)
_delta = st.one_of(st.just(0.0), st.floats(1e-4, 2.0))
_seed = st.integers(0, 2 ** 32 - 1)


@_SETTINGS
@given(r=_r, delta=_delta, seed=_seed)
def test_folded_advection_matrix_filters_the_advecting_field(r, delta, seed):
    s_r, tensor, a = _random_operators(r, seed)
    filt = build_filter(s_r, delta)
    folded = _advection_matrix(_folded_tensor(tensor, filt), a)
    ref = _advection_matrix(tensor, apply_filter(filt, a))
    assert np.abs(folded - ref).max() <= 1e-12 * (1 + np.abs(ref).max())


@_SETTINGS
@given(r=_r, delta=_delta, seed=_seed)
def test_folded_advection_matrix_is_skew(r, delta, seed):
    """T_ijk = -T_ikj makes B = -B^T for any advecting field."""
    s_r, tensor, a = _random_operators(r, seed)
    b = _advection_matrix(_folded_tensor(tensor, build_filter(s_r, delta)), a)
    assert np.abs(b + b.T).max() <= 1e-14 * (1 + np.abs(b).max())


@_SETTINGS
@given(r=_r, delta=_delta, seed=_seed, nu=st.floats(1e-3, 1.0),
       dt=st.sampled_from([1e-3, 1e-2, 5e-2]))
def test_energy_ledger_monotone_without_forcing(r, delta, seed, nu, dt):
    """Without forcing, the implicit step gives
    |a_{k+1}|^2 + 2 nu dt a_{k+1}^T S_r a_{k+1} <= |a_k|^2, so the
    ledger's L2 part plus 2 nu times its gradient part never grows (at
    nu = 1/2 this is the ledger itself)."""
    s_r, tensor, a0 = _random_operators(r, seed)
    ops = ROMOperators(r=r, s_r=s_r, tensor=tensor,
                       forcing=np.zeros((21, r)), a0=a0)
    cfg = LROMConfig(dt=dt, t_final=20 * dt, nu=nu, picard_tol=1e-13)
    traj = run(ops, build_filter(s_r, delta), cfg)
    series = stability_check(traj, ops, cfg)
    l2 = np.sum(traj.states ** 2, axis=1)
    energy = l2 + 2 * nu * (series - l2)
    assert np.all(np.diff(energy) <= 1e-11 * energy[0])
