"""ROM differential filter.

In L2-orthonormal ROM coordinates the Helmholtz-type filter problem
reduces to the dense SPD system (I + delta^2 S_r) abar = a, which is
factorized once (Cholesky) and reused for every solve.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = ["FilterOperator", "build_filter", "apply_filter"]


@dataclass(frozen=True)
class FilterOperator:
    r: int
    cho: tuple             # cho_factor of I + delta^2 S_r, shared read-only


def build_filter(s_r: np.ndarray, delta: float) -> FilterOperator:
    """Factorize I + delta^2 S_r for the (r, r) reduced stiffness s_r."""
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(
            f"filter radius must be finite and nonnegative, got {delta}")
    r = s_r.shape[0]
    return FilterOperator(r=r, cho=cho_factor(np.eye(r) + delta ** 2 * s_r,
                                              lower=True))


def apply_filter(f: FilterOperator, a: np.ndarray) -> np.ndarray:
    """Solve (I + delta^2 S_r) abar = a; a may carry extra trailing axes."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] != f.r:
        raise ValueError("dimension mismatch")
    return cho_solve(f.cho, a)

