"""ROM differential filter.

In L2-orthonormal ROM coordinates the Helmholtz-type filter problem
reduces to the dense SPD system (I + delta^2 S_r) abar = a, solved by
numpy, as every dense solve in romlab is. scipy.linalg links a second
OpenBLAS with its own thread pool; small solves there alternating with
numpy products (G @ e) made each filter sweep point about 12x slower on
2 cores.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FilterOperator", "build_filter", "apply_filter"]


@dataclass(frozen=True)
class FilterOperator:
    r: int
    matrix: np.ndarray     # I + delta^2 S_r, shared read-only


def build_filter(s_r: np.ndarray, delta: float) -> FilterOperator:
    """Form I + delta^2 S_r for the (r, r) SPD reduced stiffness s_r.

    |S_ij| <= max_k S_kk for an SPD S_r, so delta^2 S_r is finite when
    delta^2 max_k S_kk is; that product is taken in Python floats, which
    overflow to inf without a warning.
    """
    if not (math.isfinite(delta) and delta >= 0
            and math.isfinite(float(delta) * float(delta))):
        raise ValueError("filter radius must be finite and nonnegative, "
                         f"with a finite square, got {delta}")
    scale = float(delta) * float(delta) * float(s_r.diagonal().max(initial=0))
    if not math.isfinite(scale):
        raise ValueError(f"delta^2 S_r overflows at filter radius {delta}")
    r = s_r.shape[0]
    return FilterOperator(r=r, matrix=np.eye(r) + delta ** 2 * s_r)


def apply_filter(f: FilterOperator, a: np.ndarray) -> np.ndarray:
    """Solve (I + delta^2 S_r) abar = a for a of shape (r,) or (r, k)."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] != f.r:
        raise ValueError("dimension mismatch")
    return np.linalg.solve(f.matrix, a)
