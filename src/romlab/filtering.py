"""ROM differential filter.

In L2-orthonormal ROM coordinates the Helmholtz-type filter problem
reduces to the dense SPD system (I + delta^2 S_r) abar = a, so the
filter is that (r, r) matrix: build_filter forms it and apply_filter
solves with it, by numpy, as every dense solve in romlab is.
scipy.linalg links a second OpenBLAS with its own thread pool; small
solves there alternating with numpy products (G @ e) made each filter
sweep point about 12x slower on 2 cores.
"""

import math
import sys

import numpy as np

__all__ = ["build_filter", "apply_filter"]


def build_filter(s_r: np.ndarray, delta: float) -> np.ndarray:
    """The filter I + delta^2 S_r for the (r, r) SPD reduced stiffness s_r.

    |S_ij| <= max_k S_kk for an SPD S_r, so delta^2 S_r is finite when
    delta^2 max_k S_kk is; that product is taken in Python floats, which
    overflow to inf without a warning.
    """
    if not (0 <= delta <= sys.float_info.max
            and math.isfinite(float(delta) * float(delta))):
        raise ValueError("filter radius must be finite and nonnegative, "
                         f"with a finite square, got {delta}")
    scale = float(delta) * float(delta) * float(s_r.diagonal().max(initial=0))
    if not math.isfinite(scale):
        raise ValueError(f"delta^2 S_r overflows at filter radius {delta}")
    return np.eye(s_r.shape[0]) + delta ** 2 * s_r


def apply_filter(filt: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Solve filt abar = a, with filt = I + delta^2 S_r from build_filter,
    for a of shape (r,) or (r, k)."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] != filt.shape[0]:
        raise ValueError("dimension mismatch")
    return np.linalg.solve(filt, a)
