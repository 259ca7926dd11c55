"""Analytic benchmark flow on the unit square.

The velocity components are
    u(x, y, t) = (2/pi) * arctan(-c (y - t)) * sin(pi y)
    v(x, y, t) = (2/pi) * arctan(-c (x - t)) * sin(pi x)
with layer sharpness c = 500 and pressure identically zero, so the flow
is divergence-free by construction (u depends only on y, v only on x).
The forcing is whatever makes (u, v) solve the momentum equation:
f = u_t - nu * lap(u) + (u . grad) u.

All derivatives are coded in closed form; the sharp moving layer makes
finite differences near y = t ill-conditioned, so those stay test-only.
"""

import sys
from dataclasses import dataclass

import numpy as np

_SHARPNESS = 500.0  # the layer sharpness c


@dataclass(frozen=True)
class AnalyticSolution:
    nu: float = 1e-3

    def __post_init__(self):
        if not 0 < self.nu <= sys.float_info.max:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")

    # ---- scalar profile g(s, t) and its derivatives -------------------
    # u = g(y, t), v = g(x, t) with g = (2/pi) arctan(-c (s - t)) sin(pi s)

    def _g(self, s, t):
        c = _SHARPNESS
        return (2.0 / np.pi) * np.arctan(-c * (s - t)) * np.sin(np.pi * s)

    def _g_s(self, s, t):
        c = _SHARPNESS
        z = s - t
        a = np.arctan(-c * z)
        ap = -c / (1.0 + (c * z) ** 2)
        return (2.0 / np.pi) * (ap * np.sin(np.pi * s)
                                + a * np.pi * np.cos(np.pi * s))

    def _g_ss(self, s, t):
        c = _SHARPNESS
        z = s - t
        a = np.arctan(-c * z)
        den = 1.0 + (c * z) ** 2
        ap = -c / den
        app = 2.0 * c ** 3 * z / den ** 2
        return (2.0 / np.pi) * (app * np.sin(np.pi * s)
                                + 2.0 * np.pi * ap * np.cos(np.pi * s)
                                - np.pi ** 2 * a * np.sin(np.pi * s))

    def _g_t(self, s, t):
        c = _SHARPNESS
        z = s - t
        return (2.0 / np.pi) * (c / (1.0 + (c * z) ** 2)) * np.sin(np.pi * s)

    # ---- vector-valued API --------------------------------------------

    def velocity(self, x, y, t):
        """Velocity components (u, v) at points (x, y) and time t."""
        return self._g(y, t), self._g(x, t)

    def velocity_dt(self, x, y, t):
        return self._g_t(y, t), self._g_t(x, t)

    def laplacian(self, x, y, t):
        # u_xx = 0, v_yy = 0
        return self._g_ss(y, t), self._g_ss(x, t)

    def forcing(self, x, y, t):
        """Forcing f = u_t - nu * lap(u) + (u . grad) u (grad p = 0)."""
        u, v = self.velocity(x, y, t)
        ut1, ut2 = self.velocity_dt(x, y, t)
        l1, l2 = self.laplacian(x, y, t)
        du_dy = self._g_s(y, t)
        dv_dx = self._g_s(x, t)
        # (u . grad) u = (v * du/dy, u * dv/dx) since du/dx = dv/dy = 0
        # the product term first, so that the full-size array is summed
        # into in place (a + b == b + a, bit for bit)
        f1 = v * du_dy
        f1 += ut1 - self.nu * l1
        f2 = u * dv_dx
        f2 += ut2 - self.nu * l2
        return f1, f2

