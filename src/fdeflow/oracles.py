"""Independent desk-scale oracles used by the verification suite.

Nothing here touches the Monte Carlo solver: quadrature integrates against
the exact Gaussian kernel, and the finite-difference scheme solves the
associated linear PDE on a bounded box. Both are cheap enough to run inside
every verify pass.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import InvalidArgumentError

_HERMITE_NODES = 101
# Crank-Nicolson: the box [-6, 6] with 400 space points, and 400 time steps
_CN_X_MIN, _CN_X_MAX, _CN_SPACE_POINTS, _CN_TIME_STEPS = -6.0, 6.0, 400, 400


def gaussian_expectation(fn, mean=0.0, variance=1.0):
    """E[fn(N(mean, variance))] by Gauss-Hermite quadrature; fn vectorized."""
    if variance < 0:
        raise InvalidArgumentError("variance must be non-negative")
    if variance == 0:
        return fn(np.asarray(mean))
    x, w = hermegauss(_HERMITE_NODES)
    w = w / w.sum()
    mean = np.asarray(mean, dtype=float)
    vals = fn(mean[..., None] + np.sqrt(variance) * x)
    return (vals * w).sum(axis=-1)


def heat_value(terminal_fn, t: float, x, T: float):
    """u(t, x) = E[terminal_fn(x + B_{T-t})] for a standard Brownian motion."""
    if t > T:
        raise InvalidArgumentError("t must not exceed T")
    return gaussian_expectation(terminal_fn, mean=np.asarray(x, dtype=float),
                                variance=T - t)


class CrankNicolsonOracle:
    """Theta-scheme solve of u_t + 0.5 u_xx + a u = 0, u(T, .) = terminal.

    Dirichlet boundaries hold the terminal values at the edges of the box
    [-6, 6], which is wide enough that the probe region never feels them.
    """

    def __init__(self, a: float, terminal_fn, T: float):
        self.a = a
        self.T = T
        self.xs = np.linspace(_CN_X_MIN, _CN_X_MAX, _CN_SPACE_POINTS)
        dx = self.xs[1] - self.xs[0]
        dt = T / _CN_TIME_STEPS
        m = _CN_SPACE_POINTS - 2
        lap = (np.diag(np.full(m - 1, 1.0), -1)
               + np.diag(np.full(m, -2.0))
               + np.diag(np.full(m - 1, 1.0), 1)) / dx ** 2
        op = 0.5 * lap + a * np.eye(m)
        lhs = np.eye(m) - 0.5 * dt * op
        rhs = np.eye(m) + 0.5 * dt * op
        u = np.asarray(terminal_fn(self.xs), dtype=float).copy()
        self.times = np.linspace(0.0, T, _CN_TIME_STEPS + 1)
        self.values = np.empty((_CN_TIME_STEPS + 1, _CN_SPACE_POINTS))
        self.values[-1] = u
        bc_left, bc_right = u[0], u[-1]
        lhs_inv = np.linalg.inv(lhs)
        for i in range(_CN_TIME_STEPS - 1, -1, -1):
            interior = lhs_inv @ (rhs @ u[1:-1])
            u = u.copy()
            u[1:-1] = interior
            u[0], u[-1] = bc_left, bc_right
            self.values[i] = u

    def at(self, t: float, x) -> np.ndarray:
        """Bilinear interpolation of the stored solution."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ti = np.searchsorted(self.times, t)
        ti = min(max(ti, 0), self.times.size - 1)
        if abs(self.times[ti] - t) > 1e-12 and ti > 0 and t < self.times[ti]:
            lam = (t - self.times[ti - 1]) / (self.times[ti] - self.times[ti - 1])
            row = (1 - lam) * self.values[ti - 1] + lam * self.values[ti]
        else:
            row = self.values[ti]
        return np.interp(x, self.xs, row)


def merton_y0(mu_s: float, sigma_bar_s: float, gamma: float, T: float) -> float:
    """The auxiliary value mu^2 T / (2 gamma sigma_bar^2) of a constant market."""
    return float(mu_s) ** 2 * T / (2.0 * gamma * sigma_bar_s ** 2)


def merton_drift_factor(gamma: float, sigma_bar_s: float, delta: float) -> float:
    """Per-unit-time log drift of the utility process under a constant offset."""
    return 0.5 * gamma ** 2 * sigma_bar_s ** 2 * delta ** 2
