"""Nonlinear change of measure and the weak solution of the quadratic system.

From a solved forward-backward system under the sampling measure, build the
stochastic exponential of N = -int <f(s, Y_s, Z_s), dB_s>, reweight to the
target measure, and shift the Brownian motion to W = B + int f ds. Under
the new measure W is a Brownian motion and the unchanged pair (Y, Z) together
with W solves the quadratic equation

    dY = -h dt - Z f dt + Z dW,   Y_T = phi(W_T),

with Z invariant under the measure change (the density representation does
not depend on the equivalent measure). The discrete exponential uses
exp(N - [N]/2), which is positive by construction. W is not built here: the
forward state X of the solve is the same Euler recursion, so X is W path by
path. Every reader here reads one ``fde.forward_record`` pass of the solution:
its sums of N, [N] and the weak residual, its probe states and increments, and
BMO's column of |f_k|^2 dt_k; no (P, K, d) drift array is held.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientWeightError, InvalidArgumentError, InvalidStateError
from .fde import FdeSolution, ForwardRecord, write_grid_csv, write_json
from .regression import (MIN_PATHS_PER_FUNCTION, StepRegression, density_target,
                         polynomial_basis)

REMAINING = "remaining"   # the record column of |f_k|^2 dt_k that BMO's target sums


@dataclass
class MeasureChange:
    """Exponential-martingale reweighting data.

    Keeps the terminal weights: the Radon-Nikodym values
    exp(N_K - [N]_K / 2), with N_K = -sum <f_k, dB_k> and
    [N]_K = sum |f_k|^2 dt_k over the left-endpoint drifts f_k. The shifted
    motion W is the solve's forward state X, and ``sol`` the solution they came from.
    """

    sol: FdeSolution = field(repr=False)
    weights: np.ndarray             # (P,) terminal

    @property
    def weight_mean(self) -> float:
        return float(self.weights.mean())

    @property
    def weight_stderr(self) -> float:
        return float(self.weights.std(ddof=1) / np.sqrt(self.weights.size))

    @property
    def effective_sample_size(self) -> float:
        s = self.weights.sum()
        return float(s * s / np.sum(self.weights ** 2))

    def tail_mass_above_quantile(self, q: float = 0.999) -> float:
        """Weight mass carried by paths above the q-quantile of the weights."""
        cutoff = np.quantile(self.weights, q)
        return float(self.weights[self.weights > cutoff].sum() / self.weights.sum())


def remaining_column(y, z, f, dt) -> np.ndarray:
    """|f_k|^2 dt_k per path: a ``forward_record`` column fn for ``REMAINING``."""
    return np.einsum("pd,pd->p", f, f) * dt


def _same_solution(mc: MeasureChange, record: ForwardRecord) -> None:
    if record.sol is not mc.sol:
        raise InvalidArgumentError("the record is of another solution than the measure change")


def _recorded(states: dict, steps) -> None:
    """Raise, naming it, on the first of ``steps`` that ``states`` holds no X_k for."""
    if missing := [k for k in steps if k not in states]:
        raise InvalidArgumentError(f"no recorded forward state at step {missing[0]}")


def z_invariance_probes(K: int) -> list:
    """(k, k + 1) at each Z-invariance probe k: K/4, K/2 and 3K/4 held in [1, K - 1] or 0."""
    return [(k, k + 1) for k in sorted({min(K - 1, max(1, j))
                                        for j in (K // 4, K // 2, (3 * K) // 4)})]


def build_measure_change(record: ForwardRecord) -> MeasureChange:
    """Terminal weights exp(N - [N]/2) from the sums of one record pass.

    f is evaluated at left endpoints on the replayed (Y, Z), the values the
    forward solve stepped X with, so X is the shifted motion W.
    """
    weights = np.exp(record.n_int - 0.5 * record.qv)
    if not np.all(np.isfinite(weights)) or not np.all(weights > 0):
        raise InvalidStateError("exponential weights overflowed or degenerated")
    return MeasureChange(sol=record.sol, weights=weights)


def assemble_weak_solution(mc: MeasureChange, record: ForwardRecord) -> dict:
    """Residual report of the weak integral equation for (Y, Z, W = X).

    The weak solution is the solve's (Y, Z) with W its forward state X; Z is
    unchanged (invariance realized literally), so only the weights are new.
    The per-path residual, summed by the record pass of ``mc.sol``, is
        Y_0 - phi(W_T) - sum h dt - sum (Z f) dt + sum Z dW,
    reported as a weighted rms since the equation lives under the target measure.
    """
    _same_solution(mc, record)
    if not np.all(np.isfinite(record.weak)):
        raise InvalidStateError("weak solution: non-finite residual")
    sq = np.einsum("pn,pn->p", record.weak, record.weak)
    weighted_rms = float(np.sqrt(np.sum(mc.weights * sq) / np.sum(mc.weights)))
    return {"weighted_rms": weighted_rms,
            "unweighted_rms": float(np.sqrt(sq.mean())),
            "weight_mean": mc.weight_mean,
            "weight_stderr": mc.weight_stderr,
            "effective_sample_size": mc.effective_sample_size}


def check_z_invariance(mc: MeasureChange, record: ForwardRecord) -> dict:
    """Compare Z surfaces estimated under both measures on the central region.

    The target-measure estimate regresses the reweighted martingale increment
    (dY + (h + Z f) dt) * dW / dt on the state with terminal weights; the
    sampling-measure surface is the solve's stored fit. Both sides use the
    stored fit's basis, so the discrepancy measures the measure change, not
    the basis. The probes are ``z_invariance_probes``' steps, each on a grid of
    21 points per dimension within 2 of the origin; ``record``, a pass of ``mc.sol``,
    holds X_k, X_{k+1} and the increment dY + (h + Z f) dt of each probe step k.
    Returns the maximum absolute discrepancy over the probe steps and grid.
    """
    _same_solution(mc, record)
    sol, states = mc.sol, record.states
    K, d = sol.grid.num_steps, sol.coeffs.d
    probes = z_invariance_probes(K)
    _recorded(states, [j for pair in probes for j in pair])
    basis = sol.z_fits[K // 2].basis
    ess = mc.effective_sample_size
    if ess < MIN_PATHS_PER_FUNCTION * basis.n_functions:
        raise InsufficientWeightError(
            f"effective sample size {ess:.1f} below "
            f"{MIN_PATHS_PER_FUNCTION * basis.n_functions}")

    def probe_mesh(x):
        # central region clipped to the bulk of the actual states: the
        # reweighted fit has no data beyond them
        lo = np.maximum(-2.0, np.quantile(x, 0.01, axis=0))
        hi = np.minimum(2.0, np.quantile(x, 0.99, axis=0))
        axes = [np.linspace(a, b, 21) for a, b in zip(lo, hi)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)

    t, dt = sol.grid.points, sol.grid.dt
    per_probe = []
    worst = 0.0
    for k, k_next in probes:
        mesh = probe_mesh(states[k])
        dw = states[k_next] - states[k]
        p_fit = StepRegression(states[k], basis, weights=mc.weights)
        zp = p_fit.fit(density_target(record.increments[k], dw, dt[k])).evaluate(mesh)
        zq = sol.z_fits[k].evaluate(mesh).reshape(zp.shape)
        disc = float(np.abs(zq - zp).max())
        per_probe.append({"step": int(k), "t": float(t[k]), "discrepancy": disc})
        worst = max(worst, disc)
    return {"max_discrepancy": worst, "per_probe": per_probe}


def bmo_diagnostic(record: ForwardRecord, steps) -> dict:
    """Conditional remaining quadratic variation of N at deterministic probe steps.

    At each grid step j of ``steps``, regress sum_{k >= j} |f_k|^2 dt_k on X_j in a
    quadratic polynomial basis and report the mean and 99th percentile of the
    fitted values. Probes at deterministic times stand in for stopping times; this is
    a diagnostic, not a proof device. A probe step with no X in ``record`` raises
    InvalidArgumentError, naming it; then the record's ``REMAINING`` column is taken
    from it and summed in place into the target.
    """
    sol, states = record.sol, record.states
    K, t = sol.grid.num_steps, sol.grid.points
    _recorded(states, steps)
    basis = polynomial_basis(2, sol.coeffs.d)
    # path-major: a probe's column of ``remaining`` is a fit target, and the
    # fit's product sums it in an order that depends on its strides
    remaining = record.columns.pop(REMAINING)
    np.cumsum(remaining[:, ::-1], axis=1, out=remaining[:, ::-1])   # in place: one (P, K) array

    per_probe = []
    sup99 = 0.0
    for idx in steps:
        if idx >= K:
            est = np.zeros(sol.num_paths)
        else:
            sr = StepRegression(states[idx], basis)
            fit = sr.fit(remaining[:, idx][:, None])
            est = fit.evaluate(states[idx])[:, 0]
        p99 = float(np.quantile(est, 0.99))
        per_probe.append({"t": float(t[idx]), "mean": float(est.mean()), "p99": p99})
        sup99 = max(sup99, p99)
    return {"sup_p99": sup99, "per_probe": per_probe}


def export_weak_solution(mc: MeasureChange, residual: dict, forward, csv_path,
                         sidecar_path, *, config_echo: dict):
    """CSV of (path, step, t, Y.., Z.., W..) of a ``forward_record``'s rows of ``mc.sol``,
    W being its X, plus a sidecar."""
    _, W, Y, Z = forward
    write_grid_csv(csv_path, mc.sol.grid, [("Y", Y), ("Z", Z), ("W", W)])
    side = {"residual": {k: float(v) for k, v in residual.items()},
            "weights": {
                "mean": float(mc.weights.mean()),
                "variance": float(mc.weights.var(ddof=1)),
                "max": float(mc.weights.max()),
                "effective_sample_size": residual["effective_sample_size"],
            },
            "config": config_echo}
    write_json(sidecar_path, side)
