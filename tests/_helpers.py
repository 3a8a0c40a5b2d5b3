"""Helpers shared by test modules that are not fixtures."""
import numpy as np

import fdeflow as ff
from fdeflow.portfolio import PortfolioTransform


def empirical_pathwise_uniqueness(coeffs: ff.CoefficientSet, grid: ff.TimeGrid, x0,
                                  ensemble: ff.BrownianEnsemble, guesses=None,
                                  **solve_kwargs) -> dict:
    """Gap between two solves started from independent initial guesses.

    Both solves share the ensemble and exploration noise; only the Picard
    starting point differs. Contraction makes the fixed point guess-free, so
    the gap should stay within a small multiple of the Picard tolerance.
    """
    if guesses is None:
        g0 = max(coeffs.m_bound, 1.0)
        guesses = (g0, -g0)
    sols = [ff.solve_global(coeffs, grid, x0, ensemble, initial_guess=g, **solve_kwargs)
            for g in guesses]
    y_gap = float(np.abs(sols[0].Y - sols[1].Y).max())
    z_gap = float(np.abs(sols[0].Z - sols[1].Z).max())
    return {"y_gap": y_gap, "z_gap": z_gap, "max_gap": max(y_gap, z_gap),
            "solutions": sols}


def brownian_paths(ensemble: ff.BrownianEnsemble) -> np.ndarray:
    """Cumulative sums with a zero step prepended; shape (P, K+1, dim),
    stored step-major like the increments."""
    out = np.zeros((ensemble.grid.num_steps + 1, ensemble.num_paths, ensemble.dim))
    np.cumsum(ensemble.increments.transpose(1, 0, 2), axis=0, out=out[1:])
    return out.transpose(1, 0, 2)


def prices(transform: PortfolioTransform, t: float, state: np.ndarray):
    """Prices (V, S) of canonical states (P, 2) at time t."""
    ln_v, ln_s = transform.log_prices(t, state)
    return np.exp(ln_v), np.exp(ln_s)


def girsanov_integrand(transform: PortfolioTransform, t, y, z) -> np.ndarray:
    """Integrand of N: ((gamma/2) Z^V, mu_S / sigma_S); minus the canonical drift."""
    model = transform.model
    return np.column_stack([0.5 * model.gamma * z[:, 0, 0],
                            np.full(z.shape[0], model.mu_s_fn()(t) / model.sigma_bar_s)])


def pi_star_reference(psol: ff.PortfolioSolution) -> np.ndarray:
    """Pointwise identity -Zbar + mu_S/(gamma sigma_S^2) on the stored arrays."""
    mu = psol.model.mu_s_fn()
    base = np.array([mu(t) for t in psol.grid.points[:-1]])
    return -psol.fde_sol.Z[:, :, 0, 1] + base[None, :] / (
        psol.model.gamma * psol.model.sigma_bar_s ** 2)


def whole_array_optimality(psol: ff.PortfolioSolution, deltas,
                           eval_ensemble: ff.BrownianEnsemble) -> dict:
    """Reference optimality check on whole arrays: the full Brownian paths and
    every step's surfaces are built first, then each strategy walks all steps.

    The same drift statistics as ``verify_martingale_optimality``, computed
    strategy by strategy instead of step by step; the validation and
    finiteness checks are left out.
    """
    K = psol.grid.num_steps
    t = psol.grid.points
    dt = psol.grid.dt
    P = eval_ensemble.num_paths
    gamma = psol.model.gamma
    sbs = psol.model.sigma_bar_s
    mu = psol.model.mu_s_fn()
    dW = eval_ensemble.increments
    w_state = brownian_paths(eval_ensemble)  # canonical state starts at 0

    sol = psol.fde_sol
    y_surf, z_surf = [], []
    for k in range(K):
        yk, zk = ff.fde.evaluate_step_maps(sol.phi_fits[k], sol.z_fits[k], w_state[:, k])
        y_surf.append(yk[:, 0])
        z_surf.append(zk[:, 0, :])
    y_surf.append(psol.coeffs.eval_phi(w_state[:, K])[:, 0])

    strategies = {"pi_star": 0.0}
    for dlt in deltas:
        strategies[f"pi_star{dlt:+g}"] = float(dlt)

    results = {}
    for label, dlt in strategies.items():
        wealth = np.full(P, float(psol.model.x0))
        step_drift = np.empty(K)
        step_se = np.empty(K)
        total = np.zeros(P)
        u_prev = -np.exp(-gamma * (wealth + y_surf[0]))
        for k in range(K):
            zv, zbar = z_surf[k][:, 0], z_surf[k][:, 1]
            pi = -zbar + mu(t[k]) / (gamma * sbs ** 2) + dlt
            wealth_next = wealth + pi * (mu(t[k]) * dt[k] + sbs * dW[:, k, 1])
            u_next = -np.exp(-gamma * (wealth_next + y_surf[k + 1]))
            cv = u_prev * (-gamma) * ((pi * sbs + zbar) * dW[:, k, 1] + zv * dW[:, k, 0])
            incr = u_next - u_prev - cv
            step_drift[k] = incr.mean()
            step_se[k] = incr.std(ddof=1) / np.sqrt(P)
            total += incr
            wealth = wealth_next
            u_prev = u_next
        results[label] = {
            "delta": dlt,
            "step_drift": step_drift,
            "step_se": step_se,
            "total_drift": float(total.mean()),
            "total_se": float(total.std(ddof=1) / np.sqrt(P)),
            "value_estimate": float(u_prev.mean()),
            "value_se": float(u_prev.std(ddof=1) / np.sqrt(P)),
        }
    return {"strategies": results, "eval_seed": eval_ensemble.seed,
            "num_paths": P, "deltas": [float(d) for d in deltas]}
