"""Helpers shared by test modules that are not fixtures."""
import numpy as np

import fdeflow as ff
from fdeflow import portfolio
from fdeflow.regression import density_target


def empirical_pathwise_uniqueness(coeffs: ff.CoefficientSet, ensemble: ff.BrownianEnsemble,
                                  guesses=None, **solve_kwargs) -> dict:
    """Gap between two solves started from independent initial guesses.

    Both solves share the ensemble and exploration noise; only the Picard
    starting point differs. Contraction makes the fixed point guess-free, so
    the gap should stay within a small multiple of the Picard tolerance.
    """
    if guesses is None:
        g0 = max(coeffs.m_bound, 1.0)
        guesses = (g0, -g0)
    sols = [ff.solve_global(coeffs, ensemble, initial_guess=g, **solve_kwargs)
            for g in guesses]
    y_gap = float(np.abs(sols[0].Y - sols[1].Y).max())
    z_gap = float(np.abs(sols[0].Z - sols[1].Z).max())
    return {"y_gap": y_gap, "z_gap": z_gap, "max_gap": max(y_gap, z_gap),
            "solutions": sols}


def reference_picard_window(coeffs: ff.CoefficientSet, window_grid: ff.TimeGrid, terminal_map,
                            start_x, increments: np.ndarray, *, tol: float = ff.fde.DEFAULT_TOL,
                            max_iter: int = ff.fde.DEFAULT_MAX_ITER, basis=None,
                            force=False, initial_guess=None, fit_window_fn=None,
                            clip_bound=None):
    """Plain Picard iteration of the window map, for comparison with ``picard_window``.

    ``terminal_map`` returns (P, n) arrays. Every pass runs the forward Euler
    step, calls the terminal map, builds every ``StepRegression`` afresh and
    fits Y, then Z, backward; the distance is one whole-array max over (V, X),
    and the iteration stops only when a distance reaches ``tol *
    DEFAULT_POLISH``. A pass that repeats its iterate bitwise refits to the
    same bits, so ``picard_window``'s reuse and early exit must leave every
    output as this gives it. The mesh precondition and the divergence guards
    are left out (``force`` is ignored). Returns (FdeSolution, PicardReport)
    as ``picard_window`` does.
    """
    P, m, d = increments.shape
    n = coeffs.n
    basis = basis or ff.polynomial_basis(3, d)
    t, dt = window_grid.points, window_grid.dt
    start = np.broadcast_to(np.asarray(start_x, dtype=float), (P, d))
    y_init = (terminal_map(start) if initial_guess is None
              else np.atleast_1d(np.asarray(initial_guess, float)))
    Y = np.broadcast_to(y_init, (m + 1, P, n)).copy()
    Z = np.zeros((m, P, n, d))
    report = ff.PicardReport(window=(float(t[0]), float(t[-1])), distances=[], converged=False)
    V = X = None
    for _ in range(max_iter):
        V_last, X_last = V, X
        V = np.zeros((m + 1, P, n))
        X = np.empty((m + 1, P, d))
        X[0] = start
        for k in range(m):
            V[k + 1] = V[k] + coeffs.eval_h(t[k], Y[k], Z[k]) * dt[k]
            X[k + 1] = X[k] + coeffs.eval_f(t[k], Y[k], Z[k]) * dt[k] + increments[:, k]
        dist = None
        if X_last is not None:
            dist = float(max(np.abs(V - V_last).max(), np.abs(X - X_last).max()))
            report.distances.append(dist)
            report.converged = report.converged or dist <= tol
        xi = terminal_map(X[m]) + V[m]
        y_fits, z_fits = [None] * m, [None] * m
        Y[m] = xi - V[m]
        M_next = xi
        for k in range(m - 1, -1, -1):
            box = fit_window_fn(t[k]) if fit_window_fn is not None else None
            sr = ff.StepRegression(X[k], basis, fit_window=box)
            y_fits[k] = sr.fit(xi - V[k])
            Y[k] = y_fits[k].evaluate(X[k])
            if clip_bound is not None:
                Y[k] = np.clip(Y[k], -clip_bound, clip_bound)
            M_k = Y[k] + V[k]
            z_fits[k] = sr.fit(density_target(M_next - M_k, increments[:, k], dt[k]),
                               out_shape=(n, d))
            Z[k] = z_fits[k].evaluate(X[k])
            M_next = M_k
        if dist is not None and dist <= tol * ff.fde.DEFAULT_POLISH:
            break
    sol = ff.FdeSolution(
        grid=window_grid, coeffs=coeffs, V=V.transpose(1, 0, 2), X=X.transpose(1, 0, 2),
        Y=Y.transpose(1, 0, 2), Z=Z.transpose(1, 0, 2, 3), X_T=X[m],
        phi_fits=y_fits, z_fits=z_fits, iteration_log=[report], window_bounds=[(0, m)])
    return sol, report


def replayed_paths(sol: ff.FdeSolution, ensemble: ff.BrownianEnsemble):
    """A global solution's whole V (P, K+1, n) and X (P, K+1, d), stacked from
    the rows of ``replay_forward``."""
    rows = list(ff.replay_forward(sol, ensemble))
    return tuple(np.stack(arrs, axis=1) for arrs in zip(*rows))


def recorded_states(sol: ff.FdeSolution, ensemble: ff.BrownianEnsemble) -> dict:
    """{k: X_k} at every step k = 0..K of a global solution, from one ``fde.forward_rows``
    replay; what ``check_z_invariance`` and ``bmo_diagnostic`` read."""
    return ff.fde.forward_rows(sol, ensemble, 0, range(sol.grid.num_steps + 1))[1]


def brownian_paths(ensemble: ff.BrownianEnsemble) -> np.ndarray:
    """Cumulative sums with a zero step prepended; shape (P, K+1, dim),
    stored step-major like the increments."""
    out = np.zeros((ensemble.grid.num_steps + 1, ensemble.num_paths, ensemble.dim))
    np.cumsum(ensemble.increments.transpose(1, 0, 2), axis=0, out=out[1:])
    return out.transpose(1, 0, 2)


def prices(model: ff.MarketModel, t: float, state: np.ndarray):
    """Prices (V, S) of canonical states (P, 2) at time t."""
    ln_v, ln_s = portfolio.log_prices(model, t, state)
    return np.exp(ln_v), np.exp(ln_s)


def girsanov_integrand(model: ff.MarketModel, t, y, z) -> np.ndarray:
    """Integrand of N: ((gamma/2) Z^V, mu_S / sigma_S); minus the canonical drift."""
    return np.column_stack([0.5 * model.gamma * z[:, 0, 0],
                            np.full(z.shape[0], model.mu_s / model.sigma_bar_s)])


def pi_star_reference(psol: ff.PortfolioSolution) -> np.ndarray:
    """Pointwise identity -Zbar + mu_S/(gamma sigma_S^2) on the stored arrays."""
    return -psol.fde_sol.Z[:, :, 0, 1] + psol.model.mu_s / (
        psol.model.gamma * psol.model.sigma_bar_s ** 2)


def whole_array_market_reads(psol: ff.PortfolioSolution) -> dict:
    """What a market's checks and export read of whole pi* and Z, each written as one
    whole-array expression: pi*'s largest gap to ``pi_star_reference``, its per-step
    mean and std (sums over the columns of a C-order (P, K) array), its largest
    distance from the Merton fraction, and the rms of Z (summed as a C-order array)."""
    pi_star = np.ascontiguousarray(pi_star_reference(psol))
    z = np.ascontiguousarray(psol.fde_sol.Z)
    return {"pi_star_identity": float(np.abs(psol.pi_star - pi_star).max()),
            "per_step_mean": [float(v) for v in pi_star.mean(axis=0)],
            "per_step_std": [float(v) for v in pi_star.std(axis=0)],
            "pi_star_dev": float(np.abs(pi_star - psol.model.merton_fraction).max()),
            "merton_z_rms": float(np.sqrt(np.mean(z ** 2)))}


def endowment_oracle(model: ff.MarketModel, kappa: float, T: float, t: float,
                     x: np.ndarray, nodes: int = 201):
    """Exact (Y, Z) of the endowment market g = kappa tanh(ln(V_T / v0)) at time t
    and canonical states x (P, 2).

    phi reads x only through xi = sigma_v x1 + sigma_bar_v x2, so the auxiliary
    PDE is one-dimensional in xi, and the Cole-Hopf substitution exp(-c U)
    with c = gamma sigma_v^2 / s^2, s^2 = sigma_v^2 + sigma_bar_v^2, removes
    its quadratic term:
        Y = h (T - t) - (1/c) log E[exp(-c kappa tanh(a + xi + b (T - t) + s sqrt(T - t) N))]
    with h = mu_S^2 / (2 gamma sigma_bar_S^2), b = -mu_S sigma_bar_v / sigma_bar_S,
    a = (mu_v - s^2 / 2) T and N standard normal; the expectation is a
    Gauss-Hermite sum. Z = (sigma_v, sigma_bar_v) dY/dxi.
    """
    s2 = model.sigma_v ** 2 + model.sigma_bar_v ** 2
    c = model.gamma * model.sigma_v ** 2 / s2
    h = model.mu_s ** 2 / (2 * model.gamma * model.sigma_bar_s ** 2)
    b = -model.mu_s * model.sigma_bar_v / model.sigma_bar_s
    a = (model.mu_v - 0.5 * s2) * T
    tau = T - t
    xi = model.sigma_v * x[:, 0] + model.sigma_bar_v * x[:, 1]
    n, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    u = (a + xi + b * tau)[:, None] + np.sqrt(s2 * tau) * n[None, :]
    g, dg = kappa * np.tanh(u), kappa / np.cosh(u) ** 2
    if c == 0:   # the log-expectation tends to the plain expectation
        y, dy = g @ w, dg @ w
    else:
        e = np.exp(-c * g)
        y, dy = -np.log(e @ w) / c, (e * dg) @ w / (e @ w)
    z = np.column_stack([model.sigma_v * dy, model.sigma_bar_v * dy])
    return h * tau + y, z


def whole_array_optimality(psol: ff.PortfolioSolution, deltas,
                           eval_ensemble: ff.BrownianEnsemble) -> dict:
    """Reference optimality check on whole arrays: the full Brownian paths and
    every step's surfaces are built first, then each strategy walks all steps.

    The same drift statistics as ``verify_martingale_optimality``, computed
    strategy by strategy instead of step by step; the validation and
    finiteness checks are left out.
    """
    K = psol.fde_sol.grid.num_steps
    dt = psol.fde_sol.grid.dt
    P = eval_ensemble.num_paths
    gamma = psol.model.gamma
    sbs = psol.model.sigma_bar_s
    mu = psol.model.mu_s
    dW = eval_ensemble.increments
    w_state = brownian_paths(eval_ensemble)  # canonical state starts at 0

    sol = psol.fde_sol
    y_surf, z_surf = [], []
    for k in range(K):
        yk, zk = ff.fde.evaluate_step_maps(sol.phi_fits[k], sol.z_fits[k], w_state[:, k])
        y_surf.append(yk[:, 0])
        z_surf.append(zk[:, 0, :])
    y_surf.append(sol.coeffs.eval_phi(w_state[:, K])[:, 0])

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
            pi = -zbar + mu / (gamma * sbs ** 2) + dlt
            wealth_next = wealth + pi * (mu * dt[k] + sbs * dW[:, k, 1])
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
