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
    the gap should stay within a small multiple of the Picard tolerance. The
    whole Y and Z compared are ``reference_paths`` of each solution.
    """
    if guesses is None:
        g0 = max(coeffs.m_bound, 1.0)
        guesses = (g0, -g0)
    sols = [ff.solve_global(coeffs, ensemble, initial_guess=g, **solve_kwargs)
            for g in guesses]
    (_, _, Y0, Z0), (_, _, Y1, Z1) = (reference_paths(s, ensemble) for s in sols)
    y_gap = float(np.abs(Y0 - Y1).max())
    z_gap = float(np.abs(Z0 - Z1).max())
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
    are left out (``force`` is ignored). Returns (WindowSolution, PicardReport)
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
    sol = ff.WindowSolution(
        V=V.transpose(1, 0, 2), X=X.transpose(1, 0, 2), Y=Y.transpose(1, 0, 2),
        Z=Z.transpose(1, 0, 2, 3), X_T=X[m], phi_fits=y_fits, z_fits=z_fits)
    return sol, report


def full_record(sol: ff.FdeSolution, ensemble: ff.BrownianEnsemble, paths: int = 0,
                columns=None, reads=None) -> ff.ForwardRecord:
    """One ``forward_record`` pass of a global solution with X_k recorded at every step
    k = 0..K and BMO's column, which every reader of the record can read."""
    columns = {ff.girsanov.REMAINING: ff.girsanov.remaining_column, **(columns or {})}
    return ff.forward_record(sol, ensemble, paths, range(sol.grid.num_steps + 1), columns,
                             reads)


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


def pi_star_reference(model: ff.MarketModel, Z: np.ndarray) -> np.ndarray:
    """Pointwise identity -Zbar + mu_S/(gamma sigma_S^2) on a whole (P, K, 1, 2) Z."""
    return -Z[:, :, 0, 1] + model.mu_s / (model.gamma * model.sigma_bar_s ** 2)


def market_record(psol: ff.PortfolioSolution, ensemble: ff.BrownianEnsemble,
                  paths: int = 0) -> ff.ForwardRecord:
    """A ``full_record`` of a market solution that also reads pi*'s per-step statistics
    (``portfolio.PI_STAR``) and keeps the squares of Z (column ``"z_sq"``), as the CLI's
    record of merton does."""
    return full_record(psol.fde_sol, ensemble, paths, {"z_sq": lambda y, z, f, dt: np.square(z)},
                       {ff.portfolio.PI_STAR: ff.portfolio.pi_star_read(psol.model)})


def whole_array_market_reads(model: ff.MarketModel, Z: np.ndarray) -> dict:
    """What a market's checks and export read of whole pi* and Z, each written as one
    whole-array expression: pi*'s largest gap to ``pi_star_reference``, its per-step
    mean and std (sums over the columns of a C-order (P, K) array), its largest
    distance from the Merton fraction, and the rms of Z (summed as a C-order array)."""
    pi_star = np.ascontiguousarray(pi_star_reference(model, Z))
    return {"pi_star_identity": float(np.abs(pi_star - pi_star_reference(model, Z)).max()),
            "per_step_mean": [float(v) for v in pi_star.mean(axis=0)],
            "per_step_std": [float(v) for v in pi_star.std(axis=0)],
            "pi_star_dev": float(np.abs(pi_star - model.merton_fraction).max()),
            "merton_z_rms": float(np.sqrt(np.mean(np.ascontiguousarray(Z) ** 2)))}


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


def reference_solve_global(coeffs: ff.CoefficientSet, ensemble: ff.BrownianEnsemble, c4: float,
                           basis, *, tol: float = ff.fde.DEFAULT_TOL,
                           max_iter: int = ff.fde.DEFAULT_MAX_ITER) -> dict:
    """A plain global solve holding whole arrays, for comparison with ``solve_global``.

    The windows come from ``grid.contraction_windows``; each is solved backward by
    ``reference_picard_window`` from the exploration starts that ``solve_global`` draws
    (a box of half-width 2.2 sqrt(1 + t) + |f| t around the origin, the same box
    restricting each fit, and Y clipped at the a-priori bound), the interior windows
    consuming the clipped fitted Y map of the next window's first step. One loop then
    assembles whole step-major V, X, Y and Z from X_0 = 0: (Y_k, Z_k) are the fitted maps
    at X_k, V is glued by a running offset (each window sums its h dt from zero), and
    Y_K = phi(X_K). Returns the arrays (path-major views), the fits and the windows.
    """
    grid, P = ensemble.grid, ensemble.num_paths
    n, d, K, T = coeffs.n, coeffs.d, grid.num_steps, grid.horizon
    t, dt, dB = grid.points, grid.dt, ensemble.increments
    windows = ff.contraction_windows(grid, coeffs.c1, coeffs.c2, c4)
    probe_t = t[::max(1, K // 8)]
    z0 = np.zeros((1, n, d))
    fmag = max(float(np.abs(coeffs.eval_f(s, coeffs.eval_phi(np.zeros((1, d))), z0)).max())
               for s in probe_t)
    h0 = max(float(np.abs(coeffs.eval_h(s, np.zeros((1, n)), z0)).max()) for s in probe_t)

    def box(s):
        r = ff.fde._EXPLORATION_RADIUS * np.sqrt(ff.fde._EXPLORATION_FLOOR ** 2 + s) + fmag * s
        return np.full(d, -r), np.full(d, r)

    grow = lambda s: coeffs.m_bound + T * (h0 + coeffs.c1 * (1.0 + s))
    clip = grow(grow(coeffs.m_bound))
    phi_fits, z_fits, reports = [None] * K, [None] * K, [None] * len(windows)
    terminal_map = coeffs.eval_phi
    for wi in range(len(windows) - 1, -1, -1):
        a, b = windows[wi]
        lo, hi = box(t[a])
        starts = ff.fde._exploration_rng(ensemble.seed, wi).uniform(lo, hi, size=(P, d))
        wsol, reports[wi] = reference_picard_window(
            coeffs, ff.TimeGrid(t[a:b + 1]), terminal_map, starts, dB[:, a:b], tol=tol,
            max_iter=max_iter, basis=basis, fit_window_fn=box, clip_bound=clip)
        phi_fits[a:b], z_fits[a:b] = wsol.phi_fits, wsol.z_fits
        terminal_map = lambda x, _f=phi_fits[a]: np.clip(_f.evaluate(x), -clip, clip)
    V, X, Y, Z = reference_assembly(coeffs, ensemble, phi_fits, z_fits, windows, clip)
    return {"V": V, "X": X, "Y": Y, "Z": Z, "phi_fits": phi_fits, "z_fits": z_fits,
            "windows": windows, "reports": reports}


def reference_assembly(coeffs: ff.CoefficientSet, ensemble: ff.BrownianEnsemble, phi_fits,
                       z_fits, windows, clip):
    """Whole (V, X, Y, Z) of fitted maps, assembled in one loop from X_0 = 0: (Y_k, Z_k)
    are step k's maps at X_k, Y clipped at ``clip``, V is glued by a running offset (each
    window sums its h dt from zero), and Y_K = phi(X_K). Each array is the path-major view
    of a step-major buffer."""
    grid, P, n, d = ensemble.grid, ensemble.num_paths, coeffs.n, coeffs.d
    K, t, dt, dB = grid.num_steps, grid.points, grid.dt, ensemble.increments
    V, X = np.zeros((K + 1, P, n)), np.zeros((K + 1, P, d))
    Y, Z = np.zeros((K + 1, P, n)), np.zeros((K, P, n, d))
    offset = np.zeros((P, n))
    for a, b in windows:
        local = np.zeros((P, n))
        for k in range(a, b):
            Y[k] = np.clip(phi_fits[k].evaluate(X[k]), -clip, clip)
            Z[k] = z_fits[k].evaluate(X[k])
            local = local + coeffs.eval_h(t[k], Y[k], Z[k]) * dt[k]
            V[k + 1] = offset + local
            X[k + 1] = X[k] + coeffs.eval_f(t[k], Y[k], Z[k]) * dt[k] + dB[:, k]
        offset = V[b].copy()
    Y[K] = coeffs.eval_phi(X[K])
    return V.transpose(1, 0, 2), X.transpose(1, 0, 2), Y.transpose(1, 0, 2), Z.transpose(1, 0, 2, 3)


def reference_paths(sol: ff.FdeSolution, ensemble: ff.BrownianEnsemble):
    """A global solution's whole (V, X, Y, Z), from ``reference_assembly`` of its maps."""
    return reference_assembly(sol.coeffs, ensemble, sol.phi_fits, sol.z_fits,
                              sol.window_bounds, sol.clip_bound)


def reference_reads(ref: dict, coeffs: ff.CoefficientSet, ensemble: ff.BrownianEnsemble,
                    paths: int, probes=(), bmo_steps=(), merton_fraction=None) -> dict:
    """Everything the post-solve readers report, computed from the whole arrays of
    ``reference_solve_global``: y0 and its error bar; the residuals; the weights
    exp(N - [N]/2) and the weak residual report; the Z-invariance report at the probe
    pairs and the BMO report at ``bmo_steps``; pi*'s summary and the rms of Z (each a
    reduction over a whole path-major array); the largest |Y - 1| and |V|; and the
    export rows of the first ``paths`` paths."""
    V, X, Y, Z = ref["V"], ref["X"], ref["Y"], ref["Z"]
    P, K1, n = Y.shape
    K, d = K1 - 1, X.shape[2]
    t, dt, dB = ensemble.grid.points, ensemble.grid.dt, ensemble.increments
    out = {}
    xi = Y[:, K] + V[:, K]
    out["y0"] = (xi.mean(axis=0), xi.std(axis=0, ddof=1) / np.sqrt(P))
    h = [coeffs.eval_h(t[k], Y[:, k], Z[:, k]) for k in range(K)]
    f = [coeffs.eval_f(t[k], Y[:, k], Z[:, k]) for k in range(K)]
    back_sq = 0.0
    for k in range(K):
        zdb = np.einsum("pnd,pd->pn", Z[:, k], dB[:, k])
        back_sq += float(np.mean((Y[:, k + 1] - Y[:, k] + h[k] * dt[k] - zdb) ** 2))
    phi_T = coeffs.eval_phi(X[:, K])
    out["residuals"] = {"terminal_rms": float(np.sqrt(np.mean((Y[:, K] - phi_T) ** 2))),
                        "backward_rms": float(np.sqrt(back_sq / K)), "forward_max": 0.0}
    n_int, qv, resid = np.zeros(P), np.zeros(P), Y[:, 0] - phi_T
    for k in range(K):
        n_int = n_int - np.einsum("pd,pd->p", f[k], dB[:, k])
        qv = qv + np.einsum("pd,pd->p", f[k], f[k]) * dt[k]
        zf = np.einsum("pnd,pd->pn", Z[:, k], f[k])
        zdw = np.einsum("pnd,pd->pn", Z[:, k], X[:, k + 1] - X[:, k])
        resid = resid - h[k] * dt[k] - zf * dt[k] + zdw
    w = np.exp(n_int - 0.5 * qv)
    out["weights"] = w
    sq = np.einsum("pn,pn->p", resid, resid)
    out["weak"] = {"weighted_rms": float(np.sqrt(np.sum(w * sq) / np.sum(w))),
                   "unweighted_rms": float(np.sqrt(sq.mean())),
                   "weight_mean": float(w.mean()),
                   "weight_stderr": float(w.std(ddof=1) / np.sqrt(P)),
                   "effective_sample_size": float(w.sum() * w.sum() / np.sum(w ** 2))}
    per_probe, worst = [], 0.0
    for k, k1 in probes:
        lo = np.maximum(-2.0, np.quantile(X[:, k], 0.01, axis=0))
        hi = np.minimum(2.0, np.quantile(X[:, k], 0.99, axis=0))
        axes = [np.linspace(a, b, 21) for a, b in zip(lo, hi)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        zf = np.einsum("pnd,pd->pn", Z[:, k], f[k])
        dmp = Y[:, k1] - Y[:, k] + (h[k] + zf) * dt[k]
        fit = ff.StepRegression(X[:, k], ref["z_fits"][K // 2].basis, weights=w).fit(
            density_target(dmp, X[:, k1] - X[:, k], dt[k]))
        zp = fit.evaluate(mesh)
        disc = float(np.abs(ref["z_fits"][k].evaluate(mesh).reshape(zp.shape) - zp).max())
        per_probe.append({"step": k, "t": float(t[k]), "discrepancy": disc})
        worst = max(worst, disc)
    out["z_invariance"] = {"max_discrepancy": worst, "per_probe": per_probe}
    step_qv = np.ascontiguousarray(
        np.stack([np.einsum("pd,pd->p", f[k], f[k]) * dt[k] for k in range(K)], axis=1))
    remaining = np.cumsum(step_qv[:, ::-1], axis=1)[:, ::-1]
    per_probe, sup99 = [], 0.0
    for j in bmo_steps:
        est = np.zeros(P) if j >= K else ff.StepRegression(
            X[:, j], ff.polynomial_basis(2, d)).fit(remaining[:, j][:, None]).evaluate(X[:, j])[:, 0]
        p99 = float(np.quantile(est, 0.99))
        per_probe.append({"t": float(t[j]), "mean": float(est.mean()), "p99": p99})
        sup99 = max(sup99, p99)
    out["bmo"] = {"sup_p99": sup99, "per_probe": per_probe}
    if merton_fraction is not None:
        pi = np.ascontiguousarray(-Z[:, :, 0, 1] + merton_fraction)
        out["pi_star"] = {"pi_star_identity": float(np.abs(pi - (-Z[:, :, 0, 1] + merton_fraction)).max()),
                          "per_step_mean": [float(v) for v in pi.mean(axis=0)],
                          "per_step_std": [float(v) for v in pi.std(axis=0)],
                          "pi_star_dev": float(np.abs(pi - merton_fraction).max())}
    out["z_rms"] = float(np.sqrt(np.mean(np.ascontiguousarray(Z) ** 2)))
    out["y_dev_from_one"] = float(np.abs(Y - 1.0).max())
    out["v_max"] = float(np.abs(V).max())
    out["rows"] = (V[:paths], X[:paths], Y[:paths], Z[:paths])
    return out
