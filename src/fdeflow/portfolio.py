"""Exponential-utility optimal investment with a nontradeable asset.

Market: a zero-rate bond, a tradeable asset S, and a nontradeable asset V
driven by a two-dimensional Brownian motion; the investor maximizes
E[-exp(-gamma (X_T + g(V_T, S_T)))] over self-financing strategies. The
martingale optimality principle characterizes the optimum through a quadratic
backward equation for an auxiliary process Y with terminal value g(V_T, S_T);
its weak solution is built from the linear auxiliary forward-backward system
in (ln V, ln S, Y) and the change-of-measure pass, not by quadratic time
stepping. The value is -exp(-gamma (x0 + Y_0)) and the optimal strategy is
pi* = -Zbar + mu_S / (gamma sigma_S^2).

The canonical forward state is the driving pair with its measure-change
drift; log prices are affine in that state, which requires constant
volatility coefficients (drifts may vary with time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError
from .fde import (CoefficientSet, FdeSolution, evaluate_step_maps, solve_global,
                  write_json, write_path_csv)
from .girsanov import MeasureChange, WeakSolution, assemble_weak_solution, build_measure_change
from .grid import BrownianEnsemble, TimeGrid
from .regression import RegressionBasis, polynomial_basis

_G_CHECK_SAMPLES = 64
_G_CHECK_SEED = 0xF00D


def _as_time_fn(v):
    if callable(v):
        return v
    return lambda t, _v=float(v): _v


@dataclass
class MarketModel:
    """Coefficients of the two-asset market and the investor's data.

    Drifts may be functions of time; volatilities must be constant (the
    canonical state transform is affine only then). ``g`` maps terminal
    prices (V_T, S_T) to the random endowment; ``g_lip_log`` is its Lipschitz
    constant in log prices and ``g_bound`` its uniform bound. ``g=None``
    means zero endowment.
    """

    mu_s: object
    sigma_bar_s: float
    mu_v: object = 0.0
    sigma_v: float = 0.0
    sigma_bar_v: float = 0.0
    gamma: float = 1.0
    g: callable = None
    g_bound: float = 0.0
    g_lip_log: float = 0.0
    x0: float = 0.0
    v0: float = 1.0
    s0: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 0):
            raise InvalidArgumentError(f"gamma must be positive, got {self.gamma}")
        if self.v0 <= 0 or self.s0 <= 0:
            raise InvalidArgumentError("initial prices must be positive")
        for name in ("sigma_bar_s", "sigma_v", "sigma_bar_v"):
            if callable(getattr(self, name)):
                raise InvalidArgumentError(
                    f"{name} must be a constant; time-varying volatilities are unsupported")
        if not (abs(self.sigma_bar_s) > 0):
            raise InvalidArgumentError("sigma_bar_s must be bounded away from zero")
        if self.g is not None:
            if self.g_bound <= 0 or self.g_lip_log < 0:
                raise InvalidArgumentError(
                    "an endowment needs positive g_bound and non-negative g_lip_log")
            self._spot_check_g()

    def mu_s_fn(self):
        return _as_time_fn(self.mu_s)

    def mu_v_fn(self):
        return _as_time_fn(self.mu_v)

    def _spot_check_g(self):
        rng = np.random.Generator(np.random.Philox(key=_G_CHECK_SEED))
        m = _G_CHECK_SAMPLES
        slack = 1e-9
        lv, lv2 = np.log(self.v0) + rng.normal(0, 1.5, (2, m))
        ls, ls2 = np.log(self.s0) + rng.normal(0, 1.5, (2, m))
        g1 = np.asarray(self.g(np.exp(lv), np.exp(ls)), dtype=float)
        g2 = np.asarray(self.g(np.exp(lv2), np.exp(ls2)), dtype=float)
        if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
            raise InvalidArgumentError("g returned non-finite values on spot-check inputs")
        if np.any(np.abs(g1) > self.g_bound * (1 + slack) + 1e-12):
            raise InvalidArgumentError(f"g violates the declared bound {self.g_bound}")
        dist = np.abs(lv - lv2) + np.abs(ls - ls2)
        if np.any(np.abs(g1 - g2) > self.g_lip_log * dist * (1 + slack) + slack):
            raise InvalidArgumentError(
                f"g violates the declared log-price Lipschitz constant {self.g_lip_log}")


@dataclass
class PortfolioTransform:
    """Affine map from the canonical state to log prices, plus metadata."""

    model: MarketModel
    T: float
    _t_fine: np.ndarray = field(repr=False, default=None)
    _a_v: np.ndarray = field(repr=False, default=None)
    _a_s: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        mu_v = self.model.mu_v_fn()
        mu_s = self.model.mu_s_fn()
        sv, sbv, sbs = self.model.sigma_v, self.model.sigma_bar_v, self.model.sigma_bar_s
        ts = np.linspace(0.0, self.T, 2049)
        # in canonical coordinates the measure-change drift moves into the
        # state, so log S picks up the full mu_S (d lnS = (mu - sbs^2/2) dt
        # + sbs dX2); log V's coupling terms enter through X already
        drift_v = np.array([mu_v(t) for t in ts]) - 0.5 * (sv ** 2 + sbv ** 2)
        drift_s = np.array([mu_s(t) for t in ts]) - 0.5 * sbs ** 2
        self._t_fine = ts
        self._a_v = np.concatenate([[0.0], np.cumsum(
            0.5 * (drift_v[1:] + drift_v[:-1]) * np.diff(ts))])
        self._a_s = np.concatenate([[0.0], np.cumsum(
            0.5 * (drift_s[1:] + drift_s[:-1]) * np.diff(ts))])

    def log_prices(self, t: float, state: np.ndarray):
        """Map canonical states (P, 2) at time t to (ln V, ln S)."""
        a_v = float(np.interp(t, self._t_fine, self._a_v))
        a_s = float(np.interp(t, self._t_fine, self._a_s))
        ln_v = (np.log(self.model.v0) + a_v
                + self.model.sigma_v * state[:, 0] + self.model.sigma_bar_v * state[:, 1])
        ln_s = np.log(self.model.s0) + a_s + self.model.sigma_bar_s * state[:, 1]
        return ln_v, ln_s


def build_portfolio_fbsde(model: MarketModel, T: float):
    """Encode the linear auxiliary system as a canonical coefficient set.

    Forward drift couples the nontradeable log price to Z through
    -(gamma/2) Z^V and carries the market-price-of-risk shift -mu_S/sigma_S;
    the backward driver is the deterministic mu_S^2 / (2 gamma sigma_S^2);
    the terminal map is g composed with the affine price transform. Returns
    (CoefficientSet with n=1, d=2, PortfolioTransform).
    """
    if not (T > 0):
        raise InvalidArgumentError(f"horizon must be positive, got {T}")
    mu_s = model.mu_s_fn()
    for t in np.linspace(0.0, T, 9):
        if not np.isfinite(mu_s(t)):
            raise InvalidArgumentError("mu_s must be finite on [0, T]")
    transform = PortfolioTransform(model, T)
    gamma, sbs = model.gamma, model.sigma_bar_s

    def h(t, y, z):
        return np.full((y.shape[0], 1), mu_s(t) ** 2 / (2.0 * gamma * sbs ** 2))

    def f(t, y, z):
        return np.column_stack([
            -0.5 * gamma * z[:, 0, 0],
            np.full(z.shape[0], -mu_s(t) / sbs)])

    if model.g is None:
        phi = lambda x: np.zeros((x.shape[0], 1))
        c2 = 0.0
        m_bound = 0.0
    else:
        def phi(x, _T=T):
            ln_v, ln_s = transform.log_prices(_T, x)
            return np.asarray(model.g(np.exp(ln_v), np.exp(ln_s)), dtype=float).reshape(-1, 1)
        c2 = model.g_lip_log * float(np.hypot(
            model.sigma_v, abs(model.sigma_bar_v) + abs(model.sigma_bar_s)))
        m_bound = model.g_bound

    coeffs = CoefficientSet(n=1, d=2, h=h, f=f, phi=phi,
                            c1=0.5 * gamma, c2=c2, m_bound=m_bound)
    return coeffs, transform


@dataclass
class PortfolioSolution:
    """Outputs of the portfolio solve."""

    model: MarketModel
    grid: TimeGrid
    y0: float
    y0_stderr: float
    value: float
    pi_star: np.ndarray              # (P, K)
    weak_sol: WeakSolution
    fde_sol: FdeSolution
    measure_change: MeasureChange
    coeffs: CoefficientSet
    transform: PortfolioTransform
    seed: int
    optimality_report: dict | None = None


def merton_fraction(model: MarketModel, grid: TimeGrid) -> np.ndarray:
    """mu_S(t_k) / (gamma sigma_S^2) at the left endpoints t_0, ..., t_{K-1}."""
    mu = model.mu_s_fn()
    return np.array([mu(t) for t in grid.points[:-1]]) / (
        model.gamma * model.sigma_bar_s ** 2)


def solve_portfolio(model: MarketModel, grid: TimeGrid, ensemble: BrownianEnsemble,
                    tol: float = 1e-4, *, c4: float | None = None,
                    basis: RegressionBasis | None = None, **solve_kwargs) -> PortfolioSolution:
    """End-to-end portfolio pipeline.

    Solves the linear auxiliary system, applies the change of measure with
    the coupling integrand, assembles the weak solution of the quadratic
    equation, and extracts value and optimal strategy. y0 is reported as the
    path average of the terminal reconstruction with its standard error (the
    smallness of the latter is itself a check that Y_0 is deterministic).
    """
    if ensemble.dim != 2:
        raise InvalidArgumentError("portfolio ensembles must be two-dimensional")
    coeffs, transform = build_portfolio_fbsde(model, grid.horizon)
    basis = basis or polynomial_basis(3, 2)
    sol = solve_global(coeffs, grid, np.zeros(2), ensemble, c4=c4, tol=tol,
                       basis=basis, **solve_kwargs)
    mc = build_measure_change(sol, coeffs, ensemble)
    weak = assemble_weak_solution(sol, mc, coeffs)
    y0 = float(sol.y0_mean[0])
    y0_stderr = float(sol.y0_stderr[0])
    value = -float(np.exp(-model.gamma * (model.x0 + y0)))
    # path-major: the per-step mean and std sum a column of a C-order array
    pi_star = np.empty((sol.num_paths, grid.num_steps))
    np.negative(sol.Z[:, :, 0, 1], out=pi_star)
    pi_star += merton_fraction(model, grid)
    return PortfolioSolution(model=model, grid=grid, y0=y0, y0_stderr=y0_stderr,
                             value=value, pi_star=pi_star, weak_sol=weak,
                             fde_sol=sol, measure_change=mc, coeffs=coeffs,
                             transform=transform, seed=ensemble.seed)


def verify_martingale_optimality(psol: PortfolioSolution, deltas,
                                 eval_ensemble: BrownianEnsemble) -> dict:
    """Drift statistics of -exp(-gamma (X + Y)) under pi* and perturbations.

    Simulates wealth on a fresh ensemble (the shifted motion is a Brownian
    motion under the target measure, so fresh standard increments sample it
    directly), reads Y and Z off the fitted surfaces, and estimates per-step
    and total drifts. A first-order martingale control variate (exact zero
    conditional mean) removes the dominant noise, making the quadratic
    supermartingale gap of perturbed strategies visible at desk scale. The
    market, the initial wealth included, is the solve's ``psol.model``.

    Streams the steps: the Brownian state is a running sum of the increments
    and only one step's surfaces are held, so memory is O(P) whatever K is;
    every strategy advances its own wealth, utility and running total.

    Refuses to run on the solve ensemble: in-sample evaluation would inherit
    regression look-ahead bias. Raises InvalidStateError, naming the step,
    on a non-finite surface value or drift.
    """
    if eval_ensemble.seed == psol.seed:
        raise InvalidArgumentError(
            "optimality checks need an out-of-sample ensemble (same seed as the solve)")
    if eval_ensemble.dim != 2:
        raise InvalidArgumentError("evaluation ensembles must be two-dimensional")
    if eval_ensemble.grid.num_steps != psol.grid.num_steps:
        raise InvalidArgumentError("evaluation grid must match the solve grid")

    K = psol.grid.num_steps
    t = psol.grid.points
    dt = psol.grid.dt
    P = eval_ensemble.num_paths
    gamma = psol.model.gamma
    sbs = psol.model.sigma_bar_s
    mu = psol.model.mu_s_fn()
    frac = merton_fraction(psol.model, psol.grid)
    dW = eval_ensemble.increments
    sol = psol.fde_sol

    def surfaces(k, w):
        if k == K:
            return psol.coeffs.eval_phi(w)[:, 0], None
        yk, zk = evaluate_step_maps(sol.phi_fits[k], sol.z_fits[k], w)
        if not (np.isfinite(yk).all() and np.isfinite(zk).all()):
            raise InvalidStateError(f"optimality check: non-finite Y or Z surface at step {k}")
        return yk[:, 0], zk[:, 0, :]

    w = np.zeros((P, 2))   # canonical state starts at 0
    y_k, z_k = surfaces(0, w)
    strategies = {"pi_star": 0.0}
    for dlt in deltas:
        strategies[f"pi_star{dlt:+g}"] = float(dlt)
    results, state = {}, {}
    for label, dlt in strategies.items():
        wealth = np.full(P, float(psol.model.x0))
        results[label] = {"delta": dlt, "step_drift": np.empty(K), "step_se": np.empty(K)}
        state[label] = (wealth, np.zeros(P), -np.exp(-gamma * (wealth + y_k)))
    for k in range(K):
        w = w + dW[:, k]   # the sequential sum of the increments, as a cumsum
        y_next, z_next = surfaces(k + 1, w)
        zv, zbar = z_k[:, 0], z_k[:, 1]
        dw1 = dW[:, k, 1]
        gain = mu(t[k]) * dt[k] + sbs * dw1
        zv_dw0 = zv * dW[:, k, 0]
        for label, res in results.items():
            wealth, total, u_prev = state[label]
            pi = -zbar + frac[k] + res["delta"]
            wealth_next = wealth + pi * gain
            u_next = -np.exp(-gamma * (wealth_next + y_next))
            cv = u_prev * (-gamma) * ((pi * sbs + zbar) * dw1 + zv_dw0)
            incr = u_next - u_prev - cv
            res["step_drift"][k] = incr.mean()
            res["step_se"][k] = incr.std(ddof=1) / np.sqrt(P)
            if not np.isfinite(res["step_drift"][k]):
                raise InvalidStateError(f"optimality check: non-finite {label} drift at step {k}")
            total += incr
            state[label] = (wealth_next, total, u_next)
        y_k, z_k = y_next, z_next
    for label, res in results.items():
        _, total, u = state[label]
        res.update(total_drift=float(total.mean()),
                   total_se=float(total.std(ddof=1) / np.sqrt(P)),
                   value_estimate=float(u.mean()),
                   value_se=float(u.std(ddof=1) / np.sqrt(P)))
    return {"strategies": results, "eval_seed": eval_ensemble.seed,
            "num_paths": P, "deltas": [float(d) for d in deltas]}


def export_portfolio_results(psol: PortfolioSolution, json_path, *,
                             pi_csv_path=None, path_limit: int | None = None,
                             config_echo: dict | None = None):
    """Results JSON (y0, value, strategy summary, drift table) and optional pi* CSV."""
    summary = {
        "y0": psol.y0,
        "y0_stderr": psol.y0_stderr,
        "value": psol.value,
        "pi_star_summary": {
            "per_step_mean": [float(v) for v in psol.pi_star.mean(axis=0)],
            "per_step_std": [float(v) for v in psol.pi_star.std(axis=0)],
        },
        "weak_residual": {k: float(v) for k, v in psol.weak_sol.residual.items()},
        "seeds": {"solve": psol.seed},
        "config": config_echo or {},
    }
    if psol.optimality_report is not None:
        rep = psol.optimality_report
        summary["seeds"]["evaluation"] = rep["eval_seed"]
        summary["drift_table"] = {
            label: {"total_drift": r["total_drift"], "total_se": r["total_se"],
                    "value_estimate": r["value_estimate"], "value_se": r["value_se"],
                    "step_drift": [float(v) for v in r["step_drift"]],
                    "step_se": [float(v) for v in r["step_se"]]}
            for label, r in rep["strategies"].items()}
    write_json(json_path, summary)
    if pi_csv_path is not None:
        pi = psol.pi_star[:path_limit]
        t = np.broadcast_to(psol.grid.points[:-1], pi.shape)
        write_path_csv(pi_csv_path, ["t", "pi_star"], np.stack([t, pi], axis=2))
