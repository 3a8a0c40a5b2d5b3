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

The market has constant coefficients. The canonical forward state is the
driving pair with its measure-change drift, and log prices are affine in
that state and in time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError
from .fde import CoefficientSet, FdeSolution, evaluate_step_maps, solve_global, write_json
from .girsanov import MeasureChange, assemble_weak_solution, build_measure_change
from .grid import BrownianEnsemble

_G_CHECK_SAMPLES = 64
_G_CHECK_SEED = 0xF00D
_MARKET_NUMBERS = ("mu_s", "sigma_bar_s", "mu_v", "sigma_v", "sigma_bar_v",
                   "gamma", "x0", "v0", "s0")


@dataclass
class MarketModel:
    """Constant coefficients of the two-asset market and the investor's data.

    Every drift, volatility, price and the initial wealth is a finite number.
    ``g`` maps terminal prices (V_T, S_T) to the random endowment;
    ``g_lip_log`` is its Lipschitz constant in log prices and ``g_bound`` its
    uniform bound. ``g=None`` means zero endowment.
    """

    mu_s: float
    sigma_bar_s: float
    mu_v: float = 0.0
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
        for name in _MARKET_NUMBERS:
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and np.isfinite(value)):
                raise InvalidArgumentError(f"{name} must be a finite number, got {value!r}")
        if not (self.gamma > 0):
            raise InvalidArgumentError(f"gamma must be positive, got {self.gamma}")
        if self.v0 <= 0 or self.s0 <= 0:
            raise InvalidArgumentError("initial prices must be positive")
        if not (abs(self.sigma_bar_s) > 0):
            raise InvalidArgumentError("sigma_bar_s must be bounded away from zero")
        if self.g is not None:
            if self.g_bound <= 0 or self.g_lip_log < 0:
                raise InvalidArgumentError(
                    "an endowment needs positive g_bound and non-negative g_lip_log")
            self._spot_check_g()

    @property
    def merton_fraction(self) -> float:
        """mu_S / (gamma sigma_S^2), the Merton fraction of wealth in S."""
        return self.mu_s / (self.gamma * self.sigma_bar_s ** 2)

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


def log_prices(model: MarketModel, t: float, state: np.ndarray):
    """Map canonical states (P, 2) at time t to (ln V, ln S).

    In canonical coordinates the measure-change drift moves into the state,
    so ln S picks up the full mu_S (d ln S = (mu_S - sigma_S^2/2) dt +
    sigma_S dX2); ln V's coupling terms enter through X already.
    """
    sv, sbv, sbs = model.sigma_v, model.sigma_bar_v, model.sigma_bar_s
    a_v = (model.mu_v - 0.5 * (sv ** 2 + sbv ** 2)) * t
    a_s = (model.mu_s - 0.5 * sbs ** 2) * t
    ln_v = np.log(model.v0) + a_v + sv * state[:, 0] + sbv * state[:, 1]
    ln_s = np.log(model.s0) + a_s + sbs * state[:, 1]
    return ln_v, ln_s


def build_portfolio_fbsde(model: MarketModel, T: float) -> CoefficientSet:
    """Encode the linear auxiliary system as a canonical coefficient set (n=1, d=2).

    Forward drift couples the nontradeable log price to Z through
    -(gamma/2) Z^V and carries the market-price-of-risk shift -mu_S/sigma_S;
    the backward driver is the constant mu_S^2 / (2 gamma sigma_S^2); the
    terminal map is g composed with ``log_prices`` at T.
    """
    if not (T > 0):
        raise InvalidArgumentError(f"horizon must be positive, got {T}")
    gamma, sbs = model.gamma, model.sigma_bar_s
    driver = model.mu_s ** 2 / (2.0 * gamma * sbs ** 2)
    shift = -model.mu_s / sbs

    def h(t, y, z):
        return np.full((y.shape[0], 1), driver)

    def f(t, y, z):
        return np.column_stack([-0.5 * gamma * z[:, 0, 0], np.full(z.shape[0], shift)])

    if model.g is None:
        phi = lambda x: np.zeros((x.shape[0], 1))
        c2 = 0.0
        m_bound = 0.0
    else:
        def phi(x):
            ln_v, ln_s = log_prices(model, T, x)
            return np.asarray(model.g(np.exp(ln_v), np.exp(ln_s)), dtype=float).reshape(-1, 1)
        c2 = model.g_lip_log * float(np.hypot(
            model.sigma_v, abs(model.sigma_bar_v) + abs(model.sigma_bar_s)))
        m_bound = model.g_bound

    return CoefficientSet(n=1, d=2, h=h, f=f, phi=phi,
                          c1=0.5 * gamma, c2=c2, m_bound=m_bound)


@dataclass
class PortfolioSolution:
    """Outputs of the portfolio solve; its grid, seed, coefficients and Z are ``fde_sol``'s."""

    model: MarketModel
    y0: float
    y0_stderr: float
    value: float
    weak_residual: dict
    measure_change: MeasureChange

    @property
    def fde_sol(self) -> FdeSolution:
        """The solution ``measure_change`` was built from."""
        return self.measure_change.sol

    @property
    def pi_star(self) -> np.ndarray:
        """Optimal strategy -Zbar + mu_S / (gamma sigma_S^2), a new (P, K) array per read."""
        sol = self.fde_sol
        # path-major: the per-step mean and std sum a column of a C-order array
        pi_star = np.empty((sol.num_paths, sol.grid.num_steps))
        np.negative(sol.Z[:, :, 0, 1], out=pi_star)
        pi_star += self.model.merton_fraction
        return pi_star

    @cached_property
    def pi_star_summary(self) -> dict:
        """What is read of whole pi*, from one build, kept after ``fde_sol.Z`` is deleted: its
        largest gap to -Zbar + mu_S / (gamma sigma_S^2) (step by step: a whole second (P, K)
        array would set the peak), its per-step mean and std, and its largest distance from
        the Merton fraction."""
        pi_star, frac = self.pi_star, self.model.merton_fraction
        zbar = self.fde_sol.Z[:, :, 0, 1]
        return {"pi_star_identity": float(np.max([np.abs(p - (-z + frac)).max()
                                                  for p, z in zip(pi_star.T, zbar.T)])),
                "per_step_mean": [float(v) for v in pi_star.mean(axis=0)],
                "per_step_std": [float(v) for v in pi_star.std(axis=0)],
                "pi_star_dev": float(np.max([np.abs(p - frac).max() for p in pi_star.T]))}


def solve_portfolio(model: MarketModel, ensemble: BrownianEnsemble,
                    **solve_kwargs) -> PortfolioSolution:
    """End-to-end portfolio pipeline on the ensemble's grid; ``solve_kwargs`` go to solve_global.

    Solves the linear auxiliary system, applies the change of measure with
    the coupling integrand, assembles the weak solution of the quadratic
    equation, and extracts the value. y0 is reported as the path average of
    the terminal reconstruction with its standard error (the smallness of
    the latter is itself a check that Y_0 is deterministic).
    """
    coeffs = build_portfolio_fbsde(model, ensemble.grid.horizon)
    sol = solve_global(coeffs, ensemble, **solve_kwargs)
    mc = build_measure_change(sol, ensemble)
    weak_residual = assemble_weak_solution(mc, ensemble)
    y0 = float(sol.y0_mean[0])
    y0_stderr = float(sol.y0_stderr[0])
    with np.errstate(over="ignore"):
        value = -float(np.exp(-model.gamma * (model.x0 + y0)))
    if not np.isfinite(value):
        raise InvalidStateError(
            f"value overflow: -exp(-gamma (x0 + y0)) is not finite at x0 = {model.x0:.6g}, "
            f"y0 = {y0:.6g}")
    return PortfolioSolution(model=model, y0=y0, y0_stderr=y0_stderr, value=value,
                             weak_residual=weak_residual, measure_change=mc)


@np.errstate(over="ignore", invalid="ignore")   # a non-finite drift fails by step below
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

    Refuses the solve ensemble (in-sample evaluation inherits regression
    look-ahead bias) and any grid but the solve grid. Raises InvalidStateError,
    naming the step, on a non-finite surface value or drift.
    """
    sol = psol.fde_sol
    if eval_ensemble.seed == sol.seed:
        raise InvalidArgumentError(
            "optimality checks need an out-of-sample ensemble (same seed as the solve)")
    if eval_ensemble.dim != 2:
        raise InvalidArgumentError("evaluation ensembles must be two-dimensional")
    if not np.array_equal(eval_ensemble.grid.points, sol.grid.points):
        raise InvalidArgumentError("evaluation grid must match the solve grid")

    K = sol.grid.num_steps
    dt = sol.grid.dt
    P = eval_ensemble.num_paths
    gamma = psol.model.gamma
    sbs = psol.model.sigma_bar_s
    mu = psol.model.mu_s
    frac = psol.model.merton_fraction
    dW = eval_ensemble.increments

    def surfaces(k, w):
        if k == K:
            return sol.coeffs.eval_phi(w)[:, 0], None
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
        gain = mu * dt[k] + sbs * dw1
        zv_dw0 = zv * dW[:, k, 0]
        for label, res in results.items():
            wealth, total, u_prev = state[label]
            pi = -zbar + frac + res["delta"]
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


def export_portfolio_results(psol: PortfolioSolution, optimality: dict, json_path, *,
                             config_echo: dict):
    """Results JSON: y0, value, pi*'s per-step summary, ``optimality``'s drift table, and pi*'s
    total drift and claimed-minus-achieved value, each in standard errors."""
    star = optimality["strategies"]["pi_star"]
    in_se = lambda gap, se: gap / se if se > 0 else None   # None: a zero standard error
    summary = {
        "y0": psol.y0,
        "y0_stderr": psol.y0_stderr,
        "value": psol.value,
        "pi_star_summary": {k: psol.pi_star_summary[k] for k in ("per_step_mean", "per_step_std")},
        "pi_star_drift_z": in_se(star["total_drift"], star["total_se"]),
        "pi_star_value_gap_se": in_se(psol.value - star["value_estimate"], star["value_se"]),
        "weak_residual": {k: float(v) for k, v in psol.weak_residual.items()},
        "seeds": {"solve": psol.fde_sol.seed, "evaluation": optimality["eval_seed"]},
        "drift_table": {
            label: {"total_drift": r["total_drift"], "total_se": r["total_se"],
                    "value_estimate": r["value_estimate"], "value_se": r["value_se"],
                    "step_drift": [float(v) for v in r["step_drift"]],
                    "step_se": [float(v) for v in r["step_se"]]}
            for label, r in optimality["strategies"].items()},
        "config": config_echo,
    }
    write_json(json_path, summary)
