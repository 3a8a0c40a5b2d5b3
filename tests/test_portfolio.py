import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import fdeflow as ff
from fdeflow import cli, portfolio
from fdeflow.errors import InvalidArgumentError, InvalidStateError
from fdeflow.oracles import merton_drift_factor, merton_y0

from _helpers import (endowment_oracle, girsanov_integrand, pi_star_reference, prices,
                      recorded_states, whole_array_market_reads, whole_array_optimality)

MERTON_VALUE = -0.8824969025845953  # -exp(-0.125)


def test_model_validation():
    with pytest.raises(InvalidArgumentError):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=0.0)
    with pytest.raises(InvalidArgumentError):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, gamma=0.0)
    with pytest.raises(InvalidArgumentError, match="sigma_bar_s must be a finite number"):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=lambda t: 0.2)
    with pytest.raises(InvalidArgumentError):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, v0=-1.0)
    with pytest.raises(InvalidArgumentError):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2,
                       g=lambda v, s: np.log(v), g_bound=1.0, g_lip_log=1.0)


@pytest.mark.parametrize("name", ["mu_s", "mu_v"])
def test_model_rejects_a_time_varying_drift(name):
    # the market has constant coefficients: a drift given as a function of time is refused
    with pytest.raises(InvalidArgumentError, match=f"{name} must be a finite number"):
        ff.MarketModel(**{"mu_s": 0.1, "sigma_bar_s": 0.2, name: lambda t: 0.1})


def test_model_validation_rejects_non_finite_endowment():
    g = lambda v, s: np.where(np.abs(np.log(v)) > 2.0, np.inf, 0.1 * np.tanh(np.log(v)))
    with pytest.raises(InvalidArgumentError, match="g returned non-finite"):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, g=g, g_bound=1.0, g_lip_log=1.0)


def test_build_fbsde_driver_and_integrand_values():
    model = ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, gamma=1.0)
    coeffs = ff.build_portfolio_fbsde(model, 1.0)
    assert coeffs.n == 1 and coeffs.d == 2
    y = np.zeros((4, 1))
    z = np.zeros((4, 1, 2))
    # backward drift magnitude mu^2 / (2 gamma sigma^2) = 0.125
    assert np.allclose(coeffs.eval_h(0.3, y, z), 0.125)
    # canonical drift is minus the measure-change integrand
    z[:, 0, 0] = 2.0
    f = coeffs.eval_f(0.0, y, z)
    nu = girsanov_integrand(model, 0.0, y, z)
    assert np.allclose(f, -nu)
    assert np.allclose(nu[:, 0], 1.0)      # (gamma/2) z_v
    assert np.allclose(nu[:, 1], 0.5)      # mu / sigma


def test_build_fbsde_zero_market_price_of_risk():
    model = ff.MarketModel(mu_s=0.0, sigma_bar_s=0.2, gamma=1.0)
    coeffs = ff.build_portfolio_fbsde(model, 1.0)
    y = np.zeros((3, 1)); z = np.zeros((3, 1, 2))
    assert np.abs(coeffs.eval_h(0.5, y, z)).max() == 0.0
    assert np.abs(girsanov_integrand(model, 0.5, y, z)[:, 1]).max() == 0.0


def test_transform_degenerate_nontradeable_noise():
    model = ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, sigma_v=0.0,
                           sigma_bar_v=0.0, mu_v=0.05, gamma=1.0)
    states = np.random.default_rng(0).standard_normal((50, 2))
    ln_v, _ = portfolio.log_prices(model, 0.7, states)
    assert np.ptp(ln_v) == 0.0  # deterministic nontradeable price


def test_transform_reproduces_gbm_terminal_prices():
    model = ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, mu_v=0.05,
                           sigma_v=0.3, sigma_bar_v=0.1, gamma=1.0,
                           v0=2.0, s0=3.0)
    state = np.array([[0.4, -0.2]])
    ln_v, ln_s = portfolio.log_prices(model, 1.0, state)
    expect_s = np.log(3.0) + 0.1 - 0.5 * 0.04 + 0.2 * (-0.2)
    expect_v = np.log(2.0) + 0.05 - 0.5 * (0.09 + 0.01) + 0.3 * 0.4 + 0.1 * (-0.2)
    assert ln_s[0] == pytest.approx(expect_s, abs=1e-9)
    assert ln_v[0] == pytest.approx(expect_v, abs=1e-9)


def test_log_prices_are_the_affine_closed_form():
    # constant coefficients: the log drift to T is (mu - s^2/2) T exactly, with no
    # quadrature rounding (a 2049-point trapezoid gave 0.049999999999998206 for ln V)
    model = ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, mu_v=0.1, sigma_v=0.3,
                           sigma_bar_v=0.1, gamma=1.0)
    T = 1.0
    ln_v, ln_s = portfolio.log_prices(model, T, np.zeros((3, 2)))
    assert (ln_v == (0.1 - 0.5 * (0.3 ** 2 + 0.1 ** 2)) * T).all()
    assert (ln_v == 0.05).all()
    assert (ln_s == (0.1 - 0.5 * 0.2 ** 2) * T).all()


def test_merton_benchmark_small(merton_small):
    model, grid, ens, psol = merton_small
    assert abs(psol.y0 - 0.125) <= 0.01
    assert abs(psol.value - MERTON_VALUE) <= 0.01
    assert np.abs(psol.pi_star - 2.5).max() <= 0.05
    assert psol.y0_stderr <= 1e-4 / 3
    # identity holds on the stored arrays exactly
    assert np.abs(psol.pi_star - pi_star_reference(psol)).max() == 0.0
    assert psol.weak_residual["weighted_rms"] <= 0.01
    # quadrature oracle agrees with the closed form
    assert merton_y0(0.1, 0.2, 1.0, 1.0) == pytest.approx(0.125, abs=1e-12)


def test_pi_star_is_read_from_z_not_stored(merton_small):
    _, grid, ens, psol = merton_small
    assert "pi_star" not in {f.name for f in dataclasses.fields(ff.PortfolioSolution)}
    shape = (ens.num_paths, grid.num_steps)
    assert not [name for name, v in vars(psol).items() if np.shape(v) == shape]
    first, second = psol.pi_star, psol.pi_star
    assert first is not second and not np.shares_memory(first, second)
    assert first.shape == shape and first.tobytes() == second.tobytes()


def test_value_scales_exactly_with_initial_wealth(merton_small):
    model, grid, ens, psol = merton_small
    shifted = ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, mu_v=0.05, sigma_v=0.3,
                             sigma_bar_v=0.1, gamma=1.0, x0=model.x0 + 0.7)
    psol2 = ff.solve_portfolio(shifted, ens, c4=0.0,
                               basis=ff.polynomial_basis(3, 2))
    assert psol2.y0 == psol.y0  # wealth does not enter the auxiliary system
    assert psol2.value == pytest.approx(psol.value * np.exp(-1.0 * 0.7), rel=1e-12)


def test_constant_endowment_shifts_y0(merton_small):
    model, grid, ens, psol = merton_small
    k = 0.3
    shifted = ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, mu_v=0.05, sigma_v=0.3,
                             sigma_bar_v=0.1, gamma=1.0,
                             g=lambda v, s: np.full(np.shape(v), k),
                             g_bound=k, g_lip_log=1e-9)
    psol2 = ff.solve_portfolio(shifted, ens, c4=0.0,
                               basis=ff.polynomial_basis(3, 2))
    assert abs(psol2.y0 - (k + 0.125)) <= 0.01
    assert np.sqrt(np.mean(psol2.fde_sol.Z ** 2)) <= 1e-3


def test_no_investment_opportunity(merton_small):
    _, grid, ens, _ = merton_small
    model = ff.MarketModel(mu_s=0.0, sigma_bar_s=0.2, mu_v=0.05, sigma_v=0.3,
                           sigma_bar_v=0.1, gamma=1.0, x0=0.4)
    psol = ff.solve_portfolio(model, ens, c4=0.0,
                              basis=ff.polynomial_basis(3, 2))
    assert abs(psol.y0) <= 1e-4
    assert psol.value == pytest.approx(-np.exp(-0.4), abs=1e-3)
    assert np.abs(psol.pi_star).max() <= 1e-6


def test_reweighted_asset_drift(merton_small):
    # the measure change moves the tradeable drift into the shifted motion:
    # E[S_T] under the target measure is s0 * exp(int mu dt)
    model, grid, ens, psol = merton_small
    mc = psol.measure_change
    v_t, s_t = prices(model, grid.horizon, psol.fde_sol.X_T)
    for price, drift in ((s_t, 0.1), (v_t, 0.05)):
        weighted = mc.weights * price
        mean = float(weighted.mean() / mc.weights.mean())
        se = float(weighted.std(ddof=1) / np.sqrt(ens.num_paths))
        assert abs(mean - np.exp(drift)) <= 3 * se


def test_optimality_refuses_solve_ensemble(merton_small):
    model, grid, ens, psol = merton_small
    with pytest.raises(InvalidArgumentError):
        ff.verify_martingale_optimality(psol, (0.5,), ens)


def test_optimality_refuses_an_ensemble_on_another_horizon(merton_small):
    # the same step count on [0, 4]: the fitted maps belong to the solve grid's times
    model, grid, ens, psol = merton_small
    other = ff.sample_ensemble(ff.build_uniform_grid(4.0, grid.num_steps), 2_000, 2, 6066)
    with pytest.raises(InvalidArgumentError, match="solve grid"):
        ff.verify_martingale_optimality(psol, (0.5,), other)


def test_optimality_rejects_a_non_finite_surface_or_drift(merton_small, monkeypatch):
    model, grid, ens, psol = merton_small
    fresh = ff.sample_ensemble(grid, 2_000, 2, 6063)

    def setting_y(call, value):
        """evaluate_step_maps that sets one Y value on its ``call``-th call."""
        calls = []

        def evaluate(y_fit, z_fit, states):
            calls.append(None)
            yk, zk = ff.fde.evaluate_step_maps(y_fit, z_fit, states)
            if len(calls) == call:
                yk[3] = value
            return yk, zk
        return evaluate

    # a NaN surface at step 7; a finite but extreme Y at step 6, whose
    # utility overflows in step 5's drift
    for call, value, match in ((8, np.nan, "surface at step 7"),
                               (7, -1e3, "pi_star drift at step 5")):
        with monkeypatch.context() as m, np.errstate(over="ignore", invalid="ignore"):
            m.setattr(portfolio, "evaluate_step_maps", setting_y(call, value))
            with pytest.raises(InvalidStateError, match=match):
                ff.verify_martingale_optimality(psol, (0.5,), fresh)


def test_optimality_overflow_fails_by_step_without_numpy_warnings(merton_small):
    # at x0 = -1000 every utility -exp(-gamma (X + Y)) overflows at step 0
    model, grid, ens, psol = merton_small
    broke = dataclasses.replace(psol, model=dataclasses.replace(model, x0=-1000.0))
    fresh = ff.sample_ensemble(grid, 2_000, 2, 6064)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidStateError, match="non-finite pi_star drift at step 0"):
            ff.verify_martingale_optimality(broke, (0.5,), fresh)
    assert caught == []


def test_optimality_drifts_on_merton(merton_small):
    model, grid, ens, psol = merton_small
    fresh = ff.sample_ensemble(grid, 100_000, 2, 6060)
    report = ff.verify_martingale_optimality(psol, (0.5, 1.0, -0.5, -1.0), fresh)
    star = report["strategies"]["pi_star"]
    assert abs(star["total_drift"]) <= 3 * star["total_se"] + 1e-4
    for label in ("pi_star+0.5", "pi_star+1", "pi_star-0.5", "pi_star-1"):
        res = report["strategies"][label]
        assert res["total_drift"] < -3 * res["total_se"]
        assert res["value_estimate"] <= star["value_estimate"] + 3 * np.hypot(
            res["value_se"], star["value_se"])
    # quadratic penalty is even in the offset: the two half-unit drifts agree
    up, dn = report["strategies"]["pi_star+0.5"], report["strategies"]["pi_star-0.5"]
    assert abs(up["total_drift"] - dn["total_drift"]) <= 2 * np.hypot(
        up["total_se"], dn["total_se"])
    # analytic size of the penalty: |U| * (exp(q dt) - 1) summed over steps
    q = merton_drift_factor(1.0, 0.2, 1.0)
    predicted = MERTON_VALUE * (np.exp(q * grid.horizon) - 1.0)
    res1 = report["strategies"]["pi_star+1"]
    assert res1["total_drift"] == pytest.approx(predicted, abs=6 * res1["total_se"])


def test_optimality_zero_market(merton_small):
    _, grid, ens, _ = merton_small
    model = ff.MarketModel(mu_s=0.0, sigma_bar_s=0.2, mu_v=0.05, sigma_v=0.3,
                           sigma_bar_v=0.1, gamma=1.0)
    psol = ff.solve_portfolio(model, ens, c4=0.0,
                              basis=ff.polynomial_basis(3, 2))
    fresh = ff.sample_ensemble(grid, 100_000, 2, 6061)
    report = ff.verify_martingale_optimality(psol, (1.0,), fresh)
    res = report["strategies"]["pi_star+1"]
    assert res["total_drift"] < -3 * res["total_se"]
    q = merton_drift_factor(1.0, 0.2, 1.0)
    predicted = -1.0 * (np.exp(q * grid.horizon) - 1.0)
    assert res["total_drift"] == pytest.approx(predicted, abs=6 * res["total_se"])


@pytest.fixture(scope="module")
def endowment_small():
    # the endowment Lipschitz data needs a finer grid than the merton fixture
    grid = ff.build_uniform_grid(1.0, 50)
    ens = ff.sample_ensemble(grid, 20_000, 2, 2222)
    model = ff.get_fixture("endowment").build()
    psol = ff.solve_portfolio(model, ens, c4=0.5,
                              basis=ff.polynomial_basis(3, 2))
    return grid, ens, psol


def test_endowment_pipeline_runs(endowment_small):
    grid, ens, psol = endowment_small
    assert psol.weak_residual["weighted_rms"] <= 0.02
    assert abs(psol.measure_change.weight_mean - 1.0) <= 5 * psol.measure_change.weight_stderr
    assert -1.0 < psol.value < 0.0
    rep = ff.bmo_diagnostic(psol.fde_sol, recorded_states(psol.fde_sol, ens), [0, 12, 24])
    means = [row["mean"] for row in rep["per_probe"]]
    assert all(b <= a * 1.10 + 1e-12 for a, b in zip(means, means[1:]))


def test_endowment_matches_the_exact_oracle(endowment_small):
    # bounds: 3x the largest of 30 seeds (2222, 3001-3029) at this scale,
    # where |z| <= 2.29, the Y gap <= 0.0042, the Zbar gap <= 0.0072 and the
    # step-0 pi* mean is within 0.0034
    grid, ens, psol = endowment_small
    model, sol, K = psol.model, psol.fde_sol, grid.num_steps
    y0, z0 = endowment_oracle(model, 0.3, grid.horizon, 0.0, np.zeros((1, 2)))
    assert abs(psol.y0 - y0[0]) <= 7.0 * psol.y0_stderr
    axis = np.linspace(-2.0, 2.0, 21)
    mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    for k in (K // 4, K // 2, 3 * K // 4):
        y, z = endowment_oracle(model, 0.3, grid.horizon, grid.points[k], mesh)
        assert np.abs(sol.phi_fits[k].evaluate(mesh)[:, 0] - y).max() <= 0.0125
        assert np.abs(sol.z_fits[k].evaluate(mesh)[:, 0, 1] - z[:, 1]).max() <= 0.022
    pi_star_0 = model.merton_fraction - z0[0, 1]
    assert abs(psol.pi_star[:, 0].mean() - pi_star_0) <= 0.01


def test_endowment_oracle_reduces_to_merton():
    model = ff.get_fixture("endowment").build()
    x = np.random.default_rng(5).normal(size=(7, 2))
    for t in (0.0, 0.5, 1.0):
        y, z = endowment_oracle(model, 0.0, 1.0, t, x)
        assert np.allclose(y, 0.125 * (1.0 - t), rtol=0, atol=1e-15) and np.all(z == 0.0)
    y0, z0 = endowment_oracle(model, 0.3, 1.0, 0.0, np.zeros((1, 2)))
    assert y0[0] == pytest.approx(0.10788048, abs=5e-9)
    assert model.merton_fraction - z0[0, 1] == pytest.approx(2.47264, abs=5e-6)


def test_portfolio_export(tmp_path, merton_small):
    model, grid, ens, psol = merton_small
    fresh = ff.sample_ensemble(grid, 20_000, 2, 6062)
    report = ff.verify_martingale_optimality(psol, (0.5,), fresh)
    out = tmp_path / "portfolio.json"
    ff.export_portfolio_results(psol, report, out, config_echo={})
    import json
    payload = json.loads(out.read_text())
    assert payload["y0"] == pytest.approx(psol.y0)
    assert "drift_table" in payload and "pi_star" in payload["drift_table"]
    # pi*'s measured suboptimality, in standard errors, beside the drift table
    star = report["strategies"]["pi_star"]
    assert payload["pi_star_drift_z"] == star["total_drift"] / star["total_se"]
    assert payload["pi_star_value_gap_se"] == (
        (psol.value - star["value_estimate"]) / star["value_se"])
    assert list(payload["drift_table"]) == list(report["strategies"])
    # a zero standard error leaves the ratio undefined: null, not inf or NaN
    star.update(total_se=0.0, value_se=0.0)
    ff.export_portfolio_results(psol, report, out, config_echo={})
    payload = json.loads(out.read_text())
    assert payload["pi_star_drift_z"] is None and payload["pi_star_value_gap_se"] is None


@pytest.mark.parametrize("market", ["merton_small", "endowment_small"])
def test_market_reads_are_bitwise_the_whole_array_reads(request, market):
    # the CLI takes these from pi_star_summary and _z_rms before it releases whole Y and Z
    psol = request.getfixturevalue(market)[-1]
    got = {**psol.pi_star_summary, "merton_z_rms": cli._z_rms(psol.fde_sol)}
    ref = whole_array_market_reads(psol)
    assert list(got) == list(ref)
    for key, value in ref.items():
        assert np.array_equal(_bits(got[key]), _bits(value)), key
    assert psol.pi_star_summary is psol.pi_star_summary   # pi* is built once


def _bits(v):
    return np.asarray(v, dtype=float).view(np.uint64)


def test_streamed_optimality_is_bitwise_the_whole_array_check(endowment_small):
    grid, ens, psol = endowment_small
    fresh = ff.sample_ensemble(grid, ens.num_paths, 2, 6064)
    deltas = (0.5, 1.0, -0.5, -1.0)
    got = ff.verify_martingale_optimality(psol, deltas, fresh)
    ref = whole_array_optimality(psol, deltas, fresh)
    assert list(got["strategies"]) == list(ref["strategies"])
    assert {k: v for k, v in got.items() if k != "strategies"} == {
        k: v for k, v in ref.items() if k != "strategies"}
    for label, r in ref["strategies"].items():
        g = got["strategies"][label]
        assert g["delta"] == r["delta"]
        for key in ("step_drift", "step_se", "total_drift", "total_se",
                    "value_estimate", "value_se"):
            assert np.array_equal(_bits(g[key]), _bits(r[key])), (label, key)


def _traced_peak(fn, *args):
    """Peak bytes that Python and numpy allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_post_solve_stages_hold_no_whole_path_array(endowment_small):
    grid, ens, psol = endowment_small
    P, K = ens.num_paths, grid.num_steps
    fresh = ff.sample_ensemble(grid, P, 2, 6065)
    # one (P, K+1, 2) float64 array: the Brownian paths of the fresh ensemble
    peak = _traced_peak(ff.verify_martingale_optimality, psol, (0.5, 1.0, -0.5, -1.0), fresh)
    assert peak < P * (K + 1) * 2 * 8
    # one (P, K, d) float64 array: the drift at every step
    peak = _traced_peak(ff.build_measure_change, psol.fde_sol, ens)
    assert peak < P * K * 2 * 8
    # two (P, K) float64 arrays: the per-step |f|^2 dt and its reversed cumsum
    states = recorded_states(psol.fde_sol, ens)   # the replay is not the stage measured
    peak = _traced_peak(ff.bmo_diagnostic, psol.fde_sol, states, [0, 12, 24])
    assert peak < 2 * P * K * 8
