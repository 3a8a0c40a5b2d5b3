import dataclasses
import tracemalloc

import numpy as np
import pytest

import fdeflow as ff
from fdeflow import portfolio
from fdeflow.errors import InvalidArgumentError, InvalidStateError
from fdeflow.oracles import merton_drift_factor, merton_y0

from _helpers import girsanov_integrand, pi_star_reference, prices, whole_array_optimality

MERTON_VALUE = -0.8824969025845953  # -exp(-0.125)


def test_model_validation():
    with pytest.raises(InvalidArgumentError):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=0.0)
    with pytest.raises(InvalidArgumentError):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, gamma=0.0)
    with pytest.raises(InvalidArgumentError):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=lambda t: 0.2)
    with pytest.raises(InvalidArgumentError):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, v0=-1.0)
    with pytest.raises(InvalidArgumentError):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2,
                       g=lambda v, s: np.log(v), g_bound=1.0, g_lip_log=1.0)


def test_model_validation_rejects_non_finite_endowment():
    g = lambda v, s: np.where(np.abs(np.log(v)) > 2.0, np.inf, 0.1 * np.tanh(np.log(v)))
    with pytest.raises(InvalidArgumentError, match="g returned non-finite"):
        ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, g=g, g_bound=1.0, g_lip_log=1.0)


def test_build_fbsde_driver_and_integrand_values():
    model = ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, gamma=1.0)
    coeffs, transform = ff.build_portfolio_fbsde(model, 1.0)
    assert coeffs.n == 1 and coeffs.d == 2
    y = np.zeros((4, 1))
    z = np.zeros((4, 1, 2))
    # backward drift magnitude mu^2 / (2 gamma sigma^2) = 0.125
    assert np.allclose(coeffs.eval_h(0.3, y, z), 0.125)
    # canonical drift is minus the measure-change integrand
    z[:, 0, 0] = 2.0
    f = coeffs.eval_f(0.0, y, z)
    nu = girsanov_integrand(transform, 0.0, y, z)
    assert np.allclose(f, -nu)
    assert np.allclose(nu[:, 0], 1.0)      # (gamma/2) z_v
    assert np.allclose(nu[:, 1], 0.5)      # mu / sigma


def test_build_fbsde_zero_market_price_of_risk():
    model = ff.MarketModel(mu_s=0.0, sigma_bar_s=0.2, gamma=1.0)
    coeffs, transform = ff.build_portfolio_fbsde(model, 1.0)
    y = np.zeros((3, 1)); z = np.zeros((3, 1, 2))
    assert np.abs(coeffs.eval_h(0.5, y, z)).max() == 0.0
    assert np.abs(girsanov_integrand(transform, 0.5, y, z)[:, 1]).max() == 0.0


def test_transform_degenerate_nontradeable_noise():
    model = ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, sigma_v=0.0,
                           sigma_bar_v=0.0, mu_v=0.05, gamma=1.0)
    _, transform = ff.build_portfolio_fbsde(model, 1.0)
    states = np.random.default_rng(0).standard_normal((50, 2))
    ln_v, _ = transform.log_prices(0.7, states)
    assert np.ptp(ln_v) == 0.0  # deterministic nontradeable price


def test_transform_reproduces_gbm_terminal_prices():
    model = ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, mu_v=0.05,
                           sigma_v=0.3, sigma_bar_v=0.1, gamma=1.0,
                           v0=2.0, s0=3.0)
    _, transform = ff.build_portfolio_fbsde(model, 1.0)
    state = np.array([[0.4, -0.2]])
    ln_v, ln_s = transform.log_prices(1.0, state)
    expect_s = np.log(3.0) + 0.1 - 0.5 * 0.04 + 0.2 * (-0.2)
    expect_v = np.log(2.0) + 0.05 - 0.5 * (0.09 + 0.01) + 0.3 * 0.4 + 0.1 * (-0.2)
    assert ln_s[0] == pytest.approx(expect_s, abs=1e-9)
    assert ln_v[0] == pytest.approx(expect_v, abs=1e-9)


def test_merton_benchmark_small(merton_small):
    model, grid, ens, psol = merton_small
    assert abs(psol.y0 - 0.125) <= 0.01
    assert abs(psol.value - MERTON_VALUE) <= 0.01
    assert np.abs(psol.pi_star - 2.5).max() <= 0.05
    assert psol.y0_stderr <= 1e-4 / 3
    # identity holds on the stored arrays exactly
    assert np.abs(psol.pi_star - pi_star_reference(psol)).max() == 0.0
    assert psol.weak_sol.residual["weighted_rms"] <= 0.01
    # quadrature oracle agrees with the closed form
    assert merton_y0(0.1, 0.2, 1.0, 1.0) == pytest.approx(0.125, abs=1e-12)


def test_value_scales_exactly_with_initial_wealth(merton_small):
    model, grid, ens, psol = merton_small
    shifted = ff.MarketModel(mu_s=0.1, sigma_bar_s=0.2, mu_v=0.05, sigma_v=0.3,
                             sigma_bar_v=0.1, gamma=1.0, x0=model.x0 + 0.7)
    psol2 = ff.solve_portfolio(shifted, grid, ens, c4=0.0,
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
    psol2 = ff.solve_portfolio(shifted, grid, ens, c4=0.0,
                               basis=ff.polynomial_basis(3, 2))
    assert abs(psol2.y0 - (k + 0.125)) <= 0.01
    assert np.sqrt(np.mean(psol2.fde_sol.Z ** 2)) <= 1e-3


def test_no_investment_opportunity(merton_small):
    _, grid, ens, _ = merton_small
    model = ff.MarketModel(mu_s=0.0, sigma_bar_s=0.2, mu_v=0.05, sigma_v=0.3,
                           sigma_bar_v=0.1, gamma=1.0, x0=0.4)
    psol = ff.solve_portfolio(model, grid, ens, c4=0.0,
                              basis=ff.polynomial_basis(3, 2))
    assert abs(psol.y0) <= 1e-4
    assert psol.value == pytest.approx(-np.exp(-0.4), abs=1e-3)
    assert np.abs(psol.pi_star).max() <= 1e-6


def test_reweighted_asset_drift(merton_small):
    # the measure change moves the tradeable drift into the shifted motion:
    # E[S_T] under the target measure is s0 * exp(int mu dt)
    model, grid, ens, psol = merton_small
    mc = psol.measure_change
    v_t, s_t = prices(psol.transform, grid.horizon, psol.fde_sol.X[:, -1])
    for price, drift in ((s_t, 0.1), (v_t, 0.05)):
        weighted = mc.weights * price
        mean = float(weighted.mean() / mc.weights.mean())
        se = float(weighted.std(ddof=1) / np.sqrt(ens.num_paths))
        assert abs(mean - np.exp(drift)) <= 3 * se


def test_optimality_refuses_solve_ensemble(merton_small):
    model, grid, ens, psol = merton_small
    with pytest.raises(InvalidArgumentError):
        ff.verify_martingale_optimality(psol, (0.5,), ens)


def test_optimality_rejects_a_non_finite_surface_or_drift(merton_small, monkeypatch):
    model, grid, ens, psol = merton_small
    fresh = ff.sample_ensemble(grid, 2_000, 2, 6063)
    calls = []

    def nan_at_step_7(y_fit, z_fit, states):
        calls.append(None)
        yk, zk = ff.fde.evaluate_step_maps(y_fit, z_fit, states)
        if len(calls) == 8:
            yk[3] = np.nan
        return yk, zk

    with monkeypatch.context() as m:
        m.setattr(portfolio, "evaluate_step_maps", nan_at_step_7)
        with pytest.raises(InvalidStateError, match="surface at step 7"):
            ff.verify_martingale_optimality(psol, (0.5,), fresh)
    t5 = grid.points[5]
    nan_mu = dataclasses.replace(model, mu_s=lambda t: np.nan if t == t5 else model.mu_s)
    with pytest.raises(InvalidStateError, match="pi_star drift at step 5"):
        ff.verify_martingale_optimality(dataclasses.replace(psol, model=nan_mu), (0.5,), fresh)


def test_optimality_drifts_on_merton(merton_small):
    model, grid, ens, psol = merton_small
    fresh = ff.sample_ensemble(grid, 100_000, 2, 6060)
    report = ff.verify_martingale_optimality(psol, (0.5, 1.0, -0.5, -1.0), fresh)
    psol.optimality_report = report
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
    psol = ff.solve_portfolio(model, grid, ens, c4=0.0,
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
    psol = ff.solve_portfolio(model, grid, ens, c4=0.5,
                              basis=ff.polynomial_basis(3, 2))
    return grid, ens, psol


def test_endowment_pipeline_runs(endowment_small):
    grid, ens, psol = endowment_small
    assert psol.weak_sol.residual["weighted_rms"] <= 0.02
    assert abs(psol.measure_change.weight_mean - 1.0) <= 5 * psol.measure_change.weight_stderr
    assert -1.0 < psol.value < 0.0
    rep = ff.bmo_diagnostic(psol.fde_sol, psol.coeffs, [0.0, 0.24, 0.48])
    means = [row["mean"] for row in rep["per_probe"]]
    assert all(b <= a * 1.10 + 1e-12 for a, b in zip(means, means[1:]))


def test_portfolio_export(tmp_path, merton_small):
    model, grid, ens, psol = merton_small
    fresh = ff.sample_ensemble(grid, 20_000, 2, 6062)
    psol.optimality_report = ff.verify_martingale_optimality(
        psol, (0.5,), fresh)
    out = tmp_path / "portfolio.json"
    pi_csv = tmp_path / "pi.csv"
    ff.export_portfolio_results(psol, out, pi_csv_path=pi_csv, path_limit=2)
    import json
    payload = json.loads(out.read_text())
    assert payload["y0"] == pytest.approx(psol.y0)
    assert "drift_table" in payload and "pi_star" in payload["drift_table"]
    lines = pi_csv.read_text().splitlines()
    assert lines[0] == "path,step,t,pi_star"
    assert len(lines) == 1 + 2 * grid.num_steps
    for line in lines[1:]:
        p, k, t, pi = line.split(",")
        p, k = int(p), int(k)
        assert [float(t), float(pi)] == [grid.points[k], psol.pi_star[p, k]]


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
    peak = _traced_peak(ff.build_measure_change, psol.fde_sol, psol.coeffs, ens)
    assert peak < P * K * 2 * 8
