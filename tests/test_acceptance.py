"""Acceptance gate: every shipped criterion at its stated tolerance.

Bundles are solved once per session at full fixture scale (1e5 paths) with
the default master seed and shared across criteria. Each test prints one
pass/fail line.
"""

import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import fdeflow as ff
from fdeflow import cli
from fdeflow.oracles import CrankNicolsonOracle, heat_value, merton_y0

from _helpers import empirical_pathwise_uniqueness

ACCEPT_SEED = 20260808
FBSDE_FIXTURES = ("trivial", "const_driver", "tanh_terminal", "linear_driver",
                  "const_forward")
ALL_FIXTURES = FBSDE_FIXTURES + ("merton", "endowment")


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def acceptance():
    cache = {}
    cfg = cli.ExperimentConfig(problem="verify-suite", seed=ACCEPT_SEED)

    def get(name):
        if name not in cache:
            t0 = time.perf_counter()
            bundle = cli._solve_fixture(ff.get_fixture(name), cfg)
            bundle["solve_seconds"] = time.perf_counter() - t0
            bundle["cfg"] = cfg
            cache[name] = bundle
        return cache[name]

    get.cache = cache
    return get


def test_criterion_01_contraction_and_runtime(acceptance):
    worst_factor, worst_iters, worst_time = 0.0, 0, 0.0
    for name in FBSDE_FIXTURES:
        b = acceptance(name)
        sol = b["sol"]
        worst_factor = max(worst_factor,
                           max(r.empirical_factor for r in sol.iteration_log))
        worst_iters = max(worst_iters,
                          max(r.iterations_to(1e-4) for r in sol.iteration_log))
        worst_time = max(worst_time, b["solve_seconds"])
    ok = worst_factor <= 0.6 and 0 < worst_iters <= 10 and worst_time <= 60.0
    _report(1, "contraction", ok,
            f"factor {worst_factor:.3f} <= 0.6, iterations {worst_iters} <= 10, "
            f"runtime {worst_time:.1f}s <= 60s")
    assert worst_factor <= 0.6
    assert 0 < worst_iters <= 10
    assert worst_time <= 60.0


def test_criterion_02_residuals(acceptance):
    worst_back, worst_fwd = 0.0, 0.0
    for name in ALL_FIXTURES:
        res = acceptance(name)["sol"].residuals
        worst_back = max(worst_back, res["backward_rms"])
        worst_fwd = max(worst_fwd, res["forward_max"])
    ok = worst_back <= 1e-2 and worst_fwd == 0.0
    _report(2, "fde-fbsde equivalence", ok,
            f"backward rms {worst_back:.2e} <= 1e-2, forward max {worst_fwd} == 0")
    assert worst_back <= 1e-2
    assert worst_fwd == 0.0


def test_criterion_03_heat_kernel_oracle(acceptance):
    b = acceptance("tanh_terminal")
    sol = b["sol"]
    grid = sol.grid
    xs = np.linspace(-2.0, 2.0, 41)
    worst = 0.0
    for frac in (0.25, 0.5, 0.75):
        k = int(round(frac * grid.num_steps))
        fitted = sol.phi_fits[k].evaluate(xs[:, None])[:, 0]
        exact = heat_value(np.tanh, grid.points[k], xs, grid.horizon)
        worst = max(worst, float(np.abs(fitted - exact).max()))
    y0_err = abs(float(sol.y0_mean[0]))  # E[tanh(B_1)] = 0 by odd symmetry
    ok = worst <= 0.02 and y0_err <= 0.01
    _report(3, "heat-kernel oracle", ok,
            f"sup error {worst:.4f} <= 0.02 on |x|<=2, |Y0| {y0_err:.4f} <= 0.01")
    assert worst <= 0.02
    assert y0_err <= 0.01


def test_criterion_04_linear_driver_pde_oracle(acceptance):
    b = acceptance("linear_driver")
    sol = b["sol"]
    grid = sol.grid
    oracle = CrankNicolsonOracle(0.5, np.sin, grid.horizon)
    xs = np.linspace(-2.0, 2.0, 41)
    worst = 0.0
    for frac in (0.25, 0.5, 0.75):
        k = int(round(frac * grid.num_steps))
        fitted = sol.phi_fits[k].evaluate(xs[:, None])[:, 0]
        worst = max(worst, float(np.abs(fitted - oracle.at(grid.points[k], xs)).max()))
    y0_err = abs(float(sol.y0_mean[0]) - float(oracle.at(0.0, np.array([0.0]))[0]))
    worst = max(worst, y0_err)
    ok = worst <= 0.02
    _report(4, "linear-driver PDE oracle", ok, f"sup error {worst:.4f} <= 0.02")
    assert worst <= 0.02


def test_criterion_05_girsanov_weights(acceptance):
    b = acceptance("const_forward")
    sol, ens = b["sol"], b["ensemble"]
    grid = sol.grid
    c, T = 0.5, grid.horizon
    mc = b["measure_change"]
    b_t = ens.increments[:, :, 0].sum(axis=1)
    formula_dev = float(np.abs(mc.weights - np.exp(-c * b_t - 0.5 * c * c * T)).max())
    mean_dev_se = abs(mc.weight_mean - 1.0) / mc.weight_stderr
    fresh = ff.sample_ensemble(ff.build_uniform_grid(T, 1), ens.num_paths, 1,
                               cli.substream_seed(ACCEPT_SEED, "criterion5:fresh"))
    fresh_bt = fresh.increments[:, 0, 0]
    worst_sigma = 0.0
    for fn in (np.tanh, lambda x: np.clip(x, -1.0, 1.0)):
        lhs_terms = mc.weights * fn(sol.X_T[:, 0])
        lhs = lhs_terms.mean() / mc.weights.mean()
        rhs = fn(fresh_bt).mean()
        se = np.sqrt(lhs_terms.var(ddof=1) / ens.num_paths
                     + fn(fresh_bt).var(ddof=1) / fresh.num_paths)
        worst_sigma = max(worst_sigma, abs(lhs - rhs) / se)
    ok = formula_dev <= 1e-10 and mean_dev_se <= 5.0 and worst_sigma <= 3.0
    _report(5, "girsanov weights", ok,
            f"closed form dev {formula_dev:.1e}, mean {mean_dev_se:.2f} se <= 5, "
            f"reweighted mean {worst_sigma:.2f} sigma <= 3")
    assert formula_dev <= 1e-10
    assert mean_dev_se <= 5.0
    assert worst_sigma <= 3.0


def test_criterion_06_z_invariance(acceptance):
    worst = 0.0
    for name in ALL_FIXTURES:
        b = acceptance(name)
        if "portfolio" in b:   # its solve ensemble is freed once the report is made
            rep = b["z_invariance"]
        else:
            probes = ff.girsanov.z_invariance_probes(b["sol"].grid.num_steps)
            record = ff.forward_record(b["sol"], b["ensemble"], 0, {j for p in probes for j in p})
            rep = ff.check_z_invariance(ff.build_measure_change(record), record)
        worst = max(worst, rep["max_discrepancy"])
    ok = worst <= 0.05
    _report(6, "z invariance", ok, f"max surface discrepancy {worst:.4f} <= 0.05")
    assert worst <= 0.05


def test_criterion_07_weak_solution_residual(acceptance):
    b = acceptance("merton")
    psol, rms = b["portfolio"], b["weak_residual"]["weighted_rms"]
    ok = rms <= 1e-2
    _report(7, "weak-solution residual", ok, f"weighted rms {rms:.2e} <= 1e-2 "
            f"at {psol.fde_sol.num_paths} paths, {psol.fde_sol.grid.num_steps} steps")
    assert psol.fde_sol.num_paths == 100_000 and psol.fde_sol.grid.num_steps == 50
    assert rms <= 1e-2


def test_criterion_08_merton_benchmark(acceptance):
    b = acceptance("merton")
    psol = b["portfolio"]
    y0_ref = merton_y0(0.1, 0.2, 1.0, 1.0)
    y0_err = abs(psol.y0 - y0_ref)
    value_err = abs(psol.value - (-np.exp(-0.125)))
    # pi*'s largest distance from mu_S / (gamma sigma_S^2) = 2.5, read off the run's record
    pi_err = b["pi_star"]["pi_star_dev"]
    runtime = b["solve_seconds"]
    ok = y0_err <= 0.01 and value_err <= 0.01 and pi_err <= 0.05 and runtime <= 120.0
    _report(8, "merton benchmark", ok,
            f"y0 err {y0_err:.2e} <= 0.01, value err {value_err:.2e} <= 0.01, "
            f"pi* err {pi_err:.2e} <= 0.05, runtime {runtime:.1f}s <= 120s")
    assert y0_err <= 0.01
    assert value_err <= 0.01
    assert pi_err <= 0.05
    assert runtime <= 120.0


def test_criterion_09_martingale_optimality(acceptance):
    b = acceptance("merton")
    psol = b["portfolio"]
    fresh = ff.sample_ensemble(psol.fde_sol.grid, psol.fde_sol.num_paths, 2,
                               cli.substream_seed(ACCEPT_SEED, "criterion9:eval"))
    report = ff.verify_martingale_optimality(psol, (0.5, 1.0, -0.5, -1.0), fresh)
    star = report["strategies"]["pi_star"]
    star_total_ok = abs(star["total_drift"]) <= 3 * star["total_se"]
    star_step_ok = bool(np.all(
        np.abs(star["step_drift"]) <= 3 * star["step_se"] + cli._DRIFT_ATOL))
    perturbed_ok, dominated_ok = True, True
    for label, res in report["strategies"].items():
        if label == "pi_star":
            continue
        perturbed_ok &= res["total_drift"] < -3 * res["total_se"]
        dominated_ok &= res["value_estimate"] <= star["value_estimate"] + 3 * np.hypot(
            res["value_se"], star["value_se"])
    ok = star_total_ok and star_step_ok and perturbed_ok and dominated_ok
    _report(9, "martingale optimality", ok,
            f"pi* drift {star['total_drift']:.1e} ({abs(star['total_drift'])/star['total_se']:.2f} sigma), "
            f"perturbed negative beyond 3 sigma: {perturbed_ok}, dominated: {dominated_ok}")
    assert star_total_ok and star_step_ok
    assert perturbed_ok
    assert dominated_ok


def test_criterion_10_empirical_pathwise_uniqueness():
    # driven by the Picard tolerance, not the Monte Carlo size: a reduced
    # ensemble keeps the check honest and quick
    tol = 1e-4
    worst = 0.0
    for name in ALL_FIXTURES:
        fixture = ff.get_fixture(name)
        grid = ff.build_uniform_grid(fixture.T, fixture.K)
        if fixture.kind == "portfolio":
            coeffs = ff.build_portfolio_fbsde(fixture.build(), fixture.T)
        else:
            coeffs = fixture.build()
        ens = ff.sample_ensemble(grid, 20_000, coeffs.d,
                                 cli.substream_seed(ACCEPT_SEED, f"{name}:uniq"))
        g0 = max(coeffs.m_bound, 1.0)
        rep = empirical_pathwise_uniqueness(
            coeffs, ens, guesses=(g0, -g0), c4=fixture.c4,
            tol=tol, basis=fixture.basis)
        worst = max(worst, rep["max_gap"])
    ok = worst <= 2 * tol
    _report(10, "pathwise uniqueness", ok,
            f"max antipodal-guess gap {worst:.2e} <= {2 * tol:.0e}")
    assert worst <= 2 * tol


def test_criterion_11_determinism(tmp_path, acceptance):
    # the CLI re-solves everything; release the session bundles first
    acceptance.cache.clear()
    outs = {}
    for label, seed in [("a", ACCEPT_SEED), ("b", ACCEPT_SEED),
                        ("s1", ACCEPT_SEED + 1), ("s2", ACCEPT_SEED + 2),
                        ("s3", ACCEPT_SEED + 3), ("s4", ACCEPT_SEED + 4)]:
        out = tmp_path / label
        code = cli.main(["verify", "--out", str(out), "--seed", str(seed), "--quiet"])
        assert code == 0, f"verify suite failed at seed {seed}"
        outs[label] = out
    csvs = sorted(p.name for p in outs["a"].glob("*.csv"))
    assert csvs, "suite produced no CSV outputs"
    byte_identical = all(
        (outs["a"] / name).read_bytes() == (outs["b"] / name).read_bytes()
        for name in csvs)

    def verdicts(out):
        rows = (out / "verdicts.csv").read_text().splitlines()[1:]
        return [tuple(r.split(",")[i] for i in (0, 1, 4)) for r in rows]

    base = verdicts(outs["a"])
    stable = all(verdicts(outs[k]) == base for k in ("s1", "s2", "s3", "s4"))
    all_pass = all(row[2] == "1" for row in base)
    ok = byte_identical and stable and all_pass
    _report(11, "determinism", ok,
            f"byte-identical reruns: {byte_identical}, verdicts stable over 5 seeds: "
            f"{stable}, all verdicts pass: {all_pass}")
    assert byte_identical
    assert stable
    assert all_pass
    shutil.rmtree(tmp_path, ignore_errors=True)
