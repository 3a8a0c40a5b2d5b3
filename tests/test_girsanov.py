import numpy as np
import pytest

import fdeflow as ff
from fdeflow import girsanov
from fdeflow.errors import InsufficientWeightError, InvalidArgumentError, InvalidStateError

from _helpers import brownian_paths, full_record, reference_paths


def test_zero_drift_measure_change_is_identity(tanh_solution):
    coeffs, grid, ens, sol = tanh_solution
    mc = ff.build_measure_change(full_record(sol, ens))
    assert np.all(mc.weights == 1.0)
    # with f == 0 the shifted motion W = X is B
    assert np.allclose(reference_paths(sol, ens)[1], brownian_paths(ens), atol=0.0)


def test_constant_drift_weights_match_closed_form(const_forward_solution):
    coeffs, grid, ens, sol = const_forward_solution
    c, T = 0.5, grid.horizon
    mc = ff.build_measure_change(full_record(sol, ens))
    b_t = ens.increments[:, :, 0].sum(axis=1)
    assert np.abs(mc.weights - np.exp(-c * b_t - 0.5 * c * c * T)).max() <= 1e-12
    assert np.all(mc.weights > 0)
    assert abs(mc.weight_mean - 1.0) <= 5 * mc.weight_stderr


def test_weights_are_the_discrete_stochastic_exponential(const_forward_solution,
                                                         merton_small):
    _, _, ens_1d, sol_1d = const_forward_solution
    _, _, ens_2d, psol = merton_small
    for ens, sol in ((ens_1d, sol_1d), (ens_2d, psol.fde_sol)):
        record = full_record(sol, ens)
        mc = ff.build_measure_change(record)
        t = ens.grid.points
        _, _, Y, Z = reference_paths(sol, ens)
        # the left-endpoint drifts, rebuilt from the whole (Y, Z), step-major
        f_values = np.stack([sol.coeffs.eval_f(t[k], Y[:, k], Z[:, k])
                             for k in range(ens.grid.num_steps)]).transpose(1, 0, 2)
        assert f_values.shape == ens.increments.shape
        assert np.any(f_values != 0.0)
        # N_{k+1} = N_k - <f_k, dB_k>, [N]_{k+1} = [N]_k + |f_k|^2 dt_k, from 0
        N = np.zeros(ens.num_paths)
        QV = np.zeros(ens.num_paths)
        for k in range(ens.grid.num_steps):
            f = f_values[:, k]
            N = N - np.einsum("pd,pd->p", f, ens.increments[:, k])
            QV = QV + np.einsum("pd,pd->p", f, f) * ens.grid.dt[k]
        assert np.array_equal(np.exp(N - QV / 2), mc.weights)
        # X solves the Euler recursion of W = x + B + int f ds exactly
        assert ff.check_fbsde_residual(record)["forward_max"] == 0.0


def test_reweighted_terminal_moments(const_forward_solution):
    coeffs, grid, ens, sol = const_forward_solution
    c, T = 0.5, grid.horizon
    mc = ff.build_measure_change(full_record(sol, ens))
    w_t = sol.X_T[:, 0]
    # raw mean drifts by c*T; the reweighted mean recenters at the start point
    assert abs(w_t.mean() - c * T) <= 5 / np.sqrt(ens.num_paths)
    weighted_mean = float(np.sum(mc.weights * w_t) / np.sum(mc.weights))
    se = float(np.std(mc.weights * (w_t - weighted_mean), ddof=1)
               / (mc.weights.mean() * np.sqrt(ens.num_paths)))
    assert abs(weighted_mean) <= 5 * se


def test_change_of_measure_identity_against_fresh_ensemble(const_forward_solution):
    coeffs, grid, ens, sol = const_forward_solution
    mc = ff.build_measure_change(full_record(sol, ens))
    fresh = ff.sample_ensemble(ff.build_uniform_grid(grid.horizon, 1),
                               ens.num_paths, 1, 777)
    fresh_bt = fresh.increments[:, 0, 0]
    for fn in (np.tanh, lambda x: np.clip(x, -1.0, 1.0)):
        lhs_terms = mc.weights * fn(sol.X_T[:, 0])
        lhs = lhs_terms.mean() / mc.weights.mean()
        rhs = fn(fresh_bt).mean()
        se = np.sqrt(lhs_terms.var(ddof=1) / ens.num_paths
                     + fn(fresh_bt).var(ddof=1) / fresh.num_paths)
        assert abs(lhs - rhs) <= 3 * se


def test_weak_solution_trivial_residual(unit_ensemble_1d):
    grid, ens = unit_ensemble_1d
    coeffs = ff.CoefficientSet(
        n=1, d=1, h=lambda t, y, z: np.zeros_like(y),
        f=lambda t, y, z: np.full((y.shape[0], 1), 0.5),
        phi=lambda x: np.ones((x.shape[0], 1)), c1=0.0, c2=0.0, m_bound=1.0)
    sol = ff.solve_global(coeffs, ens)
    record = full_record(sol, ens)
    mc = ff.build_measure_change(record)
    assert mc.sol is sol   # the weak readers take the solution from the measure change
    residual = ff.assemble_weak_solution(mc, record)
    assert residual["weighted_rms"] <= 1e-6
    assert np.array_equal(reference_paths(sol, ens)[2][:, -1], coeffs.eval_phi(sol.X_T))


def test_weak_assembly_rejects_a_non_finite_residual(const_forward_solution, monkeypatch):
    coeffs, grid, ens, sol = const_forward_solution
    phi = coeffs.eval_phi

    def nan_on_path_9(x):
        out = phi(x)
        out[9] = np.nan
        return out

    monkeypatch.setattr(coeffs, "eval_phi", nan_on_path_9)
    record = full_record(sol, ens)   # phi(X_T) starts the weak residual
    mc = ff.build_measure_change(record)
    with pytest.raises(InvalidStateError, match="non-finite residual"):
        ff.assemble_weak_solution(mc, record)


def test_weak_residual_reduces_to_backward_residual_when_f_zero(tanh_solution):
    coeffs, grid, ens, sol = tanh_solution
    record = full_record(sol, ens)
    residual = ff.assemble_weak_solution(ff.build_measure_change(record), record)
    # f == 0: the weak residual telescopes the per-step backward residuals
    _, _, Y, Z = reference_paths(sol, ens)
    zdb = np.einsum("pknd,pkd->pkn", Z, ens.increments)
    direct = Y[:, 0] - coeffs.eval_phi(sol.X_T) + zdb.sum(axis=1)
    assert residual["unweighted_rms"] == pytest.approx(
        float(np.sqrt(np.mean(np.sum(direct ** 2, axis=1)))), rel=1e-9)
    assert residual["weighted_rms"] == pytest.approx(residual["unweighted_rms"], rel=1e-12)


def test_z_invariance_on_drifted_problem(const_forward_solution):
    coeffs, grid, ens, sol = const_forward_solution
    record = full_record(sol, ens)
    report = ff.check_z_invariance(ff.build_measure_change(record), record)
    assert report["max_discrepancy"] <= 0.05
    assert len(report["per_probe"]) == 3


def test_z_invariance_probes_a_single_step_grid():
    # every probe step falls back into [0, K - 1]; on one step that is step 0
    grid = ff.build_uniform_grid(1.0, 1)
    ens = ff.sample_ensemble(grid, 3000, 1, 31)
    coeffs = ff.get_fixture("const_forward").build()
    sol = ff.solve_global(coeffs, ens, c4=1.0)
    record = full_record(sol, ens)
    report = ff.check_z_invariance(ff.build_measure_change(record), record)
    assert [row["step"] for row in report["per_probe"]] == [0]
    assert np.isfinite(report["max_discrepancy"])


def test_z_invariance_requires_effective_sample_size(unit_ensemble_1d):
    grid, ens = unit_ensemble_1d
    coeffs = ff.CoefficientSet(
        n=1, d=1, h=lambda t, y, z: np.zeros_like(y),
        f=lambda t, y, z: np.full((y.shape[0], 1), 5.0),
        phi=lambda x: np.tanh(x[:, :1]), c1=0.0, c2=1.0, m_bound=1.0)
    sol = ff.solve_global(coeffs, ens, c4=1.0,
                          basis=ff.polynomial_basis(7, 1))
    record = full_record(sol, ens)
    with pytest.raises(InsufficientWeightError):
        ff.check_z_invariance(ff.build_measure_change(record), record)


def test_bmo_diagnostic_zero_and_constant(tanh_solution, const_forward_solution):
    _, grid, ens, sol0 = tanh_solution
    rep0 = ff.bmo_diagnostic(full_record(sol0, ens), [0, 8])
    assert rep0["sup_p99"] <= 1e-12
    coeffs, grid, ens, sol = const_forward_solution
    rep = ff.bmo_diagnostic(full_record(sol, ens), [0, 4, 8])
    c, T = 0.5, grid.horizon
    for row in rep["per_probe"]:
        expected = c * c * (T - row["t"])
        assert abs(row["mean"] - expected) <= 0.05 * expected
    means = [row["mean"] for row in rep["per_probe"]]
    assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))


def test_bmo_rejects_off_grid_probe(tanh_solution):
    # a probe step with no recorded state, such as one past the grid's last step, is
    # named before the (P, K) target is read; a report consumes it
    coeffs, grid, ens, sol = tanh_solution
    record = full_record(sol, ens)
    target = record.columns[girsanov.REMAINING]
    for states, missing in (({}, 0), ({0: record.states[0]}, 4)):
        with pytest.raises(InvalidArgumentError, match=f"no recorded forward state at step {missing}"):
            ff.bmo_diagnostic(ff.ForwardRecord(sol=sol, states=states, columns=record.columns), [0, 4])
    with pytest.raises(InvalidArgumentError, match="no recorded forward state at step 17"):
        ff.bmo_diagnostic(record, [0, grid.num_steps + 1])
    assert record.columns[girsanov.REMAINING] is target
    rep = ff.bmo_diagnostic(record, [0, 4])   # the target, read
    assert girsanov.REMAINING not in record.columns
    assert [row["t"] for row in rep["per_probe"]] == [float(grid.points[0]), float(grid.points[4])]


def test_z_invariance_names_a_missing_state(const_forward_solution):
    coeffs, grid, ens, sol = const_forward_solution
    record = full_record(sol, ens)
    mc = ff.build_measure_change(record)
    assert girsanov.z_invariance_probes(16) == [(4, 5), (8, 9), (12, 13)]
    assert girsanov.z_invariance_probes(1) == [(0, 1)]   # the recorder must reach step K
    del record.states[9]
    with pytest.raises(InvalidArgumentError, match="no recorded forward state at step 9"):
        ff.check_z_invariance(mc, record)


def test_weak_readers_refuse_a_record_of_another_solution(tanh_solution,
                                                          const_forward_solution):
    _, _, ens, sol = const_forward_solution
    other = full_record(tanh_solution[3], ens)
    mc = ff.build_measure_change(full_record(sol, ens))
    for read in (ff.assemble_weak_solution, ff.check_z_invariance):
        with pytest.raises(InvalidArgumentError, match="record is of another solution"):
            read(mc, other)


def test_weight_tail_mass_is_small(const_forward_solution):
    coeffs, grid, ens, sol = const_forward_solution
    mc = ff.build_measure_change(full_record(sol, ens))
    assert mc.tail_mass_above_quantile(0.999) < 0.01


def test_weak_export(tmp_path, const_forward_solution):
    coeffs, grid, ens, sol = const_forward_solution
    record = full_record(sol, ens, paths=2)
    mc = ff.build_measure_change(record)
    residual = ff.assemble_weak_solution(mc, record)
    csv = tmp_path / "weak.csv"
    side = tmp_path / "weak.json"
    ff.export_weak_solution(mc, residual, record.rows, csv, side, config_echo={})
    _, X, Y, Z = reference_paths(sol, ens)
    lines = csv.read_text().splitlines()
    assert lines[0] == "path,step,t,Y0,Z00,W0"
    assert len(lines) == 1 + 2 * (grid.num_steps + 1)
    K = grid.num_steps
    for line in lines[1:]:
        p, k, *cells = line.split(",")
        p, k = int(p), int(k)
        z = Z[p, k, 0, 0] if k < K else 0.0
        expected = [grid.points[k], Y[p, k, 0], z, X[p, k, 0]]
        assert [float(c) for c in cells] == expected
    import json
    payload = json.loads(side.read_text())
    assert payload["weights"]["mean"] == pytest.approx(mc.weight_mean)
