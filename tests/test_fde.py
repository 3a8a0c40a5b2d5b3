import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdeflow as ff
from fdeflow import fde, regression
from fdeflow.errors import (FdeflowError, InvalidArgumentError, InvalidStateError,
                            PicardDivergedError)
from fdeflow.oracles import CrankNicolsonOracle, heat_value
from fdeflow.regression import StepRegression

from _helpers import (brownian_paths, empirical_pathwise_uniqueness, reference_picard_window,
                      replayed_paths)

# frozen quadrature oracle: E[tanh(0.3 + B_{0.5})]
TANH_AT_HALF = 0.21501332187374472


def _coeffs(h=None, f=None, phi=None, c1=0.0, c2=0.0, m=1.0):
    return ff.CoefficientSet(
        n=1, d=1,
        h=h or (lambda t, y, z: np.zeros_like(y)),
        f=f or (lambda t, y, z: np.zeros((y.shape[0], 1))),
        phi=phi or (lambda x: np.ones((x.shape[0], 1))),
        c1=c1, c2=c2, m_bound=m)


def test_coefficient_validation_rejects_lipschitz_violations():
    with pytest.raises(InvalidArgumentError):
        _coeffs(h=lambda t, y, z: 2.0 * y, c1=0.5)      # true constant is 2
    with pytest.raises(InvalidArgumentError):
        _coeffs(phi=lambda x: np.tanh(x[:, :1]), c2=0.2)  # slope 1 at the origin
    with pytest.raises(InvalidArgumentError):
        _coeffs(phi=lambda x: 2.0 * np.tanh(x[:, :1]), c2=2.0, m=1.0)  # bound is 2
    # honest declarations pass
    _coeffs(h=lambda t, y, z: 2.0 * y, c1=2.0)
    _coeffs(phi=lambda x: np.tanh(x[:, :1]), c2=1.0)


def test_coefficient_validation_rejects_non_finite_outputs():
    # NaN fails every comparison, so the Lipschitz and bound checks alone pass it
    nan_far = lambda v: np.where(np.abs(v) > 3.0, np.nan, 0.0)
    with pytest.raises(InvalidArgumentError, match="h returned non-finite"):
        _coeffs(h=lambda t, y, z: nan_far(y), c1=1.0)
    with pytest.raises(InvalidArgumentError, match="f returned non-finite"):
        _coeffs(f=lambda t, y, z: nan_far(y), c1=1.0)
    with pytest.raises(InvalidArgumentError, match="phi returned non-finite"):
        _coeffs(phi=lambda x: np.tanh(x[:, :1]) + nan_far(x[:, :1]), c2=1.0)


def test_coefficient_validation_rejects_non_finite_constants():
    # NaN fails every comparison, so a sign check alone passes it
    for kwargs, name in (({"c1": np.nan}, "c1"), ({"c2": np.inf}, "c2"),
                         ({"m": np.nan}, "m_bound"), ({"c1": -1.0}, "c1")):
        with pytest.raises(InvalidArgumentError, match=f"{name} must be finite"):
            _coeffs(**kwargs)


@given(a=st.sampled_from((0.0, 0.25, 0.5, 1.0)), s=st.sampled_from((0.0, 0.25, 0.5, 1.0)),
       f_of_z=st.booleans(), c1_scale=st.sampled_from((0.5, 1.0, 2.0)),
       c2_scale=st.sampled_from((0.5, 1.0, 2.0)), m_scale=st.sampled_from((0.5, 1.0, 2.0)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_drawn_coefficient_sets_solve_or_fail_by_name(a, s, f_of_z, c1_scale, c2_scale,
                                                      m_scale):
    # h = a y, f = 0 or a z, phi = s tanh(x): the true c1 is a, c2 and m_bound are s
    f = (lambda t, y, z: a * z[:, 0, :]) if f_of_z else None
    build = lambda: _coeffs(h=lambda t, y, z: a * y, f=f, phi=lambda x: s * np.tanh(x),
                            c1=c1_scale * a, c2=c2_scale * s, m=m_scale * s)
    if (a > 0 and c1_scale < 1) or (s > 0 and min(c2_scale, m_scale) < 1):
        with pytest.raises(InvalidArgumentError, match="violates"):
            build()
        return
    coeffs = build()
    grid = ff.build_uniform_grid(0.1, 8)
    try:
        sol = ff.solve_global(coeffs, ff.sample_ensemble(grid, 600, 1, 4242))
    except FdeflowError:
        return
    assert np.isfinite(sol.y0_mean).all() and sol.residuals["forward_max"] == 0.0


def test_picard_window_trivial_problem():
    coeffs = _coeffs()
    grid = ff.build_uniform_grid(1.0, 8)
    ens = ff.sample_ensemble(grid, 2000, 1, 7)
    sol, report = ff.picard_window(coeffs, grid, coeffs.eval_phi,
                                   0.0, ens.increments)
    assert report.converged and report.iterations == 1
    assert report.distances[-1] == 0.0
    assert np.abs(sol.V).max() == 0.0
    paths = brownian_paths(ens)[:, :, 0]
    assert np.array_equal(sol.X[:, :, 0], paths)
    assert np.abs(sol.Y - 1.0).max() <= 1e-6
    assert np.abs(sol.Z).max() <= 1e-6


def test_picard_window_constant_driver():
    c = 0.3
    coeffs = _coeffs(h=lambda t, y, z: np.full_like(y, c),
                     phi=lambda x: np.zeros((x.shape[0], 1)), m=0.0)
    grid = ff.build_uniform_grid(1.0, 16)
    ens = ff.sample_ensemble(grid, 5000, 1, 8)
    sol, report = ff.picard_window(coeffs, grid, coeffs.eval_phi, 0.0, ens.increments)
    assert report.converged
    assert np.abs(sol.V[:, :, 0] - c * grid.points[None, :]).max() <= 1e-9
    for k in range(17):
        assert np.abs(sol.Y[:, k] - c * (1.0 - grid.points[k])).max() <= 1e-2
    assert np.sqrt(np.mean(sol.Z ** 2)) <= 1e-6


def test_picard_window_tanh_matches_quadrature():
    coeffs = ff.get_fixture("tanh_terminal").build()
    grid = ff.build_uniform_grid(1.0, 16)
    ens = ff.sample_ensemble(grid, 50_000, 1, 9)
    sol, _ = ff.picard_window(coeffs, grid, coeffs.eval_phi, 0.0, ens.increments,
                              basis=ff.polynomial_basis(7, 1))
    y0 = float((coeffs.eval_phi(sol.X[:, -1]) + sol.V[:, -1]).mean())
    assert abs(y0) <= 0.01
    k = 8  # t = 0.5
    val = float(sol.phi_fits[k].evaluate(np.array([[0.3]]))[0, 0])
    assert abs(val - TANH_AT_HALF) <= 0.02
    # quadrature self-check against the frozen constant
    assert heat_value(np.tanh, 0.5, np.array([0.3]), 1.0)[0] == pytest.approx(
        TANH_AT_HALF, abs=1e-10)


def test_picard_window_mesh_precondition_and_divergence():
    coeffs = _coeffs(h=lambda t, y, z: 3.0 * y,
                     phi=lambda x: np.sin(x[:, :1]), c1=3.0, c2=1.0)
    grid = ff.build_uniform_grid(1.0, 8)
    ens = ff.sample_ensemble(grid, 2000, 1, 10)
    with pytest.raises(InvalidArgumentError):
        ff.picard_window(coeffs, grid, coeffs.eval_phi, 0.0, ens.increments)
    with pytest.raises(PicardDivergedError) as err:
        ff.picard_window(coeffs, grid, coeffs.eval_phi, 0.0, ens.increments,
                         force=True, max_iter=8)
    assert err.value.report is not None
    assert err.value.report.iterations >= 1


def _record_designs(monkeypatch):
    """Record (box lower edge, states) of every StepRegression built, and the
    operands of every bitwise compare the Picard loop makes."""
    built, compared = [], []
    original = StepRegression.__init__

    def recording(self, states, basis, fit_window=None, weights=None):
        original(self, states, basis, fit_window, weights)
        built.append((float(np.ravel(fit_window[0])[0]), self.states.copy()))

    def comparing(a, b):
        compared.append((a, b))
        return regression.bitwise_equal(a, b)

    monkeypatch.setattr(StepRegression, "__init__", recording)
    monkeypatch.setattr(fde, "bitwise_equal", comparing)
    return built, compared


@pytest.mark.parametrize("case", ["f_zero", "f_of_z", "c1_zero"])
def test_picard_window_reuses_designs_while_states_repeat(monkeypatch, case):
    # f = 0: the forward states repeat bitwise on every pass, so each step's
    # design is built once and the terminal map runs once at the start
    # states and once at X_T. f = Z/2: only step 0 (fixed starts) repeats.
    # Every later pass compares each row of X after step 0 (the starts) with
    # the last pass's, once, as its forward step writes it. c1 = 0: the second
    # pass repeats every row and, after one compare of the whole V, ends, so
    # each step is built once and nothing is kept. Y and Z are always the
    # returned fits' evaluations at the returned states.
    f = (lambda t, y, z: 0.5 * z[:, 0, :]) if case == "f_of_z" else None
    c1 = 0.0 if case == "c1_zero" else 0.5
    coeffs = _coeffs(h=lambda t, y, z: c1 * y, f=f,
                     phi=lambda x: np.sin(x[:, :1]), c1=c1, c2=1.0)
    m = 4
    ell = ff.contraction_window_length(0.5, 1.0)
    grid = ff.TimeGrid(np.linspace(0.0, ell, m + 1))
    ens = ff.sample_ensemble(ff.build_uniform_grid(ell, m), 5000, 1, 16)
    starts = np.random.default_rng(16).uniform(-2.0, 2.0, (5000, 1))
    terminal_calls = []

    def terminal_map(x):
        terminal_calls.append(x.shape[0])
        return coeffs.eval_phi(x)

    built, compared = _record_designs(monkeypatch)
    sol, report = ff.picard_window(coeffs, grid, terminal_map, starts, ens.increments,
                                   basis=ff.polynomial_basis(3, 1),
                                   fit_window_fn=lambda t: (-50.0 - t, 50.0 + t))
    passes = report.iterations + 1
    assert report.converged and passes >= (2 if case == "c1_zero" else 3)
    for k in range(m):
        assert np.array_equal(_bits(sol.Y[:, k]), _bits(sol.phi_fits[k].evaluate(sol.X[:, k])))
        assert np.array_equal(_bits(sol.Z[:, k]), _bits(sol.z_fits[k].evaluate(sol.X[:, k])))
    by_step = {}
    for edge, states in built:
        by_step.setdefault(edge, []).append(states)
    assert len(by_step) == m
    assert not any(np.array_equal(a, starts) or np.array_equal(b, starts)
                   for a, b in compared)
    if case == "c1_zero":
        assert passes == 2
        assert [a.shape for a, _ in compared] == [(5000, 1)] * m + [(m + 1, 5000, 1)]
    else:
        assert len(compared) == m * (passes - 1)
        assert all(a.shape == (5000, 1) for a, _ in compared)
    if case != "f_of_z":
        assert len(built) == m
        assert len(terminal_calls) == 2
        return
    assert len(by_step[-50.0]) == 1   # t = 0: the window's fixed starts
    for edge, runs in by_step.items():
        if edge != -50.0:
            assert len(runs) == passes
            assert all(not np.array_equal(a.view(np.uint64), b.view(np.uint64))
                       for a, b in zip(runs, runs[1:]))
    assert len(terminal_calls) == 1 + passes


_REFERENCE_CASES = {
    # (h, f, c1, m): one distance, 0.0 | X repeats every pass | X moves every pass
    "c1_zero": (lambda t, y, z: np.zeros_like(y),
                lambda t, y, z: np.full((y.shape[0], 1), 0.5), 0.0, 16),
    "f_zero": (lambda t, y, z: 0.5 * y, None, 0.5, 4),
    "f_of_z": (lambda t, y, z: 0.3 * y, lambda t, y, z: 0.3 * np.tanh(z[:, 0, :]), 0.3, 4),
}


@pytest.mark.parametrize("start", ["shared", "per_path", "initial_guess"])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_picard_window_equals_the_plain_reference_bitwise(case, start):
    # every reuse (kept regressions, terminal values, the exact-repeat exit)
    # must leave the values of a plain Picard iteration untouched
    h, f, c1, m = _REFERENCE_CASES[case]
    coeffs = _coeffs(h=h, f=f, phi=lambda x: np.tanh(x[:, :1]), c1=c1, c2=1.0)
    T = 1.0 if c1 == 0 else ff.contraction_window_length(c1, 1.0)
    grid = ff.TimeGrid(np.linspace(0.0, T, m + 1))
    P = 20_000
    ens = ff.sample_ensemble(ff.build_uniform_grid(T, m), P, 1, 41)
    starts = 0.25 if start == "shared" else np.random.default_rng(41).uniform(-2, 2, (P, 1))
    kwargs = dict(basis=ff.polynomial_basis(5, 1), clip_bound=0.9,
                  fit_window_fn=lambda t: (-1.5 - t, 0.4 + t),
                  initial_guess=-1.0 if start == "initial_guess" else None)
    sol, report = ff.picard_window(coeffs, grid, coeffs.eval_phi, starts, ens.increments,
                                   **kwargs)
    ref, ref_report = reference_picard_window(coeffs, grid, coeffs.eval_phi, starts,
                                              ens.increments, **kwargs)
    assert report.converged and ref_report.converged
    assert report.distances == ref_report.distances
    if case == "c1_zero":
        assert report.distances == [0.0]
    for name in ("V", "X", "Y", "Z", "X_T"):
        assert np.array_equal(_bits(getattr(sol, name)), _bits(getattr(ref, name))), name
    for fits, ref_fits in ((sol.phi_fits, ref.phi_fits), (sol.z_fits, ref.z_fits)):
        for got, want in zip(fits, ref_fits, strict=True):
            assert np.array_equal(_bits(got._coef), _bits(want._coef))
            assert got.warning == want.warning


@given(c1=st.sampled_from((0.0, 0.3, 0.5)), f_of_z=st.booleans(), per_path=st.booleans(),
       box=st.booleans(), clip=st.booleans(),
       guess=st.one_of(st.none(), st.sampled_from((-1.0, 0.5))),
       m=st.integers(1, 16), P=st.sampled_from((2_000, 5_000, 20_000)),
       degree=st.sampled_from((3, 5)), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_drawn_picard_windows_equal_the_plain_reference_bitwise(c1, f_of_z, per_path, box, clip,
                                                                guess, m, P, degree, seed):
    # f reads Z (0.3 tanh z, so only with c1 > 0) or is a constant; with
    # c1 = 0, h and f are constants and the second pass repeats bitwise
    if c1 == 0:
        h = lambda t, y, z: np.full_like(y, 0.2)
        f = lambda t, y, z: np.full((y.shape[0], 1), 0.5)
    else:
        h = lambda t, y, z: c1 * y
        f = ((lambda t, y, z: 0.3 * np.tanh(z[:, 0, :])) if f_of_z
             else (lambda t, y, z: np.full((y.shape[0], 1), -0.4)))
    coeffs = _coeffs(h=h, f=f, phi=lambda x: np.tanh(x[:, :1]), c1=c1, c2=1.0)
    T = m / 16 if c1 == 0 else ff.contraction_window_length(c1, 1.0)
    grid = ff.TimeGrid(np.linspace(0.0, T, m + 1))
    ens = ff.sample_ensemble(ff.build_uniform_grid(T, m), P, 1, seed)
    starts = (np.random.default_rng(seed).uniform(-2, 2, (P, 1)) if per_path
              else 0.25)
    kwargs = dict(basis=ff.polynomial_basis(degree, 1), clip_bound=0.9 if clip else None,
                  fit_window_fn=(lambda t: (-1.5 - t, 0.4 + t)) if box else None,
                  initial_guess=guess)
    sol, report = ff.picard_window(coeffs, grid, coeffs.eval_phi, starts, ens.increments,
                                   **kwargs)
    ref, ref_report = reference_picard_window(coeffs, grid, coeffs.eval_phi, starts,
                                              ens.increments, **kwargs)
    assert report.converged and ref_report.converged
    assert report.distances == ref_report.distances
    for name in ("V", "X", "Y", "Z", "X_T"):
        assert np.array_equal(_bits(getattr(sol, name)), _bits(getattr(ref, name))), name
    for fits, ref_fits in ((sol.phi_fits, ref.phi_fits), (sol.z_fits, ref.z_fits)):
        for got, want in zip(fits, ref_fits, strict=True):
            assert np.array_equal(_bits(got._coef), _bits(want._coef))
            assert got.warning == want.warning


def test_repeating_window_peaks_below_seven_window_arrays():
    # a c1 = 0 window's second pass holds both passes' (V, X) plus Y and Z:
    # six (m+1, P) arrays. It compares each new row with the last pass's as it
    # is written, so no whole-window difference array adds to that peak.
    m, P = 16, 20_000
    coeffs = _coeffs(f=lambda t, y, z: np.full((y.shape[0], 1), 0.5),
                     phi=lambda x: np.tanh(x[:, :1]), c2=1.0)
    grid = ff.build_uniform_grid(1.0, m)
    ens = ff.sample_ensemble(grid, P, 1, 17)
    tracemalloc.start()
    try:
        sol, report = ff.picard_window(coeffs, grid, coeffs.eval_phi, 0.0, ens.increments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.distances == [0.0]
    assert peak < 7 * (m + 1) * P * 8


def test_global_solve_peaks_below_three_whole_path_arrays():
    # the solve keeps (Y, Z), about two (K+1, P) arrays, and X_T; the forward
    # assembly and the residual hold one step of (V, X) at a time
    fixture = ff.get_fixture("linear_driver")
    P = 20_000
    grid = ff.build_uniform_grid(fixture.T, fixture.K)
    ens = ff.sample_ensemble(grid, P, 1, 19)
    tracemalloc.start()
    try:
        sol = ff.solve_global(fixture.build(), ens, c4=fixture.c4,
                              basis=fixture.basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.residuals["forward_max"] == 0.0 and sol.V is None and sol.X is None
    assert peak < 3 * (grid.num_steps + 1) * P * 8


def test_contraction_factor_on_compliant_window():
    # driver with real coupling, window right at the admissible length
    coeffs = _coeffs(h=lambda t, y, z: 1.0 * y,
                     phi=lambda x: np.tanh(x[:, :1]), c1=1.0, c2=1.0)
    ell = ff.contraction_window_length(1.0, 1.0)
    grid = ff.TimeGrid(np.linspace(0.0, ell, 5))
    ens = ff.sample_ensemble(ff.build_uniform_grid(ell, 4), 10_000, 1, 11)
    sol, report = ff.picard_window(coeffs, grid, coeffs.eval_phi, 0.25,
                                   ens.increments, initial_guess=-1.0,
                                   basis=ff.polynomial_basis(3, 1))
    assert report.converged
    assert report.empirical_factor <= 0.6


def test_solve_global_single_window_equals_picard(unit_ensemble_1d):
    grid, ens = unit_ensemble_1d
    coeffs = _coeffs()
    sol = ff.solve_global(coeffs, ens)
    assert len(sol.window_bounds) >= 1
    assert np.abs(sol.Y - 1.0).max() <= 1e-6
    assert np.abs(replayed_paths(sol, ens)[0]).max() == 0.0
    assert sol.residuals["forward_max"] == 0.0
    # y0 statistics: terminal reconstruction of a constant is exact
    assert sol.y0_mean[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.y0_stderr[0] == pytest.approx(0.0, abs=1e-12)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", ["linear_driver", "endowment"])
def test_solve_is_bitwise_the_same_on_a_c_order_ensemble(name):
    # the step-major layout changes where numbers sit, never their values
    fixture = ff.get_fixture(name)
    grid = ff.build_uniform_grid(fixture.T, fixture.K)
    coeffs = (ff.build_portfolio_fbsde(fixture.build(), fixture.T)
              if fixture.kind == "portfolio" else fixture.build())
    ens = ff.sample_ensemble(grid, 4000, coeffs.d, 31)
    c_order = ff.BrownianEnsemble(grid, ens.seed, increments=np.ascontiguousarray(ens.increments))
    runs = []
    for e in (ens, c_order):
        sol = ff.solve_global(coeffs, e, c4=fixture.c4, basis=fixture.basis)
        runs.append((sol, ff.build_measure_change(sol, e)))
    (sol, mc), (ref, ref_mc) = runs
    assert coeffs.c1 > 0
    for field in ("Y", "Z", "X_T", "y0_mean"):
        assert np.array_equal(_bits(getattr(sol, field)), _bits(getattr(ref, field))), field
    for got, want in zip(replayed_paths(sol, ens), replayed_paths(ref, c_order)):
        assert np.array_equal(_bits(got), _bits(want))
    assert sol.residuals == ref.residuals
    assert np.array_equal(_bits(mc.weights), _bits(ref_mc.weights))
    assert all(x.flags.c_contiguous for _, x in ff.replay_forward(sol, ens))


def test_solve_global_offset_gluing_identity():
    # declared c1 = 1/(8 sqrt(0.5)) with c2 = c4 = 0 makes the contraction
    # window 0.5 long, so the 16-step grid splits into two windows
    c = 0.3
    coeffs = _coeffs(h=lambda t, y, z: np.full_like(y, c),
                     phi=lambda x: np.zeros((x.shape[0], 1)),
                     c1=1.0 / (8.0 * np.sqrt(0.5)), c2=0.0, m=0.0)
    grid = ff.build_uniform_grid(1.0, 16)
    ens = ff.sample_ensemble(grid, 3000, 1, 12)
    sol = ff.solve_global(coeffs, ens, c4=0.0)
    assert sol.window_bounds == [(0, 8), (8, 16)]
    V, _ = replayed_paths(sol, ens)
    assert np.abs(V[:, :, 0] - c * grid.points[None, :]).max() <= 1e-9


def test_solve_global_linear_driver_vs_pde_oracle():
    # a = 0.25 keeps a 16-step grid contraction-compliant at unit-test scale
    coeffs = ff.get_fixture("linear_driver").build(a=0.25)
    grid = ff.build_uniform_grid(1.0, 16)
    ens = ff.sample_ensemble(grid, 50_000, 1, 13)
    sol = ff.solve_global(coeffs, ens, c4=1.0,
                          basis=ff.polynomial_basis(7, 1))
    oracle = CrankNicolsonOracle(0.25, np.sin, 1.0)
    xs = np.linspace(-1.5, 1.5, 13)
    for k in (4, 8, 12):
        fitted = sol.phi_fits[k].evaluate(xs[:, None])[:, 0]
        assert np.abs(fitted - oracle.at(grid.points[k], xs)).max() <= 0.05


def test_solve_global_non_scalar_system_decouples():
    # n = 2: h = (a y0, c), f = 0, phi = (sin x, 0). Component 0 is the
    # linear_driver system and component 1 is a constant driver
    a, c = 0.5, 0.3
    coeffs = ff.CoefficientSet(
        n=2, d=1, h=lambda t, y, z: np.column_stack([a * y[:, 0], np.full(y.shape[0], c)]),
        f=lambda t, y, z: np.zeros((y.shape[0], 1)),
        phi=lambda x: np.column_stack([np.sin(x[:, 0]), np.zeros(x.shape[0])]),
        c1=a, c2=1.0, m_bound=1.0)
    scalar = ff.get_fixture("linear_driver").build(a=a)
    grid = ff.build_uniform_grid(1.0, 64)
    ens = ff.sample_ensemble(grid, 20_000, 1, 17)
    settings = dict(c4=0.0, basis=ff.polynomial_basis(7, 1))
    sol = ff.solve_global(coeffs, ens, **settings)
    ref = ff.solve_global(scalar, ens, **settings)
    assert np.abs(sol.Y[:, :, 0] - ref.Y[:, :, 0]).max() <= 1e-9
    assert np.abs(sol.Z[:, :, 0] - ref.Z[:, :, 0]).max() <= 1e-9
    assert np.abs(replayed_paths(sol, ens)[0][:, :, 1]
                  - c * grid.points[None, :]).max() <= 1e-9
    assert np.abs(sol.Y[:, :, 1] - c * (1.0 - grid.points[None, :])).max() <= 1e-2
    mc, mc_ref = (ff.build_measure_change(s, ens) for s in (sol, ref))
    assert np.all(mc.weights == 1.0)
    weak, weak_ref = (ff.assemble_weak_solution(m, ens)["weighted_rms"] for m in (mc, mc_ref))
    assert weak == pytest.approx(weak_ref, rel=1e-6)


def test_iterations_to_is_minus_one_when_no_distance_reached_tol():
    report = ff.PicardReport(window=(0.0, 1.0), distances=[0.5, 0.0125], converged=True)
    assert report.iterations_to(0.1) == 2
    assert report.iterations_to(1e-4) == -1


def test_solve_global_rejects_too_coarse_grid():
    coeffs = ff.get_fixture("linear_driver").build()
    grid = ff.build_uniform_grid(1.0, 16)
    ens = ff.sample_ensemble(grid, 2000, 1, 14)
    with pytest.raises(InvalidArgumentError, match="coarser"):
        ff.solve_global(coeffs, ens, c4=1.0)
    # c1 = 3, c2 = c4 = 4, T = 3: ceil(T / ell) = 43200 steps leave the mesh
    # 3.4e-12 above ell, so the suggestion must be a count that passes
    coeffs = _coeffs(h=lambda t, y, z: 3.0 * np.sin(y), phi=lambda x: np.tanh(4.0 * x[:, :1]),
                     c1=3.0, c2=4.0)
    grid = ff.build_uniform_grid(3.0, 8)
    ens = ff.sample_ensemble(grid, 50, 1, 14)
    with pytest.raises(InvalidArgumentError, match="coarser") as err:
        ff.solve_global(coeffs, ens, c4=4.0)
    steps = int(re.search(r"use at least (\d+) steps", str(err.value)).group(1))
    ell = ff.contraction_window_length(3.0, 4.0)
    assert steps <= np.ceil(3.0 / ell) + 1
    assert ff.build_uniform_grid(3.0, steps).mesh <= ell * (1 + 1e-12)


@pytest.mark.parametrize("bad", ["y", "z"])
def test_forward_assembly_rejects_a_non_finite_step(monkeypatch, bad):
    # a fitted surface that returns NaN at one step must stop the assembly
    # there, before the value reaches later steps and y0
    calls = []

    def nan_at_step_5(y_fit, z_fit, states):
        yk, zk = evaluate(y_fit, z_fit, states)
        if len(calls) == 5:
            (yk if bad == "y" else zk)[3] = np.nan
        calls.append(states.shape[0])
        return yk, zk

    evaluate = fde.evaluate_step_maps
    monkeypatch.setattr(fde, "evaluate_step_maps", nan_at_step_5)
    grid = ff.build_uniform_grid(1.0, 8)
    ens = ff.sample_ensemble(grid, 2000, 1, 16)
    with pytest.raises(InvalidStateError, match="step 5"):
        ff.solve_global(_coeffs(), ens)
    assert len(calls) == 6


def test_solve_global_frees_window_solutions_before_assembly(monkeypatch):
    # the forward assembly reads only the fitted maps, so no window's
    # (V, X, Y, Z) may still be alive when it starts
    solutions = []
    window, evaluate = fde.picard_window, fde.evaluate_step_maps

    def recording(*args, **kwargs):
        sol, report = window(*args, **kwargs)
        solutions.append(weakref.ref(sol))
        return sol, report

    def checking(y_fit, z_fit, states):
        assert len(solutions) > 1 and all(ref() is None for ref in solutions)
        return evaluate(y_fit, z_fit, states)

    monkeypatch.setattr(fde, "picard_window", recording)
    monkeypatch.setattr(fde, "evaluate_step_maps", checking)
    coeffs = _coeffs(h=lambda t, y, z: 0.5 * y, phi=lambda x: np.sin(x[:, :1]),
                     c1=0.5, c2=1.0)
    grid = ff.build_uniform_grid(3 * ff.contraction_window_length(0.5, 1.0), 6)
    sol = ff.solve_global(coeffs, ff.sample_ensemble(grid, 2000, 1, 16))
    assert len(sol.window_bounds) == len(solutions)


def test_cn_oracle_matches_analytic_solution():
    # a = 0.5 exactly offsets the heat decay of sin: u(t, x) = sin(x)
    oracle = CrankNicolsonOracle(0.5, np.sin, 1.0)
    xs = np.linspace(-2, 2, 21)
    for t in (0.0, 0.25, 0.5, 0.75):
        assert np.abs(oracle.at(t, xs) - np.sin(xs)).max() <= 2e-3


def test_check_residual_detects_zeroed_z(const_forward_solution):
    coeffs, grid, ens, sol = const_forward_solution
    base = ff.check_fbsde_residual(sol, ens)
    assert base["forward_max"] == 0.0
    # coarse unit-test grid: the sqrt(dt) discretization floor dominates
    assert base["backward_rms"] <= 0.02
    stripped = ff.FdeSolution(
        grid=sol.grid, coeffs=sol.coeffs, Y=sol.Y, Z=np.zeros_like(sol.Z), X_T=sol.X_T,
        phi_fits=sol.phi_fits, z_fits=sol.z_fits, iteration_log=sol.iteration_log,
        residuals={}, window_bounds=sol.window_bounds, seed=sol.seed)
    inflated = ff.check_fbsde_residual(stripped, ens)
    # the replayed X_K is checked against the stored X_T
    stripped.X_T = sol.X_T + 1e-3
    assert ff.check_fbsde_residual(stripped, ens)["forward_max"] > 0.0
    # h ignores z here, so r_new = r_old + Z dB exactly; predict the inflation
    # from the stored arrays
    zdb = np.einsum("pknd,pkd->pkn", sol.Z, ens.increments)
    r_old = np.diff(sol.Y, axis=1) - zdb  # h == 0 for this fixture
    predicted = np.sqrt(np.mean((r_old + zdb) ** 2))
    assert inflated["backward_rms"] == pytest.approx(predicted, rel=1e-9)
    assert inflated["backward_rms"] > 3 * base["backward_rms"]


def test_a_window_solution_is_not_replayed():
    # only a global solution carries its ensemble's seed; a window solution,
    # even one from a shared start on that ensemble's increments, is refused
    coeffs = _coeffs(f=lambda t, y, z: np.full((y.shape[0], 1), 0.5))
    grid = ff.build_uniform_grid(1.0, 8)
    ens = ff.sample_ensemble(grid, 2000, 1, 22)
    sol, _ = ff.picard_window(coeffs, grid, coeffs.eval_phi, 0.0, ens.increments)
    with pytest.raises(InvalidArgumentError, match="not produced on this ensemble"):
        next(ff.replay_forward(sol, ens))
    with pytest.raises(InvalidArgumentError, match="not produced on this ensemble"):
        ff.build_measure_change(sol, ens)


def test_another_start_is_the_shifted_terminal_map(unit_ensemble_1d):
    # X_0 = 0.3 with phi = tanh is the origin with phi = tanh(. + 0.3)
    grid, ens = unit_ensemble_1d
    tanh = ff.get_fixture("tanh_terminal")
    coeffs = _coeffs(phi=lambda x: np.tanh(x[:, :1] + 0.3), c2=1.0)
    sol = ff.solve_global(coeffs, ens, c4=tanh.c4, basis=tanh.basis)
    exact = float(heat_value(np.tanh, 0.0, 0.3, 1.0))
    assert abs(sol.y0_mean[0] - exact) <= 3 * sol.y0_stderr[0]


def test_residual_requires_matching_ensemble(tanh_solution):
    coeffs, grid, ens, sol = tanh_solution
    other = ff.sample_ensemble(grid, ens.num_paths, 1, ens.seed + 1)
    with pytest.raises(InvalidArgumentError):
        ff.check_fbsde_residual(sol, other)


def test_readers_refuse_an_ensemble_of_another_grid_path_count_or_dim(const_forward_solution):
    # each has the solve ensemble's seed; the first also its step count, on a
    # horizon of 4, not 1, and replaying on it gave forward_max 3.4
    coeffs, grid, ens, sol = const_forward_solution
    others = {"16 steps to T = 4": ff.sample_ensemble(
                  ff.build_uniform_grid(4.0, 16), ens.num_paths, 1, ens.seed),
              "4000 paths of dim 1": ff.sample_ensemble(grid, 4000, 1, ens.seed),
              "paths of dim 2": ff.sample_ensemble(grid, ens.num_paths, 2, ens.seed)}
    readers = (lambda e: next(ff.replay_forward(sol, e)),
               lambda e: ff.check_fbsde_residual(sol, e),
               lambda e: ff.build_measure_change(sol, e))
    for named, other in others.items():
        for read in readers:
            with pytest.raises(InvalidArgumentError, match=f"given seed {ens.seed}, .*{named}"):
                read(other)


def test_forward_rows_refuses_a_negative_path_count(const_forward_solution):
    coeffs, grid, ens, sol = const_forward_solution
    with pytest.raises(InvalidArgumentError, match="non-negative, got -1"):
        fde.forward_rows(sol, ens, -1)
    assert fde.forward_rows(sol, ens, 0)[0][1].shape == (0, grid.num_steps + 1, 1)


def test_pathwise_uniqueness_trivial_and_tanh(unit_ensemble_1d):
    grid, ens = unit_ensemble_1d
    report = empirical_pathwise_uniqueness(_coeffs(), ens)
    assert report["max_gap"] <= 1e-9
    coeffs = ff.get_fixture("tanh_terminal").build()
    report = empirical_pathwise_uniqueness(
        coeffs, ens, guesses=(1.0, -1.0), c4=1.0,
        basis=ff.polynomial_basis(7, 1))
    assert report["max_gap"] <= 2e-4


def test_terminal_consistency_invariant(tanh_solution):
    coeffs, grid, ens, sol = tanh_solution
    K = grid.num_steps
    term_rms = np.sqrt(np.mean((sol.Y[:, K] - coeffs.eval_phi(sol.X_T)) ** 2))
    assert term_rms == 0.0
    # Y_k equals fitted conditional minus V_k by construction
    k = K // 2
    refit = sol.phi_fits[k].evaluate(replayed_paths(sol, ens)[1][:, k])
    clip = np.abs(sol.Y[:, k]).max() + 1.0
    assert np.allclose(np.clip(refit, -clip, clip), sol.Y[:, k], atol=1e-9)


def test_solution_export_roundtrip(tmp_path, tanh_solution):
    coeffs, grid, ens, sol = tanh_solution
    csv = tmp_path / "sol.csv"
    side = tmp_path / "sol.json"
    ff.export_solution(sol, fde.forward_rows(sol, ens, 3)[0], csv, side,
                       config_echo={"fixture": "tanh"})
    V, X = replayed_paths(sol, ens)
    lines = csv.read_text().splitlines()
    assert lines[0] == "path,step,t,V0,X0,Y0,Z00"
    assert len(lines) == 1 + 3 * (grid.num_steps + 1)
    K = grid.num_steps
    for line in lines[1:]:
        p, k, *cells = line.split(",")
        p, k = int(p), int(k)
        z = sol.Z[p, k, 0, 0] if k < K else 0.0
        expected = [grid.points[k], V[p, k, 0], X[p, k, 0], sol.Y[p, k, 0], z]
        assert [float(c) for c in cells] == expected
    payload = json.loads(side.read_text())
    assert payload["config"] == {"fixture": "tanh"}
    assert "backward_rms" in payload["residuals"]


def test_summary_counts_the_regression_warnings_of_each_window(tmp_path):
    # a fit box that holds no state makes each fit from t = 0.5 on fall back
    # to all paths, which sets FittedConditional.warning
    coeffs = _coeffs(phi=lambda x: np.tanh(x[:, :1]), c2=1.0)
    grid = ff.build_uniform_grid(1.0, 8)
    ens = ff.sample_ensemble(grid, 2000, 1, 20)
    sol, _ = ff.picard_window(coeffs, grid, coeffs.eval_phi, 0.0, ens.increments,
                              fit_window_fn=lambda t: (-50.0, 50.0) if t < 0.5 else (90.0, 91.0))
    assert [f.warning for f in sol.phi_fits] == [False] * 4 + [True] * 4
    side = tmp_path / "sol.json"
    ff.export_solution(sol, (sol.V[:1], sol.X[:1], sol.Y[:1], sol.Z[:1]), tmp_path / "sol.csv",
                       side, config_echo={})
    assert json.loads(side.read_text())["regression_warning_steps"] == [4]
    # a global solve of two windows places each count in its window
    coeffs = _coeffs(h=lambda t, y, z: np.full_like(y, 0.3),
                     phi=lambda x: np.zeros((x.shape[0], 1)),
                     c1=1.0 / (8.0 * np.sqrt(0.5)), m=0.0)
    grid = ff.build_uniform_grid(1.0, 16)
    ens = ff.sample_ensemble(grid, 2000, 1, 21)
    sol = ff.solve_global(coeffs, ens, c4=0.0)
    assert sol.window_bounds == [(0, 8), (8, 16)]
    for k in (3, 8, 15):
        sol.phi_fits[k].warning = True
    ff.export_solution(sol, fde.forward_rows(sol, ens, 1)[0], tmp_path / "two.csv", side,
                       config_echo={})
    assert json.loads(side.read_text())["regression_warning_steps"] == [1, 2]


def test_solve_rejects_mismatched_ensemble(unit_ensemble_1d):
    _, ens = unit_ensemble_1d
    coeffs2 = ff.CoefficientSet(
        n=1, d=2, h=lambda t, y, z: np.zeros_like(y),
        f=lambda t, y, z: np.zeros((y.shape[0], 2)),
        phi=lambda x: np.ones((x.shape[0], 1)), c1=0.0, c2=0.0, m_bound=1.0)
    with pytest.raises(InvalidArgumentError):
        ff.solve_global(coeffs2, ens)
