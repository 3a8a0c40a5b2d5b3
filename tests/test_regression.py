import math
from dataclasses import dataclass

import numpy as np
import pytest

import fdeflow as ff
from fdeflow.errors import InvalidArgumentError
from fdeflow.regression import (RIDGE_FACTOR, StepRegression, bitwise_equal, density_target,
                                monomial_exponents)

RNG = np.random.default_rng(42)

# exact lattice value of E[max(B_1, 0)] at depth 10, frozen from enumeration
TREE_HALF_NORMAL_10 = 0.38910838396603104
HALF_NORMAL_MEAN = 0.3989422804014327


def _fit(states, target, basis, **kwargs):
    return StepRegression(states, basis).fit(target, **kwargs)


def _rms(a, b):
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def _brownian(paths, t_points, seed=0):
    rng = np.random.default_rng(seed)
    dt = np.diff(t_points)
    inc = rng.standard_normal((paths, dt.size)) * np.sqrt(dt)
    out = np.zeros((paths, t_points.size))
    out[:, 1:] = np.cumsum(inc, axis=1)
    return out


# An exact lattice oracle for the regressions at desk scale: conditional
# expectations by backward induction over every outcome of a binomial walk.

MAX_TREE_DEPTH = 20


@dataclass
class TreeOracle:
    """Recombining +-sqrt(dt) lattice: exact, enumerable stand-in for a Brownian motion.

    Increments are Rademacher with magnitude sqrt(dt) per dimension, matching
    Brownian mean and variance exactly at every step.
    """

    depth: int
    dt: float
    dim: int = 1
    x0: float = 0.0

    def __post_init__(self):
        if not (0 < self.depth <= MAX_TREE_DEPTH):
            raise InvalidArgumentError(
                f"depth must be in [1, {MAX_TREE_DEPTH}], got {self.depth}")
        if not (self.dt > 0):
            raise InvalidArgumentError(f"dt must be positive, got {self.dt}")
        if self.dim < 1:
            raise InvalidArgumentError(f"dim must be >= 1, got {self.dim}")

    def level_states(self, level: int) -> np.ndarray:
        """States at a level, shape (level+1,)*dim + (dim,)."""
        step = math.sqrt(self.dt)
        axis = self.x0 + step * (2.0 * np.arange(level + 1) - level)
        grids = np.meshgrid(*([axis] * self.dim), indexing="ij")
        return np.stack(grids, axis=-1)


def oracle_conditional(tree: TreeOracle, payoff, step_index: int) -> np.ndarray:
    """Exact conditional expectation of payoff(X_T) at every level-k node.

    Backward induction over the full outcome set; children in each dimension
    are equally likely. payoff maps (N, dim) states to (N,) or (N, m) values.
    """
    if not (0 <= step_index <= tree.depth):
        raise InvalidArgumentError(f"step_index out of range: {step_index}")
    states = tree.level_states(tree.depth)
    flat = states.reshape(-1, tree.dim)
    vals = np.asarray(payoff(flat), dtype=float)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    vals = vals.reshape(states.shape[:-1] + (vals.shape[-1],))
    for level in range(tree.depth - 1, step_index - 1, -1):
        nxt = vals
        shape = (level + 1,) * tree.dim + (nxt.shape[-1],)
        vals = np.zeros(shape)
        # average the 2^dim children: index i_j -> {i_j, i_j + 1}
        for combo in np.ndindex(*([2] * tree.dim)):
            sl = tuple(slice(c, c + level + 1) for c in combo)
            vals += nxt[sl]
        vals /= 2 ** tree.dim
    return vals[..., 0] if squeeze else vals


def test_constant_target_fit_is_exact():
    x = RNG.standard_normal(2000)
    fit = _fit(x, np.full(2000, 3.25), ff.polynomial_basis(3, 1))
    # the always-on ridge leaves a machine-level shrinkage, nothing more
    assert _rms(fit.evaluate(x), 3.25) == pytest.approx(0.0, abs=1e-5)
    assert np.allclose(fit.evaluate(np.linspace(-2, 2, 9)), 3.25, atol=1e-5)


def test_brownian_projection_recovers_identity():
    # E[B_T | B_t] = B_t
    b = _brownian(100_000, np.array([0.0, 0.5, 1.0]), seed=1)
    fit = _fit(b[:, 1], b[:, 2], ff.polynomial_basis(2, 1))
    # coefficients within 0.02 of (0, 1, 0) put the fit within 0.02 (1 + |x| + x^2)
    probes = np.linspace(-2, 2, 41)
    assert np.all(np.abs(fit.evaluate(probes)[:, 0] - probes)
                  <= 0.02 * (1 + np.abs(probes) + probes ** 2))


def test_brownian_square_projection_matches_tree_oracle():
    # E[B_T^2 | F_t] = B_t^2 + (T - t) at t = 0.5, T = 1
    b = _brownian(100_000, np.array([0.0, 0.5, 1.0]), seed=2)
    fit = _fit(b[:, 1], b[:, 2] ** 2, ff.polynomial_basis(2, 1))
    # constant within 0.05 of 0.5 and quadratic term within 0.05 of 1
    probes = np.linspace(-2, 2, 41)
    assert np.all(np.abs(fit.evaluate(probes)[:, 0] - (probes ** 2 + 0.5))
                  <= 0.05 * (1 + probes ** 2) + 0.05 * np.abs(probes))
    # tree states are exact conditional states for the remaining half interval
    tree = TreeOracle(depth=10, dt=0.05)
    vals = oracle_conditional(tree, lambda x: x[:, 0] ** 2, 0)
    assert vals == pytest.approx(0.5)  # root: E[B_{0.5}^2] over the lattice half
    states = tree.level_states(10).reshape(-1, 1)
    exact = states[:, 0] ** 2 + 0.5
    mid = np.abs(states[:, 0]) <= 1.5
    fitted = fit.evaluate(states)[:, 0]
    assert np.abs(fitted[mid] - exact[mid]).max() <= 0.1


def test_extract_density_brownian_is_one():
    t = np.array([0.0, 0.4, 0.8])
    b = _brownian(100_000, t, seed=3)
    dM = b[:, 2:3] - b[:, 1:2]
    fit = _fit(b[:, 1], density_target(dM, dM, 0.4), ff.polynomial_basis(2, 1),
               out_shape=(1, 1))
    z = fit.evaluate(np.linspace(-1.5, 1.5, 7))
    assert z.shape == (7, 1, 1)
    assert np.abs(z - 1.0).max() <= 0.05


def test_extract_density_square_martingale_slope():
    # M_t = B_t^2 - t has representation Z_t = 2 B_t
    t = np.array([0.0, 0.5, 0.6])
    b = _brownian(100_000, t, seed=4)
    m = b ** 2 - t[None, :]
    target = density_target(m[:, 2:3] - m[:, 1:2], b[:, 2:3] - b[:, 1:2], 0.1)
    fit = _fit(b[:, 1], target, ff.polynomial_basis(2, 1), out_shape=(1, 1))
    # the fitted slope, a central difference of the quadratic fit, is exact
    z = fit.evaluate(np.array([-1.0, 1.0]))[:, 0, 0]
    assert abs((z[1] - z[0]) / 2 - 2.0) <= 0.1
    # slope agrees with a regression on exact lattice values of the integrand
    states = np.linspace(-1.5, 1.5, 13)[:, None]
    assert np.abs(fit.evaluate(states)[:, 0, 0] - 2 * states[:, 0]).max() <= 0.1


def test_extract_density_constant_martingale_is_zero():
    t = np.array([0.0, 0.5, 1.0])
    b = _brownian(50_000, t, seed=5)
    dM = np.zeros((50_000, 1))
    fit = _fit(b[:, 1], density_target(dM, b[:, 2:3] - b[:, 1:2], 0.5),
               ff.polynomial_basis(2, 1), out_shape=(1, 1))
    assert np.abs(fit.evaluate(np.linspace(-2, 2, 21))).max() <= 0.05


def test_density_target_is_the_outer_product_over_dt():
    rng = np.random.default_rng(12)
    dM = rng.standard_normal((300, 1))
    dB = rng.standard_normal((300, 2))
    expected = (dM[:, :, None] * dB[:, None, :] / 0.1).reshape(300, 2)
    assert np.array_equal(density_target(dM, dB, 0.1), expected)


def test_fit_requires_enough_paths():
    basis = ff.polynomial_basis(3, 1)
    x = RNG.standard_normal(basis.n_functions * 10 - 1)
    with pytest.raises(InvalidArgumentError):
        StepRegression(x, basis)
    StepRegression(np.append(x, 0.5), basis)   # exactly 10 paths per function
    with pytest.raises(InvalidArgumentError):
        StepRegression(x[:20], ff.polynomial_basis(1, 1)).fit(x[:19])


def test_rank_deficient_design_sets_warning():
    x = RNG.standard_normal(5000)
    states = np.column_stack([x, x])  # collinear second dimension
    fit = _fit(states, x, ff.polynomial_basis(2, 2))
    assert fit.warning
    assert np.isfinite(fit.evaluate(states[:10])).all()


def test_degenerate_states_fall_back_to_plain_average():
    states = np.zeros(1000)
    target = RNG.standard_normal(1000)
    fit = _fit(states, target, ff.polynomial_basis(3, 1))
    assert np.allclose(fit.evaluate(np.array([0.0, 1.0])), target.mean())


def test_linearity_is_exact_coefficientwise():
    x = RNG.standard_normal(5000)
    t1 = np.sin(x) + 0.1 * RNG.standard_normal(5000)
    t2 = x ** 2 + 0.1 * RNG.standard_normal(5000)
    basis = ff.polynomial_basis(3, 1)
    a, b = 2.0, -0.7
    f1 = _fit(x, t1, basis)
    f2 = _fit(x, t2, basis)
    f12 = _fit(x, a * t1 + b * t2, basis)
    probes = np.linspace(-2, 2, 21)
    assert np.allclose(f12.evaluate(probes),
                       a * f1.evaluate(probes) + b * f2.evaluate(probes),
                       rtol=1e-8, atol=1e-10)


def test_tower_property_within_residual_budget():
    t = np.array([0.0, 0.3, 0.7, 1.0])
    b = _brownian(50_000, t, seed=6)
    xi = np.tanh(b[:, 3])
    basis = ff.polynomial_basis(5, 1)
    late = _fit(b[:, 2], xi, basis)
    early_direct = _fit(b[:, 1], xi, basis)
    early_tower = _fit(b[:, 1], late.evaluate(b[:, 2])[:, 0], basis)
    diff = _rms(early_tower.evaluate(b[:, 1]), early_direct.evaluate(b[:, 1]))
    residuals = (_rms(late.evaluate(b[:, 2])[:, 0], xi)
                 + _rms(early_direct.evaluate(b[:, 1])[:, 0], xi))
    assert diff <= 2 * residuals


def test_boxed_polynomial_fit_extrapolates_linearly():
    x = RNG.standard_normal(50_000)
    sr = StepRegression(x, ff.polynomial_basis(7, 1), fit_window=(-2.5, 2.5))
    fit = sr.fit(np.tanh(x) + 0.05 * RNG.standard_normal(x.size))
    probes = np.linspace(-1.8, 1.8, 25)
    assert np.abs(fit.evaluate(probes)[:, 0] - np.tanh(probes)).max() <= 0.02
    # past the box the surface continues along its tangent at the boundary
    far = fit.evaluate(np.array([6.0, 7.0, 8.0]))[:, 0]
    assert np.allclose(np.diff(far, 2), 0.0, atol=1e-9)


def test_tree_oracle_basics():
    tree = TreeOracle(depth=2, dt=0.5)
    ones = oracle_conditional(tree, lambda x: np.ones(x.shape[0]), 0)
    assert ones == pytest.approx(1.0)
    mart = oracle_conditional(tree, lambda x: x[:, 0], 1)
    assert np.allclose(mart, tree.level_states(1)[:, 0])


def test_tree_oracle_half_normal_value():
    tree = TreeOracle(depth=10, dt=0.1)
    root = float(oracle_conditional(tree, lambda x: np.maximum(x[:, 0], 0.0), 0).item())
    assert root == pytest.approx(TREE_HALF_NORMAL_10, abs=1e-12)
    assert abs(root - HALF_NORMAL_MEAN) <= 0.05


def test_tree_oracle_two_dimensional():
    tree = TreeOracle(depth=4, dt=0.25, dim=2)
    vals = oracle_conditional(tree, lambda x: x[:, 0] + x[:, 1], 2)
    states = tree.level_states(2)
    assert np.allclose(vals, states[..., 0] + states[..., 1])


def test_tree_depth_cap():
    with pytest.raises(InvalidArgumentError):
        TreeOracle(depth=21, dt=0.01)
    tree = TreeOracle(depth=3, dt=0.1)
    with pytest.raises(InvalidArgumentError):
        oracle_conditional(tree, lambda x: x[:, 0], 4)


def test_regression_converges_to_tree_values_with_paths():
    # deviation from exact lattice conditionals shrinks like 1/sqrt(paths)
    tree = TreeOracle(depth=10, dt=0.1)
    exact_fn = lambda s: oracle_conditional(tree, lambda x: np.tanh(x[:, 0]), 5)
    states5 = tree.level_states(5).reshape(-1)
    exact = exact_fn(None)
    t = np.array([0.0, 0.5, 1.0])
    devs = {}
    for paths in (10_000, 100_000):
        b = _brownian(paths, t, seed=11)
        fit = _fit(b[:, 1], np.tanh(b[:, 2]), ff.polynomial_basis(5, 1))
        mid = np.abs(states5) <= 1.0
        devs[paths] = np.sqrt(np.mean(
            (fit.evaluate(states5[mid, None])[:, 0] - exact[mid]) ** 2))
    assert devs[100_000] <= 3 * devs[10_000] / np.sqrt(10) + 5e-3


def test_step_regression_shares_design_across_targets():
    x = RNG.standard_normal(4000)
    sr = StepRegression(x[:, None], ff.polynomial_basis(3, 1))
    f1 = sr.fit(np.sin(x)[:, None])
    f2 = sr.fit(np.cos(x)[:, None])
    probes = np.linspace(-1, 1, 5)[:, None]
    direct1 = _fit(x, np.sin(x), ff.polynomial_basis(3, 1))
    assert np.allclose(f1.evaluate(probes), direct1.evaluate(probes), rtol=1e-12)
    assert not np.allclose(f1.evaluate(probes), f2.evaluate(probes))


def test_unit_weights_match_unweighted_fit():
    x = RNG.standard_normal(4000)
    y = np.sin(x)[:, None]
    basis = ff.polynomial_basis(4, 1)
    plain = StepRegression(x, basis).fit(y)
    unit = StepRegression(x, basis, weights=np.ones(x.size)).fit(y)
    probes = np.linspace(-2, 2, 9)
    # numpy computes A.T @ A by a symmetric rank-k update and (A*w).T @ A by
    # a general product, so the two Gram matrices agree only up to rounding
    assert np.allclose(unit.evaluate(probes), plain.evaluate(probes), rtol=1e-10, atol=0)


def test_integer_weights_match_duplicated_rows():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3000, 2))
    y = np.column_stack([np.tanh(x[:, 0]) * x[:, 1], x[:, 0] ** 2])
    w = rng.integers(1, 4, x.shape[0])
    basis = ff.polynomial_basis(2, 2)
    box = ((-2.0, -2.0), (2.0, 2.0))
    weighted = StepRegression(x, basis, fit_window=box, weights=w).fit(y)
    dup = StepRegression(np.repeat(x, w, axis=0), basis, fit_window=box).fit(
        np.repeat(y, w, axis=0))
    probes = rng.uniform(-1.5, 1.5, (25, 2))
    # the designs are standardized on different rows, so only rounding and
    # the 1e-8 ridge separate the two fits
    assert np.allclose(weighted.evaluate(probes), dup.evaluate(probes), rtol=0, atol=1e-7)


def test_degenerate_weighted_fit_is_weighted_mean():
    target = RNG.standard_normal((1000, 2))
    w = RNG.uniform(0.0, 3.0, 1000)
    fit = StepRegression(np.zeros(1000), ff.polynomial_basis(3, 1), weights=w).fit(target)
    expected = np.average(target, axis=0, weights=w)
    assert np.allclose(fit.evaluate(np.array([0.0, 1.0])), expected, rtol=1e-14)


def test_weights_must_be_finite_non_negative_per_path():
    x = RNG.standard_normal(500)
    basis = ff.polynomial_basis(2, 1)
    for bad in (np.ones(499), np.full(500, -1.0), np.full(500, np.nan)):
        with pytest.raises(InvalidArgumentError):
            StepRegression(x, basis, weights=bad)


def _monomials(u, exps):
    # the columns u^e in the order of exps: each power by repeated
    # multiplication, then the powers multiplied left to right over dimensions
    cols = []
    for e in exps:
        col = np.ones(u.shape[0])
        for j, ej in enumerate(e):
            if ej:
                power = u[:, j]
                for _ in range(ej - 1):
                    power = power * u[:, j]
                col = col * power
        cols.append(col)
    return np.column_stack(cols)


def _reference_polynomial(fit, states):
    # the surface arithmetic written out whole-array: clip to the fit box,
    # standardized design times coefficients, then per dimension the
    # boundary gradient times the distance past the box
    s = fit._surface
    clipped = np.clip(states, s.lo, s.hi)
    out = _monomials((clipped - s.center) / s.scale, s.exps) @ fit._coef
    over = states - clipped
    for j in range(states.shape[1]):
        mask = over[:, j] != 0.0
        if not mask.any():
            continue
        terms = [(i, e[j], tuple(v - (1 if k == j else 0) for k, v in enumerate(e)))
                 for i, e in enumerate(s.exps) if e[j] > 0]
        A = _monomials((clipped[mask] - s.center) / s.scale, [r for _, _, r in terms])
        C = fit._coef[[i for i, _, _ in terms]] * np.array([f for _, f, _ in terms], float)[:, None]
        out[mask] += (A @ C) / s.scale[j] * over[mask, j:j + 1]
    return out


def _sharing_case(name):
    rng = np.random.default_rng(31)
    if name == "poly_1d_deg7":
        x = rng.standard_normal((6000, 1))
        return x, ff.polynomial_basis(7, 1), (-1.5, 1.5), np.array([[-4.0], [0.1], [5.0]])
    if name == "poly_2d_deg3":
        x = rng.standard_normal((6000, 2))
        return (x, ff.polynomial_basis(3, 2), ((-1.2, -2.0), (1.6, 1.0)),
                np.array([[-3.0, 0.0], [0.2, 4.0], [5.0, -5.0], [0.1, 0.1]]))
    x = np.full((6000, 1), 0.25)   # degenerate: every state equal
    return x, ff.polynomial_basis(3, 1), None, np.array([[-1.0], [0.25], [3.0]])


@pytest.mark.parametrize("name", ["poly_1d_deg7", "poly_2d_deg3", "degenerate"])
def test_shared_and_in_sample_designs_match_evaluate_bitwise(name):
    states, basis, box, far = _sharing_case(name)
    rng = np.random.default_rng(5)
    sr = StepRegression(states, basis, fit_window=box)
    y_fit = sr.fit(np.sin(states.sum(axis=1)) + 0.1 * rng.standard_normal(states.shape[0]))
    z_fit = sr.fit(rng.standard_normal((states.shape[0], 2)), out_shape=(1, 2))
    probes = np.concatenate([states[:50], far])
    if box is not None:
        # rows the fit box dropped, and probes past it, take the linear continuation
        assert sr.mask is not None and not sr.mask.all()
        lo, hi = (np.broadcast_to(v, (basis.state_dim,)) for v in box)
        assert np.array_equal(sr.mask, np.all((states >= lo) & (states <= hi), axis=1))
    in_sample = sr.in_sample_design()
    assert sr.in_sample_design() is in_sample
    shared = y_fit.design(probes)
    for fit in (y_fit, z_fit):
        assert np.array_equal(fit.evaluate_on(in_sample), fit.evaluate(states))
        assert np.array_equal(fit.evaluate_on(shared), fit.evaluate(probes))
        if not sr.degenerate:
            assert np.array_equal(fit._surface.lo, sr.fit_states.min(axis=0))
            assert np.array_equal(fit._surface.hi, sr.fit_states.max(axis=0))
            flat = fit.evaluate(probes).reshape(probes.shape[0], -1)
            assert np.array_equal(flat, _reference_polynomial(fit, probes))
    other = StepRegression(states, basis, fit_window=box).fit(states[:, :1])
    with pytest.raises(InvalidArgumentError):
        other.evaluate_on(shared)


def test_bitwise_equal_compares_bits():
    x = RNG.standard_normal((500, 1))
    x[0] = 0.0
    assert bitwise_equal(x, x.copy()) and bitwise_equal(x[:, 0], x[:, 0].copy())
    flipped = x.copy()
    flipped[0] = -0.0   # equal as a number, not as bits
    assert not bitwise_equal(x, flipped)
    assert not bitwise_equal(x, x[:499]) and not bitwise_equal(x, x[:, 0])


@pytest.mark.parametrize("name", ["poly_1d_deg7", "poly_2d_deg3"])
def test_strided_states_design_as_their_contiguous_copy(name):
    # the solver hands in (P, K+1, d)[:, k] views; their designs and values
    # must not depend on the layout. 20,000 rows span several row blocks.
    states, basis, box, far = _sharing_case(name)
    paths = np.random.default_rng(8).normal(0.0, 1.5, (20_000, 6, basis.state_dim))
    paths[:far.shape[0], 4] = far
    view = paths[:, 4]
    copy = np.ascontiguousarray(view)
    assert not view.flags.c_contiguous
    assert bitwise_equal(StepRegression(view, basis)._design,
                         StepRegression(copy, basis)._design)
    fit = StepRegression(states, basis, fit_window=box).fit(np.sin(states.sum(axis=1)))
    (inside, tails), (inside_copy, tails_copy) = fit.design(view).data, fit.design(copy).data
    assert bitwise_equal(inside, inside_copy)
    # rows past the box in every dimension
    assert len(tails) == len(tails_copy) == basis.state_dim
    for (j, rows, slope, step), (j2, rows2, slope2, step2) in zip(tails, tails_copy):
        assert j == j2 and np.array_equal(rows, rows2)
        assert bitwise_equal(slope, slope2) and bitwise_equal(step, step2)
    assert bitwise_equal(fit.evaluate(view), fit.evaluate(copy))
    assert bitwise_equal(fit.evaluate(view), _reference_polynomial(fit, copy))


@pytest.mark.parametrize("box", ["none", "every_state"])
def test_in_sample_design_is_the_fit_design_when_the_fit_keeps_every_row(box):
    rng = np.random.default_rng(9)
    states = rng.standard_normal((4000, 3, 2))[:, 1]
    # a box whose edges are the extreme states still holds every row
    window = None if box == "none" else (states.min(axis=0), states.max(axis=0))
    sr = StepRegression(states, ff.polynomial_basis(3, 2), fit_window=window)
    assert sr.fit_states.shape == states.shape
    design = sr.in_sample_design()
    assert design.data[0] is sr._design and design.data[1] == []
    y_fit = sr.fit(np.sin(states.sum(axis=1)))
    z_fit = sr.fit(rng.standard_normal((states.shape[0], 2)), out_shape=(1, 2))
    for fit in (y_fit, z_fit):
        assert bitwise_equal(fit.evaluate_on(design), fit.evaluate(states))


def _fit_through_mask(states, basis, mask, targets):
    # a polynomial fit on the rows of a boolean mask, written out: gather
    # states and targets through the mask, standardize, build the monomials,
    # then the ridge-regularized normal equations
    sel = states[mask]
    center = sel.mean(axis=0)
    scale = np.maximum(sel.std(axis=0), 1e-12)
    A = _monomials((sel - center) / scale, monomial_exponents(basis.state_dim, basis.p))
    gram = A.T @ A
    ridge = RIDGE_FACTOR * float(np.linalg.eigvalsh(gram)[-1])
    coefs = [np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), A.T @ t[mask])
             for t in targets]
    return sel, A, coefs


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_box_that_keeps_every_row_fits_as_a_gather_through_an_all_true_mask(layout):
    rng = np.random.default_rng(12)
    paths = rng.standard_normal((5000, 4, 2))
    noise = rng.standard_normal((5000, 4, 3))
    if layout == "strided":
        states, y, z = paths[:, 2], noise[:, 2, :1], noise[:, 2, 1:]
        assert not (states.flags.c_contiguous or y.flags.c_contiguous or z.flags.c_contiguous)
    else:
        states, y, z = (np.ascontiguousarray(a) for a in (paths[:, 2], noise[:, 2, :1],
                                                           noise[:, 2, 1:]))
    basis = ff.polynomial_basis(3, 2)
    sr = StepRegression(states, basis, fit_window=(-10.0, 10.0))
    assert sr.mask is None and not sr.warning
    sel, A, (y_coef, z_coef) = _fit_through_mask(states, basis, np.ones(5000, bool), (y, z))
    assert bitwise_equal(sr.fit_states, sel) and sr.fit_states.flags.c_contiguous
    design = sr.in_sample_design()
    for fit, coef in ((sr.fit(y), y_coef), (sr.fit(z, out_shape=(1, 2)), z_coef)):
        assert bitwise_equal(fit._coef, coef)
        assert bitwise_equal(fit.evaluate_on(design).reshape(5000, -1), A @ coef)


def test_box_that_drops_rows_gathers_by_index_as_through_the_mask():
    rng = np.random.default_rng(13)
    states = rng.standard_normal((5000, 2))
    targets = (rng.standard_normal((5000, 1)), rng.standard_normal((5000, 2)))
    basis = ff.polynomial_basis(3, 2)
    sr = StepRegression(states, basis, fit_window=((-1.5, -2.0), (2.0, 1.2)))
    assert sr.mask is not None and 0 < np.count_nonzero(~sr.mask)
    sel, _, coefs = _fit_through_mask(states, basis, sr.mask, targets)
    assert bitwise_equal(sr.fit_states, sel) and sr.fit_states.flags.c_contiguous
    for target, coef in zip(targets, coefs):
        assert bitwise_equal(sr.fit(target)._coef, coef)


def test_design_tails_carry_the_indices_of_rows_past_the_box():
    states, basis, box, far = _sharing_case("poly_2d_deg3")
    fit = StepRegression(states, basis, fit_window=box).fit(np.sin(states.sum(axis=1)))
    probes = np.concatenate([states, far])
    s = fit._surface
    tails = fit.design(probes).data[1]
    assert [j for j, *_ in tails] == [0, 1]
    for j, rows, _, step in tails:
        over = probes[:, j] - np.clip(probes[:, j], s.lo[j], s.hi[j])
        assert rows.dtype.kind == "i" and np.array_equal(rows, np.flatnonzero(over))
        assert bitwise_equal(step[:, 0], over[rows])


def test_design_tails_hold_the_rows_just_past_the_box_and_none_on_its_edge():
    states, basis, box, _ = _sharing_case("poly_2d_deg3")
    fit = StepRegression(states, basis, fit_window=box).fit(np.sin(states.sum(axis=1)))
    s = fit._surface
    mid = 0.5 * (s.lo + s.hi)
    probes, past = [], {0: [], 1: []}
    for j in range(2):
        for value, outside in ((s.lo[j], False), (s.hi[j], False),
                               (np.nextafter(s.lo[j], -np.inf), True),
                               (np.nextafter(s.hi[j], np.inf), True), (mid[j], False)):
            row = mid.copy()
            row[j] = value
            if outside:
                past[j].append(len(probes))
            probes.append(row)
    probes = np.array(probes)
    tails = fit.design(probes).data[1]
    assert {j: rows.tolist() for j, rows, _, _ in tails} == past
    for j, rows, _, step in tails:
        assert np.all(step[:, 0] != 0.0) and np.all(np.abs(step[:, 0]) < 1e-12)
    # a state on the edge reads the box's own surface: no tail, the clip changes nothing
    on_edge = [i for i in range(len(probes)) if all(i not in r for r in past.values())]
    inside = fit.evaluate(np.clip(probes[on_edge], s.lo, s.hi))
    assert bitwise_equal(fit.evaluate(probes[on_edge]), inside)
