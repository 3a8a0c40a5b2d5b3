"""Regression-based conditional expectations and the covariance-identity Z target.

Least-squares Monte Carlo: project per-path payoffs onto global monomials of
a conditioning state, through ``StepRegression``. Fits can be restricted to a
state box (the standard in-region trick from exercise-boundary regressions);
outside the box a fitted surface continues linearly from the boundary, which
keeps far-tail evaluations bounded without distorting the fit region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidArgumentError

RIDGE_FACTOR = 1e-8          # ridge = RIDGE_FACTOR * (largest Gram eigenvalue)
MIN_PATHS_PER_FUNCTION = 10  # required sample-to-basis ratio
_DEGENERATE_SPAN = 1e-12
_DESIGN_BLOCK_ROWS = 8192     # rows per monomial-design block (about 1 MiB, a core cache)


@dataclass(frozen=True)
class RegressionBasis:
    """Global monomials up to total degree p in a state of dimension state_dim."""

    p: int
    state_dim: int

    def __post_init__(self):
        if self.p < 1:
            raise InvalidArgumentError(f"basis size must be >= 1, got {self.p}")
        if self.state_dim < 1:
            raise InvalidArgumentError(f"state_dim must be >= 1, got {self.state_dim}")

    @property
    def n_functions(self) -> int:
        return math.comb(self.p + self.state_dim, self.state_dim)


def polynomial_basis(degree: int, state_dim: int) -> RegressionBasis:
    return RegressionBasis(degree, state_dim)


def monomial_exponents(state_dim: int, degree: int) -> list[tuple[int, ...]]:
    """Total-degree multi-indices: constant first, then degree 1, 2, ..."""
    exps = [(0,) * state_dim]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(state_dim), deg):
            e = [0] * state_dim
            for j in combo:
                e[j] += 1
            exps.append(tuple(e))
    return exps


def _monomial_design(u: np.ndarray, exps) -> np.ndarray:
    """The (P, len(exps)) design of monomials u^e of the (P, d) states u.

    Reads one column of u at a time, so a transposed dimension-major buffer
    is read contiguously. Each product multiplies its factors left to right,
    lower dimensions first, and writes the last one straight into its column.
    Rows go in blocks whose powers and design rows stay in a core's cache.
    """
    maxdeg = max((max(e) for e in exps), default=0)
    A = np.empty((u.shape[0], len(exps)))
    for r in range(0, u.shape[0], _DESIGN_BLOCK_ROWS):
        block = A[r:r + _DESIGN_BLOCK_ROWS]
        pows = [[None, col[r:r + _DESIGN_BLOCK_ROWS]] for col in u.T]
        for col in pows:
            while len(col) <= maxdeg:
                col.append(col[-1] * col[1])
        for i, e in enumerate(exps):
            factors = [pows[j][ej] for j, ej in enumerate(e) if ej]
            if len(factors) < 2:
                block[:, i] = factors[0] if factors else 1.0
                continue
            c = factors[0]
            for f in factors[1:-1]:
                c = c * f
            np.multiply(c, factors[-1], out=block[:, i])
    return A


def as_2d(arr, n: int, name: str) -> np.ndarray:
    """``arr`` as a float (rows, n) array; a 1-D array is one column."""
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2 or out.shape[1] != n:
        raise InvalidArgumentError(f"{name} must have {n} columns, got shape {out.shape}")
    return out


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two float64 arrays have the same shape and the same bits.

    Stricter than ``np.array_equal``, which takes -0.0 for 0.0; a design
    built on either would differ in the sign of its zeros.
    """
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# The reductions below go one column at a time: on the (P, d) states the
# solver passes in, that is several times faster than one call over axis 0,
# and min, max and comparisons are exact either way.

def _column_bounds(states: np.ndarray):
    cols = range(states.shape[1])
    return (np.array([states[:, j].min() for j in cols]),
            np.array([states[:, j].max() for j in cols]))


def _in_box(states: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    inside = np.ones(states.shape[0], dtype=bool)
    for j in range(states.shape[1]):
        col = states[:, j]
        inside &= (col >= lo[j]) & (col <= hi[j])
    return inside


class _PolynomialSurface:
    """Clip box, centre, scale and exponents shared by the fits of one design.

    Inside the box a fit is the standardized monomial design times its
    coefficients; outside, each dimension adds the boundary gradient times
    the distance past the box (linear continuation).
    """

    def __init__(self, exps, center, scale, lo, hi):
        self.exps = exps
        self.center = center
        self.scale = scale
        self.lo = lo
        self.hi = hi
        # per dimension j: the monomials with e_j > 0, their exponent e_j
        # (the derivative's factor) and their exponents with e_j lowered by 1
        self._slopes = []
        for j in range(center.size):
            terms = [(i, e[j], tuple(v - (1 if k == j else 0) for k, v in enumerate(e)))
                     for i, e in enumerate(exps) if e[j] > 0]
            self._slopes.append(([i for i, _, _ in terms],
                                 np.array([f for _, f, _ in terms], float)[:, None],
                                 [r for _, _, r in terms]))

    def design(self, states):
        """Inside design plus a tail ``(j, rows, slope design, overshoot)`` for
        each dimension j with rows past the box; ``rows`` are row indices."""
        # one (often strided) state column at a time into dimension-major
        # buffers: clip it, take the overshoot, standardize the clipped column
        over = np.empty(states.shape[::-1])
        u = np.empty(over.shape)
        for j, col in enumerate(states.T):
            np.clip(col, self.lo[j], self.hi[j], out=u[j])
            np.subtract(col, u[j], out=over[j])
            u[j] -= self.center[j]
            u[j] /= self.scale[j]
        tails = []
        for j in range(u.shape[0]):
            rows = np.flatnonzero(over[j] != 0)   # a bool scan: faster than a float one
            if rows.size:
                tails.append((j, rows, _monomial_design(u[:, rows].T, self._slopes[j][2]),
                              over[j, rows][:, None]))
        return _monomial_design(u.T, self.exps), tails

    def apply(self, design, coef):
        inside, tails = design
        out = inside @ coef
        for j, rows, slope_design, step in tails:
            index, factor, _ = self._slopes[j]
            out[rows] += (slope_design @ (coef[index] * factor)) / self.scale[j] * step
        return out


class _ConstantSurface:
    """The degenerate fit: the (weighted) mean target on every row."""

    def design(self, states):
        return states.shape[0]

    def apply(self, rows, value):
        return np.broadcast_to(value, (rows, value.size)).copy()


@dataclass(frozen=True)
class EvaluationDesign:
    """A surface's design at one set of states.

    Every fit of the StepRegression that made the surface evaluates from it,
    so fits sharing states share one design.
    """

    surface: object
    rows: int
    data: object = field(repr=False)


@dataclass
class FittedConditional:
    """A fitted conditional-mean surface for one time step.

    Holds the coefficients on the monomials of the centred and scaled state
    (or the mean, for a degenerate fit); ``evaluate`` reads it.
    """

    basis: RegressionBasis
    warning: bool = False
    out_shape: tuple | None = None
    _surface: object = field(default=None, repr=False)
    _coef: np.ndarray | None = field(default=None, repr=False)

    def design(self, states: np.ndarray) -> EvaluationDesign:
        """Evaluation design of ``states``; any fit of the same StepRegression
        can evaluate from it."""
        states = as_2d(states, self.basis.state_dim, "states")
        return EvaluationDesign(self._surface, states.shape[0], self._surface.design(states))

    def evaluate_on(self, design: EvaluationDesign) -> np.ndarray:
        """Evaluate at the states ``design`` was built on; bitwise equal to
        ``evaluate`` on those states."""
        if design.surface is not self._surface:
            raise InvalidArgumentError("evaluation design belongs to another regression")
        out = self._surface.apply(design.data, self._coef)
        if self.out_shape is not None:
            return out.reshape((design.rows,) + tuple(self.out_shape))
        return out

    def evaluate(self, states: np.ndarray) -> np.ndarray:
        return self.evaluate_on(self.design(states))


class StepRegression:
    """Shared design for several fits against the same conditioning states.

    Builds the (optionally box-restricted) design matrix and its regularized
    Gram factorization once; ``fit`` then solves per target set. The ridge
    parameter is RIDGE_FACTOR times the largest eigenvalue of the Gram matrix.
    Optional per-path ``weights`` (for instance importance weights) turn the
    fit into weighted least squares: the Gram matrix is (A*w).T @ A, the
    right-hand side (A*w).T @ y, and the degenerate fallback the weighted mean.
    Weights apply to the rows that ``fit_window`` keeps. Fewer than
    MIN_PATHS_PER_FUNCTION paths per basis function are rejected.

    A box that drops rows sets the boolean ``mask`` and gathers states,
    targets and weights by the indices of the kept rows. A box that keeps
    every row leaves ``mask`` None and reads the operands C-contiguous, as a
    gather would give them.

    A regression is valid for as long as its states repeat bitwise: a caller
    whose states did not change keeps it, and with it the design, the Gram
    matrix, the ridge, the eigenvalue check and the in-sample evaluation
    design (``in_sample_design``), instead of building them again. When a
    non-degenerate fit keeps every row, the in-sample design is the fit
    design itself, so a kept regression holds one design.
    """

    def __init__(self, states: np.ndarray, basis: RegressionBasis,
                 fit_window: tuple | None = None, weights: np.ndarray | None = None):
        states = as_2d(states, basis.state_dim, "states")
        n_req = MIN_PATHS_PER_FUNCTION * basis.n_functions
        if states.shape[0] < n_req:
            raise InvalidArgumentError(
                f"need at least {n_req} paths for {basis.n_functions} basis "
                f"functions, got {states.shape[0]}")
        self.basis = basis
        self.states = states
        self.warning = False
        self._in_sample = None
        self.mask = None
        self._rows = None        # indices of the kept rows when the box drops some
        self._boxed = False      # a box holds the fit, so its operands are contiguous
        if fit_window is not None:
            lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (basis.state_dim,))
                      for v in fit_window)
            mask = _in_box(states, lo, hi)
            kept = int(np.count_nonzero(mask))
            if kept < n_req:
                self.warning = True  # window too thin, fall back to all paths
            else:
                self._boxed = True
                if kept < states.shape[0]:
                    self.mask = mask
                    self._rows = np.flatnonzero(mask)
        self.fit_states = sel = self._fit_rows(states)
        self.weights = None
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != (states.shape[0],) or not np.all(np.isfinite(w) & (w >= 0)):
                raise InvalidArgumentError(
                    "weights must be finite, non-negative, one per path")
            self.weights = self._fit_rows(w)
        lo, hi = _column_bounds(sel)
        self.degenerate = bool(np.all(hi - lo < _DEGENERATE_SPAN))
        self._surface = _ConstantSurface()
        if self.degenerate:
            return
        center = sel.mean(axis=0)
        scale = np.maximum(sel.std(axis=0), _DEGENERATE_SPAN)
        exps = monomial_exponents(basis.state_dim, basis.p)
        u = np.empty(sel.shape[::-1])
        for j, col in enumerate(sel.T):
            np.subtract(col, center[j], out=u[j])
            u[j] /= scale[j]
        self._design = _monomial_design(u.T, exps)
        self._surface = _PolynomialSurface(exps, center, scale, lo, hi)
        self._design_w = (self._design if self.weights is None
                          else self._design * self.weights[:, None])
        gram = self._design_w.T @ self._design
        eigs = np.linalg.eigvalsh(gram)
        smax2 = float(eigs[-1])
        if eigs[0] < 1e-12 * smax2:
            self.warning = True
        self._gram_reg = gram + RIDGE_FACTOR * smax2 * np.eye(gram.shape[0])

    def _fit_rows(self, arr: np.ndarray) -> np.ndarray:
        """The rows of a per-path array that the fit reads."""
        if self._rows is not None:
            return np.take(arr, self._rows, axis=0)
        return np.ascontiguousarray(arr) if self._boxed else arr

    def in_sample_design(self) -> EvaluationDesign:
        """Evaluation design of the states this regression was built on.

        Built on first use and kept; every fit of this regression evaluates
        from it, bitwise as ``fit.evaluate(self.states)`` would. A
        non-degenerate fit that keeps every row has its clip box at the min and max of these
        states, so nothing is clipped, no row takes the linear continuation,
        and the fit design is already that design.
        """
        if self._in_sample is None:
            rows = self.states.shape[0]
            if not self.degenerate and self.fit_states.shape[0] == rows:
                data = (self._design, [])
            else:
                data = self._surface.design(self.states)
            self._in_sample = EvaluationDesign(self._surface, rows, data)
        return self._in_sample

    def fit(self, targets: np.ndarray, out_shape: tuple | None = None) -> FittedConditional:
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 1:
            targets = targets[:, None]
        if targets.shape[0] != self.states.shape[0]:
            raise InvalidArgumentError("state and target path counts differ")
        tsel = self._fit_rows(targets)
        if self.degenerate:
            coef = (tsel.mean(axis=0) if self.weights is None
                    else np.average(tsel, axis=0, weights=self.weights))
        else:
            coef = np.linalg.solve(self._gram_reg, self._design_w.T @ tsel)
        return FittedConditional(self.basis, warning=self.warning, out_shape=out_shape,
                                 _surface=self._surface, _coef=coef)


def density_target(dM: np.ndarray, dB: np.ndarray, dt: float) -> np.ndarray:
    """Per-path regression target of Z over one step: dM dB^T / dt, flattened.

    dM: (P, n) martingale increments, dB: (P, d) Brownian increments. By the
    covariance identity, E[dM dB^T | F_k] / dt estimates the martingale
    representation integrand Z_k; fit it with ``out_shape=(n, d)``.
    """
    P, n = dM.shape
    return (dM[:, :, None] * dB[:, None, :] / dt).reshape(P, n * dB.shape[1])
