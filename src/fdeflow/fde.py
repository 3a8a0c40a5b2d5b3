"""Coupled forward-backward solver via the functional reformulation.

The forward-backward system

    dX = f(t, Y, Z) dt + dB,   X_0 = x
    dY = -h(t, Y, Z) dt + Z dB,   Y_T = phi(X_T)

is recast as a fixed-point problem for the pair (V, X), where V is the
finite-variation part of Y and

    Y_t = E[phi(X_T) + V_T | F_t] - V_t,
    int Z dB = phi(X_T) + V_T - E[phi(X_T) + V_T | F_tau].

On a window short enough that sqrt(length) <= 1/(8*C1*(1+C2)) the map is a
contraction and plain Picard iteration converges. The global solve sweeps
windows backward to learn the per-step value maps, then assembles the whole
solution in a single forward pass: V is glued by a running offset, X restarts
each window at the previous terminal state, and (Y, Z) are read off the
fitted maps windowwise.

Conditional expectations are least-squares Monte Carlo fits against the
forward state; the path-dependent part of the target is removed exactly by
subtracting the known running V before fitting, so conditioning on X alone is
valid in the Markovian setting. Z comes from the covariance identity
E[dM * dB | F_k] / dt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError, PicardDivergedError
from .grid import (WINDOW_RTOL, BrownianEnsemble, TimeGrid, contraction_window_length,
                   segment_windows, uniform_steps_within)
from .regression import (RegressionBasis, StepRegression, bitwise_equal, density_target,
                         polynomial_basis)

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 50
DEFAULT_POLISH = 1e-2   # keep iterating until dist <= tol * polish (cheap, sharpens uniqueness)
_DIVERGENCE_CAP = 1e8

_VALIDATION_SAMPLES = 96
_VALIDATION_SEED = 0x5EED


def _as_2d(arr, n, name):
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2 or out.shape[1] != n:
        raise InvalidArgumentError(f"{name} must have {n} columns, got shape {out.shape}")
    return out


def _require_finite(name, *outputs):
    if not all(np.all(np.isfinite(out)) for out in outputs):
        raise InvalidArgumentError(f"{name} returned non-finite values on spot-check inputs")


@dataclass
class CoefficientSet:
    """Driver, drift, and terminal data with their declared constants.

    h(t, y, z) -> (P, n), f(t, y, z) -> (P, d), phi(x) -> (P, n) with
    y: (P, n), z: (P, n, d), x: (P, d), all vectorized over paths.
    Lipschitz constants and the terminal bound are spot-checked on random
    input pairs at construction; violations and non-finite outputs are
    rejected.
    """

    n: int
    d: int
    h: callable
    f: callable
    phi: callable
    c1: float
    c2: float
    m_bound: float

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise InvalidArgumentError("dimensions must be >= 1")
        if self.c1 < 0 or self.c2 < 0 or self.m_bound < 0:
            raise InvalidArgumentError("constants must be non-negative")
        self._spot_check()

    def eval_h(self, t, y, z):
        return _as_2d(self.h(t, y, z), self.n, "h output")

    def eval_f(self, t, y, z):
        return _as_2d(self.f(t, y, z), self.d, "f output")

    def eval_phi(self, x):
        return _as_2d(self.phi(x), self.n, "phi output")

    def _spot_check(self):
        rng = np.random.Generator(np.random.Philox(key=_VALIDATION_SEED))
        m = _VALIDATION_SAMPLES
        slack = 1e-9
        y, y2 = rng.normal(0, 2, (2, m, self.n))
        z, z2 = rng.normal(0, 2, (2, m, self.n, self.d))
        x, x2 = rng.normal(0, 2, (2, m, self.d))
        dyz = (np.linalg.norm(y - y2, axis=1)
               + np.linalg.norm((z - z2).reshape(m, -1), axis=1))
        for t in (0.0, 0.37, 1.0):
            h1, h2 = self.eval_h(t, y, z), self.eval_h(t, y2, z2)
            _require_finite("h", h1, h2)
            dh = np.linalg.norm(h1 - h2, axis=1)
            if np.any(dh > self.c1 * dyz * (1 + slack) + slack):
                raise InvalidArgumentError(
                    f"h violates the declared Lipschitz constant c1={self.c1}")
            f1, f2 = self.eval_f(t, y, z), self.eval_f(t, y2, z2)
            _require_finite("f", f1, f2)
            df = np.linalg.norm(f1 - f2, axis=1)
            if np.any(df > self.c1 * dyz * (1 + slack) + slack):
                raise InvalidArgumentError(
                    f"f violates the declared Lipschitz constant c1={self.c1}")
        phix, phix2 = self.eval_phi(x), self.eval_phi(x2)
        _require_finite("phi", phix, phix2)
        dphi = np.linalg.norm(phix - phix2, axis=1)
        if np.any(dphi > self.c2 * np.linalg.norm(x - x2, axis=1) * (1 + slack) + slack):
            raise InvalidArgumentError(
                f"phi violates the declared Lipschitz constant c2={self.c2}")
        if np.any(np.linalg.norm(phix, axis=1) > self.m_bound * (1 + slack) + 1e-12):
            raise InvalidArgumentError(
                f"phi violates the declared bound m_bound={self.m_bound}")


@dataclass
class PicardReport:
    """Successive-iterate record for one window."""

    window: tuple
    iterations: int
    distances: list
    converged: bool
    empirical_factor: float = 0.0

    def to_json(self) -> dict:
        """The report as written to the summary and divergence JSON files."""
        return {"window": list(self.window), "iterations": self.iterations,
                "distances": [float(v) for v in self.distances],
                "converged": self.converged,
                "empirical_factor": float(self.empirical_factor)}

    def iterations_to(self, tol: float) -> int:
        """Correction passes needed to first reach the given tolerance."""
        for i, dist in enumerate(self.distances):
            if dist <= tol:
                return i + 1
        return self.iterations if self.converged else -1


@dataclass
class FdeSolution:
    """The quadruple (V, X, Y, Z) on a grid plus the fitted per-step maps.

    Each array is the (P, ...) transposed view of a step-major buffer, so
    ``arr[:, k]`` is contiguous."""

    grid: TimeGrid
    V: np.ndarray                       # (P, K+1, n)
    X: np.ndarray                       # (P, K+1, d)
    Y: np.ndarray                       # (P, K+1, n)
    Z: np.ndarray                       # (P, K, n, d), left endpoints
    phi_fits: list                      # per-step fitted Y maps, k = 0..K-1
    z_fits: list                        # per-step fitted Z maps, k = 0..K-1
    iteration_log: list                 # PicardReport per window
    residuals: dict = field(default_factory=dict)
    window_bounds: list = field(default_factory=list)   # (a, b) step-index pairs
    y0_mean: np.ndarray | None = None
    y0_stderr: np.ndarray | None = None
    x0: np.ndarray | None = None
    seed: int | None = None

    @property
    def num_paths(self) -> int:
        return self.V.shape[0]


def _empirical_factor(distances, floor=1e-13):
    ratios = [b / a for a, b in zip(distances, distances[1:]) if a > floor]
    return float(max(ratios)) if ratios else 0.0


def _start_states(start_x, num_paths, d):
    arr = np.asarray(start_x, dtype=float)
    if arr.ndim <= 1:
        arr = np.broadcast_to(np.atleast_1d(arr), (num_paths, d))
    if arr.shape != (num_paths, d):
        raise InvalidArgumentError(f"start states must broadcast to ({num_paths}, {d})")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("start states must be finite")
    return np.ascontiguousarray(arr)


def picard_window(coeffs: CoefficientSet, window_grid: TimeGrid, terminal_map,
                  start_x, increments: np.ndarray, *, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER, basis: RegressionBasis | None = None,
                  terminal_lipschitz: float | None = None, force: bool = False,
                  initial_guess=None, fit_window_fn=None,
                  clip_bound: float | None = None):
    """Solve the window fixed-point problem by Picard iteration.

    Parameters
    ----------
    window_grid : TimeGrid carrying the absolute times of the window
    terminal_map : x -> (P, n) terminal values (phi, or a fitted map)
    start_x : shared point or per-path (P, d) start states
    increments : (P, m, d) Brownian increments for the window's steps
    terminal_lipschitz : Lipschitz constant of terminal_map for the mesh
        precondition; defaults to the terminal constant of ``coeffs``
    initial_guess : optional constant overriding Y^(0) = terminal_map(start)
    fit_window_fn : optional t -> (lo, hi) box restricting each step's design
    clip_bound : optional cap applied to fitted Y evaluations

    Returns
    -------
    (FdeSolution on the window, PicardReport)

    Raises
    ------
    InvalidArgumentError if the window violates the contraction mesh rule
    (unless force=True); PicardDivergedError on non-convergence.
    """
    P, m, d = increments.shape
    if d != coeffs.d:
        raise InvalidArgumentError(f"increment dim {d} != coefficient dim {coeffs.d}")
    if m != window_grid.num_steps:
        raise InvalidArgumentError("increments do not match the window grid")
    n = coeffs.n
    basis = basis or polynomial_basis(3, d)
    lip = coeffs.c2 if terminal_lipschitz is None else terminal_lipschitz
    length = float(window_grid.points[-1] - window_grid.points[0])
    if coeffs.c1 > 0 and not force:
        ell = contraction_window_length(coeffs.c1, lip)
        if length > ell * (1 + WINDOW_RTOL):
            raise InvalidArgumentError(
                f"window length {length:.6g} exceeds the contraction window "
                f"length {ell:.6g}; pass force=True to override")

    t = window_grid.points
    dt = window_grid.dt
    start = _start_states(start_x, P, d)

    if initial_guess is None:
        y_init = _as_2d(terminal_map(start), n, "terminal_map output")
    else:
        y_init = np.broadcast_to(np.atleast_1d(np.asarray(initial_guess, float)), (P, n)).copy()
    Y = [y_init.copy() for _ in range(m + 1)]
    Z = [np.zeros((P, n, d)) for _ in range(m + 1)]

    report = PicardReport(window=(float(t[0]), float(t[-1])), iterations=0,
                          distances=[], converged=False)
    # a step's regression and the terminal values last as long as their
    # states: rebuilt only on a pass whose states changed bitwise. Step 0's
    # states are the starts on every pass, so its regression is kept without
    # a compare. A kept regression holds one design when its fit keeps every
    # row (as at the window's first step) and two otherwise. With c1 == 0 h
    # and f ignore (Y, Z), so the second pass only confirms the first; one
    # reuse does not pay for that memory, and the regressions are not kept.
    keep = coeffs.c1 > 0
    # each step's increments, contiguous: a view of a sampled ensemble, else a copy
    dB = np.ascontiguousarray(increments.transpose(1, 0, 2))
    regressions = [None] * m
    terminal = None   # (X[m], terminal_map(X[m]))
    prev_psi = None
    passes = 0
    result = None
    while passes < max_iter:
        passes += 1
        V = np.zeros((m + 1, P, n))
        X = np.empty((m + 1, P, d))
        X[0] = start
        for k in range(m):
            V[k + 1] = V[k] + coeffs.eval_h(t[k], Y[k], Z[k]) * dt[k]
            X[k + 1] = X[k] + coeffs.eval_f(t[k], Y[k], Z[k]) * dt[k] + dB[k]
        if not np.all(np.isfinite(X[m])) or not np.all(np.isfinite(V[m])):
            raise PicardDivergedError("non-finite forward state in Picard pass", report)
        if terminal is None or not bitwise_equal(terminal[0], X[m]):
            terminal = (X[m], _as_2d(terminal_map(X[m]), n, "terminal_map output"))
        xi = terminal[1] + V[m]

        y_fits = [None] * m
        z_fits = [None] * m
        Y[m] = xi - V[m]
        M_next = xi
        for k in range(m - 1, -1, -1):
            sr = regressions[k]
            if sr is None or (k > 0 and not sr.built_on(X[k])):
                window_box = fit_window_fn(t[k]) if fit_window_fn is not None else None
                sr = StepRegression(X[k], basis, fit_window=window_box)
                if keep:
                    regressions[k] = sr
            design = sr.in_sample_design()
            y_fits[k] = sr.fit(xi - V[k])
            yk = y_fits[k].evaluate_on(design)
            if clip_bound is not None:
                np.clip(yk, -clip_bound, clip_bound, out=yk)
            Y[k] = yk
            M_k = yk + V[k]
            z_fits[k] = sr.fit(density_target(M_next - M_k, dB[k], dt[k]),
                               out_shape=(n, d))
            Z[k] = z_fits[k].evaluate_on(design)
            M_next = M_k

        if prev_psi is not None:
            # sup distance of the iterate psi = (V, X); max is exact, so taking
            # it per array gives the distance of the concatenated iterate.
            # Row 0 is (0, start) on every pass and adds nothing.
            dist = float(np.maximum(np.abs(V[1:] - prev_psi[0][1:]).max(),
                                    np.abs(X[1:] - prev_psi[1][1:]).max()))
            report.distances.append(dist)
            report.iterations = len(report.distances)
            if not np.isfinite(dist) or dist > _DIVERGENCE_CAP:
                report.empirical_factor = _empirical_factor(report.distances)
                raise PicardDivergedError(
                    f"Picard iteration diverged (distance {dist:.3g})", report)
            if dist <= tol:
                report.converged = True
            if dist <= tol * DEFAULT_POLISH:
                result = (V, X, y_fits, z_fits)
                break
        prev_psi = (V, X)
        result = (V, X, y_fits, z_fits)

    report.empirical_factor = _empirical_factor(report.distances)
    if not report.converged:
        raise PicardDivergedError(
            f"no convergence within {max_iter} Picard passes "
            f"(last distance {report.distances[-1] if report.distances else float('nan'):.3g})",
            report)

    V, X, y_fits, z_fits = result
    sol = FdeSolution(
        grid=window_grid, V=V.transpose(1, 0, 2), X=X.transpose(1, 0, 2),
        Y=np.stack(Y).transpose(1, 0, 2), Z=np.stack(Z[:m]).transpose(1, 0, 2, 3),
        phi_fits=y_fits, z_fits=z_fits, iteration_log=[report],
        residuals={"terminal_rms": 0.0}, window_bounds=[(0, m)],
        x0=start[0].copy() if all(col.min() == col.max() for col in start.T) else None,
        seed=None)
    return sol, report


def _segment_backward(grid: TimeGrid, ell_interior: float, ell_last: float):
    """Windows covering the grid: the rightmost respects ell_last, the rest
    ell_interior."""
    K = grid.num_steps
    pts = grid.points
    a = K - 1
    while a > 0 and pts[K] - pts[a - 1] <= ell_last * (1 + WINDOW_RTOL):
        a -= 1
    if a == 0:
        return [(0, K)]
    return segment_windows(grid.window(0, a), ell_interior) + [(a, K)]


def evaluate_step_maps(y_fit, z_fit, states: np.ndarray):
    """The Y and Z maps of one step at ``states``, read from one shared design.

    Both fits come from the same StepRegression, so they share its clip box,
    centre, scale and exponents; the design is freed on return.
    """
    design = y_fit.design(states)
    return y_fit.evaluate_on(design), z_fit.evaluate_on(design)


def _exploration_rng(seed: int, window_index: int):
    ss = np.random.SeedSequence((int(seed) & 0xFFFFFFFF, 0xEA, window_index))
    return np.random.Generator(np.random.Philox(ss))


def solve_global(coeffs: CoefficientSet, grid: TimeGrid, x0, ensemble: BrownianEnsemble,
                 c4: float | None = None, tol: float = DEFAULT_TOL, *,
                 basis: RegressionBasis | None = None, max_iter: int = DEFAULT_MAX_ITER,
                 exploration_radius: float = 2.2, exploration_floor: float = 1.0,
                 clip_y: bool = True, initial_guess=None,
                 force: bool = False) -> FdeSolution:
    """Solve the coupled system on [0, T] and return the assembled solution.

    Runs a backward sweep over contraction-compliant windows, each solved by
    ``picard_window`` from freshly drawn exploration start states (uniform box
    around x0, widened with time and the drift scale) so the fitted value maps
    are reliable wherever later passes evaluate them. A single forward pass on
    the actual ensemble then assembles (V, X, Y, Z): V by the running-offset
    gluing rule, X by restarting each window at the previous terminal state,
    (Y, Z) read windowwise from the fitted maps.

    The windows come from the declared constants alone: the last one from
    (c1, c2), the interior ones from (c1, c4) through
    ``contraction_window_length``. ``c4`` is the gradient bound of the fitted
    maps the interior windows consume; it defaults to the terminal Lipschitz
    constant. The reported y0 is the plain path average
    of phi(X_T) + V_T on the actual ensemble, with its standard error.
    """
    if ensemble.dim != coeffs.d:
        raise InvalidArgumentError(
            f"ensemble dim {ensemble.dim} != coefficient dim {coeffs.d}")
    if not np.array_equal(ensemble.grid.points, grid.points):
        raise InvalidArgumentError("ensemble grid does not match the solve grid")
    P = ensemble.num_paths
    n, d = coeffs.n, coeffs.d
    K = grid.num_steps
    basis = basis or polynomial_basis(3, d)
    c4_eff = coeffs.c2 if c4 is None else float(c4)
    x0v = np.broadcast_to(np.atleast_1d(np.asarray(x0, dtype=float)), (d,)).copy()
    if not np.all(np.isfinite(x0v)):
        raise InvalidArgumentError("x0 must be finite")
    if not (np.isfinite(exploration_radius) and exploration_radius >= 0
            and np.isfinite(exploration_floor)):
        raise InvalidArgumentError("exploration_radius must be finite and non-negative, "
                                   "and exploration_floor finite")

    # the last window's terminal map is phi (constant c2); interior windows
    # consume fitted maps whose gradient bound is the c4 config
    ell_interior = contraction_window_length(coeffs.c1, c4_eff)
    ell_last = contraction_window_length(coeffs.c1, coeffs.c2)
    ell = min(ell_interior, ell_last)
    if grid.mesh > ell * (1 + WINDOW_RTOL) and not force:
        raise InvalidArgumentError(
            f"grid mesh {grid.mesh:.6g} is coarser than the contraction window "
            f"length {ell:.6g}; use at least {uniform_steps_within(grid.horizon, ell)} "
            f"steps or pass force=True")
    windows = _segment_backward(grid, ell_interior, ell_last)

    # exploration geometry: uniform box widened with time plus a drift margin
    y_ref = coeffs.eval_phi(x0v[None, :])
    z_ref = np.zeros((1, n, d))
    fmag = max(float(np.abs(coeffs.eval_f(tk, y_ref, z_ref)).max())
               for tk in grid.points[::max(1, K // 8)])

    def box(tk):
        r = exploration_radius * np.sqrt(exploration_floor ** 2 + tk) + fmag * tk
        return x0v - r, x0v + r

    clip_bound = None
    if clip_y:
        h0 = max(float(np.abs(coeffs.eval_h(tk, np.zeros((1, n)), z_ref)).max())
                 for tk in grid.points[::max(1, K // 8)])
        T = grid.horizon
        grow = lambda s: coeffs.m_bound + T * (h0 + coeffs.c1 * (1.0 + s))
        clip_bound = grow(grow(coeffs.m_bound))

    phi_fits = [None] * K
    z_fits = [None] * K
    reports = [None] * len(windows)
    terminal_map = coeffs.eval_phi
    for wi in range(len(windows) - 1, -1, -1):
        a, b = windows[wi]
        rng = _exploration_rng(ensemble.seed, wi)
        lo, hi = box(grid.points[a])
        starts = rng.uniform(lo, hi, size=(P, d))
        lip = coeffs.c2 if wi == len(windows) - 1 else c4_eff
        wsol, wrep = picard_window(
            coeffs, grid.window(a, b), terminal_map, starts, ensemble.increments[:, a:b],
            tol=tol, max_iter=max_iter, basis=basis, terminal_lipschitz=lip,
            force=force, initial_guess=initial_guess, fit_window_fn=box,
            clip_bound=clip_bound)
        reports[wi] = wrep
        for k in range(a, b):
            phi_fits[k] = wsol.phi_fits[k - a]
            z_fits[k] = wsol.z_fits[k - a]
        head = phi_fits[a]
        terminal_map = head.evaluate if clip_bound is None else (
            lambda x, _f=head, _c=clip_bound: np.clip(_f.evaluate(x), -_c, _c))

    # forward assembly on the actual ensemble
    t = grid.points
    dt = grid.dt
    V = np.zeros((K + 1, P, n))
    X = np.empty((K + 1, P, d))
    Y = np.zeros((K + 1, P, n))
    Z = np.zeros((K, P, n, d))
    X[0] = x0v
    offset = np.zeros((P, n))
    for a, b in windows:
        vloc = np.zeros((P, n))
        V[a] = offset
        for k in range(a, b):
            yk, zk = evaluate_step_maps(phi_fits[k], z_fits[k], X[k])
            if clip_bound is not None:
                np.clip(yk, -clip_bound, clip_bound, out=yk)
            Y[k], Z[k] = yk, zk
            vloc = vloc + coeffs.eval_h(t[k], Y[k], Z[k]) * dt[k]
            if not all(np.isfinite(v).all() for v in (yk, zk, vloc)):
                raise InvalidStateError(f"forward assembly: non-finite Y, Z or V at step {k}")
            V[k + 1] = offset + vloc
            X[k + 1] = X[k] + coeffs.eval_f(t[k], Y[k], Z[k]) * dt[k] \
                + ensemble.increments[:, k]
        offset = offset + vloc
    Y[K] = coeffs.eval_phi(X[K])

    xi = Y[K] + V[K]
    y0_mean = xi.mean(axis=0)
    y0_stderr = xi.std(axis=0, ddof=1) / np.sqrt(P)

    sol = FdeSolution(
        grid=grid, V=V.transpose(1, 0, 2), X=X.transpose(1, 0, 2), Y=Y.transpose(1, 0, 2),
        Z=Z.transpose(1, 0, 2, 3), phi_fits=phi_fits, z_fits=z_fits,
        iteration_log=reports, window_bounds=windows, y0_mean=y0_mean,
        y0_stderr=y0_stderr, x0=x0v, seed=ensemble.seed)
    sol.residuals = check_fbsde_residual(sol, coeffs, ensemble)
    return sol


def check_fbsde_residual(sol: FdeSolution, coeffs: CoefficientSet,
                         ensemble: BrownianEnsemble) -> dict:
    """Discrete residuals of both equations on the solve ensemble.

    Backward: Y_{k+1} - Y_k + h dt - Z dB per path and step (rms reported).
    Forward: X_{k+1} - X_k - f dt - dB, exactly zero since X is built by that
    recursion. Terminal: rms of Y_K - phi(X_K). Returns the dict that
    ``FdeSolution.residuals`` stores: ``terminal_rms``, ``backward_rms`` and
    ``forward_max``.
    """
    if sol.seed is not None and sol.seed != ensemble.seed:
        raise InvalidArgumentError("solution was not produced on this ensemble")
    if sol.V.shape[0] != ensemble.num_paths or sol.grid.num_steps != ensemble.grid.num_steps:
        raise InvalidArgumentError("ensemble shape does not match the solution")
    t = sol.grid.points
    dt = sol.grid.dt
    K = sol.grid.num_steps
    back_sq = 0.0
    fwd_max = 0.0
    for k in range(K):
        hk = coeffs.eval_h(t[k], sol.Y[:, k], sol.Z[:, k])
        fk = coeffs.eval_f(t[k], sol.Y[:, k], sol.Z[:, k])
        zdb = np.einsum("pnd,pd->pn", sol.Z[:, k], ensemble.increments[:, k])
        rb = sol.Y[:, k + 1] - sol.Y[:, k] + hk * dt[k] - zdb
        # reconstruct the Euler step with the construction's grouping so an
        # untouched solution yields a bitwise zero
        rf = (sol.X[:, k] + fk * dt[k] + ensemble.increments[:, k]) - sol.X[:, k + 1]
        back_sq += float(np.mean(rb ** 2))
        fwd_max = max(fwd_max, float(np.abs(rf).max()))
    terminal = float(np.sqrt(np.mean((sol.Y[:, K] - coeffs.eval_phi(sol.X[:, K])) ** 2)))
    return {"terminal_rms": terminal,
            "backward_rms": float(np.sqrt(back_sq / K)),
            "forward_max": fwd_max}


def write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_path_csv(path, columns, block: np.ndarray) -> None:
    """Write rows ``path,step,<floats>`` from a (P, steps, F) block.

    ``columns`` names the F value columns. Values are written with ``repr``,
    so every cell parses back to the exact float64 it came from.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["path", "step", *columns]) + "\n")
        for p, rows in enumerate(np.asarray(block, dtype=float).tolist()):
            fh.writelines(f"{p},{k}," + ",".join(map(repr, row)) + "\n"
                          for k, row in enumerate(rows))


def export_solution(sol: FdeSolution, csv_path, sidecar_path=None, *,
                    path_limit: int | None = None, config_echo: dict | None = None):
    """Write per-path rows (path, step, t, V.., X.., Y.., Z..) plus a JSON sidecar."""
    P = sol.num_paths if path_limit is None else min(path_limit, sol.num_paths)
    K = sol.grid.num_steps
    n = sol.V.shape[2]
    d = sol.X.shape[2]
    cols = (["t"] + [f"V{i}" for i in range(n)] + [f"X{j}" for j in range(d)]
            + [f"Y{i}" for i in range(n)]
            + [f"Z{i}{j}" for i in range(n) for j in range(d)])
    z = np.zeros((P, K + 1, n * d))
    z[:, :K] = sol.Z[:P].reshape(P, K, n * d)
    t = np.broadcast_to(sol.grid.points[None, :, None], (P, K + 1, 1))
    write_path_csv(csv_path, cols,
                   np.concatenate([t, sol.V[:P], sol.X[:P], sol.Y[:P], z], axis=2))
    if sidecar_path is not None:
        side = {
            "seed": sol.seed,
            "y0_mean": None if sol.y0_mean is None else [float(v) for v in sol.y0_mean],
            "y0_stderr": None if sol.y0_stderr is None else [float(v) for v in sol.y0_stderr],
            "residuals": {k: float(v) for k, v in sol.residuals.items()},
            "windows": [[int(a), int(b)] for a, b in sol.window_bounds],
            "iteration_log": [r.to_json() for r in sol.iteration_log],
            "config": config_echo or {},
        }
        write_json(sidecar_path, side)
