"""Coupled forward-backward solver via the functional reformulation.

The forward-backward system

    dX = f(t, Y, Z) dt + dB,   X_0 = 0
    dY = -h(t, Y, Z) dt + Z dB,   Y_T = phi(X_T)

is recast as a fixed-point problem for the pair (V, X), where V is the
finite-variation part of Y and

    Y_t = E[phi(X_T) + V_T | F_t] - V_t,
    int Z dB = phi(X_T) + V_T - E[phi(X_T) + V_T | F_tau].

On a window short enough that sqrt(length) <= 1/(8*C1*(1+C)), C the Lipschitz
constant of the terminal map it consumes (C2 for phi, c4 for a fitted map),
the map contracts and Picard iteration converges. ``grid.contraction_windows``
plans the windows; the global solve sweeps them backward to learn the per-step
value maps, which are the solution (``FdeSolution``); a ``WindowSolution`` is
only a window's local fixed point on the way. A forward pass replays (V, X, Y, Z)
and h, f a step at a time: V is glued by a running offset, X restarts each window
at the previous terminal state, and (Y_k, Z_k) are the fitted maps at X_k. The solve
runs it for X_T and y0, and one record pass (``forward_record``) for every reader.

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
                   contraction_windows)
from .regression import (RegressionBasis, StepRegression, as_2d, bitwise_equal,
                         density_target, polynomial_basis)

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 50
DEFAULT_POLISH = 1e-2   # keep iterating until dist <= tol * polish (cheap, sharpens uniqueness)
_DIVERGENCE_CAP = 1e8

_VALIDATION_SAMPLES = 96
_VALIDATION_SEED = 0x5EED

# half-width of the exploration box at time t:
# _EXPLORATION_RADIUS * sqrt(_EXPLORATION_FLOOR**2 + t) + |f| * t
_EXPLORATION_RADIUS = 2.2
_EXPLORATION_FLOOR = 1.0


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
        for name in ("c1", "c2", "m_bound"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise InvalidArgumentError(
                    f"{name} must be finite and non-negative, got {value}")
        self._spot_check()

    def eval_h(self, t, y, z):
        return as_2d(self.h(t, y, z), self.n, "h output")

    def eval_f(self, t, y, z):
        return as_2d(self.f(t, y, z), self.d, "f output")

    def eval_phi(self, x):
        return as_2d(self.phi(x), self.n, "phi output")

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
            for name, fn in (("h", self.eval_h), ("f", self.eval_f)):
                out1, out2 = fn(t, y, z), fn(t, y2, z2)
                _require_finite(name, out1, out2)
                if np.any(np.linalg.norm(out1 - out2, axis=1)
                          > self.c1 * dyz * (1 + slack) + slack):
                    raise InvalidArgumentError(
                        f"{name} violates the declared Lipschitz constant c1={self.c1}")
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
    distances: list
    converged: bool

    @property
    def iterations(self) -> int:
        """Correction passes run, one per recorded distance."""
        return len(self.distances)

    @property
    def empirical_factor(self) -> float:
        """Largest ratio of successive distances whose first is above 1e-13."""
        ratios = [b / a for a, b in zip(self.distances, self.distances[1:]) if a > 1e-13]
        return float(max(ratios)) if ratios else 0.0

    def to_json(self) -> dict:
        """The report as written to the summary and divergence JSON files."""
        return {"window": list(self.window), "iterations": self.iterations,
                "distances": [float(v) for v in self.distances],
                "converged": self.converged,
                "empirical_factor": float(self.empirical_factor)}

    def iterations_to(self, tol: float) -> int:
        """Correction passes needed to first reach the given tolerance; -1 if none did."""
        for i, dist in enumerate(self.distances):
            if dist <= tol:
                return i + 1
        return -1


@dataclass
class WindowSolution:
    """One Picard window's local fixed point: its last pass's states, the fits built on them,
    and X_T. Each (P, ...) array is the transposed view of a step-major buffer."""

    V: np.ndarray                       # (P, m+1, n)
    X: np.ndarray                       # (P, m+1, d)
    Y: np.ndarray                       # (P, m+1, n)
    Z: np.ndarray                       # (P, m, n, d)
    X_T: np.ndarray                     # (P, d), the window's terminal forward state
    phi_fits: list                      # per-step fitted Y maps, k = 0..m-1
    z_fits: list                        # per-step fitted Z maps, k = 0..m-1


@dataclass
class FdeSolution:
    """The solution of ``coeffs`` on its solve ensemble: the fitted per-step maps, off which
    every path quantity is read, with X_T, y0 and the sweep's record; no whole path array."""

    grid: TimeGrid
    coeffs: CoefficientSet              # the system solved; every reader evaluates it
    X_T: np.ndarray                     # (P, d), the terminal forward state
    phi_fits: list                      # per-step fitted Y maps, k = 0..K-1
    z_fits: list                        # per-step fitted Z maps, k = 0..K-1
    iteration_log: list                 # PicardReport per window
    window_bounds: list                 # (a, b) step-index pairs
    seed: int                           # the solve ensemble's
    clip_bound: float                   # the cap on every fitted Y
    y0_mean: np.ndarray
    y0_stderr: np.ndarray
    residuals: dict = field(default_factory=dict)   # check_fbsde_residual of a record

    @property
    def num_paths(self) -> int:
        """The solve's path count, read off X_T."""
        return self.X_T.shape[0]


def _path_rows(name, value, num_paths, width):
    """``value`` as finite (P, width) rows: a scalar, one (width,) point or per-path rows."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim <= 1 and arr.size in (1, width):
        arr = np.broadcast_to(arr.reshape(-1), (num_paths, width))
    if arr.shape != (num_paths, width):
        raise InvalidArgumentError(
            f"{name} must broadcast to ({num_paths}, {width}), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} must be finite")
    return arr


def picard_window(coeffs: CoefficientSet, window_grid: TimeGrid, terminal_map,
                  start_x, increments: np.ndarray, *, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER, basis: RegressionBasis | None = None,
                  force: bool = False, initial_guess=None, fit_window_fn=None,
                  clip_bound: float | None = None) -> tuple[WindowSolution, PicardReport]:
    """Solve the window fixed-point problem by Picard iteration; its last pass is the solution.

    Parameters
    ----------
    window_grid : TimeGrid carrying the absolute times of the window
    terminal_map : x -> (P, n) terminal values (phi, or a fitted map)
    start_x : a scalar, one (d,) point or per-path (P, d) start states, finite
    increments : (P, m, d) Brownian increments for the window's steps
    force : skip the precondition length <= contraction_window_length(c1, c2);
        ``solve_global`` passes it, its windows planned by ``contraction_windows``
    initial_guess : optional finite scalar, (n,) point or (P, n) rows for Y^(0) = phi(start)
    fit_window_fn : optional t -> (lo, hi) box restricting each step's design
    clip_bound : optional cap applied to fitted Y evaluations

    Returns
    -------
    (WindowSolution, PicardReport)

    Raises
    ------
    InvalidArgumentError if the window is longer than the contraction window length
    (unless force=True) or a start or guess has another shape or is not finite;
    PicardDivergedError on non-convergence.
    """
    P, m, d = increments.shape
    if d != coeffs.d:
        raise InvalidArgumentError(f"increment dim {d} != coefficient dim {coeffs.d}")
    if m != window_grid.num_steps:
        raise InvalidArgumentError("increments do not match the window grid")
    n = coeffs.n
    basis = basis or polynomial_basis(3, d)
    length = float(window_grid.points[-1] - window_grid.points[0])
    if coeffs.c1 > 0 and not force:
        ell = contraction_window_length(coeffs.c1, coeffs.c2)
        if length > ell * (1 + WINDOW_RTOL):
            raise InvalidArgumentError(
                f"window length {length:.6g} exceeds the contraction window "
                f"length {ell:.6g}; pass force=True to override")

    t, dt = window_grid.points, window_grid.dt
    start = np.ascontiguousarray(_path_rows("start states", start_x, P, d))

    y_init = (as_2d(terminal_map(start), n, "terminal_map output") if initial_guess is None
              else _path_rows("initial_guess", initial_guess, P, n))
    # Y and Z of the last backward sweep, one row per step, written in place
    Y = np.broadcast_to(y_init, (m + 1, P, n)).copy()
    Z = np.zeros((m, P, n, d))

    report = PicardReport(window=(float(t[0]), float(t[-1])), distances=[], converged=False)
    # the forward step records each row's sup change from the last pass's row
    # of psi = (V, X), and whether its X repeats bitwise (row 0, the starts,
    # always does). Every reuse reads that record: the terminal values at row m
    # and a kept regression at row k, each rebuilt whenever its states change. A
    # pass whose whole iterate repeats ends before its terminal map; with c1 == 0,
    # h and f ignore (Y, Z), so the second pass ends there and nothing is kept.
    keep = coeffs.c1 > 0
    # each step's increments, contiguous: a view of a sampled ensemble, else a copy
    dB = np.ascontiguousarray(increments.transpose(1, 0, 2))
    regressions = [None] * m
    change = np.zeros(m + 1)
    repeated = np.arange(m + 1) == 0
    V = X = None
    passes = 0
    while passes < max_iter:
        passes += 1
        V_last, X_last = V, X
        V = np.zeros((m + 1, P, n))
        X = np.empty((m + 1, P, d))
        X[0] = start
        for k in range(m):
            V[k + 1] = V[k] + coeffs.eval_h(t[k], Y[k], Z[k]) * dt[k]
            X[k + 1] = X[k] + coeffs.eval_f(t[k], Y[k], Z[k]) * dt[k] + dB[k]
            if X_last is not None:
                change[k + 1] = np.maximum(np.abs(V[k + 1] - V_last[k + 1]).max(),
                                           np.abs(X[k + 1] - X_last[k + 1]).max())
                repeated[k + 1] = bitwise_equal(X[k + 1], X_last[k + 1])
        if not np.all(np.isfinite(X[m])) or not np.all(np.isfinite(V[m])):
            raise PicardDivergedError("non-finite forward state in Picard pass", report)
        if X_last is not None:
            # max is exact and NaN-propagating: the sup distance of psi bit for bit
            dist = float(change.max())
            report.distances.append(dist)
            if not np.isfinite(dist) or dist > _DIVERGENCE_CAP:
                raise PicardDivergedError(
                    f"Picard iteration diverged (distance {dist:.3g})", report)
            if dist <= tol:
                report.converged = True
            if dist == 0.0 and repeated.all() and bitwise_equal(V, V_last):
                break
        if not repeated[m]:
            phi_T = as_2d(terminal_map(X[m]), n, "terminal_map output")
        xi = phi_T + V[m]

        y_fits, z_fits = [None] * m, [None] * m
        Y[m] = xi - V[m]
        M_next = xi
        for k in range(m - 1, -1, -1):
            sr = regressions[k]
            if sr is None or not repeated[k]:
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

        if X_last is not None and dist <= tol * DEFAULT_POLISH:
            break

    if not report.converged:
        raise PicardDivergedError(
            f"no convergence within {max_iter} Picard passes "
            f"(last distance {report.distances[-1] if report.distances else float('nan'):.3g})",
            report)

    sol = WindowSolution(V=V.transpose(1, 0, 2), X=X.transpose(1, 0, 2), Y=Y.transpose(1, 0, 2),
                         Z=Z.transpose(1, 0, 2, 3), X_T=X[m], phi_fits=y_fits, z_fits=z_fits)
    return sol, report


def evaluate_step_maps(y_fit, z_fit, states: np.ndarray):
    """The Y and Z maps of one step at ``states``, read from one shared design.

    Both fits come from the same StepRegression, so they share its clip box,
    centre, scale and exponents; the design is freed on return.
    """
    design = y_fit.design(states)
    return y_fit.evaluate_on(design), z_fit.evaluate_on(design)


def check_solve_ensemble(sol: FdeSolution, ensemble: BrownianEnsemble) -> None:
    """Raise unless ``sol`` is a global solution and ``ensemble`` has the seed, path count,
    dim and grid it was solved on."""
    if not isinstance(sol, FdeSolution):
        raise InvalidArgumentError("solution was not produced on this ensemble: only a global "
                                   f"solution is replayed, given a {type(sol).__name__}")
    solved_on = (sol.seed, sol.num_paths, sol.coeffs.d)
    if (solved_on != (ensemble.seed, ensemble.num_paths, ensemble.dim)
            or not np.array_equal(sol.grid.points, ensemble.grid.points)):
        about = lambda o, d: (f"seed {o.seed}, {o.num_paths} paths of dim {d}, "
                              f"{o.grid.num_steps} steps to T = {o.grid.horizon:g}")
        raise InvalidArgumentError(
            f"solution was not produced on this ensemble: solved with {about(sol, sol.coeffs.d)}"
            f", given {about(ensemble, ensemble.dim)}")


def replay_forward(sol: FdeSolution, ensemble: BrownianEnsemble):
    """Yield a global solution's (V_k, X_k, Y_k, Z_k, h_k, f_k), k = 0..K, from X_0 = 0 on its
    solve ensemble: (Y_k, Z_k) are step k's fitted maps at X_k, Y capped at ``sol.clip_bound``,
    h_k and f_k the coefficients there; Y_K = phi(X_K), and Z_K, h_K and f_K are None. Each
    yielded array is new and never written again."""
    check_solve_ensemble(sol, ensemble)
    coeffs, t, dt, cap = sol.coeffs, sol.grid.points, sol.grid.dt, sol.clip_bound
    x = np.zeros((ensemble.num_paths, coeffs.d))
    offset = np.zeros((x.shape[0], coeffs.n))
    for a, b in sol.window_bounds:
        vloc = np.zeros_like(offset)
        for k in range(a, b):
            y, z = evaluate_step_maps(sol.phi_fits[k], sol.z_fits[k], x)
            np.clip(y, -cap, cap, out=y)
            h, f = coeffs.eval_h(t[k], y, z), coeffs.eval_f(t[k], y, z)
            v_next = vloc + h * dt[k]   # a non-finite h shows in V
            if not all(np.isfinite(v).all() for v in (y, z, v_next, f)):
                raise InvalidStateError(f"forward assembly: non-finite Y, Z, V or f at step {k}")
            yield offset + vloc, x, y, z, h, f
            vloc = v_next
            x = x + f * dt[k] + ensemble.increments[:, k]
        offset = offset + vloc
    yield offset, x, coeffs.eval_phi(x), None, None, None


@dataclass
class ForwardRecord:
    """What one replay of the global solution ``sol`` records for its readers; each sum
    runs over the steps in order, as a reader of whole arrays would."""

    sol: FdeSolution = field(repr=False)
    rows: tuple = ()                    # (V, X, Y, Z) of the first paths, shaped as whole
    states: dict = field(default_factory=dict)      # {k: X_k} at the recorded steps
    increments: dict = field(default_factory=dict)  # {k: Y_{k+1} - Y_k + (h_k + Z_k f_k) dt_k}
    columns: dict = field(default_factory=dict)
    reads: dict = field(default_factory=dict)       # {name: [value at k = 0..K]}
    backward_sq: float = 0.0            # sum over k of mean |Y_{k+1} - Y_k + h dt - Z dB|^2
    terminal_gap: np.ndarray | None = None   # Y_K - phi(X_T)
    x_K: np.ndarray | None = None            # the replayed X_K
    n_int: np.ndarray | None = None          # N per path
    qv: np.ndarray | None = None             # [N] per path
    weak: np.ndarray | None = None           # Y_0 - phi(X_T) - sum (h + Z f) dt + sum Z dX


def forward_record(sol: FdeSolution, ensemble: BrownianEnsemble, paths: int, steps=(),
                   columns=None, reads=None) -> ForwardRecord:
    """Replay ``sol`` once and record what every post-solve reader needs: the rows of the
    first ``paths`` paths, X_k at each of ``steps`` (with step k's martingale increment
    when k + 1 is recorded too), the residual, exponent and weak sums, and for each
    ``columns`` name -> fn(Y_k, Z_k, f_k, dt_k) a path-major (P, K, ...) buffer filled a
    column per step, so that a reduction over it sums as over a whole array; for each
    ``reads`` name -> fn(k, V_k, Y_k, Z_k), its value at every k = 0..K (Z_K is None)."""
    if paths < 0:
        raise InvalidArgumentError(f"path count must be non-negative, got {paths}")
    check_solve_ensemble(sol, ensemble)   # before the first read of sol; the replay checks too
    dt, dB = sol.grid.dt, ensemble.increments
    P, K = sol.num_paths, sol.grid.num_steps
    rec = ForwardRecord(sol=sol, n_int=np.zeros(P), qv=np.zeros(P))
    phi_T = sol.coeffs.eval_phi(sol.X_T)
    rows = []
    for k, (v, x, y, z, h, f) in enumerate(replay_forward(sol, ensemble)):
        rows.append([a[:paths].copy() for a in (v, x, y, z) if a is not None])
        if k in steps:
            rec.states[k] = x
        for name, fn in (reads or {}).items():
            rec.reads.setdefault(name, []).append(fn(k, v, y, z))
        if k == 0:
            rec.weak = y - phi_T
        else:   # step j = k - 1 closes on this step's Y and X
            j = k - 1
            zdb = np.einsum("pnd,pd->pn", z_j, dB[:, j])
            rec.backward_sq += float(np.mean((y - y_j + h_j * dt[j] - zdb) ** 2))
            rec.weak = rec.weak - h_j * dt[j] - zf_j * dt[j] + np.einsum("pnd,pd->pn", z_j, x - x_j)
            if j in steps and k in steps:
                rec.increments[j] = y - y_j + (h_j + zf_j) * dt[j]
        if z is None:
            rec.terminal_gap, rec.x_K = y - phi_T, x
            break
        rec.n_int = rec.n_int - np.einsum("pd,pd->p", f, dB[:, k])
        rec.qv = rec.qv + np.einsum("pd,pd->p", f, f) * dt[k]
        for name, fn in (columns or {}).items():
            col = fn(y, z, f, dt[k])
            if name not in rec.columns:
                rec.columns[name] = np.empty((P, K) + col.shape[1:])
            rec.columns[name][:, k] = col
        x_j, y_j, z_j, h_j, zf_j = x, y, z, h, np.einsum("pnd,pd->pn", z, f)
    rec.rows = tuple(np.stack([r[i] for r in rows if len(r) > i], axis=1)   # no Z row at K
                     for i in range(4))
    return rec


def _exploration_rng(seed: int, window_index: int):
    ss = np.random.SeedSequence((int(seed) & 0xFFFFFFFF, 0xEA, window_index))
    return np.random.Generator(np.random.Philox(ss))


def solve_global(coeffs: CoefficientSet, ensemble: BrownianEnsemble,
                 c4: float | None = None, tol: float = DEFAULT_TOL, *,
                 basis: RegressionBasis | None = None, max_iter: int = DEFAULT_MAX_ITER,
                 initial_guess=None) -> FdeSolution:
    """Solve the coupled system on the ensemble's grid from the origin; return the solution.

    Runs a backward sweep over contraction-compliant windows, each solved by
    ``picard_window`` from freshly drawn exploration start states (uniform box
    around the origin, widened with time and the drift scale) so the fitted
    value maps are reliable wherever later passes evaluate them; of each
    ``WindowSolution`` only the fits are kept. A single forward pass on the actual
    ensemble (``replay_forward``) then reads (Y, Z) windowwise off the fitted maps,
    a step at a time with V (glued by a running offset) and X, and keeps only X_T
    and y0: ``forward_record`` replays the maps for every later reader. Another
    start x is the terminal map phi(. + x) from the origin.

    The windows come from the declared constants alone, planned once by
    ``contraction_windows``: the last one from (c1, c2), the interior ones
    from (c1, c4). ``c4`` is the gradient bound of the fitted maps the
    interior windows consume; it defaults to the terminal Lipschitz constant
    and must be finite and non-negative. The reported y0 is the
    plain path average of phi(X_T) + V_T on the actual ensemble, with its
    standard error.
    """
    if ensemble.dim != coeffs.d:
        raise InvalidArgumentError(
            f"ensemble dim {ensemble.dim} != coefficient dim {coeffs.d}")
    grid, P = ensemble.grid, ensemble.num_paths
    n, d = coeffs.n, coeffs.d
    K = grid.num_steps
    basis = basis or polynomial_basis(3, d)
    c4_eff = coeffs.c2 if c4 is None else float(c4)
    if not 0 <= c4_eff < np.inf:
        raise InvalidArgumentError(f"c4 must be finite and non-negative, got {c4}")

    windows = contraction_windows(grid, coeffs.c1, coeffs.c2, c4_eff)

    # exploration geometry: uniform box widened with time plus a drift margin
    y_ref = coeffs.eval_phi(np.zeros((1, d)))
    z_ref = np.zeros((1, n, d))
    fmag = max(float(np.abs(coeffs.eval_f(tk, y_ref, z_ref)).max())
               for tk in grid.points[::max(1, K // 8)])

    def box(tk):
        r = _EXPLORATION_RADIUS * np.sqrt(_EXPLORATION_FLOOR ** 2 + tk) + fmag * tk
        return np.full(d, -r), np.full(d, r)

    # a-priori bound on |Y|, applied to every fitted Y evaluation
    h0 = max(float(np.abs(coeffs.eval_h(tk, np.zeros((1, n)), z_ref)).max())
             for tk in grid.points[::max(1, K // 8)])
    T = grid.horizon
    grow = lambda s: coeffs.m_bound + T * (h0 + coeffs.c1 * (1.0 + s))
    clip_bound = grow(grow(coeffs.m_bound))

    phi_fits, z_fits, reports = [None] * K, [None] * K, [None] * len(windows)
    terminal_map = coeffs.eval_phi
    for wi in range(len(windows) - 1, -1, -1):
        a, b = windows[wi]
        rng = _exploration_rng(ensemble.seed, wi)
        lo, hi = box(grid.points[a])
        starts = rng.uniform(lo, hi, size=(P, d))
        wsol, reports[wi] = picard_window(
            coeffs, TimeGrid(grid.points[a:b + 1]), terminal_map, starts,
            ensemble.increments[:, a:b], tol=tol, max_iter=max_iter, basis=basis, force=True,
            initial_guess=initial_guess, fit_window_fn=box, clip_bound=clip_bound)
        phi_fits[a:b], z_fits[a:b] = wsol.phi_fits, wsol.z_fits
        terminal_map = (lambda x, _f=phi_fits[a]:
                        np.clip(_f.evaluate(x), -clip_bound, clip_bound))
    del wsol   # the assembly reads only the fits; the window's arrays go now

    # forward assembly: one replay for X_T and y0, NaN until it ends (this X_T allocates nothing)
    unset = np.full(n, np.nan)
    sol = FdeSolution(
        grid=grid, coeffs=coeffs, X_T=np.broadcast_to(np.nan, (P, d)), phi_fits=phi_fits,
        z_fits=z_fits, iteration_log=reports, window_bounds=windows, seed=ensemble.seed,
        clip_bound=clip_bound, y0_mean=unset, y0_stderr=unset)
    for v, x, y, *_ in replay_forward(sol, ensemble):
        pass
    sol.X_T = x   # the last step's row is (V_K, X_K, phi(X_K))
    xi = y + v
    sol.y0_mean = xi.mean(axis=0)
    sol.y0_stderr = xi.std(axis=0, ddof=1) / np.sqrt(P)
    return sol


def check_fbsde_residual(record: ForwardRecord) -> dict:
    """Discrete residuals of both equations of ``record.sol`` on its solve ensemble.

    Backward: Y_{k+1} - Y_k + h dt - Z dB per path and step (rms reported).
    Forward: the X_K that the record's replay rebuilt against the stored X_T, exactly
    zero since both come from one recursion. Terminal: rms of Y_K - phi(X_T). Returns
    the dict that ``FdeSolution.residuals`` stores: ``terminal_rms``, ``backward_rms``
    and ``forward_max``.
    """
    sol = record.sol
    return {"terminal_rms": float(np.sqrt(np.mean(record.terminal_gap ** 2))),
            "backward_rms": float(np.sqrt(record.backward_sq / sol.grid.num_steps)),
            "forward_max": float(np.abs(record.x_K - sol.X_T).max())}


def write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_grid_csv(path, grid: TimeGrid, named) -> None:
    """Write rows ``path,step,t,<named columns>`` at every point of ``grid``.

    ``named`` lists (letter, array) pairs in column order: a (P, K+1, c)
    array gives columns ``<letter>0..``, and a (P, K, n, d) array, such as
    the left-endpoint Z, gives ``<letter><i><j>`` with zeros at step K. Every
    array holds the same paths, and each is written. Values are written with
    ``repr``, so every cell parses back to the exact float64 it came from.
    """
    K = grid.num_steps
    cols, blocks = ["t"], []
    for letter, arr in named:
        if arr.ndim == 4:
            P, _, n, d = arr.shape
            cols += [f"{letter}{i}{j}" for i in range(n) for j in range(d)]
            padded = np.zeros((P, K + 1, n * d))
            padded[:, :K] = arr.reshape(P, K, n * d)
            arr = padded
        else:
            cols += [f"{letter}{i}" for i in range(arr.shape[2])]
        blocks.append(arr)
    t = grid.points[:, None]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["path", "step", *cols]) + "\n")
        # one path's rows at a time: the Python floats of a whole block cost ~4x its array
        for p in range(blocks[0].shape[0]):
            rows = np.concatenate([t, *(b[p] for b in blocks)], axis=1).tolist()
            fh.writelines(f"{p},{k}," + ",".join(map(repr, row)) + "\n"
                          for k, row in enumerate(rows))


def export_solution(sol: FdeSolution, forward, csv_path, sidecar_path, *, config_echo: dict):
    """Write rows (path, step, t, V.., X.., Y.., Z..) of a ``forward_record``'s rows,
    plus a JSON sidecar; it counts the steps of each window whose fit set a warning."""
    V, X, Y, Z = forward
    write_grid_csv(csv_path, sol.grid, [("V", V), ("X", X), ("Y", Y), ("Z", Z)])
    side = {
        "seed": sol.seed,
        "y0_mean": [float(v) for v in sol.y0_mean],
        "y0_stderr": [float(v) for v in sol.y0_stderr],
        "residuals": {k: float(v) for k, v in sol.residuals.items()},
        "windows": [[int(a), int(b)] for a, b in sol.window_bounds],
        "iteration_log": [r.to_json() for r in sol.iteration_log],
        "regression_warning_steps": [sum(f.warning for f in sol.phi_fits[a:b])
                                     for a, b in sol.window_bounds],
        "config": config_echo,
    }
    write_json(sidecar_path, side)
