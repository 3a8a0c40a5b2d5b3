"""Time discretization, the contraction window rule, and Brownian ensembles.

The Brownian sampler is counter-based: path ``i`` always consumes the raw
Philox outputs ``[i*K*dim, (i+1)*K*dim)``, so a path's increments depend only
on ``(seed, i, K, dim)`` and never on how many paths are drawn alongside it.
Normals come from the inverse CDF applied to those raw 64-bit words, which
keeps the counter alignment exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import InvalidArgumentError

WINDOW_RTOL = 1e-12   # relative slack when a length is compared with a window length
_SAMPLE_BLOCK_WORDS = 1 << 16   # raw words drawn per sampling block (512 KiB)


@dataclass
class TimeGrid:
    """Ordered time points t_0 < t_1 < ... < t_K.

    Grids produced by the public constructors start at 0; a window's grid
    carries the absolute times of its slice.
    """

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 1 or self.points.size < 2:
            raise InvalidArgumentError("grid needs at least two points")
        if not np.all(np.diff(self.points) > 0):
            raise InvalidArgumentError("grid points must be strictly increasing")
        if not np.all(np.isfinite(self.points)):
            raise InvalidArgumentError("grid points must be finite")

    @property
    def num_steps(self) -> int:
        return self.points.size - 1

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def mesh(self) -> float:
        return float(self.dt.max())


def contraction_window_length(c1: float, c_grad: float) -> float:
    """Largest window length with sqrt(length) <= min(1/(8*c1*(1+c_grad)), 1).

    ``c1`` bounds the drivers and ``c_grad`` the gradient of the terminal map
    the window consumes. The Picard map contracts on any window this short;
    the length is 1 when c1 == 0.
    """
    if c1 < 0 or c_grad < 0:
        raise InvalidArgumentError("Lipschitz constants must be non-negative")
    if c1 == 0.0:
        return 1.0
    root = min(1.0 / (8.0 * c1 * (1.0 + c_grad)), 1.0)
    return root * root


def build_uniform_grid(T: float, K: int) -> TimeGrid:
    """Uniform grid of K steps on [0, T]."""
    if not (0 < T < np.inf):
        raise InvalidArgumentError(f"horizon T must be positive and finite, got {T}")
    if int(K) < 1 or int(K) != K:
        raise InvalidArgumentError(f"step count must be a positive integer, got {K}")
    return TimeGrid(np.linspace(0.0, float(T), int(K) + 1))


def uniform_steps_within(T: float, length: float) -> int:
    """A step count whose uniform grid on [0, T] has mesh <= length * (1 + WINDOW_RTOL).

    Every larger count passes too. ``np.linspace`` puts point i at
    fl(i * fl(T/K)), within eps * T of i*T/K, so the mesh exceeds T/K by at
    most 2 * eps * T; the count keeps T/K at least 4 * eps * T below the
    bound, which also covers the rounding of this computation. It is the
    fewest passing count unless T/K lands that close to the bound.
    """
    if not (T > 0) or not (length > 0):
        raise InvalidArgumentError("horizon and window length must be positive")
    room = length * (1 + WINDOW_RTOL) - 4 * np.finfo(float).eps * T
    if not (room > 0):
        raise InvalidArgumentError(
            f"window length {length:.6g} is below the float64 resolution of the horizon {T:.6g}")
    return int(np.ceil(T / room))


def contraction_windows(grid: TimeGrid, c1: float, c_last: float,
                        c_interior: float) -> list[tuple[int, int]]:
    """The Picard windows of a global solve: (a, b) step-index pairs tiling 0..K.

    The last window consumes phi, of Lipschitz constant ``c_last``, and is the
    longest suffix within ``contraction_window_length(c1, c_last)``; the rest
    consume fitted maps of gradient bound ``c_interior``, split greedily from
    step 0 within ``contraction_window_length(c1, c_interior)``. A mesh above
    the shorter length raises, naming a step count that passes.
    """
    ell_last = contraction_window_length(c1, c_last)
    ell_interior = contraction_window_length(c1, c_interior)
    ell, slack = min(ell_interior, ell_last), 1 + WINDOW_RTOL
    if grid.mesh > ell * slack:
        raise InvalidArgumentError(
            f"grid mesh {grid.mesh:.6g} is coarser than the contraction window "
            f"length {ell:.6g}; use at least {uniform_steps_within(grid.horizon, ell)} steps")
    pts, K = grid.points, grid.num_steps
    last = K - 1
    while last > 0 and pts[K] - pts[last - 1] <= ell_last * slack:
        last -= 1
    windows, a = [], 0
    while a < last:
        b = a + 1
        while b < last and pts[b + 1] - pts[a] <= ell_interior * slack:
            b += 1
        windows.append((a, b))
        a = b
    return windows + [(last, K)]


@dataclass
class BrownianEnsemble:
    """Gaussian increments of num_paths independent dim-dimensional motions, (P, K, dim).

    increments[i, k, j] ~ N(0, dt_k). ``sample_ensemble`` stores them step-major
    and hands out the (P, K, dim) transposed view, so ``increments[:, k]`` is
    contiguous; a C-order array gives bitwise the same results, only slower.
    Immutable after construction by convention.
    """

    grid: TimeGrid
    seed: int
    increments: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.increments.ndim != 3 or self.increments.shape[1] != self.grid.num_steps:
            raise InvalidArgumentError(f"increment shape {self.increments.shape} is not "
                                       f"(num_paths, {self.grid.num_steps}, dim)")

    @property
    def num_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[2]


def sample_ensemble(grid: TimeGrid, num_paths: int, dim: int, seed: int) -> BrownianEnsemble:
    """Draw a Brownian increment ensemble on the grid, deterministic in seed."""
    if num_paths < 1:
        raise InvalidArgumentError(f"num_paths must be >= 1, got {num_paths}")
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {dim}")
    K = grid.num_steps
    # the stream is drawn in blocks of whole paths, so path i still gets the
    # words [i*K*dim, (i+1)*K*dim) and no full-size word array exists
    bitgen = np.random.Philox(key=int(seed))
    scale = np.sqrt(grid.dt)[:, None, None]
    block = max(1, _SAMPLE_BLOCK_WORDS // (K * dim))
    z = np.empty((K, num_paths, dim))
    for i in range(0, num_paths, block):
        rows = min(block, num_paths - i)
        raw = bitgen.random_raw(rows * K * dim)
        # top 53 bits -> uniform on (0,1), then the inverse normal CDF
        u = (raw >> np.uint64(11)).astype(np.float64) * (2.0 ** -53) + 2.0 ** -54
        out = z[:, i:i + rows]
        ndtri(u.reshape(rows, K, dim), out=out.transpose(1, 0, 2))
        out *= scale
    return BrownianEnsemble(grid=grid, seed=int(seed), increments=z.transpose(1, 0, 2))
