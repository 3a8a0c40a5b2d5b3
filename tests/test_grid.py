import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

import fdeflow as ff
from fdeflow.errors import InvalidArgumentError
from fdeflow.grid import WINDOW_RTOL, BrownianEnsemble, TimeGrid, uniform_steps_within
from fdeflow.portfolio import build_portfolio_fbsde

from _helpers import brownian_paths

ENSEMBLE_MAGIC = "FDEB1"


def test_uniform_grid_examples():
    g = ff.build_uniform_grid(1.0, 4)
    assert np.allclose(g.points, [0, 0.25, 0.5, 0.75, 1.0])
    assert ff.build_uniform_grid(1.0, 1).points.tolist() == [0.0, 1.0]
    assert ff.build_uniform_grid(0.5, 5).mesh == pytest.approx(0.1)


def test_uniform_grid_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        ff.build_uniform_grid(0.0, 4)
    with pytest.raises(InvalidArgumentError):
        ff.build_uniform_grid(-1.0, 4)
    with pytest.raises(InvalidArgumentError):
        ff.build_uniform_grid(1.0, 0)


def test_contraction_window_length_validation():
    with pytest.raises(InvalidArgumentError):
        ff.contraction_window_length(-1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        ff.contraction_window_length(1.0, -0.1)
    # no coupling: any window up to length 1 contracts
    assert ff.contraction_window_length(0.0, 3.0) == 1.0


def _contraction_partition(T, c1, c_grad):
    ell = ff.contraction_window_length(c1, c_grad)
    return ff.build_uniform_grid(T, uniform_steps_within(T, ell))


def test_contraction_partition_examples():
    assert ff.contraction_window_length(1.0, 0.0) == 1.0 / 64
    assert _contraction_partition(1.0, 1.0, 0.0).num_steps == 64
    # weak coupling: the bound caps at 1, one interval suffices
    assert ff.contraction_window_length(1.0 / 16, 1.0) == 1.0
    assert _contraction_partition(1.0, 1.0 / 16, 1.0).num_steps == 1
    assert _contraction_partition(4.0, 1.0, 0.0).num_steps == 256


@given(st.floats(0.05, 10.0), st.floats(0.0, 5.0), st.floats(0.1, 8.0))
@example(3.0, 4.0, 3.0)   # ceil(T / ell) = 43200 steps overshoot ell by 3.4e-12
@settings(max_examples=50, deadline=None)
def test_partition_mesh_rule_holds(c1, c_grad, T):
    g = _contraction_partition(T, c1, c_grad)
    assert np.sqrt(g.mesh) <= min(1.0 / (8 * c1 * (1 + c_grad)), 1.0) + 1e-12
    # the step count passes the solver's own mesh check, and so does one more step
    ell = ff.contraction_window_length(c1, c_grad)
    assert g.mesh <= ell * (1 + WINDOW_RTOL)
    assert ff.build_uniform_grid(T, g.num_steps + 1).mesh <= ell * (1 + WINDOW_RTOL)
    assert g.points[0] == 0.0 and g.points[-1] == pytest.approx(T)


@given(st.floats(0.1, 5.0), st.integers(1, 64))
@settings(max_examples=50, deadline=None)
def test_refining_never_increases_mesh(T, K):
    coarse = ff.build_uniform_grid(T, K)
    fine = ff.build_uniform_grid(T, 2 * K)
    assert fine.mesh <= coarse.mesh + 1e-15
    assert np.all(np.diff(coarse.points) > 0)
    assert coarse.mesh == pytest.approx(np.diff(coarse.points).max())


def test_contraction_windows_cover_and_respect_cap():
    # c1 = 1, c4 = 0: interior windows up to 1/64 long; c2 = 3: a last window
    # up to 1/1024, so on 1024 steps the last window is one step
    g = ff.build_uniform_grid(1.0, 1024)
    windows = ff.contraction_windows(g, 1.0, 3.0, 0.0)
    assert windows[0][0] == 0 and windows[-1] == (1023, 1024)
    for (a, b), (a2, _) in zip(windows, windows[1:]):
        assert b == a2
    for a, b in windows[:-1]:
        assert b > a
        assert g.points[b] - g.points[a] <= 1 / 64 * (1 + 1e-9)
    assert len(windows) == 1 + int(np.ceil(1023 / 16))
    # c1 = 0: every window may be 1 long, so a horizon of 1 is one window; on
    # [0, 2.5] the last window takes 1 and the rest split greedily from 0
    assert ff.contraction_windows(g, 0.0, 3.0, 3.0) == [(0, 1024)]
    assert ff.contraction_windows(ff.build_uniform_grid(2.5, 10), 0.0, 0.0, 0.0) == [
        (0, 4), (4, 6), (6, 10)]


def _named_steps(T, c1, c_last, c_interior) -> int:
    """The step count the mesh error names for a one-step grid, or 1 if none is raised."""
    try:
        ff.contraction_windows(ff.build_uniform_grid(T, 1), c1, c_last, c_interior)
    except InvalidArgumentError as err:
        return int(re.search(r"use at least (\d+) steps", str(err)).group(1))
    return 1


@given(st.floats(0.05, 2.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.1, 4.0),
       st.integers(0, 40))
@example(3.0, 4.0, 4.0, 3.0, 0)   # ceil(T / ell) = 43200 steps overshoot; 43201 are named
@example(1.0 / (8 * np.sqrt(0.5)), 0.0, 0.0, 1.0, 14)   # two windows of 0.5 on 16 steps
@settings(max_examples=40, deadline=None)
def test_contraction_windows_plan_each_window_within_its_length(c1, c2, c4, T, extra):
    # what picard_window would check against the constant of the map each window
    # consumes holds for every planned window, which is why solve_global forces it
    K = _named_steps(T, c1, c2, c4) + extra
    g = ff.build_uniform_grid(T, K)
    windows = ff.contraction_windows(g, c1, c2, c4)
    pts, slack = g.points, 1 + WINDOW_RTOL
    within = lambda a, b, c: pts[b] - pts[a] <= ff.contraction_window_length(c1, c) * slack
    assert windows[0][0] == 0 and windows[-1][1] == K
    assert all(a < b == a2 for (a, b), (a2, _) in zip(windows, windows[1:]))
    last = windows[-1][0]
    assert within(last, K, c2) and (last == 0 or not within(last - 1, K, c2))
    for a, b in windows[:-1]:
        assert within(a, b, c4) or (b == a + 1 and pts[b] - pts[a] <= g.mesh)
        # greedy: a window that ends before the last one could not take one more step
        assert b == last or not within(a, b + 1, c4)


@pytest.mark.parametrize("name, count", [("linear_driver", 17), ("endowment", 49)])
def test_shipped_plans_and_the_named_step_count(name, count):
    fixture = ff.get_fixture(name)
    built = fixture.build()
    coeffs = build_portfolio_fbsde(built, fixture.T) if fixture.kind == "portfolio" else built
    plan = lambda K: ff.contraction_windows(ff.build_uniform_grid(fixture.T, K),
                                            coeffs.c1, coeffs.c2, fixture.c4)
    assert len(plan(fixture.K)) == count
    named = _named_steps(fixture.T, coeffs.c1, coeffs.c2, fixture.c4)
    assert named > 1 and plan(named)[-1][1] == named
    with pytest.raises(InvalidArgumentError, match=f"use at least {named} steps"):
        plan(named - 1)


def test_ensemble_seed_determinism():
    g = ff.build_uniform_grid(1.0, 8)
    e1 = ff.sample_ensemble(g, 500, 2, 77)
    e2 = ff.sample_ensemble(g, 500, 2, 77)
    assert np.array_equal(e1.increments, e2.increments)
    e3 = ff.sample_ensemble(g, 500, 2, 78)
    assert not np.array_equal(e1.increments, e3.increments)


def test_ensemble_path_blocks_independent_of_path_count():
    # counter-based draws: path i never depends on how many paths are drawn
    g = ff.build_uniform_grid(1.0, 8)
    small = ff.sample_ensemble(g, 10, 2, 5)
    big = ff.sample_ensemble(g, 200, 2, 5)
    assert np.array_equal(small.increments, big.increments[:10])


def test_ensemble_increment_statistics():
    g = ff.build_uniform_grid(1.0, 1)
    ens = ff.sample_ensemble(g, 100_000, 1, 99)
    var = ens.increments.var()
    assert 0.98 <= var <= 1.02
    # terminal value is a zero-mean martingale: 5 sigma band
    term = brownian_paths(ens)[:, -1, 0]
    assert abs(term.mean()) <= 5.0 / np.sqrt(term.size)


def test_ensemble_multistep_statistics():
    g = ff.build_uniform_grid(2.0, 16)
    ens = ff.sample_ensemble(g, 20_000, 1, 3)
    dt = g.dt[0]
    var = ens.increments.var(axis=(0, 2))
    se = dt * np.sqrt(2.0 / ens.num_paths)
    assert np.all(np.abs(var - dt) <= 5 * se)


def test_ensemble_is_the_path_major_philox_stream_stored_step_major():
    g = ff.build_uniform_grid(1.0, 7)
    P, K, d = 10_001, g.num_steps, 2   # several sampling blocks, the last one short
    ens = ff.sample_ensemble(g, P, d, 41)
    # reference: path i takes the words [i*K*d, (i+1)*K*d) of one draw
    raw = np.random.Philox(key=41).random_raw(P * K * d)
    u = (raw >> np.uint64(11)).astype(np.float64) * (2.0 ** -53) + 2.0 ** -54
    ref = ndtri(u).reshape(P, K, d) * np.sqrt(g.dt)[None, :, None]
    assert ens.increments.shape == (P, K, d)
    assert np.array_equal(ens.increments.view(np.uint64), ref.view(np.uint64))
    assert all(ens.increments[:, k].flags.c_contiguous for k in range(K))


def test_brownian_paths_are_the_cumsum_of_a_c_order_copy():
    g = ff.build_uniform_grid(1.0, 9)
    ens = ff.sample_ensemble(g, 500, 2, 8)
    inc = np.ascontiguousarray(ens.increments)
    ref = np.concatenate([np.zeros((500, 1, 2)), np.cumsum(inc, axis=1)], axis=1)
    for e in (ens, BrownianEnsemble(g, 8, increments=inc)):
        w = brownian_paths(e)
        assert np.array_equal(w.view(np.uint64), ref.view(np.uint64))
        assert w[:, 4].flags.c_contiguous


def save_ensemble(ensemble: BrownianEnsemble, path) -> None:
    """Write an ensemble to a flat numeric file.

    Layout: one ASCII header line ``FDEB1 K num_paths dim seed``, then the
    K+1 grid points as little-endian float64, then the increments path-major,
    step-minor, dimension-innermost.
    """
    with open(path, "wb") as fh:
        header = f"{ENSEMBLE_MAGIC} {ensemble.grid.num_steps} {ensemble.num_paths} {ensemble.dim} {ensemble.seed}\n"
        fh.write(header.encode("ascii"))
        fh.write(ensemble.grid.points.astype("<f8").tobytes())
        fh.write(np.ascontiguousarray(ensemble.increments, dtype="<f8").tobytes())


def load_ensemble(path) -> BrownianEnsemble:
    """Read an ensemble written by save_ensemble."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 5 or header[0] != ENSEMBLE_MAGIC:
            raise InvalidArgumentError(f"not a {ENSEMBLE_MAGIC} ensemble file: {path}")
        K, num_paths, dim, seed = (int(v) for v in header[1:])
        pts = np.frombuffer(fh.read(8 * (K + 1)), dtype="<f8")
        inc = np.frombuffer(fh.read(8 * num_paths * K * dim), dtype="<f8")
    grid = TimeGrid(pts.copy())
    return BrownianEnsemble(grid=grid, seed=seed,
                            increments=inc.reshape(num_paths, K, dim).copy())


def test_ensemble_serialization_roundtrip(tmp_path):
    g = ff.build_uniform_grid(0.7, 6)
    ens = ff.sample_ensemble(g, 37, 3, 2024)
    path = tmp_path / "ens.fdeb"
    save_ensemble(ens, path)
    back = load_ensemble(path)
    assert back.seed == ens.seed
    assert back.num_paths == ens.num_paths and back.dim == ens.dim
    assert np.array_equal(back.grid.points, g.points)
    assert np.array_equal(back.increments, ens.increments)
    with open(path, "rb") as fh:
        assert fh.readline().startswith(b"FDEB1 ")


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.fdeb"
    path.write_bytes(b"NOPE0 1 1 1 1\n" + b"\x00" * 32)
    with pytest.raises(InvalidArgumentError):
        load_ensemble(path)


def test_ensemble_sampler_validation():
    g = ff.build_uniform_grid(1.0, 2)
    with pytest.raises(InvalidArgumentError):
        ff.sample_ensemble(g, 0, 1, 1)
    with pytest.raises(InvalidArgumentError):
        ff.sample_ensemble(g, 5, 0, 1)


def test_an_ensemble_reads_its_counts_off_its_increments():
    g = ff.build_uniform_grid(1.0, 4)
    ens = BrownianEnsemble(g, 3, increments=np.zeros((7, 4, 2)))
    assert (ens.num_paths, ens.dim) == (7, 2)
    for bad in (np.zeros((7, 5, 2)), np.zeros((7, 4)), np.zeros((7, 4, 2, 1))):
        with pytest.raises(InvalidArgumentError):
            BrownianEnsemble(g, 3, increments=bad)
