"""The library's global solve and post-solve reads against a plain whole-array reference.

``_helpers.reference_solve_global`` solves with whole V, X, Y and Z, and
``_helpers.reference_reads`` computes every reported quantity from those arrays. Each
case runs the CLI's own solve-and-record stage on a small problem and requires every
output to equal the reference bit for bit.
"""
import struct

import numpy as np
import pytest

from fdeflow import cli
from fdeflow.fixtures import get_fixture
from fdeflow.girsanov import z_invariance_probes
from fdeflow.grid import build_uniform_grid, sample_ensemble
from fdeflow.portfolio import build_portfolio_fbsde

from _helpers import reference_reads, reference_solve_global

EXPORT_PATHS = 7


def _assert_bitwise(got, want, where="output"):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_bitwise(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_bitwise(g, w, f"{where}[{i}]")
    elif isinstance(want, np.ndarray):
        got = np.asarray(got)
        assert got.shape == want.shape and got.dtype == want.dtype, where
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), where
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


def _library_reads(name, cfg):
    """What the CLI's solve-and-record stage reports for the fixture ``name``."""
    fixture = get_fixture(name)
    bundle = cli._solve_fixture(fixture, cfg)
    sol = bundle["sol"]
    reads = {"y0": (sol.y0_mean, sol.y0_stderr), "residuals": sol.residuals,
             "rows": bundle["forward"], "windows": sol.window_bounds,
             "distances": [r.distances for r in sol.iteration_log]}
    if "measure_change" in bundle:
        reads["weights"] = bundle["measure_change"].weights
        reads["weak"] = bundle["weak_residual"]
    if fixture.kind == "portfolio":
        reads["pi_star"] = bundle["pi_star"]
    for key in ("z_invariance", "bmo"):
        if key in bundle:
            reads[key] = bundle[key]
    if name == "trivial":
        values = {a.name: a.value for a in cli._fixture_assertions(name, bundle, cfg)}
        reads.update(z_rms=values["z_rms"], y_dev_from_one=values["y_deviation_max"],
                     v_max=values["v_max"])
    return reads


# (fixture, paths, K, T): the horizon keeps each mesh within its contraction window
CASES = [("trivial", 5000, 8, 1.0), ("linear_driver", 10_000, 16, 0.25),
         ("const_forward", 10_000, 16, 1.0), ("endowment", 5000, 10, 0.25)]


# what each fixture's run reads beyond y0, the residuals, the rows and the Picard record
WEAK = {"weights", "weak", "z_invariance", "bmo"}
READS = {"trivial": {"z_rms", "y_dev_from_one", "v_max"}, "linear_driver": set(),
         "const_forward": WEAK, "endowment": WEAK | {"pi_star"}}


@pytest.mark.parametrize("name, paths, K, T", CASES)
def test_every_read_equals_the_whole_array_reference_bitwise(name, paths, K, T):
    fixture = get_fixture(name)
    market = fixture.kind == "portfolio"
    cfg = cli.ExperimentConfig(problem="portfolio" if market else "fbsde", fixture=name,
                               num_paths=paths, K=K, T=T, export_paths=EXPORT_PATHS)
    got = _library_reads(name, cfg)

    grid = build_uniform_grid(T, K)
    ensemble = sample_ensemble(grid, paths, 2 if market else 1,
                               cli.substream_seed(cfg.seed, f"{name}:ensemble"))
    built = fixture.build()
    coeffs = build_portfolio_fbsde(built, T) if market else built
    ref = reference_solve_global(coeffs, ensemble, fixture.c4, fixture.basis)
    probes = z_invariance_probes(K) if market or name == "const_forward" else ()
    bmo_steps = ([0, K // 4, K // 2, (3 * K) // 4] if market
                 else sorted({0, K // 4, K // 2}) if name == "const_forward" else ())
    want = reference_reads(ref, coeffs, ensemble, EXPORT_PATHS, probes, bmo_steps,
                           built.merton_fraction if market else None)
    want.update(windows=ref["windows"], distances=[r.distances for r in ref["reports"]])
    assert set(got) == {"y0", "residuals", "rows", "windows", "distances"} | READS[name]
    want = {key: want[key] for key in got}
    _assert_bitwise(got, want)
