import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdeflow import cli
from fdeflow.errors import InvalidArgumentError


def _write(tmp_path, body, name="config.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def _holds_only(out, report, *extra):
    """The output directory holds the report's outputs, its report and ``extra``."""
    from pathlib import Path
    expected = [Path(p).name for p in report["outputs"]] + ["run_report.json", *extra]
    return sorted(p.name for p in out.iterdir()) == sorted(expected)


TRIVIAL_CFG = """
[run]
problem = fbsde
seed = 4242
num_paths = 2000
out = {out}

[coefficients]
fixture = trivial

[grid]
T = 1.0
K = 16
"""


def test_run_trivial_fixture_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, TRIVIAL_CFG.format(out=tmp_path / "out"))
    code = cli.main(["run", cfg])
    assert code == 0
    text = capsys.readouterr().out
    assert "assertions passed" in text
    out = tmp_path / "out"
    assert (out / "verdicts.csv").exists()
    assert (out / "trivial_paths.csv").exists()
    report = json.loads((out / "run_report.json").read_text())
    assert report["problem"] == "fbsde"
    assert report["config"]["seed"] == 4242
    assert all(a["passed"] for a in report["assertions"])
    assert _holds_only(out, report)


def test_missing_field_exits_two_and_names_it(tmp_path, capsys):
    body = """
[run]
problem = portfolio
out = {out}

[market]
mu_s = 0.1
sigma_bar_s = 0.2
"""
    cfg = _write(tmp_path, body.format(out=tmp_path / "out"))
    code = cli.main(["run", cfg])
    assert code == 2
    assert "gamma" in capsys.readouterr().out
    # a config that fails to load writes no report
    assert not (tmp_path / "out" / "run_report.json").exists()


def _shipped_config(name, tmp_path, **overrides):
    from pathlib import Path
    text = (Path(__file__).resolve().parents[1] / "configs" / name).read_text()
    lines = []
    for line in text.splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {overrides[key]}" if key in overrides else line)
    return _write(tmp_path, "\n".join(lines) + "\n", name=name)


def test_endowment_typo_exits_two(tmp_path, capsys):
    cfg = _shipped_config("portfolio.cfg", tmp_path, endowment="zer0",
                          out=tmp_path / "out")
    assert cli.main(["run", cfg]) == 2
    assert "zer0" in capsys.readouterr().out


def test_insufficient_weight_exits_three_without_traceback(tmp_path, capsys):
    # a large market price of risk leaves the importance weights with an
    # effective sample size too small for the reweighted Z fit
    cfg = _shipped_config("portfolio.cfg", tmp_path, mu_s=3, out=tmp_path / "out")
    assert cli.main(["run", cfg, "--paths", "4000"]) == 3
    text = capsys.readouterr().out
    assert text.count("\n") == 1 and "effective sample size" in text
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["exit_code"] == 3 and "effective sample size" in report["error"]
    assert report["problem"] == "portfolio" and "merton:solve" in report["wall_clock"]
    assert _holds_only(tmp_path / "out", report)


def test_unknown_problem_and_fixture_exit_two(tmp_path, capsys):
    cfg = _write(tmp_path, "[run]\nproblem = nonsense\n")
    assert cli.main(["run", cfg]) == 2
    cfg2 = _write(tmp_path, "[run]\nproblem = fbsde\n\n[coefficients]\nfixture = nope\n",
                  name="c2.cfg")
    assert cli.main(["run", cfg2]) == 2
    # a market fixture has neither a weak solution nor an fbsde oracle check
    capsys.readouterr()
    for problem, fixture in (("qbsde-weak", "merton"), ("fbsde", "endowment")):
        body = TRIVIAL_CFG.replace("fbsde", problem).replace("trivial", fixture)
        cfg3 = _write(tmp_path, body.format(out=tmp_path / "out"), name="c3.cfg")
        assert cli.main(["run", cfg3]) == 2
        text = capsys.readouterr().out
        assert text.startswith("config error") and "problem = portfolio" in text
    assert not (tmp_path / "out").exists()


def test_non_numeric_coefficient_exits_two(tmp_path, capsys):
    body = TRIVIAL_CFG.replace("fixture = trivial", "fixture = const_driver\nc = abc")
    cfg = _write(tmp_path, body.format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    text = capsys.readouterr().out
    assert text.startswith("config error") and "abc" in text and "Traceback" not in text


def test_unknown_fixture_keys_exit_two_and_name_known_keys(tmp_path, capsys):
    # a typo must not solve silently with the default c = 0.3
    body = TRIVIAL_CFG.replace("fixture = trivial", "fixture = const_driver\ncc = 0.9")
    cfg = _write(tmp_path, body.format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    text = capsys.readouterr().out
    assert "cc" in text and "it reads c" in text
    body = TRIVIAL_CFG.replace("fixture = trivial", "fixture = trivial\nc = 0.9")
    cfg = _write(tmp_path, body.format(out=tmp_path / "out"), name="c2.cfg")
    assert cli.main(["run", cfg]) == 2
    assert "no parameters" in capsys.readouterr().out
    body = TRIVIAL_CFG.replace("fixture = trivial", "fixture = const_driver\nc = 0.9")
    cfg = cli.load_config(_write(tmp_path, body.format(out=tmp_path / "out"), name="c3.cfg"))
    assert cfg.fixture_params == {"c": 0.9}
    # [market] keys are the market fixture's parameters
    text = open(_shipped_config("portfolio.cfg", tmp_path)).read()
    cfg = _write(tmp_path, text.replace("mu_v = ", "mu_vv = "), name="p.cfg")
    assert cli.main(["run", cfg]) == 2
    assert "does not read mu_vv" in capsys.readouterr().out


def test_unread_config_keys_and_sections_exit_two(tmp_path, capsys):
    # a typo must not run silently with the default; configparser lowercases
    # keys, so the grid's T and K arrive as t and k and still count as read
    cases = [
        ("seed = 4242", "seed = 4242\nnum_path = 10", "does not read num_path",
         "it reads problem, seed, num_paths, out"),
        ("K = 16", "K = 16\ndt = 0.1", "does not read dt", "it reads T, K, c4"),
        ("K = 16", "K = 16\n\n[solver]\ntols = 1e-9", "does not read tols", "it reads tol,"),
        ("K = 16", "K = 16\n\n[output]\nexport_path = 5", "does not read export_path",
         "it reads export_paths\n"),
        # the exploration box, the Y clip and the mesh check are fixed in the
        # solver, and --quiet is a command-line flag only
        ("K = 16", "K = 16\n\n[solver]\nexploration_radius = nan",
         "does not read exploration_radius", "it reads tol,"),
        ("K = 16", "K = 16\n\n[solver]\nexploration_radius = -2.2",
         "does not read exploration_radius", "it reads tol,"),
        ("K = 16", "K = 16\n\n[solver]\nexploration_floor = inf",
         "does not read exploration_floor", "it reads tol,"),
        ("K = 16", "K = 16\n\n[solver]\nclip_y = false", "does not read clip_y",
         "it reads tol,"),
        ("K = 16", "K = 16\n\n[solver]\nforce = true", "does not read force",
         "it reads tol,"),
        ("K = 16", "K = 16\n\n[output]\nquiet = true", "does not read quiet",
         "it reads export_paths\n"),
        ("K = 16", "K = 16\n\n[solvr]\ntol = 1e-9", "reads no section [solvr]",
         "[solver]"),
        ("K = 16", "K = 16\n\n[market]\ngamma = 1", "reads no section [market]",
         "[coefficients]"),
    ]
    for i, (old, new, named, known) in enumerate(cases):
        body = TRIVIAL_CFG.replace(old, new).format(out=tmp_path / "out")
        assert cli.main(["run", _write(tmp_path, body, name=f"c{i}.cfg")]) == 2
        text = capsys.readouterr().out
        assert text.startswith("config error") and named in text and known in text
    # bodies that configparser itself cannot read, and values out of range;
    # both are caught before the solve, so no output directory appears
    cases = [
        ("[run]\n", "", "contains no section headers"),
        ("[grid]", "[grid]\nT = 2.0\n\n[grid]", "section 'grid' already exists"),
        ("K = 16", "K = 16\nK = 32", "option 'k' in section 'grid' already exists"),
        ("K = 16", "K = 16\n\n[solver]\nmax_iter = 0", "max_iter must be at least 2"),
        # a window measures its first Picard distance on its second pass
        ("K = 16", "K = 16\n\n[solver]\nmax_iter = 1", "max_iter must be at least 2"),
        ("K = 16", "K = 16\n\n[output]\nexport_paths = -1",
         "export_paths must be non-negative"),
        # degree 0 would run silently with the fixture's basis; every fit is
        # polynomial, so there is no basis kind to choose
        ("K = 16", "K = 16\n\n[solver]\nbasis_degree = 0", "basis_degree must be at least 1"),
        ("K = 16", "K = 16\n\n[solver]\nbasis_kind =", "[solver] does not read basis_kind"),
    ]
    for i, (old, new, named) in enumerate(cases):
        body = TRIVIAL_CFG.replace(old, new).format(out=tmp_path / "out")
        assert cli.main(["run", _write(tmp_path, body, name=f"p{i}.cfg")]) == 2
        text = capsys.readouterr().out
        assert text.startswith("config error") and named in text
        assert text.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_basis_for_does_not_replace_a_zero_degree():
    fixture = cli.FIXTURES["trivial"]
    cfg = cli.ExperimentConfig(problem="fbsde", basis_degree=2)
    assert cli._basis_for(cfg, fixture).p == 2
    with pytest.raises(InvalidArgumentError, match="basis size"):
        cli._basis_for(cli.ExperimentConfig(problem="fbsde", basis_degree=0), fixture)


def test_divergence_exits_three_with_report(tmp_path, capsys):
    # an unreachable tolerance exhausts max_iter on a fixture whose iterate
    # distances are nonzero floats
    body = """
[run]
problem = fbsde
seed = 1
num_paths = 2000
out = {out}

[coefficients]
fixture = linear_driver

[grid]
T = 1.0
K = 64
c4 = 1.0

[solver]
tol = 1e-30
max_iter = 3
"""
    cfg = _write(tmp_path, body.format(out=tmp_path / "out"))
    code = cli.main(["run", cfg])
    assert code == 3
    dump = json.loads((tmp_path / "out" / "picard_report.json").read_text())
    assert dump["report"]["iterations"] >= 1
    assert not dump["report"]["converged"]
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["exit_code"] == 3 and report["error"] == dump["error"]
    assert _holds_only(tmp_path / "out", report, "picard_report.json")


def test_argument_error_inside_the_run_exits_two_with_report(tmp_path, capsys):
    # a grid coarser than the contraction window fails in the solver
    body = TRIVIAL_CFG.replace("fixture = trivial", "fixture = linear_driver")
    cfg = _write(tmp_path, body.replace("K = 16", "K = 2").format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    assert "contraction window" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["exit_code"] == 2 and "contraction window" in report["error"]
    assert report["assertions"] == []


@pytest.mark.parametrize("K", [1, 2])
def test_coarse_grid_probes_stay_on_the_grid(tmp_path, capsys, K):
    # the oracle probes at a quarter, a half and three quarters of the horizon
    # fall back to the last step before T, so a one- or two-step grid ends
    # with a verdict table, not an IndexError
    cfg = _shipped_config("fbsde.cfg", tmp_path, K=K, out=tmp_path / "out")
    assert cli.main(["run", cfg, "--paths", "3000", "--quiet"]) == 1
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert "error" not in report and not all(a["passed"] for a in report["assertions"])
    assert any(a["name"] == "heat_oracle_sup" for a in report["assertions"])


def test_picard_count_fails_a_run_that_never_reached_1e_4(tmp_path, capsys):
    # tol = 10 stops each window after its first distance, about 0.0125 here
    body = """
[run]
problem = fbsde
num_paths = 5000
out = {out}

[coefficients]
fixture = linear_driver

[solver]
tol = 10
"""
    cfg = _write(tmp_path, body.format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 1
    assert "FAIL  picard_iterations_at_1e-4  value=-1 " in capsys.readouterr().out


def test_one_window_short_of_1e_4_fails_the_picard_count():
    from types import SimpleNamespace
    from fdeflow.fde import PicardReport
    log = [PicardReport((0.0, 0.5), [1e-5], True), PicardReport((0.5, 1.0), [0.0125], True)]
    sol = SimpleNamespace(iteration_log=log,
                          residuals=dict(backward_rms=0.0, forward_max=0.0, terminal_rms=0.0))
    picard = cli._common_assertions({"sol": sol})[1]
    assert (picard.name, picard.value, picard.passed) == ("picard_iterations_at_1e-4", -1, False)


@pytest.mark.parametrize("K", [1, 50])
def test_weak_run_takes_its_bmo_probes_from_the_grid(tmp_path, K):
    # the BMO probes are steps 0, K // 4 and K // 2, so a grid whose K is not
    # a multiple of 4 ends with a verdict table, not an off-grid probe error
    cfg = _shipped_config("qbsde_weak.cfg", tmp_path, K=K, out=tmp_path / "out")
    assert cli.main(["run", cfg, "--paths", "3000", "--quiet"]) in (0, 1)
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert "error" not in report
    assert any(a["name"] == "bmo_const_rel_dev" for a in report["assertions"])


def _read_rows(path):
    """The rows of an exported grid CSV as {column: float64 array}."""
    lines = path.read_text().splitlines()
    cells = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return dict(zip(lines[0].split(","), cells.T))


def test_exported_rows_are_the_replayed_forward_states(tmp_path):
    # const_forward has f = c, so X is not the Brownian path; the run writes
    # V and X to the paths CSV and X as W to the weak CSV
    from fdeflow.fixtures import get_fixture
    from _helpers import replayed_paths
    cfg = cli.load_config(_shipped_config("qbsde_weak.cfg", tmp_path, K=16, num_paths=3000,
                                          export_paths=5, out=tmp_path / "out"))
    cli.run(cfg)
    bundle = cli._solve_fixture(get_fixture("const_forward"), cfg)
    sol = bundle["sol"]
    V, X = replayed_paths(sol, bundle["ensemble"])
    bits = lambda a: np.ascontiguousarray(a, dtype=float).view(np.uint64)
    assert np.array_equal(bits(X[:, -1]), bits(sol.X_T))
    paths = _read_rows(tmp_path / "out" / "const_forward_paths.csv")
    weak = _read_rows(tmp_path / "out" / "const_forward_weak.csv")
    assert np.array_equal(bits(paths["V0"]), bits(V[:5, :, 0].ravel()))
    assert np.array_equal(bits(paths["X0"]), bits(X[:5, :, 0].ravel()))
    assert np.array_equal(bits(weak["W0"]), bits(X[:5, :, 0].ravel()))


# 1e15 float64 values (8 PB) exceed any address space, so the allocation
# fails at once whatever the machine's overcommit policy
HUGE = "1000000000000000"


@pytest.mark.parametrize("K, args", [("16", ["--paths", HUGE]), (HUGE, [])])
def test_unallocatable_size_exits_two_with_report(tmp_path, capsys, K, args):
    body = TRIVIAL_CFG.replace("K = 16", f"K = {K}").format(out=tmp_path / "out")
    assert cli.main(["run", _write(tmp_path, body), *args]) == 2
    text = capsys.readouterr().out
    assert text.startswith("config error: Unable to allocate") and text.count("\n") == 1
    paths = HUGE if args else "2000"
    assert f"num_paths = {paths} and K = {K} are too large" in text
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["exit_code"] == 2 and report["error"] in text


def test_infinite_horizon_exits_two_and_names_it(tmp_path, capsys):
    body = TRIVIAL_CFG.replace("T = 1.0", "T = inf").format(out=tmp_path / "out")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", _write(tmp_path, body)]) == 2
    assert caught == []
    assert "horizon T must be positive and finite, got inf" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["exit_code"] == 2


@pytest.mark.parametrize("c4", ["nan", "inf", "-1"])
def test_invalid_c4_exits_two_and_names_it(tmp_path, capsys, c4):
    # trivial has c1 = 0, where the window rule ignores c4 altogether
    body = TRIVIAL_CFG.replace("K = 16", f"K = 16\nc4 = {c4}").format(out=tmp_path / "out")
    assert cli.main(["run", _write(tmp_path, body)]) == 2
    assert "c4 must be finite and non-negative" in capsys.readouterr().out


MARKET_NUMBERS = ("mu_s", "sigma_bar_s", "mu_v", "sigma_v", "sigma_bar_v",
                  "gamma", "x0", "v0", "s0")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", MARKET_NUMBERS)
def test_non_finite_market_number_exits_two_and_names_it(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    cfg = _shipped_config("portfolio.cfg", tmp_path, out=out, num_paths=3000, **{key: value})
    assert cli.main(["run", cfg]) == 2
    text = capsys.readouterr().out
    assert text.startswith("config error: ") and text.count("\n") == 1
    assert f"{key} must be a finite number" in text
    report = json.loads((out / "run_report.json").read_text())
    assert report["exit_code"] == 2 and report["error"] in text


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_invalid_endowment_scale_exits_two_and_names_it(tmp_path, capsys, scale):
    out = tmp_path / "out"
    body = (f"[run]\nproblem = portfolio\nnum_paths = 3000\nout = {out}\n\n[market]\n"
            f"mu_s = 0.1\nsigma_bar_s = 0.2\ngamma = 1.0\nendowment = tanh\n"
            f"endowment_scale = {scale}\n")
    assert cli.main(["run", _write(tmp_path, body)]) == 2
    text = capsys.readouterr().out
    assert text.startswith("config error: ") and text.count("\n") == 1
    assert "endowment_scale must be finite and positive" in text


def test_value_overflow_exits_three_without_numpy_warnings(tmp_path):
    import subprocess
    import sys
    cfg = _shipped_config("portfolio.cfg", tmp_path, x0=-1000, out=tmp_path / "out")
    child = subprocess.run([sys.executable, "-m", "fdeflow.cli", "run", cfg, "--paths", "3000"],
                           env=_pythonpath_env(), capture_output=True, text=True, timeout=300)
    assert child.returncode == 3
    assert "RuntimeWarning" not in child.stderr
    assert child.stdout.startswith("numerical breakdown: value overflow")
    assert child.stdout.count("\n") == 1


# each base: its problem and the fixture section, where {} is the drawn
# fixture parameter
CONTRACT_BASES = {
    "fbsde": ("fbsde", "[coefficients]\nfixture = linear_driver\na = {}\n"),
    "portfolio": ("portfolio", "[market]\nmu_s = 0.1\nsigma_bar_s = 0.2\ngamma = {}\n"),
    "portfolio-x0": ("portfolio",
                     "[market]\nmu_s = 0.1\nsigma_bar_s = 0.2\ngamma = 1.0\nx0 = {}\n"),
    "qbsde-weak": ("qbsde-weak", "[coefficients]\nfixture = const_forward\nc = {}\n"),
}
# key: (section, valid values); the valid sizes keep every solve small
CONTRACT_KEYS = {
    "T": ("grid", ["1.0", "0.5"]),
    "K": ("grid", ["8", "32", "64"]),
    "c4": ("grid", ["0", "0.5", "1.0"]),
    "tol": ("solver", ["1e-4", "1e-2"]),
    "max_iter": ("solver", ["50", "5"]),
    "basis_degree": ("solver", ["2", "3", "5"]),
    "num_paths": ("run", ["600", "2000"]),
    "param": (None, ["0", "0.25", "0.5"]),
}
NON_FINITE = ("nan", "inf", "-inf")


@given(base=st.sampled_from(sorted(CONTRACT_BASES)),
       valid=st.fixed_dictionaries({k: st.sampled_from(v)
                                    for k, (_, v) in CONTRACT_KEYS.items()}),
       broken=st.dictionaries(st.sampled_from(sorted(CONTRACT_KEYS)),
                              st.sampled_from(["0", "-1", *NON_FINITE, HUGE]),
                              max_size=2))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generated_configs_keep_the_exit_code_contract(tmp_path_factory, base, valid, broken):
    values = {**valid, **broken}
    out = tmp_path_factory.mktemp("contract")
    problem, fixture_section = CONTRACT_BASES[base]
    rows = {"run": [f"problem = {problem}", f"out = {out / 'out'}"]}
    for key, (section, _) in CONTRACT_KEYS.items():
        if section is not None:
            rows.setdefault(section, []).append(f"{key} = {values[key]}")
    body = fixture_section.format(values["param"]) + "".join(
        f"\n[{section}]\n" + "\n".join(lines) + "\n" for section, lines in rows.items())
    real_run = cli.run
    raised = []

    def spied_run(cfg):
        try:
            return real_run(cfg)
        except Exception:
            raised.append(True)
            raise

    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()) as printed:
        mp.setattr(cli, "run", spied_run)
        code = cli.main(["run", _write(out, body), "--quiet"])
    assert code in {0, 1, 2, 3}
    if any(v in NON_FINITE for v in values.values()):
        assert code in {2, 3} and printed.getvalue().count("\n") == 1
    if raised:
        report = json.loads((out / "out" / "run_report.json").read_text())
        assert code in {2, 3} and report["exit_code"] == code


def test_lock_file_blocks_concurrent_runs(tmp_path, capsys):
    import os
    out = tmp_path / "out"
    cfg = _write(tmp_path, TRIVIAL_CFG.format(out=out))
    held = cli._acquire_lock(out)   # flock treats separate opens independently
    try:
        assert cli.main(["run", cfg]) == 2
        assert "locked" in capsys.readouterr().out
        # the run that holds the directory owns its report
        assert not (out / "run_report.json").exists()
    finally:
        os.close(held)
    assert cli.main(["run", cfg, "--quiet"]) == 0


def _pythonpath_env():
    import os
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))


def test_lock_of_an_exited_process_is_retaken(tmp_path):
    import subprocess
    import sys
    out = tmp_path / "out"
    cfg = _write(tmp_path, TRIVIAL_CFG.format(out=out))
    # the child ends while it holds the lock, without closing or cleaning up
    child = subprocess.run(
        [sys.executable, "-c", "import os, sys; from pathlib import Path; "
         "from fdeflow import cli; cli._acquire_lock(Path(sys.argv[1])); os._exit(0)",
         str(out)], env=_pythonpath_env(), timeout=120)
    assert child.returncode == 0
    assert list(out.iterdir()) == []
    assert cli.main(["run", cfg, "--quiet"]) == 0


def test_leftover_lock_and_claim_files_do_not_block_a_run(tmp_path):
    # the files an earlier lock protocol left behind when a run was killed
    # while taking over a stale lock: a lock recording an exited PID and its claim
    import subprocess
    import sys
    out = tmp_path / "out"
    out.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    (out / ".fdeflow.lock").write_text(f"pid={child.pid}\n")
    (out / f".fdeflow.lock.claim-{child.pid}").touch()
    cfg = _write(tmp_path, TRIVIAL_CFG.format(out=out))
    assert cli.main(["run", cfg, "--quiet"]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert _holds_only(out, report, ".fdeflow.lock", f".fdeflow.lock.claim-{child.pid}")


# each run waits until every run is ready, tries the lock, then holds what it
# got until every run has tried, so each try meets the others' held locks
_LOCK_RACE = """
import os, sys, time
from pathlib import Path
from fdeflow import cli
out, ready, tried, runs = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4])
def wait_for(folder):
    (folder / str(os.getpid())).touch()
    deadline = time.monotonic() + 60
    while len(list(folder.iterdir())) < runs and time.monotonic() < deadline:
        time.sleep(0.01)
wait_for(ready)
try:
    cli._acquire_lock(out)
    print("took", os.getpid())
except cli.ConfigError:
    print("locked", os.getpid())
wait_for(tried)
"""


def test_two_runs_cannot_both_take_the_lock(tmp_path):
    import subprocess
    import sys
    out, ready, tried = tmp_path / "out", tmp_path / "ready", tmp_path / "tried"
    ready.mkdir()
    tried.mkdir()
    runs = [subprocess.Popen([sys.executable, "-c", _LOCK_RACE, str(out), str(ready),
                              str(tried), "2"],
                             stdout=subprocess.PIPE, text=True, env=_pythonpath_env())
            for _ in range(2)]
    results = [run.communicate(timeout=120)[0].split() for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert len(list(tried.iterdir())) == 2   # both tried while the winner held the lock
    assert sorted(word for word, _ in results) == ["locked", "took"]
    assert list(out.iterdir()) == []   # the lock leaves no file behind


def test_a_failed_run_releases_the_lock(tmp_path, monkeypatch):
    import os
    out = tmp_path / "out"
    cfg = _write(tmp_path, TRIVIAL_CFG.format(out=out))

    def fails(cfg):
        raise cli.ConfigError("stop")

    monkeypatch.setattr(cli, "run", fails)
    assert cli.main(["run", cfg]) == 2
    os.close(cli._acquire_lock(out))


def test_unusable_output_directory_exits_two(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    cfg = _write(tmp_path, TRIVIAL_CFG.format(out=tmp_path / "out"))
    for out in (not_a_dir, not_a_dir / "out"):
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        text = capsys.readouterr().out
        assert text.startswith("config error") and str(out) in text
        assert text.count("\n") == 1
    assert not_a_dir.read_text() == ""


def test_qbsde_weak_problem_writes_weak_artifacts(tmp_path):
    body = """
[run]
problem = qbsde-weak
seed = 11
num_paths = 2000
out = {out}

[coefficients]
fixture = const_forward

[grid]
T = 1.0
K = 16
c4 = 1.0
"""
    cfg = _write(tmp_path, body.format(out=tmp_path / "out"))
    code = cli.main(["run", cfg, "--quiet"])
    assert code in (0, 1)  # statistical asserts may widen at 2000 paths
    out = tmp_path / "out"
    assert (out / "const_forward_weak.csv").exists()
    weak = json.loads((out / "const_forward_weak.json").read_text())
    assert "weights" in weak and "residual" in weak
    names = [line.split(",")[1] for line in
             (out / "verdicts.csv").read_text().splitlines()[1:]]
    assert "weight_mean_dev_se" in names and len(names) == len(set(names))
    # the weak solution is the solve's (Y, Z) with W its forward state X
    paths, weak_rows = ([row.split(",") for row in (out / f"const_forward_{kind}.csv")
                         .read_text().splitlines()] for kind in ("paths", "weak"))
    assert paths[0][4:] == ["X0", "Y0", "Z00"] and weak_rows[0][3:] == ["Y0", "Z00", "W0"]
    assert len(weak_rows) == len(paths) > 1
    for p_row, w_row in zip(paths[1:], weak_rows[1:]):
        assert w_row[:3] == p_row[:3] and w_row[3:] == p_row[5:] + p_row[4:5]


# with f == 0 every weight is exactly 1, so the weights' standard error is 0
@pytest.mark.parametrize("problem, section", [
    ("qbsde-weak", "[coefficients]\nfixture = trivial"),
    ("qbsde-weak", "[coefficients]\nfixture = tanh_terminal"),
    ("qbsde-weak", "[coefficients]\nfixture = linear_driver"),
    ("fbsde", "[coefficients]\nfixture = const_forward\nc = 0"),
    ("portfolio", "[market]\nmu_s = 0\nsigma_bar_s = 0.2\ngamma = 1.0"),
], ids=["weak-trivial", "weak-tanh_terminal", "weak-linear_driver", "const_forward-c0",
        "merton-mu0"])
def test_zero_drift_runs_end_with_a_verdict_table(tmp_path, problem, section):
    out = tmp_path / "out"
    body = f"[run]\nproblem = {problem}\nseed = 7\nnum_paths = 2000\nout = {out}\n\n{section}\n"
    assert cli.main(["run", _write(tmp_path, body), "--quiet"]) in (0, 1)
    report = json.loads((out / "run_report.json").read_text())
    assert "exit_code" not in report
    checks = {a["name"]: a for a in report["assertions"]}
    assert checks["weight_mean_dev_se"]["value"] == 0.0
    assert checks["weight_mean_dev_se"]["passed"]


@pytest.mark.parametrize("endowment", ["endowment = zero",
                                       "endowment = tanh\nendowment_scale = 0.3"],
                         ids=["merton", "endowment"])
def test_underflowing_utility_ends_with_a_verdict_table(tmp_path, endowment):
    # with x0 = 1e15 every utility -exp(-gamma (X + Y)) is -0.0, so each
    # strategy's drift and its standard error are 0
    out = tmp_path / "out"
    body = (f"[run]\nproblem = portfolio\nnum_paths = 3000\nout = {out}\n\n[market]\n"
            f"mu_s = 0.1\nsigma_bar_s = 0.2\ngamma = 1.0\nx0 = {HUGE}\n{endowment}\n")
    assert cli.main(["run", _write(tmp_path, body), "--quiet"]) == 1
    report = json.loads((out / "run_report.json").read_text())
    assert "exit_code" not in report
    checks = {a["name"]: a for a in report["assertions"]}
    assert checks["optimality_pi_star+1_drift_tstat"]["value"] == 0.0
    assert not checks["optimality_pi_star+1_drift_tstat"]["passed"]


def test_seed_and_paths_overrides_apply(tmp_path):
    cfg = _write(tmp_path, TRIVIAL_CFG.format(out=tmp_path / "out"))
    code = cli.main(["run", cfg, "--seed", "777", "--paths", "1500", "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["seed"] == 777
    assert report["config"]["num_paths"] == 1500


def test_byte_identical_reruns_and_seed_sensitivity(tmp_path):
    cfg1 = _write(tmp_path, TRIVIAL_CFG.format(out=tmp_path / "a"), name="a.cfg")
    cfg2 = _write(tmp_path, TRIVIAL_CFG.format(out=tmp_path / "b"), name="b.cfg")
    assert cli.main(["run", cfg1, "--quiet"]) == 0
    assert cli.main(["run", cfg2, "--quiet"]) == 0
    for name in ("verdicts.csv", "trivial_paths.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    out_c = tmp_path / "c"
    assert cli.main(["run", cfg1, "--quiet", "--out", str(out_c), "--seed", "4243"]) == 0
    assert (tmp_path / "a" / "trivial_paths.csv").read_bytes() != \
        (out_c / "trivial_paths.csv").read_bytes()


def test_degraded_path_count_still_produces_structured_output(tmp_path):
    body = """
[run]
problem = fbsde
seed = 5
num_paths = 1000
out = {out}

[coefficients]
fixture = tanh_terminal

[grid]
T = 1.0
K = 16
c4 = 1.0
"""
    cfg = _write(tmp_path, body.format(out=tmp_path / "out"))
    code = cli.main(["run", cfg, "--quiet"])
    assert code in (0, 1)
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert len(report["assertions"]) > 3
    assert (tmp_path / "out" / "verdicts.csv").exists()


def test_portfolio_problem_reduced_scale(tmp_path):
    body = """
[run]
problem = portfolio
seed = 31
num_paths = 20000
out = {out}

[market]
mu_s = 0.1
sigma_bar_s = 0.2
mu_v = 0.05
sigma_v = 0.3
sigma_bar_v = 0.1
gamma = 1.0
x0 = 0.0
v0 = 1.0
s0 = 1.0
endowment = zero

[grid]
T = 1.0
K = 25
"""
    cfg = _write(tmp_path, body.format(out=tmp_path / "out"))
    code = cli.main(["run", cfg, "--quiet"])
    assert code == 0
    out = tmp_path / "out"
    payload = json.loads((out / "merton_portfolio.json").read_text())
    assert abs(payload["y0"] - 0.125) <= 0.01
    assert "drift_table" in payload
    assert (out / "merton_paths.csv").exists()


def test_every_json_of_a_portfolio_run_echoes_the_same_config(tmp_path):
    out = tmp_path / "out"
    cfg = _shipped_config("portfolio.cfg", tmp_path, out=out, num_paths=2000)
    assert cli.main(["run", cfg, "--quiet"]) in (0, 1)
    echoes = [json.loads((out / name).read_text())["config"]
              for name in ("run_report.json", "merton_summary.json", "merton_portfolio.json")]
    assert echoes[0]["fixture_params"]["mu_s"] == 0.1
    assert echoes[1] == echoes[0] and echoes[2] == echoes[0]
    assert all(e["fixture"] == "merton" and "market" not in e for e in echoes)


def test_market_section_selects_the_fixture_and_is_echoed_once():
    from pathlib import Path
    cfg = cli.load_config(Path(__file__).resolve().parents[1] / "configs" / "portfolio.cfg")
    assert cfg.fixture == "merton"
    assert "market" not in cfg.echo()


def _reachable_arrays(root) -> list:
    """Every numpy array reachable from ``root`` through objects and containers (not
    through functions or modules), with the buffers that views of them keep alive."""
    import gc
    import types
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_market_solve_ensemble_is_freed_before_the_evaluation_ensemble(monkeypatch):
    # and before the Z-invariance and BMO checks, which read the recorded probe states;
    # whole Y and Z are freed before the evaluation ensemble too
    import gc
    import weakref
    from fdeflow.errors import ReleasedArrayError
    from fdeflow.fixtures import get_fixture
    sample, sampled, alive = cli.sample_ensemble, [], []
    solve, solved, at_evaluation = cli.solve_portfolio, [], []

    def solving(*args, **kwargs):
        psol = solve(*args, **kwargs)
        sol = psol.fde_sol
        solved.append((psol, [weakref.ref(a) for a in (sol.Y, sol.Z, sol.Y.base, sol.Z.base)]))
        return psol

    def recording(*args, **kwargs):
        gc.collect()
        alive.append([ref() is not None for ref in sampled])
        if solved:
            psol, whole = solved[0]
            sol = psol.fde_sol
            at_evaluation.append((
                [ref() is not None for ref in whole], sol.num_paths,
                [a.shape for a in _reachable_arrays(sol) if a.ndim > 2 and 2000 in a.shape[:2]]))
        ensemble = sample(*args, **kwargs)
        sampled.append(weakref.ref(ensemble))
        return ensemble

    def checked(check):
        def run(*args):
            gc.collect()
            alive.append((check.__name__, sampled[0]() is not None))
            return check(*args)
        return run

    monkeypatch.setattr(cli, "sample_ensemble", recording)
    monkeypatch.setattr(cli, "solve_portfolio", solving)
    for name in ("check_z_invariance", "bmo_diagnostic"):
        monkeypatch.setattr(cli, name, checked(getattr(cli, name)))
    cfg = cli.ExperimentConfig(problem="portfolio", num_paths=2000, K=50)
    bundle = cli._solve_fixture(get_fixture("endowment"), cfg)
    assert alive == [[], ("check_z_invariance", False), ("bmo_diagnostic", False), [False]]
    # no (P, K+1, n) Y or (P, K, n, d) Z, nor their step-major buffers, is left to reach
    assert at_evaluation == [([False] * 4, 2000, [])]
    psol = solved[0][0]
    for read, name in ((lambda: psol.fde_sol.Y[:, 0], "Y"), (lambda: psol.fde_sol.Z.shape, "Z"),
                       (lambda: np.asarray(psol.fde_sol.Y), "Y"), (lambda: psol.pi_star, "Z")):
        with pytest.raises(ReleasedArrayError, match=f"whole {name} was released"):
            read()
    # what the checks and the export read instead: the summaries and the recorded rows
    assert bundle["pi_star"] is psol.pi_star_summary
    assert [a.shape for a in bundle["forward"]] == [(200, 51, 1), (200, 51, 2), (200, 51, 1),
                                                    (200, 50, 1, 2)]


def test_market_run_replays_its_forward_pass_four_times(monkeypatch):
    # the assembly, the residual, the weak assembly and the one recorder after the solve
    import sys
    from fdeflow import fde, girsanov
    from fdeflow.fixtures import get_fixture
    replay, callers = fde.replay_forward, []

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return replay(*args)

    for module in (fde, girsanov, cli):
        monkeypatch.setattr(module, "replay_forward", counted)
    cfg = cli.ExperimentConfig(problem="portfolio", num_paths=2000, K=50)
    cli._solve_fixture(get_fixture("endowment"), cfg)
    assert callers == ["solve_global", "check_fbsde_residual", "assemble_weak_solution",
                       "forward_rows"]


@pytest.mark.parametrize("name", ["fbsde.cfg", "qbsde_weak.cfg", "portfolio.cfg"])
def test_shipped_configs_parse_and_run(tmp_path, name):
    from pathlib import Path
    cfg_path = Path(__file__).resolve().parents[1] / "configs" / name
    cfg = cli.load_config(cfg_path)
    cfg.num_paths = 2000
    cfg.out_dir = str(tmp_path / "out")
    report = cli.run(cfg)
    assert (tmp_path / "out" / "verdicts.csv").exists()
    assert report.assertions


def test_shipped_verify_config_parses():
    from pathlib import Path
    cfg_path = Path(__file__).resolve().parents[1] / "configs" / "verify.cfg"
    cfg = cli.load_config(cfg_path)
    assert cfg.problem == "verify-suite"


def test_substream_seeds_are_stable_and_distinct():
    s1 = cli.substream_seed(123, "tanh_terminal:ensemble")
    s2 = cli.substream_seed(123, "tanh_terminal:ensemble")
    s3 = cli.substream_seed(123, "merton:ensemble")
    s4 = cli.substream_seed(124, "tanh_terminal:ensemble")
    assert s1 == s2
    assert len({s1, s3, s4}) == 3


def _perfbench_layertrace():
    """perfbench/layertrace.py, loaded from the checkout without running it."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("_perfbench_layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_traces_exists():
    import importlib
    for mod_name, attr, _, _ in _perfbench_layertrace().WRAPPED:
        owner = importlib.import_module(f"fdeflow.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr}"


@pytest.mark.parametrize("name, measure_changes", [("linear_driver", 0), ("endowment", 1)])
def test_the_benchmark_hooks_count_what_the_run_reports(tmp_path, name, measure_changes):
    # perfbench's traced worker on a copy of its config at 2,000 paths; some
    # bounds fail at that size, so only the hook counts are checked
    import os
    import subprocess
    import sys
    import time
    from pathlib import Path
    root = Path(__file__).resolve().parents[1]
    body = (root / "perfbench" / "configs" / f"{name}.cfg").read_text()
    assert "num_paths = 100000" in body
    cfg = _write(tmp_path, body.replace("num_paths = 100000", "num_paths = 2000"))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), cfg, "--out", str(out),
         "--seed", "20260808", "--spawned-at", repr(time.monotonic()),
         "--trace-file", str(tmp_path / "trace.json")],
        env=env, capture_output=True, text=True, timeout=600)
    layers = json.loads(done.stdout.splitlines()[-1])["layers"]
    summary = json.loads((out / f"{name}_summary.json").read_text())
    assert layers["fde.windows"] == len(summary["windows"])
    assert layers["fde.picard_passes"] == sum(r["iterations"] + 1
                                              for r in summary["iteration_log"])
    assert layers["girsanov.measure_changes"] == measure_changes
    assert layers["regression.designs"] > 0


@pytest.mark.parametrize("config, entry", [(None, "solve_global"),
                                           ("portfolio.cfg", "solve_portfolio")])
def test_run_reaches_the_solver_names_the_benchmark_times(tmp_path, monkeypatch,
                                                           config, entry):
    # the benchmark times solve_s by rebinding these names on cli
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, entry, reached)
    out = tmp_path / "out"
    path = (_write(tmp_path, TRIVIAL_CFG.format(out=out)) if config is None
            else _shipped_config(config, tmp_path, out=out))
    with pytest.raises(Reached):
        cli.run(cli.load_config(path))
