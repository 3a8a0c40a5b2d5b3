import json

import numpy as np
import pytest

from fdeflow import cli
from fdeflow.errors import InvalidArgumentError


def _write(tmp_path, body, name="config.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


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
    assert not (out / cli.LOCK_NAME).exists()


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
    assert not (tmp_path / "out" / cli.LOCK_NAME).exists()
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["exit_code"] == 3 and "effective sample size" in report["error"]
    assert report["problem"] == "portfolio" and "merton:solve" in report["wall_clock"]


def test_unknown_problem_and_fixture_exit_two(tmp_path, capsys):
    cfg = _write(tmp_path, "[run]\nproblem = nonsense\n")
    assert cli.main(["run", cfg]) == 2
    cfg2 = _write(tmp_path, "[run]\nproblem = fbsde\n\n[coefficients]\nfixture = nope\n",
                  name="c2.cfg")
    assert cli.main(["run", cfg2]) == 2


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
         "it reads export_paths, quiet"),
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
        ("K = 16", "K = 16\n\n[solver]\nmax_iter = 0", "max_iter must be at least 1"),
        ("K = 16", "K = 16\n\n[output]\nexport_paths = -1",
         "export_paths must be non-negative"),
        # a non-finite or inverted exploration box would crash the solve;
        # degree 0 and an empty kind would run silently with the fixture's basis
        ("K = 16", "K = 16\n\n[solver]\nexploration_radius = nan",
         "exploration_radius must be finite"),
        ("K = 16", "K = 16\n\n[solver]\nexploration_radius = -2.2",
         "exploration_radius must be finite and non-negative"),
        ("K = 16", "K = 16\n\n[solver]\nexploration_floor = inf",
         "exploration_floor must be finite"),
        ("K = 16", "K = 16\n\n[solver]\nbasis_degree = 0", "basis_degree must be at least 1"),
        ("K = 16", "K = 16\n\n[solver]\nbasis_kind =",
         "basis_kind must be polynomial or quantile-linear, got ''"),
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
    assert not (tmp_path / "out" / cli.LOCK_NAME).exists()
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["exit_code"] == 3 and report["error"] == dump["error"]


def test_argument_error_inside_the_run_exits_two_with_report(tmp_path, capsys):
    # a grid coarser than the contraction window fails in the solver
    body = TRIVIAL_CFG.replace("fixture = trivial", "fixture = linear_driver")
    cfg = _write(tmp_path, body.replace("K = 16", "K = 2").format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    assert "contraction window" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["exit_code"] == 2 and "contraction window" in report["error"]
    assert report["assertions"] == []


def test_lock_file_blocks_concurrent_runs(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / cli.LOCK_NAME).write_text("pid=0\n")
    cfg = _write(tmp_path, TRIVIAL_CFG.format(out=out))
    assert cli.main(["run", cfg]) == 2
    assert "locked" in capsys.readouterr().out
    # the run that holds the directory owns its report
    assert not (out / "run_report.json").exists()


def test_lock_of_an_exited_process_is_retaken(tmp_path, capsys):
    import os
    import subprocess
    import sys
    out = tmp_path / "out"
    out.mkdir()
    cfg = _write(tmp_path, TRIVIAL_CFG.format(out=out))
    (out / cli.LOCK_NAME).write_text(f"pid={os.getpid()}\n")   # a live process
    assert cli.main(["run", cfg]) == 2
    assert "locked" in capsys.readouterr().out
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    (out / cli.LOCK_NAME).write_text(f"pid={child.pid}\n")
    assert cli.main(["run", cfg, "--quiet"]) == 0
    assert not (out / cli.LOCK_NAME).exists()


# a run that reads the lock as stale waits, after that first read, until
# every run has read it, so all of them try to take over the same stale lock
_TAKEOVER_RACE = """
import os, sys, time
from pathlib import Path
from fdeflow import cli
out, ready, runs = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
stale_pid, waited = cli._stale_pid, []
def read_then_wait(lock):
    pid = stale_pid(lock)
    if not waited:
        waited.append(pid)
        (ready / str(os.getpid())).touch()
        deadline = time.monotonic() + 60
        while len(list(ready.iterdir())) < runs and time.monotonic() < deadline:
            time.sleep(0.01)
    return pid
cli._stale_pid = read_then_wait
try:
    cli._acquire_lock(out)
    print("took", os.getpid())
except cli.ConfigError:
    print("locked", os.getpid())
"""


def test_two_runs_cannot_both_take_over_one_stale_lock(tmp_path):
    import os
    import subprocess
    import sys
    out, ready = tmp_path / "out", tmp_path / "ready"
    out.mkdir()
    ready.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    (out / cli.LOCK_NAME).write_text(f"pid={child.pid}\n")   # an exited process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
    runs = [subprocess.Popen([sys.executable, "-c", _TAKEOVER_RACE, str(out), str(ready), "2"],
                             stdout=subprocess.PIPE, text=True, env=env) for _ in range(2)]
    results = [run.communicate(timeout=120)[0].split() for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert len(list(ready.iterdir())) == 2   # both read the lock as stale
    assert sorted(word for word, _ in results) == ["locked", "took"]
    winner = next(pid for word, pid in results if word == "took")
    assert (out / cli.LOCK_NAME).read_text() == f"pid={winner}\n"
    assert sorted(p.name for p in out.iterdir()) == [cli.LOCK_NAME]


def test_run_removes_the_lock_only_while_it_holds_it(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = _write(tmp_path, TRIVIAL_CFG.format(out=out))

    def taken_over(cfg):
        (out / cli.LOCK_NAME).write_text("pid=1\n")
        raise cli.ConfigError("stop")

    monkeypatch.setattr(cli, "run", taken_over)
    assert cli.main(["run", cfg]) == 2
    assert (out / cli.LOCK_NAME).read_text() == "pid=1\n"


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
