"""Show that every benchmark check can fail.

    python3 perfbench/selftest.py

For each workload, write a synthetic output directory that satisfies its
checks (exact Y values, consistent summaries, passing verdicts), confirm
that every check passes on it, then corrupt one output at a time and confirm
that the check aimed at that corruption fails. Runs in well under a second;
``run.py`` runs it before every measurement.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
T_STEPS = 9


def _params(workload):
    return checks.read_params(BENCH_DIR / "configs" / f"{workload}.cfg")


def _write_paths(path, exact_fn, T):
    t = np.linspace(0.0, T, T_STEPS).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("path,step,t,V0,X0,Y0,Z00\n")
        for p, x0 in enumerate((-2.5, -1.0, 0.0, 0.7, 1.9)):
            for k, tk in enumerate(t):
                x = x0 + 0.1 * k
                y = float(exact_fn(np.array([tk]), np.array([x]))[0])
                fh.write(f"{p},{k},{tk!r},0.0,{x!r},{y!r},0.0\n")


def _write_verdicts(out, fixture):
    with open(out / "verdicts.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("fixture,assertion,value,bound,passed\n")
        fh.write(f"{fixture},contraction_factor,0.1,<= 0.6,1\n")
        fh.write(f"{fixture},backward_residual_rms,0.001,<= 0.01,1\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _clean_linear_driver(out, p):
    a, T = p["a"], p["T"]
    _write_paths(out / "linear_driver_paths.csv",
                 lambda t, x: np.exp((a - 0.5) * (T - t)) * np.sin(x), T)
    _write_json(out / "linear_driver_summary.json", {"y0_mean": [0.001], "y0_stderr": [0.002]})
    _write_verdicts(out, "linear_driver")


def _clean_const_forward(out, p):
    c, T = p["c"], p["T"]
    _write_paths(out / "const_forward_paths.csv",
                 lambda t, x: checks.tanh_heat_value(x, T - t, c), T)
    y0 = float(checks.tanh_heat_value(0.0, T, c))
    _write_json(out / "const_forward_summary.json",
                {"y0_mean": [y0 + 0.001], "y0_stderr": [0.002]})
    _write_verdicts(out, "const_forward")


def _portfolio(p, y0, star_drift=1e-5):
    value = -math.exp(-p["gamma"] * (p["x0"] + y0))
    table = {"pi_star": {"total_drift": star_drift}}
    for label, drift in (("pi_star+0.5", -1e-3), ("pi_star+1", -4e-3),
                         ("pi_star-0.5", -1e-3), ("pi_star-1", -4e-3)):
        table[label] = {"total_drift": drift}
    return {"y0": y0, "value": value, "drift_table": table}


def _merton_y0(p):
    return p["mu_s"] ** 2 * p["T"] / (2.0 * p["gamma"] * p["sigma_bar_s"] ** 2)


def _clean_endowment(out, p):
    _write_json(out / "endowment_portfolio.json", _portfolio(p, _merton_y0(p) + 0.05))
    _write_verdicts(out, "endowment")


def _edit_csv(path, column, row, delta):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row][col] = repr(float(rows[row][col]) + delta)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    _write_json(path, payload)


def _fail_verdict(out):
    with open(out / "verdicts.csv", "a", encoding="utf-8", newline="\n") as fh:
        fh.write("x,forward_residual_max,1e-3,== 0,0\n")


# (workload, writer of a passing output, [(check expected to fail, corruption)])
# row 13 of each synthetic paths table lies inside t < T, |x| <= 2
CASES = [
    ("linear_driver", _clean_linear_driver, [
        ("linear_driver:y_closed_form",
         lambda out, p: _edit_csv(out / "linear_driver_paths.csv", "Y0", 13,
                                   2 * checks.Y_SUP_BOUND["linear_driver"])),
        ("linear_driver:y0_closed_form",
         lambda out, p: _edit_json(out / "linear_driver_summary.json",
                                   lambda s: s.update(y0_mean=[0.01]))),
        ("verdict:x:forward_residual_max", lambda out, p: _fail_verdict(out)),
        ("verdicts.csv", lambda out, p: (out / "verdicts.csv").unlink()),
    ]),
    ("const_forward_weak", _clean_const_forward, [
        ("const_forward:y_quadrature",
         lambda out, p: _edit_csv(out / "const_forward_paths.csv", "Y0", 13,
                                   -2 * checks.Y_SUP_BOUND["const_forward"])),
        ("const_forward:y0_quadrature",
         lambda out, p: _edit_json(out / "const_forward_summary.json",
                                   lambda s: s.update(y0_mean=[s["y0_mean"][0] + 0.01]))),
        ("const_forward_weak:outputs_readable",
         lambda out, p: (out / "const_forward_summary.json").unlink()),
    ]),
    ("endowment", _clean_endowment, [
        ("endowment:y0_comparison",
         lambda out, p: _write_json(out / "endowment_portfolio.json",
                                    _portfolio(p, _merton_y0(p) + 1.01 * p["endowment_scale"]))),
        ("endowment:value_identity",
         lambda out, p: _edit_json(out / "endowment_portfolio.json",
                                   lambda s: s.update(value=s["value"] * (1 + 1e-9)))),
        ("endowment:pi_star_least_drift",
         lambda out, p: _write_json(out / "endowment_portfolio.json",
                                    _portfolio(p, _merton_y0(p), star_drift=2e-3))),
    ]),
]


def _by_name(found, name):
    return [c for c in found if c.name == name]


def run_all(work_dir) -> list:
    """Names of checks that pass a corrupted output or fail a clean one."""
    work_dir = Path(work_dir)
    broken = []
    for workload, write_clean, corruptions in CASES:
        p = _params(workload)
        out = work_dir / workload
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        write_clean(out, p)
        clean, digests = checks.round_checks(workload, p, out, True, None, 0)
        broken += [f"{c.name} (fails on clean output: {c.detail})" for c in clean if not c.ok]
        exit_check = _by_name(checks.round_checks(workload, p, out, False, None, 0)[0],
                              "round0:exit_status")
        if not exit_check or exit_check[0].ok:
            broken.append("round0:exit_status")
        for name, corrupt in corruptions:
            shutil.rmtree(out)
            out.mkdir()
            write_clean(out, p)
            corrupt(out, p)
            found = _by_name(checks.round_checks(workload, p, out, True, None, 0)[0], name)
            if not found or any(c.ok for c in found):
                broken.append(name)
        # determinism: a rewrite of the clean output matches its digests,
        # a changed verdicts.csv does not
        shutil.rmtree(out)
        out.mkdir()
        write_clean(out, p)
        same = _by_name(checks.round_checks(workload, p, out, True, digests, 1)[0],
                        "round1:csv_bytes_equal_round0")
        if not same or not same[0].ok:
            broken.append("round1:csv_bytes_equal_round0 (fails on equal output)")
        _fail_verdict(out)
        differ = _by_name(checks.round_checks(workload, p, out, True, digests, 1)[0],
                          "round1:csv_bytes_equal_round0")
        if not differ or differ[0].ok:
            broken.append("round1:csv_bytes_equal_round0")
    shutil.rmtree(work_dir, ignore_errors=True)
    return broken


def main() -> int:
    broken = run_all(BENCH_DIR / "out" / "selftest")
    for name in broken:
        print(f"BROKEN {name}")
    total = sum(len(c) + 3 for _, _, c in CASES)
    print(f"selftest: {total - len(broken)}/{total} checks shown to fail on a corrupted "
          f"output and pass on a clean one")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
