"""Correctness checks on one fdeflow run's output directory.

Every check returns ``Check(name, ok, detail)``. Besides the program's own
verdicts, each workload has checks computed here, apart from the program:
closed forms, a Gauss-Hermite quadrature written with numpy alone (not
``fdeflow.oracles``), and identities between the exported numbers. The
parameters come from the workload's config file, read with configparser.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

# sup-norm slack of the exported Y against the exact value map on t < T,
# |x| <= 2. At 1e5 paths the linear_driver maps sit about 0.0055 from it.
# The const_forward maps sit within 0.01 up to t = 3T/4 but reach about
# 0.024 on the last steps, where the degree-7 basis on the widened fit box
# cannot follow the sharper tanh profile.
Y_SUP_BOUND = {"linear_driver": 0.02, "const_forward": 0.05}
# statistical checks allow this many reported standard errors
STDERR_MULTIPLE = 3.0
# relative slack of the value identity: one rounding of exp
VALUE_RTOL = 1e-12
# |x| <= X_HALFWIDTH is the region where the fitted maps are checked
X_HALFWIDTH = 2.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def read_params(config_path) -> dict:
    """The numbers a workload's checks need, from its config file."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(config_path):
        raise FileNotFoundError(config_path)
    params = {"T": parser.getfloat("grid", "T")}
    for section in ("coefficients", "market"):
        if parser.has_section(section):
            for key, raw in parser.items(section):
                try:
                    params[key] = float(raw)
                except ValueError:
                    params[key] = raw.strip()
    return params


def _read_table(path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float).reshape(-1, len(rows[0]))
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def verdict_checks(out_dir) -> list:
    """One check per row of verdicts.csv; a run without verdicts fails."""
    path = Path(out_dir) / "verdicts.csv"
    if not path.is_file():
        return [Check("verdicts.csv", False, "missing")]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return [Check("verdicts.csv", False, "no rows")]
    return [Check(f"verdict:{r['fixture']}:{r['assertion']}", r["passed"] == "1",
                  f"value={r['value']} bound {r['bound']}") for r in rows]


def _within_stderr(name, value, reference, stderr) -> Check:
    dev = abs(value - reference)
    ok = math.isfinite(dev) and stderr > 0 and dev <= STDERR_MULTIPLE * stderr
    return Check(name, ok, f"|{value:.6g} - {reference:.6g}| = {dev:.3g}, "
                           f"{STDERR_MULTIPLE:g} se = {STDERR_MULTIPLE * stderr:.3g}")


def _y_sup_check(name, table, exact_fn, T, bound) -> Check:
    t, x, y = table["t"], table["X0"], table["Y0"]
    sel = (t < T) & (np.abs(x) <= X_HALFWIDTH)
    if not sel.any():
        return Check(name, False, "no exported rows with t < T and |x| <= 2")
    err = float(np.abs(y[sel] - exact_fn(t[sel], x[sel])).max())
    return Check(name, err <= bound,
                 f"sup error {err:.4g} over {int(sel.sum())} rows, bound {bound}")


def _y0_and_stderr(summary_path):
    with open(summary_path, encoding="utf-8") as fh:
        side = json.load(fh)
    return float(side["y0_mean"][0]), float(side["y0_stderr"][0])


def linear_driver_checks(out_dir, params) -> list:
    """Y = exp((a - 1/2)(T - t)) sin(x) on the exported paths; y0 = 0."""
    out_dir = Path(out_dir)
    a, T = params["a"], params["T"]
    exact = lambda t, x: np.exp((a - 0.5) * (T - t)) * np.sin(x)
    table = _read_table(out_dir / "linear_driver_paths.csv")
    y0, se = _y0_and_stderr(out_dir / "linear_driver_summary.json")
    return [_y_sup_check("linear_driver:y_closed_form", table, exact, T,
                         Y_SUP_BOUND["linear_driver"]),
            _within_stderr("linear_driver:y0_closed_form", y0, 0.0, se)]


def tanh_heat_value(x, tau, c, nodes=101):
    """E[tanh(x + c tau + sqrt(tau) N)] by Gauss-Hermite quadrature."""
    z, w = hermegauss(nodes)
    w = w / w.sum()
    x = np.asarray(x, dtype=float)[..., None]
    tau = np.asarray(tau, dtype=float)[..., None]
    return (np.tanh(x + c * tau + np.sqrt(tau) * z) * w).sum(axis=-1)


def const_forward_checks(out_dir, params) -> list:
    """Y = E[tanh(x + c(T - t) + sqrt(T - t) N)] on the exported paths; y0 likewise."""
    out_dir = Path(out_dir)
    c, T = params["c"], params["T"]
    exact = lambda t, x: tanh_heat_value(x, T - t, c)
    table = _read_table(out_dir / "const_forward_paths.csv")
    y0, se = _y0_and_stderr(out_dir / "const_forward_summary.json")
    return [_y_sup_check("const_forward:y_quadrature", table, exact, T,
                         Y_SUP_BOUND["const_forward"]),
            _within_stderr("const_forward:y0_quadrature", y0,
                           float(tanh_heat_value(0.0, T, c)), se)]


def endowment_checks(out_dir, params) -> list:
    """Comparison bound on y0, the value identity, and pi* beating every perturbation."""
    with open(Path(out_dir) / "endowment_portfolio.json", encoding="utf-8") as fh:
        res = json.load(fh)
    gamma, x0, scale = params["gamma"], params["x0"], params["endowment_scale"]
    merton = params["mu_s"] ** 2 * params["T"] / (2.0 * gamma * params["sigma_bar_s"] ** 2)
    y0, value = float(res["y0"]), float(res["value"])
    dev = abs(y0 - merton)
    out = [Check("endowment:y0_comparison", dev <= scale,
                 f"|y0 - mu^2 T/(2 gamma sbar^2)| = {dev:.4g}, bound {scale:g}")]
    value_ref = -math.exp(-gamma * (x0 + y0))
    verr = abs(value - value_ref)
    out.append(Check("endowment:value_identity", verr <= VALUE_RTOL * abs(value_ref),
                     f"|value - (-exp(-gamma (x0 + y0)))| = {verr:.3g}"))
    drifts = {k: abs(float(v["total_drift"])) for k, v in res["drift_table"].items()}
    star = drifts.pop("pi_star")
    worst = min(drifts.values()) if drifts else -1.0
    out.append(Check("endowment:pi_star_least_drift", star < worst,
                     f"|pi_star drift| = {star:.4g}, least perturbed = {worst:.4g}"))
    return out


INDEPENDENT = {
    "linear_driver": linear_driver_checks,
    "const_forward_weak": const_forward_checks,
    "endowment": endowment_checks,
}


def csv_digests(out_dir) -> dict:
    """SHA-256 of every CSV a run wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).glob("*.csv"))}


def determinism_check(name, first: dict, other: dict) -> Check:
    """Two runs of one workload and seed must write byte-identical CSVs."""
    differ = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
    return Check(name, bool(first) and not differ,
                 "identical" if not differ else f"differ: {', '.join(differ)}")


def round_checks(workload, params, out_dir, exit_ok, first_digests, index) -> tuple:
    """All checks of one round; returns (checks, CSV digests of the round)."""
    found = [Check(f"round{index}:exit_status", bool(exit_ok),
                   "0 and all assertions passed" if exit_ok else "failed")]
    found += verdict_checks(out_dir)
    try:
        found += INDEPENDENT[workload](out_dir, params)
    except (OSError, KeyError, ValueError) as exc:
        found.append(Check(f"{workload}:outputs_readable", False, repr(exc)))
    digests = csv_digests(out_dir)
    if first_digests is not None:
        found.append(determinism_check(f"round{index}:csv_bytes_equal_round0",
                                       first_digests, digests))
    return found, digests
