"""The fdeflow benchmark: time to a verified solution on three pipelines.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each workload is one ``fdeflow run``
pipeline, built from ``perfbench/configs/NAME.cfg`` with the master seed set
to ``--seed``. Every round runs it in a fresh single-threaded process, one
at a time, so no round competes with another for the cores.

``--trace 0`` repeats rounds until ``--seconds`` have passed and at least two
rounds ran, plus SETUP_PROBES processes that stop once the config is parsed;
it reports the end-to-end metrics as medians over rounds (``setup_s`` over
rounds and probes). ``--trace 1`` runs one untraced and one traced round and
reports the per-layer metrics of the traced one, with the tracing overhead as
traced minus untraced ``run_s``.

Each round is checked: exit status, every row of verdicts.csv, the
workload's independent checks (checks.py), and, from the second round on,
byte-identical CSVs against the first round. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The checks are themselves tested first (selftest.py); if one
cannot fail, or the program cannot run at all, the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import selftest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("linear_driver", "const_forward_weak", "endowment")
DEFAULT_SEED = 20260808
SETUP_PROBES = 5
MIN_ROUNDS = 2


class BenchmarkError(Exception):
    """The benchmark cannot measure: no result is printed."""


def _spawn(config, out, seed, extra=()) -> tuple:
    """Run worker.py in a fresh process; returns (exit status, its JSON result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # OpenBLAS's own threads buy no wall time on these small Gram products
    # but spin on the second core, which ties each round to both cores
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(config), "--out", str(out),
           "--seed", str(seed)]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at), *extra], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchmarkError(f"worker exited with status {proc.returncode} and no result")


def run(workload, seed, seconds, trace, units) -> dict:
    config = BENCH_DIR / "configs" / f"{workload}.cfg"
    params = checks.read_params(config)
    work = OUT_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    results, found, digests = [], [], None
    start = time.monotonic()
    index = 0
    while index < MIN_ROUNDS or (not trace and time.monotonic() - start < seconds):
        out = work / f"round{index}"
        extra = ("--trace-file", str(work / "trace.json")) if trace and index == 1 else ()
        status, result = _spawn(config, out, seed, extra)
        round_found, round_digests = checks.round_checks(
            workload, params, out, status == 0 and result["all_passed"], digests, index)
        digests = digests if digests is not None else round_digests
        results.append(result)
        found += round_found
        index += 1

    if trace:
        untraced, traced = results
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    else:
        setups = [r["setup_s"] for r in results]
        for _ in range(SETUP_PROBES):
            setups.append(_spawn(config, work / "probe", seed, ("--setup-only",))[1]["setup_s"])
        metrics = {"setup_s": statistics.median(setups)}
        for name in ("run_s", "solve_s", "peak_rss_mib"):
            metrics[name] = statistics.median(r[name] for r in results)
    return {"checks": found, "rounds": [r["run_s"] for r in results],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def _metric_units(section) -> dict:
    """{name: unit} of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fdeflow" / "__init__.py").is_file():
        print(f"no fdeflow sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    broken = selftest.run_all(OUT_DIR / "selftest")
    if broken:
        print("checks that do not catch a corrupted output: " + ", ".join(broken),
              file=sys.stderr)
        return 2
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace),
                      _metric_units("per_layer" if args.trace else "end_to_end"))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    failed = [c for c in outcome["checks"] if not c.ok]
    for c in failed:
        print(f"FAIL {c.name}: {c.detail}")
    rounds = outcome["rounds"]
    print(f"{args.workload}: {len(rounds)} rounds (run_s {', '.join(f'{v:.3f}' for v in rounds)}), "
          f"{len(outcome['checks']) - len(failed)}/{len(outcome['checks'])} checks passed")
    for name, m in outcome["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(outcome["checks"]),
                      "failed": len(failed), "metrics": outcome["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
