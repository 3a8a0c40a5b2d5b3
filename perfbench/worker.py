"""Run one fdeflow pipeline in a fresh process and print its timings as JSON.

    python3 perfbench/worker.py CONFIG --out DIR --seed N --spawned-at T
                                [--setup-only | --trace-file PATH]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is shared by all processes, so ``setup_s``
covers interpreter start, ``import fdeflow`` and parsing the config, up to
the moment ``cli.run`` is entered. Untraced runs wrap only the solver entry
(``solve_global``, or ``solve_portfolio`` for portfolio problems) to time
``solve_s``; ``--trace-file`` instead installs the per-layer tracer. Exit
status is 0 when every assertion of the run passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    from fdeflow import cli

    cfg = cli.load_config(args.config)
    cfg.out_dir = args.out
    cfg.seed = args.seed
    cfg.quiet = True
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
        return 0

    tracer = None
    solve_s = [0.0]
    if args.trace_file:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        entry = "solve_portfolio" if cfg.problem == "portfolio" else "solve_global"
        solver = getattr(cli, entry)

        def timed_solver(*a, **kw):
            t0 = time.perf_counter()
            try:
                return solver(*a, **kw)
            finally:
                solve_s[0] += time.perf_counter() - t0

        setattr(cli, entry, timed_solver)

    entered = time.monotonic()
    report = cli.run(cfg)
    run_s = time.monotonic() - entered
    result = {
        "setup_s": entered - args.spawned_at,
        "run_s": run_s,
        "solve_s": solve_s[0],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "all_passed": report.all_passed,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.export_bytes"] = sum(p.stat().st_size for p in report.outputs)
        result["layers"] = layers
        tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
