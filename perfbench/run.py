"""Benchmark for gxe-reml: trial-scale fits, sparse-testing CV and a
simulate-then-fit recovery batch, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trial-kernP --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``trial-kernP``: kernP then kern1 through ``gxe_reml.fit`` on one sparse
  split at trial scale (246 genotypes x 15 environments, 810 records).
* ``sparse-cv``: ``gxe-reml cv`` run in-process through
  ``gxe_reml.cli.main`` on a corP simulation truth (277 x 4), models
  cor1 and corP, lambdas 0 and 0.75, 2 replicates.
* ``complete-recovery``: distances from synthetic daily weather through
  ``process_weather``, then 10 replicates of ``simulate_met`` (100 x 5,
  fully observed) each followed by a kern1 fit.

``--trace 0`` repeats the workload's unit of work (CV at ``--jobs 1``)
until ``--seconds`` would be exceeded, checks the outputs, sets the
workload up again in five fresh processes, and prints the end-to-end
metrics.  ``--trace 1`` runs one unit untraced (CV at ``--jobs`` = cores,
the CLI's default) and one unit traced (CV at ``--jobs 1``, since spans
cannot cross the process pool), whatever ``--seconds`` says, and prints
the per-layer metrics; the spans go to
``.perfbench_out/spans-<workload>-seed<seed>.json``.  ``--scale small``
shrinks every input for the harness self-test (``perfbench/selftest.py``).

BLAS thread variables are deliberately left as inherited.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; earlier ``perfbench ...`` lines carry run
metadata and exact counters.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("trial-kernP", "sparse-cv", "complete-recovery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    package = ROOT / "src" / "gxe_reml" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package.relative_to(ROOT)} not found; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import gxe_reml

    if Path(gxe_reml.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported gxe_reml from {gxe_reml.__file__}, not the checkout")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(args) -> float:
    """Seconds from process start to inputs ready, in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        status = proc.wait(timeout=120)
    if status != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process failed with status {status}")
    return elapsed


def timed_run(args, wl, jobs: int):
    units = []
    started = time.perf_counter()
    while True:
        units.append(wl.run_unit(jobs))
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(u.wall for u in units) > args.seconds:
            break
    rss = peak_rss_mb()
    problems = wl.check()
    fits = [f for u in units for f in u.fits]
    per_fit = defaultdict(list)
    for f in fits:
        per_fit[f.model, f.key].append(f.seconds)
    # Each distinct fit's median over the units, averaged per model: a
    # median pooled over fits of different sizes jumps between them.
    by_model = defaultdict(list)
    for (model, _), seconds in per_fit.items():
        by_model[model].append(statistics.median(seconds))
    per_model = {m: statistics.fmean(v) for m, v in by_model.items()}
    setups = [setup_seconds(args) for _ in range(SETUP_SAMPLES)]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(u.wall for u in units),
        "fit_s": max(per_model.values()),
        "fit_s_cheap": min(per_model.values()),
        "mean_pearson": wl.accuracy(),
        "converged_frac": sum(f.converged for f in fits) / len(fits),
        "peak_rss_mb": rss,
    }
    counters = {
        "units": len(units),
        "distinct_fits_per_model": {m: len(v) for m, v in by_model.items()},
        "unit_walls": [u.wall for u in units],
        "setup_samples": setups,
    }
    return metrics, counters, problems, fits


def traced_run(args, wl, jobs: int):
    from spans import SpanTable, Tracer

    import layers

    untraced = wl.run_unit(jobs)
    tracer = Tracer()
    wl.tracer = tracer
    tracer.install()
    try:
        wl.traced_setup()
        traced = wl.run_unit(1)
    finally:
        tracer.uninstall()
        wl.tracer = None
    wl.label_spans(tracer.spans)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    problems = wl.check() + wl.compare(untraced, traced)
    table = SpanTable(tracer.spans)
    metrics, counters = layers.metrics(table, wl, untraced, traced)
    problems += layers.problems(table)
    return metrics, counters, problems, untraced.fits + traced.fits


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    load_program()
    import meta
    import workloads

    nproc = meta.nproc()
    # CV workers of the untraced unit.  The end-to-end run is serial: on a
    # 2-core x86-64 VM with OpenBLAS 0.3.31 at its default 2 threads, a pool
    # of 2 workers took 12.6 s to 30.3 s for the same sparse-cv unit over
    # five runs, a spread no bound can hold.  The traced run times the pool.
    jobs = nproc if args.trace else 1
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        info = meta.collect(ROOT, jobs)
        info.update(workload=args.workload, seed=args.seed, scale=args.scale,
                    trace=args.trace, inputs=wl.inputs)
        print("perfbench meta " + json.dumps(info), flush=True)
        problems = []
        if jobs > nproc:
            problems.append(f"CV worker count {jobs} exceeds nproc {nproc}")
        run = traced_run if args.trace else timed_run
        values, counters, found, fits = run(args, wl, jobs)
        problems += found
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("perfbench counters " + json.dumps(counters), flush=True)
    for problem in problems:
        print(f"perfbench check failed: {problem}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": not problems,
        "attempted": len(fits),
        "failed": sum(not f.converged for f in fits),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
