#!/usr/bin/env python3
"""Benchmark of acpp's portfolio construction on planted scenarios.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``. A run
repeats whole rounds of operations, one scenario seed each (see
``workloads.py``), until ``--seconds`` have passed, then prints one JSON
object as the last line of standard output: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every operation is built once untraced
and once traced, and the metrics are the per-layer ones from the traced
build, with the tracing overhead. Progress goes to standard error. Working
files go to ``perfbench/out/`` and are removed at the end, except the span
file of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import acpp; print(time.perf_counter() - t)"
)


@dataclass
class Operation:
    seed: int
    construct_s: float = 0.0
    evaluate_s: float = 0.0
    runs: int = 0
    planted: tuple = ()
    fingerprint: str = ""
    failures: tuple = ()
    untraced_construct_s: float = 0.0
    capped: int = 0
    records: int = 0
    purity: tuple = ()


def measure_setup(workload, seed: int, workdir: Path) -> float:
    """Median over repeats of: importing acpp in a fresh interpreter, plus
    generating, writing and loading the first operation's scenario."""
    samples = []
    for i in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        started = time.perf_counter()
        workload.prepare(seed, workdir / f"setup-{i}")
        samples.append(float(probe.stdout) + time.perf_counter() - started)
    return statistics.median(samples)


def run_operation(workload, seed: int, workdir: Path, tracer) -> Operation:
    """One operation. With a tracer, the portfolios are built once untraced
    and once traced, and the traced build is the one tested and checked."""
    op = Operation(seed)
    opdir = workdir / f"op-{seed}"
    phase = (lambda name: contextlib.nullcontext()) if tracer is None else tracer.span
    try:
        if tracer is not None:
            tracer.install()
        try:
            with phase("benchmark.prepare"):
                prep = workload.prepare(seed, opdir)
            if tracer is not None:
                tracer.uninstall()
                started = time.perf_counter()
                untraced = workload.construct(prep, opdir / "untraced")
                op.untraced_construct_s = time.perf_counter() - started
                tracer.install()
            started = time.perf_counter()
            with phase("benchmark.construct"):
                built = workload.construct(prep, opdir / "built")
            op.construct_s = time.perf_counter() - started
            started = time.perf_counter()
            with phase("benchmark.evaluate"):
                evaluated = workload.evaluate(prep, built, opdir / "built")
            op.evaluate_s = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        failures = workload.check(prep, built, evaluated, opdir / "built")
        if tracer is not None and untraced.fingerprint != built.fingerprint:
            failures.append("traced and untraced builds differ")
        op.runs, op.capped, op.records = built.runs, built.capped, built.records
        op.planted = tuple(workload.planted(prep, built))
        op.purity = tuple(workload.purity(prep, built))
        op.fingerprint = built.fingerprint
        op.failures = tuple(failures)
    except Exception:  # a failed operation is counted, not fatal
        op.failures = (traceback.format_exc(),)
    shutil.rmtree(opdir, ignore_errors=True)
    return op


def per_seed_mean(ops: list[Operation], value) -> float:
    """Median over each seed's operations, then mean over the seeds."""
    by_seed: dict[int, list[float]] = {}
    for op in ops:
        by_seed.setdefault(op.seed, []).append(value(op))
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def end_to_end(ops, setup_s) -> dict:
    planted = [p for op in ops for p in op.planted]
    return {
        "setup_s": (setup_s, "s"),
        "construct_s": (per_seed_mean(ops, lambda op: op.construct_s), "s"),
        "solver_runs_per_s": (per_seed_mean(ops, lambda op: op.runs / op.construct_s), "runs/s"),
        "evaluate_s": (per_seed_mean(ops, lambda op: op.evaluate_s), "s"),
        "planted_par10": (statistics.fmean(planted), "virtual_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LAYERS = [
    "space.sample_config", "space.encode_config", "perfmodel.fit_forest",
    "perfmodel.predict", "perfmodel.fit_model", "transfer.transfer_instances",
    "configurator.configure", "runner.evaluate_portfolio",
    "constructors.validate_and_select", "constructors.PortfolioEvaluator.run",
    "rundata.incumbent_performance", "evaluation.test_portfolio",
    "evaluation.permutation_test", "scenario.load_scenario", "synthetic.run",
]
SELF_TIMED = {"transfer.transfer_instances", "configurator.configure"}
ROWS = {"perfmodel.fit_forest", "perfmodel.predict"}


def per_layer(ops, tracer) -> dict:
    """Per-operation means of the traced layers' counts and times."""
    n = len(ops)
    totals = tracer.layer_totals()
    counters = tracer.counters
    metrics = {}
    for name in LAYERS:
        entry = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"] / n, "count")
        if name in ROWS:
            metrics[f"{name}.rows"] = (counters.get(f"{name}.rows", 0) / n, "rows")
        metrics[f"{name}.s"] = (entry["s"] / n, "s")
        if name in SELF_TIMED:
            metrics[f"{name}.self_s"] = (entry["self_s"] / n, "s")
    sampled = counters.get("configurator.proposal.sampled", 0)
    fits = counters.get("configurator.fits", 0)
    purity = [p for op in ops for p in op.purity]
    metrics.update({
        "transfer.moves": (counters.get("transfer.moves", 0) / n, "count"),
        "transfer.stays": (counters.get("transfer.stays", 0) / n, "count"),
        "transfer.purity": (statistics.fmean(purity) if purity else 0.0, "ratio"),
        "configurator.proposal.distinct_ratio": (
            counters.get("configurator.proposal.distinct", 0) / sampled if sampled else 0.0,
            "ratio",
        ),
        "configurator.proposals_per_fit": (
            counters.get("configurator.proposals", 0) / fits if fits else 0.0, "ratio"
        ),
        "runner.solver_runs": (statistics.fmean(op.runs for op in ops), "count"),
        "runner.capped_runs": (statistics.fmean(op.capped for op in ops), "count"),
        "rundata.records": (statistics.fmean(op.records for op in ops), "count"),
    })
    traced = per_seed_mean(ops, lambda op: op.construct_s)
    untraced = per_seed_mean(ops, lambda op: op.untraced_construct_s)
    metrics["trace.construct_s"] = (traced, "s")
    metrics["trace.untraced_construct_s"] = (untraced, "s")
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "acpp" / "__init__.py").is_file():
        print(f"perfbench: the program source {SRC / 'acpp'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy advises huge pages for arrays of 4 MB and more, such as the
    # permutation tests' 100,000-row sign matrices. Whether the host has
    # free huge pages changes from minute to minute, and evaluate_s with
    # it (0.55 s against 0.38 s per seed within one hour on the reference
    # box), so timings are taken with the advice off.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    # OpenBLAS starts a thread per core for the permutation tests'
    # matrix-vector products. On a 2-core box that shares its cores, the
    # product then waits for whichever thread was descheduled: one
    # 100,000-permutation test on 24 pairs took 0.045-0.144 s wall with two
    # threads and 0.037-0.049 s with one, and two threads cost 1.7 times
    # the CPU time on 80 pairs for the same wall time. The benchmark keeps
    # to one thread so that it measures the program, not the scheduler.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # the CLI configures logging on first use; a handler here keeps it quiet
    logging.getLogger().addHandler(logging.NullHandler())
    logging.getLogger().setLevel(logging.WARNING)
    import acpp
    from tracing import Tracer, use_counting_backend
    from workloads import WORKLOADS

    if Path(acpp.__file__).resolve().parent != (SRC / "acpp").resolve():
        print(f"perfbench: imported acpp from {acpp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    use_counting_backend()
    workload = WORKLOADS[args.workload]()
    seeds = workload.scenario_seeds(args.seed)
    workdir = OUT / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        setup_s = None if tracer else measure_setup(workload, seeds[0], workdir)
        ops: list[Operation] = []
        started = time.perf_counter()
        while True:
            for seed in seeds:
                op = run_operation(workload, seed, workdir, tracer)
                first = next((o for o in ops if o.seed == seed and not o.failures), None)
                if not op.failures and first and op.fingerprint != first.fingerprint:
                    op.failures = ("portfolios differ from the first round's",)
                for failure in op.failures:
                    print(f"perfbench: seed {seed}: {failure}", file=sys.stderr)
                print(f"perfbench: seed {seed} construct {op.construct_s:.3f}s "
                      f"evaluate {op.evaluate_s:.3f}s runs {op.runs}", file=sys.stderr)
                ops.append(op)
            if time.perf_counter() - started >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [op for op in ops if not op.failures]
    failed = len(ops) - len(good)
    if not good:
        print("perfbench: every operation failed; no metric to report", file=sys.stderr)
        return 1
    metrics = per_layer(good, tracer) if tracer else end_to_end(good, setup_s)
    if tracer:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{workload.name}-s{args.seed}.json",
                     {"workload": workload.name, "seed": args.seed, "operations": len(ops)})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
