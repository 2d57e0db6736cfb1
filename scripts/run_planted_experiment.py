#!/usr/bin/env python3
"""Desk-scale end-to-end comparison of all five constructors.

Builds a planted synthetic scenario, constructs a portfolio with every
method under matched budgets, evaluates each on the held-out test set
(median of 3 runs per instance), and prints the summary table plus paired
permutation tests against the phased-transfer portfolio.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from acpp import (
    ConfiguratorSettings,
    ForestParams,
    compare_reports,
    construct_clustering,
    construct_global,
    construct_parhydra,
    construct_pcit,
    construct_pcrs,
    generate_synthetic_scenario,
    plan_budget,
    test_portfolio,
)
from acpp.evaluation import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", type=int, default=4)
    parser.add_argument("--configs", type=int, default=6)
    parser.add_argument("--instances", type=int, default=80)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--tc", type=float, default=4000.0, help="configuration budget (virtual s)")
    parser.add_argument("--tv", type=float, default=1200.0, help="validation budget (virtual s)")
    parser.add_argument("--r", type=int, default=3, help="construction repetitions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--permutations", type=int, default=10_000)
    args = parser.parse_args()

    synthetic = generate_synthetic_scenario(
        n_families=args.families,
        n_configs=args.configs,
        n_train=args.instances,
        k=args.k,
        seed=args.seed,
        tilt_effect=0.3,
    )
    scenario = synthetic.scenario
    backend = synthetic.backend()
    settings = ConfiguratorSettings(
        n_candidates=128,
        score_instance_sample=4,
        refit_growth=1.25,
        forest=ForestParams(n_trees=8),
    )

    runs = {
        "pcit": lambda: construct_pcit(
            scenario, plan_budget("pcit", args.k, args.tc, args.tv, args.r, n=4),
            args.seed, backend, settings=settings, transfer_forest=ForestParams(n_trees=16),
        ),
        "pcrs": lambda: construct_pcrs(
            scenario, plan_budget("pcrs", args.k, args.tc, args.tv, args.r),
            args.seed, backend, settings=settings,
        ),
        "global": lambda: construct_global(
            scenario, plan_budget("global", args.k, args.tc, args.tv, args.r),
            args.seed, backend, settings=settings,
        ),
        "clustering": lambda: construct_clustering(
            scenario, plan_budget("clustering", args.k, args.tc, args.tv, args.r),
            args.seed, backend, settings=settings, normalization="linear",
        ),
        "parhydra": lambda: construct_parhydra(
            scenario, plan_budget("parhydra", args.k, args.tc / args.k, args.tv / args.k, args.r, b=1),
            args.seed, backend, settings=settings,
        ),
    }

    reports = []
    for name, build in runs.items():
        started = time.time()
        result = build()
        report = test_portfolio(
            backend,
            result.portfolio,
            scenario.test_instances,
            scenario.effective_test_cutoff,
            repetitions=3,
            seed=args.seed,
            label=name,
        )
        reports.append(report)
        print(
            f"[{name:>10}] built in {time.time() - started:5.1f}s wall, "
            f"consumed {result.ledger.total:9.0f} virtual s "
            f"in {result.ledger.n_runs} ledger charges",
            file=sys.stderr,
        )

    print()
    print(format_table(reports))
    baseline = reports[0]
    for other in reports[1:]:
        outcomes = compare_reports(
            baseline, other, n_permutations=args.permutations, seed=args.seed
        )
        verdicts = ", ".join(
            f"{kind}: p={o.p_value:.4f}{'*' if o.significant else ''}"
            for kind, o in outcomes.items()
        )
        print(f"pcit vs {other.label:>10}: {verdicts}")


if __name__ == "__main__":
    main()
