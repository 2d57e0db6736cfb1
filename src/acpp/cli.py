"""Command-line entry point.

Subcommands:
  plan       print the budget plan (phase budgets and total CPU) of a method
  synth-gen  emit a planted synthetic scenario directory
  construct  build a portfolio from a scenario file
  test       evaluate a portfolio file on the scenario's test set
  compare    paired permutation tests between two test reports

Budget flags accept durations like ``36h``, ``90m``, ``120s`` or plain
seconds, and override the scenario file's budget defaults. Logs go to
standard error, artifacts to --out-dir.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from .constructors import CONSTRUCTORS, ConstructionFailed, ConstructionResult, plan_budget
from .core import Portfolio
from .evaluation import (
    compare_reports,
    format_table,
    read_report,
    test_portfolio,
    write_report,
)
from .scenario import ScenarioError, load_scenario
from .space import ParameterSpace, parse_config, serialize_config
from .synthetic import generate_synthetic_scenario, write_scenario_files

logger = logging.getLogger("acpp")


def parse_duration(text: str) -> float:
    """'36h' / '90m' / '120s' / '42' (seconds) -> seconds."""
    text = text.strip().lower()
    factor = 1.0
    if text.endswith("h"):
        factor, text = 3600.0, text[:-1]
    elif text.endswith("m"):
        factor, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    try:
        seconds = float(text) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad duration {text!r}") from None
    if not 0 < seconds < math.inf:
        raise argparse.ArgumentTypeError("durations must be positive and finite")
    return seconds


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def format_hours(seconds: float) -> str:
    hours = seconds / 3600.0
    return f"{hours:g}h"


def write_portfolio(portfolio: Portfolio, path: Path) -> None:
    doc = {
        "method": portfolio.method_label,
        "k": portfolio.k,
        "components": [serialize_config(c) for c in portfolio.components],
        "seeds": list(portfolio.seeds),
        "consumed_cpu_time": portfolio.consumed_cpu_time,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def read_portfolio(path: Path, space: ParameterSpace) -> Portfolio:
    doc = json.loads(path.read_text())
    if "components" not in doc:
        raise ValueError(f"{path}: portfolio has no field 'components'")
    components = tuple(parse_config(space, text) for text in doc["components"])
    return Portfolio(
        components=components,
        method_label=doc.get("method", ""),
        seeds=tuple(doc.get("seeds", ())),
        consumed_cpu_time=doc.get("consumed_cpu_time", 0.0),
    )


def _budget_value(flag_value, defaults: dict, key: str, fallback):
    if flag_value is not None:
        return flag_value
    if key in defaults:
        return float(defaults[key]) if key in ("t_c", "t_v") else int(defaults[key])
    return fallback


def cmd_plan(args) -> int:
    plan = plan_budget(
        args.method, args.k, args.tc, args.tv, args.r, n=args.phases, b=args.b
    )
    print(f"method: {plan.method}")
    print(f"k: {plan.k}  r: {plan.r}" + (f"  b: {plan.b}" if plan.method == "parhydra" else ""))
    print(f"configuration budget: {plan.t_c:g}s ({format_hours(plan.t_c)})")
    print(f"validation budget: {plan.t_v:g}s ({format_hours(plan.t_v)})")
    if plan.method == "pcit":
        phases = ", ".join(format_hours(t) for t in plan.phase_budgets)
        print(f"phase budgets: {phases}")
    if plan.method == "parhydra":
        print(f"iterations: {plan.iterations}")
    print(f"total cpu: {plan.total_cpu:g}s ({format_hours(plan.total_cpu)})")
    return 0


def cmd_synth_gen(args) -> int:
    synthetic = generate_synthetic_scenario(
        n_families=args.families,
        n_configs=args.configs,
        n_train=args.instances,
        k=args.k,
        seed=args.seed,
        feature_dim=args.feature_dim,
        cutoff=args.cutoff,
        noise=args.noise,
        name=args.name,
    )
    path = write_scenario_files(synthetic, args.out_dir)
    logger.info("wrote scenario %s", path)
    print(path)
    return 0


def cmd_construct(args) -> int:
    bundle = load_scenario(args.scenario)
    scenario = bundle.scenario
    backend = bundle.make_backend()
    defaults = bundle.defaults
    t_c = _budget_value(args.tc, defaults, "t_c", 40.0 * scenario.cutoff)
    t_v = _budget_value(args.tv, defaults, "t_v", 10.0 * scenario.cutoff)
    r = _budget_value(args.r, defaults, "r", 10)
    n = args.phases if args.phases is not None else int(defaults.get("n", 4))
    b = args.b if args.b is not None else int(defaults.get("b", 1))
    plan = plan_budget(args.method, scenario.k, t_c, t_v, r, n=n, b=b)

    constructor = CONSTRUCTORS[args.method]
    kwargs: dict = {"cores": args.cores}
    if args.method == "clustering":
        kwargs["normalization"] = args.normalization
    logger.info(
        "constructing with %s (k=%d, t_c=%gs, t_v=%gs, r=%d)",
        args.method, scenario.k, t_c, t_v, r,
    )
    result: ConstructionResult = constructor(scenario, plan, args.seed, backend, **kwargs)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    portfolio_path = out_dir / "portfolio.json"
    write_portfolio(result.portfolio, portfolio_path)
    log_path = out_dir / "construction_log.jsonl"
    with open(log_path, "w") as fh:
        for event in result.events:
            fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")
        fh.write(json.dumps({"event": "ledger", **result.ledger.snapshot()}, sort_keys=True) + "\n")
    logger.info("portfolio written to %s", portfolio_path)
    print(portfolio_path)
    return 0


def cmd_test(args) -> int:
    bundle = load_scenario(args.scenario)
    scenario = bundle.scenario
    backend = bundle.make_backend()
    portfolio = read_portfolio(Path(args.portfolio), scenario.space)
    report = test_portfolio(
        backend,
        portfolio,
        scenario.test_instances,
        scenario.effective_test_cutoff,
        repetitions=args.repetitions,
        seed=args.seed,
        label=portfolio.method_label or Path(args.portfolio).stem,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    write_report(report, report_path)
    (out_dir / "report.txt").write_text(format_table([report]))
    print(format_table([report]), end="")
    print(report_path)
    return 0


def cmd_compare(args) -> int:
    report_a = read_report(args.reports[0])
    report_b = read_report(args.reports[1])
    outcomes = compare_reports(
        report_a, report_b, n_permutations=args.permutations, alpha=args.alpha, seed=args.seed
    )
    print(format_table([report_a, report_b]), end="")
    for kind, outcome in outcomes.items():
        marker = "significant" if outcome.significant else "not significant"
        print(
            f"{kind:>8}: p={outcome.p_value:.6f} ({marker} at alpha={outcome.alpha}), "
            f"mean difference {outcome.observed_mean_difference:+.4f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acpp", description="automatic construction of parallel solver portfolios"
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print the budget plan of a method")
    p.add_argument("--method", required=True, choices=list(CONSTRUCTORS))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tc", type=parse_duration, required=True, help="configuration budget")
    p.add_argument("--tv", type=parse_duration, required=True, help="validation budget")
    p.add_argument("--r", type=int, default=10, help="construction/configurator repetitions")
    p.add_argument("--phases", type=int, default=4)
    p.add_argument("--b", type=int, default=1, help="block size (parhydra)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("synth-gen", help="generate a planted synthetic scenario")
    p.add_argument("--families", type=int, required=True)
    p.add_argument("--configs", type=int, required=True)
    p.add_argument("--instances", type=int, required=True, help="training instances (test set same size)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--feature-dim", type=int, default=2)
    p.add_argument("--cutoff", type=float, default=30.0)
    p.add_argument("--noise", type=float, default=0.03)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="synthetic")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("construct", help="construct a portfolio")
    p.add_argument("--method", required=True, choices=list(CONSTRUCTORS))
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--b", type=int, default=None, help="block size (parhydra)")
    p.add_argument(
        "--normalization", default="none", choices=["none", "linear", "standard"],
        help="feature normalization (clustering)",
    )
    p.add_argument("--tc", type=parse_duration, default=None)
    p.add_argument("--tv", type=parse_duration, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--phases", type=int, default=None)
    p.add_argument(
        "--cores", type=positive_int, default=os.cpu_count(),
        help="worker threads for external-wrapper runs (default: CPU count); "
        "the in-process synthetic backend runs serially; no output depends "
        "on this setting",
    )
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("test", help="evaluate a portfolio on the test set")
    p.add_argument("--portfolio", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("compare", help="permutation tests between two reports")
    p.add_argument("--reports", nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--permutations", type=int, default=100_000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)
    return parser


def run_command(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ScenarioError, ValueError, FileNotFoundError, ConstructionFailed) as exc:
        logger.error("%s", exc)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
