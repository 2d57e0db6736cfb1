"""The benchmark's workloads.

An operation is one scenario seed: write and load that seed's planted
scenario, build the workload's portfolios, run the test protocol on them,
compare them, and check every output against the planted ground truth.
``prepare`` is set-up, ``construct`` and ``evaluate`` are timed, ``check``
is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import acpp.cli
import acpp.evaluation
import acpp.scenario
from acpp.configurator import ConfiguratorSettings
from acpp.constructors import (
    construct_global,
    construct_parhydra,
    construct_pcit,
    construct_pcrs,
    plan_budget,
)
from acpp.perfmodel import ForestParams
from acpp.space import enumerate_configs, serialize_config
from acpp.synthetic import generate_synthetic_scenario, write_scenario_files

import checks
from tracing import COUNTS

# the acceptance suite's engine settings for its behavioural criteria
FAST = ConfiguratorSettings(
    n_candidates=128,
    score_instance_sample=4,
    refit_growth=1.25,
    forest=ForestParams(n_trees=8),
)
TEST_REPETITIONS = 3
PERMUTATIONS = 100_000
# a report compared with itself must give p = 1 at any permutation count
SELF_PERMUTATIONS = 1_000


@dataclass
class Prepared:
    seed: int
    path: Path
    scenario: object
    spec: object
    backend: object = None


@dataclass
class Built:
    portfolios: dict = field(default_factory=dict)       # label -> Portfolio
    groupings: dict = field(default_factory=dict)        # label -> InstanceGrouping | None
    ledger_totals: dict = field(default_factory=dict)    # label -> ledger total
    counted_runtime: dict = field(default_factory=dict)  # label -> backend runtime sum
    fingerprint: str = ""
    runs: int = 0
    capped: int = 0
    records: int = 0


@dataclass
class Evaluated:
    reports: dict        # label -> TestReport
    p_values: dict       # kind -> p-value of the first portfolio against the second


def _fingerprint(result) -> str:
    return "\n".join(
        [serialize_config(c) for c in result.portfolio.components]
        + [repr(result.validation_scores), repr(result.portfolio.consumed_cpu_time)]
    )


def _record(built: Built, label: str, result, before) -> None:
    runs, runtime, capped = (a - b for a, b in zip(COUNTS.snapshot(), before))
    built.portfolios[label] = result.portfolio
    built.groupings[label] = result.selected_grouping
    built.ledger_totals[label] = result.ledger.total
    built.counted_runtime[label] = runtime
    built.runs += runs
    built.capped += capped
    built.records += sum(len(store) for store in result.stores)


class Workload:
    name = ""
    seeds_per_round = 1
    labels: tuple[str, str] = ("", "")

    def scenario_seeds(self, seed: int) -> list[int]:
        return [1000 * seed + i for i in range(self.seeds_per_round)]

    def check_common(self, prep: Prepared, built: Built, evaluated: Evaluated) -> list[str]:
        spec, scenario = prep.spec, prep.scenario
        test_ids = [ins.id for ins in scenario.test_instances]
        cutoff = scenario.effective_test_cutoff
        failures = []
        for label in self.labels:
            components = built.portfolios[label].components
            report = evaluated.reports[label]
            failures += checks.check_lower_bound(spec, report.par10, test_ids, cutoff, label)
            failures += checks.check_test_results(spec, components, report, label)
            failures += checks.check_par_identity(report, label)
        return failures

    def planted(self, prep: Prepared, built: Built) -> list[float]:
        """Planted test-set PAR-10 of each portfolio."""
        ids = [ins.id for ins in prep.scenario.test_instances]
        cutoff = prep.scenario.effective_test_cutoff
        return [
            checks.planted_par10(prep.spec, built.portfolios[label].components, ids, cutoff)
            for label in self.labels
        ]

    def purity(self, prep: Prepared, built: Built) -> list[float]:
        return []


class ApiWorkload(Workload):
    """Scenario written by ``write_scenario_files``, loaded with
    ``load_scenario``, built and tested through the library API."""

    scenario_args: dict = {}

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        synthetic = generate_synthetic_scenario(seed=seed, **self.scenario_args)
        path = write_scenario_files(synthetic, workdir / f"scenario-{seed}")
        bundle = acpp.scenario.load_scenario(path)
        backend = bundle.make_backend()
        return Prepared(seed, path, bundle.scenario, backend.spec, backend)

    def constructions(self, k: int) -> list:
        """(label, constructor, plan, extra keyword arguments) per portfolio."""
        raise NotImplementedError

    def construct(self, prep: Prepared, outdir: Path) -> Built:
        built = Built()
        fingerprints = []
        for label, constructor, plan, extra in self.constructions(prep.scenario.k):
            before = COUNTS.snapshot()
            result = constructor(
                prep.scenario, plan, prep.seed, prep.backend, settings=FAST, **extra
            )
            _record(built, label, result, before)
            fingerprints.append(_fingerprint(result))
        built.fingerprint = "\n".join(fingerprints)
        return built

    def evaluate(self, prep: Prepared, built: Built, outdir: Path) -> Evaluated:
        scenario = prep.scenario
        reports = {
            label: acpp.evaluation.test_portfolio(
                prep.backend,
                built.portfolios[label],
                scenario.test_instances,
                scenario.effective_test_cutoff,
                repetitions=TEST_REPETITIONS,
                seed=prep.seed,
                label=label,
            )
            for label in self.labels
        }
        a, b = self.labels
        outcomes = acpp.evaluation.compare_reports(
            reports[a], reports[b], n_permutations=PERMUTATIONS, seed=prep.seed
        )
        return Evaluated(reports, {kind: o.p_value for kind, o in outcomes.items()})

    def check(self, prep, built, evaluated, outdir) -> list[str]:
        report = evaluated.reports[self.labels[0]]
        itself = acpp.evaluation.compare_reports(report, report, n_permutations=SELF_PERMUTATIONS)
        self_p = {kind: o.p_value for kind, o in itself.items()}
        return self.check_common(prep, built, evaluated) + checks.check_p_values(
            evaluated.p_values, self_p, "compare"
        )


class GroupedChecks:
    """Checks for the grouped constructors, pcit and pcrs."""

    def check_grouped(self, prep: Prepared, built: Built) -> list[str]:
        train_ids = [ins.id for ins in prep.scenario.train_instances]
        failures = []
        for label in self.labels:
            failures += checks.check_ledger(
                built.ledger_totals[label], built.counted_runtime[label], label
            )
            failures += checks.check_partition(
                built.groupings[label], train_ids, prep.scenario.k, label
            )
        return failures

    def purity(self, prep: Prepared, built: Built) -> list[float]:
        """Share of each subset held by its largest planted family, averaged
        over subsets, for the pcit grouping."""
        grouping = built.groupings["pcit"]
        shares = []
        for subset in grouping.subsets:
            if subset:
                families = [prep.spec.instance_family[i] for i in subset]
                shares.append(max(families.count(f) for f in set(families)) / len(subset))
        return [sum(shares) / len(shares)]


class PcitVsPcrs(GroupedChecks, ApiWorkload):
    name = "pcit-vs-pcrs"
    seeds_per_round = 12
    labels = ("pcit", "pcrs")
    scenario_args = dict(n_families=4, n_configs=6, n_train=80, k=4, tilt_effect=0.4)
    t_c, t_v, r, n = 2000.0, 600.0, 2, 4
    transfer_forest = ForestParams(n_trees=16)

    def constructions(self, k: int) -> list:
        return [
            ("pcit", construct_pcit,
             plan_budget("pcit", k, self.t_c, self.t_v, self.r, n=self.n),
             {"transfer_forest": self.transfer_forest}),
            ("pcrs", construct_pcrs, plan_budget("pcrs", k, self.t_c, self.t_v, self.r), {}),
        ]

    def check(self, prep, built, evaluated, outdir) -> list[str]:
        return super().check(prep, built, evaluated, outdir) + self.check_grouped(prep, built)


class ProductSpaceOracle(ApiWorkload):
    name = "product-space-oracle"
    seeds_per_round = 14
    labels = ("global", "parhydra")
    # six families on a ring, one anchor strategy each, k = 2: the best
    # pair holds opposite anchors, and greedy extension can reach it
    scenario_args = dict(n_families=6, n_configs=6, n_train=24, k=2)
    t_c, t_v, r = 3000.0, 600.0, 3
    optimum_tolerance = 0.25

    def constructions(self, k: int) -> list:
        return [
            ("global", construct_global, plan_budget("global", k, self.t_c, self.t_v, self.r), {}),
            ("parhydra", construct_parhydra,
             plan_budget("parhydra", k, self.t_c, self.t_v, self.r, b=1), {}),
        ]

    def check(self, prep, built, evaluated, outdir) -> list[str]:
        failures = super().check(prep, built, evaluated, outdir)
        configs = list(enumerate_configs(prep.scenario.space))
        train_ids = [ins.id for ins in prep.scenario.train_instances]
        for label in self.labels:
            failures += checks.check_optimum_gap(
                prep.spec,
                configs,
                built.portfolios[label].components,
                train_ids,
                prep.scenario.cutoff,
                self.optimum_tolerance,
                label,
            )
        return failures


_P_LINE = re.compile(r"^\s*(timeout|par10|par1): p=([0-9.eE+-]+) ")


def cli(*argv: str) -> str:
    """Run one ``acpp`` command in process; returns its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = acpp.cli.run_command(list(argv))
    if code != 0:
        raise RuntimeError(f"acpp {' '.join(argv)} exited with {code}")
    return out.getvalue()


def _p_values(compare_output: str) -> dict:
    found = {}
    for line in compare_output.splitlines():
        match = _P_LINE.match(line)
        if match:
            found[match.group(1)] = float(match.group(2))
    return found


class CliDefaultSettings(GroupedChecks, Workload):
    """The README path: ``synth-gen``, ``construct``, ``test`` and
    ``compare`` through ``acpp.cli``, with the default configurator
    settings and budgets given as flags."""

    name = "cli-default-settings"
    seeds_per_round = 20
    labels = ("pcit", "pcrs")
    tc, tv, r = "1000", "300", "2"

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        directory = workdir / f"scenario-{seed}"
        cli("synth-gen", "--families", "4", "--configs", "6", "--instances", "80",
            "--seed", str(seed), "--out-dir", str(directory))
        path = directory / "scenario.json"
        bundle = acpp.scenario.load_scenario(path)
        return Prepared(seed, path, bundle.scenario, bundle.make_backend().spec)

    def construct(self, prep: Prepared, outdir: Path) -> Built:
        built = Built()
        captured = {}

        def capturing(method):
            def build(*args, **kwargs):
                captured[method] = result = original[method](*args, **kwargs)
                return result
            return build

        original = acpp.cli.CONSTRUCTORS
        acpp.cli.CONSTRUCTORS = {m: capturing(m) for m in original}
        try:
            for label in self.labels:
                before = COUNTS.snapshot()
                cli("construct", "--method", label, "--scenario", str(prep.path),
                    "--seed", str(prep.seed), "--tc", self.tc, "--tv", self.tv,
                    "--r", self.r, "--out-dir", str(outdir / label))
                _record(built, label, captured[label], before)
        finally:
            acpp.cli.CONSTRUCTORS = original
        # the portfolio a user gets is the file, so read it back
        for label in self.labels:
            built.portfolios[label] = acpp.cli.read_portfolio(
                outdir / label / "portfolio.json", prep.scenario.space
            )
        built.fingerprint = "\n".join(
            (outdir / label / "portfolio.json").read_text() for label in self.labels
        )
        return built

    def evaluate(self, prep: Prepared, built: Built, outdir: Path) -> Evaluated:
        for label in self.labels:
            cli("test", "--portfolio", str(outdir / label / "portfolio.json"),
                "--scenario", str(prep.path), "--seed", str(prep.seed),
                "--out-dir", str(outdir / label))
        a, b = (str(outdir / label / "report.json") for label in self.labels)
        p_values = _p_values(cli("compare", "--reports", a, b, "--seed", str(prep.seed)))
        reports = {
            label: acpp.evaluation.read_report(outdir / label / "report.json")
            for label in self.labels
        }
        return Evaluated(reports, p_values)

    def check(self, prep, built, evaluated, outdir) -> list[str]:
        failures = self.check_common(prep, built, evaluated)
        report = str(outdir / self.labels[0] / "report.json")
        self_p = _p_values(cli("compare", "--reports", report, report,
                               "--permutations", str(SELF_PERMUTATIONS)))
        failures += checks.check_p_values(evaluated.p_values, self_p, "compare")
        failures += self.check_grouped(prep, built)
        for label in self.labels:
            doc = json.loads((outdir / label / "portfolio.json").read_text())
            if doc["consumed_cpu_time"] != built.ledger_totals[label]:
                failures.append(f"{label}: portfolio.json consumed_cpu_time differs from the ledger")
        return failures


WORKLOADS = {w.name: w for w in (PcitVsPcrs, ProductSpaceOracle, CliDefaultSettings)}
