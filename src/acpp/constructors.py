"""Budget planning, the two construction algorithms, and validation-based
selection of the final portfolio.

The five methods are two algorithms:

* ``construct_grouped`` (aliased as ``construct_pcit``, ``construct_pcrs``
  and ``construct_clustering``) splits the training instances into k
  subsets and configures one component per subset. The plan's method picks
  the initial grouping and the number of phases: pcrs runs one phase on a
  random even split, pcit runs n phases on the same split with instance
  transfer after every phase but the last, and clustering runs one phase on
  a k-means grouping of the instance features;
* ``construct_parhydra`` (aliased as ``construct_global``) configures b
  components at a time over a b-fold product space, each block extending
  the portfolio selected so far. Global is its b = k case: one iteration
  that configures the whole portfolio at once.

Both run ``r`` independent repetitions that produce candidate portfolios
(per iteration, for the block constructor) through ``_repetitions``, which
leaves out a repetition that raised anything but a programming error; the
candidate with the best training-set validation score wins. Repetitions
and the per-subset configuration calls inside one repetition run
concurrently on threads only when the backend runs solvers as child
processes; with an in-process backend they run in order on the calling
thread. Concurrent calls share no mutable state: each owns its seeds, runs,
charges and events, merged afterwards in serial order, so every output is
that of ``--cores 1`` unless a run raises.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .configurator import ConfiguratorSettings, configure
from .core import (
    PROGRAMMING_ERRORS,
    Instance,
    InstanceGrouping,
    InstanceResult,
    Portfolio,
    RunRecord,
    RunStatus,
    Scenario,
    clamp_run,
    derive_seed,
    par_score,
    portfolio_runtime,
    split_random_even,
)
from .perfmodel import ForestParams
from .rundata import RunDataStore
from .runner import Backend, BudgetLedger, ExternalBackend, evaluate_portfolio, execute_run
from .space import (
    Configuration,
    compose_product_space,
    decode_product_config,
    default_config,
    make_product_config,
)
from .transfer import TransferReport, transfer_instances

logger = logging.getLogger(__name__)

ALL_METHODS = ("pcit", "pcrs", "global", "clustering", "parhydra")
KMEANS_MAX_ITER = 300


@dataclass(frozen=True)
class BudgetPlan:
    """Time budgets (seconds) for one constructor run.

    ``phase_budgets`` are the per-subset configuration budgets of the
    successive phases (one entry for single-phase methods). For the greedy
    block constructor, ``t_c``/``t_v`` are the per-iteration budgets and
    ``iterations`` = k / b; the global plan has b = k and one iteration.
    """

    method: str
    k: int
    t_c: float
    t_v: float
    r: int
    n: int = 1
    b: int = 1
    phase_budgets: tuple[float, ...] = ()
    iterations: int = 1
    total_cpu: float = 0.0


def plan_budget(
    method: str,
    k: int,
    t_c: float,
    t_v: float,
    r: int,
    n: int = 4,
    b: int = 1,
) -> BudgetPlan:
    """Derive phase/iteration budgets and the total CPU cost of a method.

    Group-style methods cost ``r * k * (t_c + t_v)``. The phased method
    spends ``t_c / (2(n-1))`` per subset in each adjustment phase and
    ``t_c / 2`` in the final construction phase, so phases sum to ``t_c``.
    The block-greedy method costs ``r * sum_i i*b*(t_c + t_v)`` over its
    k/b iterations. Global is the block plan with b = k, which costs
    ``r * k * (t_c + t_v)`` as well; its ``b`` argument is ignored.
    """
    method = method.lower()
    if method not in ALL_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if k < 1 or r < 1 or not 0 < t_c < math.inf or not 0 <= t_v < math.inf:
        raise ValueError("k, r must be >= 1 and budgets finite, t_c positive")
    if method in ("pcit", "pcrs", "clustering"):
        n = n if method == "pcit" else 1
        if n < 1:
            raise ValueError("phase count must be >= 1")
        if n == 1:
            phases: tuple[float, ...] = (t_c,)
        else:
            phases = (t_c / (2 * (n - 1)),) * (n - 1) + (t_c / 2,)
        return BudgetPlan(
            method, k, t_c, t_v, r, n=n, phase_budgets=phases,
            total_cpu=r * k * (t_c + t_v),
        )
    # block-greedy construction
    if method == "global":
        b = k
    if b < 1 or k % b != 0:
        raise ValueError(f"block size {b} must divide k={k}")
    iterations = k // b
    total = r * sum(i * b * (t_c + t_v) for i in range(1, iterations + 1))
    return BudgetPlan(
        method, k, t_c, t_v, r, b=b, phase_budgets=(t_c,),
        iterations=iterations, total_cpu=total,
    )


@dataclass
class ValidationOutcome:
    best_index: int
    scores: tuple[float, ...]
    best_results: list[InstanceResult]
    n_scored_instances: int


def validate_and_select(
    portfolios: Sequence[Sequence[Configuration]],
    instances: Sequence[Instance],
    t_v: float,
    cutoff: float,
    penalty: int,
    seed: int,
    backend: Backend,
    ledger: BudgetLedger | None = None,
) -> ValidationOutcome:
    """Score every candidate on the training instances and pick the best.

    Each candidate spends at most ``t_v`` of per-core time (component time
    divided by portfolio width); instances are visited in one shared seeded
    order so partial validations stay paired, and candidates are compared on
    the longest common prefix. Ties go to the lower index. The run seed of
    an instance is derived from ``seed`` and its id, so every candidate sees
    the same seed on it.
    """
    if not portfolios:
        raise ValueError("no candidate portfolios")
    order = list(instances)
    np.random.default_rng(seed).shuffle(order)
    all_results: list[list[InstanceResult]] = []
    for components in portfolios:
        width = max(1, len(components))
        consumed = 0.0
        results: list[InstanceResult] = []
        for instance in order:
            res = evaluate_portfolio(
                backend, components, instance, cutoff, derive_seed(seed, instance.id),
                ledger=ledger,
            )
            results.append(res)
            consumed += res.cpu_cost / width
            if consumed >= t_v:
                break
        all_results.append(results)
    n_common = min(len(r) for r in all_results)
    if n_common == 0:
        return ValidationOutcome(0, (math.inf,) * len(portfolios), all_results[0], 0)
    scores = tuple(par_score(results[:n_common], cutoff, penalty) for results in all_results)
    best = min(range(len(scores)), key=lambda i: (scores[i], i))
    return ValidationOutcome(best, scores, all_results[best], n_common)


@dataclass
class ConstructionResult:
    portfolio: Portfolio
    candidates: tuple[tuple[Configuration, ...], ...]
    selected_index: int
    validation_scores: tuple[float, ...]
    groupings: tuple[InstanceGrouping | None, ...]
    transfer_reports: tuple[tuple[TransferReport, ...], ...]
    ledger: BudgetLedger
    events: list[dict]
    stores: tuple[RunDataStore, ...]

    @property
    def selected_grouping(self) -> InstanceGrouping | None:
        return self.groupings[self.selected_index]


def _check_cores(cores: int | None) -> int:
    """``cores``, or the CPU count when it is None."""
    if cores is not None and cores < 1:
        raise ValueError("cores must be >= 1")
    return cores or os.cpu_count() or 1


def _map_calls(fn: Callable[[int], object], n: int, backend: Backend, cores: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``.

    Threads can only overlap solver runs that happen in child processes
    (``ExternalBackend``), so only then do the calls go to a pool of up to
    ``cores`` threads, each call with state of its own. An in-process
    backend runs Python under the interpreter lock, where threads just
    contend; there the calls run in order on the calling thread.
    """
    workers = min(n, cores)
    if workers <= 1 or not isinstance(backend, ExternalBackend):
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))


class ConstructionFailed(RuntimeError):
    """Every repetition of a construction raised an exception that is not
    one of ``PROGRAMMING_ERRORS``."""


def _repetitions(
    one_rep: Callable[..., tuple],
    plan: BudgetPlan,
    scenario: Scenario,
    backend: Backend,
    cores: int,
    ledger: BudgetLedger,
    events: list[dict],
    validation_seed: int,
) -> tuple[list[tuple], ValidationOutcome]:
    """The outputs of the ``plan.r`` repetitions that did not raise, and the
    validation of their candidates, the first element of each output.

    ``one_rep(rep, ledger, events)`` gets a ledger and event list of its
    own, replayed into ``ledger`` and ``events`` in repetition order; an
    event whose ``"ledger"`` is a count n gets the snapshot after n charges.

    A repetition raising one of ``PROGRAMMING_ERRORS`` fails the
    construction. Any other exception leaves the repetition out, with a
    warning and a ``repetition_failed`` event; if every repetition raised,
    the construction fails.
    """
    rep_ledgers = [BudgetLedger() for _ in range(plan.r)]
    rep_events: list[list[dict]] = [[] for _ in range(plan.r)]

    def guarded(rep: int):
        try:
            return one_rep(rep, rep_ledgers[rep], rep_events[rep])
        except PROGRAMMING_ERRORS:
            raise
        except Exception as exc:  # excluded from validation below
            return exc

    results = _map_calls(guarded, plan.r, backend, cores)
    for rep_ledger, rep_log in zip(rep_ledgers, rep_events):
        base, charges = ledger.n_runs, iter(rep_ledger.charges)
        for event in rep_log:
            if "ledger" in event:
                while ledger.n_runs < base + event["ledger"]:
                    ledger.charge(*next(charges))
                event["ledger"] = ledger.snapshot()
            events.append(event)
        for charge in charges:
            ledger.charge(*charge)
    outputs = []
    for rep, out in enumerate(results):
        if isinstance(out, Exception):
            logger.warning("construction repetition %d failed and is excluded: %s", rep, out)
            events.append({"event": "repetition_failed", "repetition": rep, "error": str(out)})
        else:
            outputs.append(out)
    if not outputs:
        raise ConstructionFailed("every construction repetition failed")
    outcome = validate_and_select(
        [out[0] for out in outputs],
        scenario.train_instances,
        plan.t_v,
        scenario.cutoff,
        scenario.metric.penalty,
        validation_seed,
        backend,
        ledger,
    )
    return outputs, outcome


def construct_grouped(
    scenario: Scenario,
    plan: BudgetPlan,
    seed: int,
    backend: Backend,
    *,
    normalization: str = "none",
    settings: ConfiguratorSettings | None = None,
    transfer_forest: ForestParams | None = None,
    cores: int | None = None,
) -> ConstructionResult:
    """One component per instance subset, configured in phases.

    The plan's method picks the initial grouping: pcit and pcrs draw a
    fresh random even split per repetition, and clustering groups the
    instances once by k-means on their features (scaled by
    ``normalization``) and starts every repetition from that grouping. Every
    phase of ``plan.phase_budgets`` configures all subsets (warm-started
    from the previous phase), and the grouping is adjusted by instance
    transfer after every phase but the last. A pcit plan has n phases; pcrs
    and clustering plans have one and so perform no transfers.
    ``normalization`` is read by clustering plans only, and
    ``transfer_forest`` by plans of more than one phase; giving either to
    another plan raises ``ValueError``.
    """
    if plan.method not in ("pcit", "pcrs", "clustering"):
        raise ValueError(f"plan is for method {plan.method!r}")
    if normalization != "none" and plan.method != "clustering":
        raise ValueError(f"a {plan.method} plan does not read normalization")
    if transfer_forest is not None and len(plan.phase_budgets) == 1:
        raise ValueError("a single-phase plan performs no transfer to use transfer_forest")
    if scenario.k > len(scenario.train_instances):
        raise ValueError(
            f"cannot split {len(scenario.train_instances)} training instances "
            f"into k={scenario.k} subsets"
        )
    cores = _check_cores(cores)
    events: list[dict] = []
    if plan.method == "clustering":
        clustered = _cluster(scenario, seed, normalization)
        events.append(
            {"event": "clustering", "normalization": normalization,
             "cluster_sizes": list(clustered.sizes())}
        )
    ledger = BudgetLedger()
    train_by_id = {ins.id: ins for ins in scenario.train_instances}
    features = scenario.train_features()
    rep_seeds = [derive_seed(seed, "rep", rep) for rep in range(plan.r)]
    # concurrent repetitions share the cores, so at most ``cores`` subset
    # configuration calls (and so solver runs) are in flight at once
    subset_cores = max(1, cores // min(plan.r, cores))

    def one_rep(rep: int, ledger: BudgetLedger, events: list[dict]):
        rep_seed = rep_seeds[rep]
        store = RunDataStore()
        if plan.method == "clustering":
            grouping = clustered
        else:
            grouping = split_random_even(scenario.train_instances, scenario.k, rep_seed)
        incumbents: list[Configuration | None] = [None] * scenario.k
        reports: list[TransferReport] = []
        for phase_idx, phase_budget in enumerate(plan.phase_budgets, start=1):
            runs: list[list] = [[] for _ in range(scenario.k)]

            def conf_subset(j: int) -> Configuration:
                subset = [train_by_id[i] for i in grouping.subsets[j]]

                def evaluate(config, instance, cap, run_seed):
                    record = execute_run(backend, config, instance, cap, run_seed)
                    runs[j].append((record, config))
                    return record, record.runtime

                return configure(
                    scenario.space,
                    subset,
                    scenario.cutoff,
                    phase_budget,
                    scenario.metric,
                    evaluate,
                    derive_seed(rep_seed, "configure", phase_idx, j),
                    initial_incumbent=incumbents[j],
                    settings=settings,
                )

            try:
                incumbents = _map_calls(conf_subset, scenario.k, backend, subset_cores)
            finally:
                for record, config in itertools.chain.from_iterable(runs):
                    store.add(record, config)
                    ledger.charge(record.runtime, phase=f"phase{phase_idx}")
            events.append(
                {
                    "event": "phase_done",
                    "repetition": rep,
                    "phase": phase_idx,
                    "incumbents": [c.config_id for c in incumbents],
                    "subset_sizes": list(grouping.sizes()),
                    "ledger": ledger.n_runs,  # made a snapshot by ``_repetitions``
                }
            )
            if phase_idx < len(plan.phase_budgets):
                grouping, report = transfer_instances(
                    grouping,
                    incumbents,
                    features,
                    store,
                    scenario.space,
                    derive_seed(rep_seed, "transfer", phase_idx),
                    scenario.cutoff,
                    scenario.metric.penalty,
                    forest=transfer_forest,
                )
                reports.append(report)
                events.append(
                    {"event": "transfer", "repetition": rep, "phase": phase_idx, **report.to_dict()}
                )
        return tuple(incumbents), grouping, tuple(reports), store

    outputs, outcome = _repetitions(
        one_rep, plan, scenario, backend, cores, ledger, events, derive_seed(seed, "validation")
    )
    candidates, groupings, reports, stores = (tuple(column) for column in zip(*outputs))
    events.append(
        {
            "event": "validation",
            "scores": list(outcome.scores),
            "selected": outcome.best_index,
            "n_instances": outcome.n_scored_instances,
        }
    )
    return ConstructionResult(
        portfolio=Portfolio(
            components=candidates[outcome.best_index],
            method_label=plan.method,
            seeds=tuple(rep_seeds),
            consumed_cpu_time=ledger.total,
        ),
        candidates=candidates,
        selected_index=outcome.best_index,
        validation_scores=outcome.scores,
        groupings=groupings,
        transfer_reports=reports,
        ledger=ledger,
        events=events,
        stores=stores,
    )


construct_pcit = construct_pcrs = construct_clustering = construct_grouped


# ---------------------------------------------------------------------------
# feature clustering


def normalize_features(X: np.ndarray, mode: str) -> np.ndarray:
    """Feature normalization: none, per-dimension min-max, or z-score."""
    X = np.asarray(X, dtype=float)
    if mode == "none":
        return X
    if mode == "linear":
        lo = X.min(axis=0)
        span = X.max(axis=0) - lo
        span[span == 0] = 1.0
        return (X - lo) / span
    if mode == "standard":
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0] = 1.0
        return (X - mean) / std
    raise ValueError(f"unknown normalization {mode!r}")


def kmeans(
    X: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
    """Plain k-means with seeded k-means++ init, single run, at most
    ``KMEANS_MAX_ITER`` iterations. An emptied cluster is re-seeded at the
    instance farthest from its assigned center. Returns (labels, centers,
    inertia per iteration)."""
    X = np.asarray(X, dtype=float)
    n = len(X)
    if k < 1 or n < k:
        raise ValueError("need at least k points")
    rng = np.random.default_rng(seed)

    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, ((X - centers[j]) ** 2).sum(axis=1))

    labels = np.full(n, -1)
    inertias: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            if not (new_labels == j).any():
                farthest = int(d2[np.arange(n), new_labels].argmax())
                centers[j] = X[farthest]
                new_labels[farthest] = j
                d2[:, j] = ((X - centers[j]) ** 2).sum(axis=1)
        inertias.append(float(d2[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = X[labels == j].mean(axis=0)
    return labels, centers, tuple(inertias)


def _cluster(scenario: Scenario, seed: int, normalization: str) -> InstanceGrouping:
    """The k-means grouping of the training instances in feature space."""
    if scenario.feature_dimension == 0:
        raise ValueError("clustering needs instance features")
    train = scenario.train_instances
    X = normalize_features(np.array([ins.features for ins in train]), normalization)
    labels, _, _ = kmeans(X, scenario.k, derive_seed(seed, "kmeans"))
    subsets = [
        tuple(ins.id for ins, lab in zip(train, labels) if lab == j)
        for j in range(scenario.k)
    ]
    return InstanceGrouping(tuple(subsets), 1, len(train))


# ---------------------------------------------------------------------------
# greedy block construction


class PortfolioEvaluator:
    """Adapter letting the configurator search a product space whose points
    are whole portfolios (optionally extending a fixed prefix of components).

    The record appended to the store is the portfolio-level outcome (first
    solver's time); the ledger receives every component's time; the budget
    cost handed back to the configurator is the component-time sum divided
    by the portfolio width, i.e. per-core time. On a cache hit the prefix is
    charged as one block of ``prefix_width * min(prefix_time, cap)``.
    """

    def __init__(
        self,
        base_space,
        block_size: int,
        backend: Backend,
        store: RunDataStore,
        scenario_cutoff: float,
        ledger: BudgetLedger | None = None,
        prefix: tuple[Configuration, ...] = (),
        prefix_cache: dict[str, tuple[RunStatus, float]] | None = None,
    ):
        self.base_space = base_space
        self.block_size = block_size
        self.backend = backend
        self.store = store
        self.ledger = ledger
        self.prefix = prefix
        self.prefix_cache = prefix_cache if prefix_cache is not None else {}
        self.scenario_cutoff = scenario_cutoff

    @property
    def width(self) -> int:
        return len(self.prefix) + self.block_size

    def _prefix_outcome(self, instance: Instance, seed: int) -> tuple[tuple[RunStatus, float], float]:
        """Prefix-portfolio result on the instance plus the fresh cost paid."""
        cached = self.prefix_cache.get(instance.id)
        if cached is not None:
            return cached, 0.0
        cutoff = self.scenario_cutoff
        outcomes = []
        cost = 0.0
        for comp in self.prefix:
            status, runtime = clamp_run(*self.backend.run(comp, instance, cutoff, seed), cutoff)
            outcomes.append((status, runtime))
            cost += runtime
        combined = portfolio_runtime(outcomes, cutoff)
        result = (combined.status, combined.runtime)
        self.prefix_cache[instance.id] = result
        return result, cost

    def run(
        self, config: Configuration, instance: Instance, cutoff: float, seed: int
    ) -> tuple[RunRecord, float]:
        block = decode_product_config(self.base_space, config, self.block_size)
        outcomes: list[tuple[RunStatus, float]] = []
        cpu = 0.0
        if self.prefix:
            (status, runtime), fresh_cost = self._prefix_outcome(instance, seed)
            if status is RunStatus.SOLVED and runtime < cutoff:
                outcomes.append((status, runtime))
            else:
                outcomes.append((RunStatus.TIMEOUT, cutoff))
            cpu += fresh_cost if fresh_cost > 0 else len(self.prefix) * min(runtime, cutoff)
        for comp in block:
            status, runtime = clamp_run(*self.backend.run(comp, instance, cutoff, seed), cutoff)
            outcomes.append((status, runtime))
            cpu += runtime
        combined = portfolio_runtime(outcomes, cutoff)
        record = RunRecord(
            config_id=config.config_id,
            instance_id=instance.id,
            seed=seed,
            status=combined.status,
            runtime=combined.runtime,
            cutoff=cutoff,
        )
        self.store.add(record, config)
        if self.ledger is not None:
            self.ledger.charge(cpu, kind="configuration")
        return record, cpu / self.width


def construct_parhydra(
    scenario: Scenario,
    plan: BudgetPlan,
    seed: int,
    backend: Backend,
    *,
    settings: ConfiguratorSettings | None = None,
    cores: int | None = None,
) -> ConstructionResult:
    """Greedy block construction: each iteration jointly configures b new
    components to best extend the portfolio built so far.

    Every iteration runs ``r`` repetitions over the b-fold product space and
    keeps the extension with the best validation score. With b = k (the
    global plan) this is one-shot whole-portfolio configuration; with b = 1
    it adds one component at a time. The result's candidates and scores
    are those of the last iteration.
    """
    if plan.method not in ("global", "parhydra"):
        raise ValueError(f"plan is for method {plan.method!r}")
    cores = _check_cores(cores)
    ledger = BudgetLedger()
    events: list[dict] = []
    b = plan.b
    block_space = compose_product_space(scenario.space, b)
    initial = make_product_config(block_space, [default_config(scenario.space)] * b)
    prefix: tuple[Configuration, ...] = ()
    prefix_cache: dict[str, tuple[RunStatus, float]] = {}
    stores: list[RunDataStore] = []
    rep_seeds = [derive_seed(seed, "rep", rep) for rep in range(plan.r)]

    for iteration in range(plan.iterations):

        def one_block(rep: int, ledger: BudgetLedger, _events: list[dict]):
            store = RunDataStore()
            evaluator = PortfolioEvaluator(
                scenario.space,
                b,
                backend,
                store,
                scenario.cutoff,
                ledger,
                prefix=prefix,
                prefix_cache=dict(prefix_cache),
            )
            winner = configure(
                block_space,
                scenario.train_instances,
                scenario.cutoff,
                plan.t_c,
                scenario.metric,
                evaluator.run,
                derive_seed(seed, "iteration", iteration, "rep", rep),
                initial_incumbent=initial,
                settings=settings,
            )
            return prefix + decode_product_config(scenario.space, winner, b), store

        outputs, outcome = _repetitions(
            one_block, plan, scenario, backend, cores, ledger, events,
            derive_seed(seed, "validation", iteration),
        )
        stores.extend(store for _, store in outputs)
        candidates = tuple(candidate for candidate, _ in outputs)
        prefix = candidates[outcome.best_index]
        prefix_cache = {
            r.instance_id: (r.status, r.runtime) for r in outcome.best_results
        }
        events.append(
            {
                "event": "iteration_done",
                "iteration": iteration,
                "selected": outcome.best_index,
                "scores": list(outcome.scores),
                "portfolio_size": len(prefix),
            }
        )
    return ConstructionResult(
        portfolio=Portfolio(
            components=prefix,
            method_label=plan.method,
            seeds=tuple(rep_seeds),
            consumed_cpu_time=ledger.total,
        ),
        candidates=candidates,
        selected_index=outcome.best_index,
        validation_scores=outcome.scores,
        groupings=(None,) * len(candidates),
        transfer_reports=((),) * len(candidates),
        ledger=ledger,
        events=events,
        stores=tuple(stores),
    )


construct_global = construct_parhydra


CONSTRUCTORS: dict[str, Callable] = {
    "pcit": construct_pcit,
    "pcrs": construct_pcrs,
    "global": construct_global,
    "clustering": construct_clustering,
    "parhydra": construct_parhydra,
}
