"""Budget planning, the two construction algorithms, and validation-based
selection of the final portfolio.

The five methods are two algorithms:

* the grouped constructor (``construct_grouped``) splits the training
  instances into k subsets and configures one component per subset. The
  methods differ in the initial grouping and the number of phases: pcrs
  runs one phase on a random even split, pcit runs n phases on the same
  split with instance transfer after every phase but the last, and
  clustering runs one phase on a k-means grouping of the instance
  features;
* the greedy block constructor (``construct_parhydra``) configures b
  components at a time over a b-fold product space, each block extending
  the portfolio selected so far. Global is its b = k case: one iteration
  that configures the whole portfolio at once.

Both run ``r`` independent repetitions that produce candidate portfolios
(per iteration, for the block constructor), and the candidate with the
best training-set validation score wins. Repetitions and the per-subset
configuration calls inside one repetition run concurrently on threads only
when the backend runs solvers as child processes; with an in-process
backend they run in order on the calling thread. Results are
schedule-independent because every configuration call owns its seeds and
the shared stores are order-invariant.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .configurator import ConfiguratorSettings, configure
from .core import (
    Instance,
    InstanceGrouping,
    InstanceResult,
    Portfolio,
    RunRecord,
    RunStatus,
    Scenario,
    clamp_run,
    penalized_score,
    portfolio_runtime,
    split_random_even,
)
from .perfmodel import ForestParams
from .rundata import RunDataStore
from .runner import Backend, BudgetLedger, ExternalBackend, evaluate_portfolio
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


def derive_seed(*parts) -> int:
    """Stable 31-bit seed derived from arbitrary labels."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


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
    if k < 1 or r < 1 or t_c <= 0 or t_v < 0:
        raise ValueError("k, r must be >= 1 and budgets positive")
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
    the longest common prefix. Ties go to the lower index.
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
                backend, components, [instance], cutoff, seed,
                ledger=ledger, charge="validation",
            )[0]
            results.append(res)
            consumed += res.cpu_cost / width
            if consumed >= t_v:
                break
        all_results.append(results)
    n_common = min(len(r) for r in all_results)
    if n_common == 0:
        return ValidationOutcome(0, (math.inf,) * len(portfolios), all_results[0], 0)
    scores = tuple(
        math.fsum(
            penalized_score(r.status, r.runtime, cutoff, penalty) for r in results[:n_common]
        )
        / n_common
        for results in all_results
    )
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


def _map_calls(
    fn: Callable[[int], object],
    n: int,
    backend: Backend,
    cores: int | None,
    *,
    keep_errors: bool = False,
) -> list:
    """``[fn(0), ..., fn(n - 1)]``.

    Threads can only overlap solver runs that happen in child processes
    (``ExternalBackend``), so only then do the calls go to a pool of up to
    ``cores`` threads (default: the CPU count). An in-process backend runs
    Python under the interpreter lock, where threads just contend; there
    the calls run in order on the calling thread. With ``keep_errors`` an
    exception raised by a call takes its place in the result list, for the
    caller to exclude.
    """

    def call(i: int):
        if not keep_errors:
            return fn(i)
        try:
            return fn(i)
        except Exception as exc:  # excluded from validation later
            return exc

    workers = min(n, cores or os.cpu_count() or 1)
    if workers <= 1 or not isinstance(backend, ExternalBackend):
        return [call(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call, range(n)))


def _exclude_failed(outputs: list, events: list[dict]) -> list:
    """The outputs of the repetitions that did not raise.

    A repetition that raised is logged, recorded in ``events`` and left
    out; if every repetition raised, the construction fails.
    """
    for rep, out in enumerate(outputs):
        if isinstance(out, Exception):
            logger.warning("construction repetition %d failed and is excluded: %s", rep, out)
            events.append({"event": "repetition_failed", "repetition": rep, "error": str(out)})
    ok = [out for out in outputs if not isinstance(out, Exception)]
    if not ok:
        raise RuntimeError("every construction repetition failed")
    return ok


def construct_grouped(
    scenario: Scenario,
    plan: BudgetPlan,
    seed: int,
    backend: Backend,
    initial_grouping: Callable[[int], InstanceGrouping],
    events: list[dict],
    *,
    settings: ConfiguratorSettings | None = None,
    transfer_forest: ForestParams | None = None,
    cores: int | None = None,
) -> ConstructionResult:
    """One component per instance subset, configured in phases.

    Each repetition starts from ``initial_grouping(repetition_seed)``; every
    phase of ``plan.phase_budgets`` configures all subsets (warm-started
    from the previous phase), and the grouping is adjusted by instance
    transfer after every phase but the last. Construction events are
    appended to ``events``.
    """
    ledger = BudgetLedger()
    train_by_id = {ins.id: ins for ins in scenario.train_instances}
    features = scenario.train_features()
    rep_seeds = [derive_seed(seed, "rep", rep) for rep in range(plan.r)]

    def one_rep(rep: int):
        rep_seed = rep_seeds[rep]
        store = RunDataStore()
        grouping = initial_grouping(rep_seed)
        incumbents: list[Configuration | None] = [None] * scenario.k
        reports: list[TransferReport] = []
        for phase_idx, phase_budget in enumerate(plan.phase_budgets, start=1):

            def conf_subset(j: int) -> Configuration:
                subset = [train_by_id[i] for i in grouping.subsets[j]]
                return configure(
                    scenario.space,
                    subset,
                    scenario.cutoff,
                    phase_budget,
                    scenario.metric,
                    store,
                    derive_seed(rep_seed, "configure", phase_idx, j),
                    initial_incumbent=incumbents[j],
                    backend=backend,
                    ledger=ledger,
                    phase=phase_idx,
                    subset_index=j,
                    settings=settings,
                )

            incumbents = _map_calls(conf_subset, scenario.k, backend, cores)
            events.append(
                {
                    "event": "phase_done",
                    "repetition": rep,
                    "phase": phase_idx,
                    "incumbents": [c.config_id for c in incumbents],
                    "subset_sizes": list(grouping.sizes()),
                    "ledger": ledger.snapshot(),
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

    outputs = _exclude_failed(
        _map_calls(one_rep, plan.r, backend, cores, keep_errors=True), events
    )
    candidates, groupings, reports, stores = (tuple(column) for column in zip(*outputs))
    outcome = validate_and_select(
        candidates,
        scenario.train_instances,
        plan.t_v,
        scenario.cutoff,
        scenario.metric.penalty,
        derive_seed(seed, "validation"),
        backend,
        ledger,
    )
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


def construct_pcit(
    scenario: Scenario,
    plan: BudgetPlan,
    seed: int,
    backend: Backend,
    *,
    settings: ConfiguratorSettings | None = None,
    transfer_forest: ForestParams | None = None,
    cores: int | None = None,
) -> ConstructionResult:
    """The grouped constructor on a fresh random even split per repetition.

    A pcit plan has n phases with transfers between them; a pcrs plan has
    one phase and so performs no transfers, which is exactly the
    random-splitting baseline.
    """
    if plan.method not in ("pcit", "pcrs"):
        raise ValueError(f"plan is for method {plan.method!r}")

    def random_split(rep_seed: int) -> InstanceGrouping:
        return split_random_even(scenario.train_instances, scenario.k, rep_seed)

    return construct_grouped(
        scenario, plan, seed, backend, random_split, [],
        settings=settings, transfer_forest=transfer_forest, cores=cores,
    )


construct_pcrs = construct_pcit


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
    X: np.ndarray, k: int, seed: int, max_iter: int = 300
) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
    """Plain k-means with seeded k-means++ init, single run, <= max_iter
    iterations. An emptied cluster is re-seeded at the instance farthest
    from its assigned center. Returns (labels, centers, inertia per
    iteration)."""
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
    for _ in range(max_iter):
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


def construct_clustering(
    scenario: Scenario,
    plan: BudgetPlan,
    seed: int,
    backend: Backend,
    *,
    normalization: str = "none",
    settings: ConfiguratorSettings | None = None,
    cores: int | None = None,
) -> ConstructionResult:
    """Cluster instances in feature space once, then run the grouped
    constructor on that grouping in every repetition."""
    if plan.method != "clustering":
        raise ValueError(f"plan is for method {plan.method!r}")
    if scenario.feature_dimension == 0:
        raise ValueError("clustering needs instance features")
    train = scenario.train_instances
    X = normalize_features(np.array([ins.features for ins in train]), normalization)
    labels, _, _ = kmeans(X, scenario.k, derive_seed(seed, "kmeans"))
    subsets = [
        tuple(ins.id for ins, lab in zip(train, labels) if lab == j)
        for j in range(scenario.k)
    ]
    grouping = InstanceGrouping(tuple(subsets), 1, len(train))
    events = [
        {"event": "clustering", "normalization": normalization,
         "cluster_sizes": list(grouping.sizes())}
    ]
    return construct_grouped(
        scenario, plan, seed, backend, lambda _rep_seed: grouping, events,
        settings=settings, cores=cores,
    )


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
        ledger: BudgetLedger | None = None,
        prefix: tuple[Configuration, ...] = (),
        prefix_cache: dict[str, tuple[RunStatus, float]] | None = None,
        scenario_cutoff: float | None = None,
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
            backend_label=f"{self.backend.label}:portfolio",
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

        def one_block(rep: int):
            store = RunDataStore()
            evaluator = PortfolioEvaluator(
                scenario.space,
                b,
                backend,
                store,
                ledger,
                prefix=prefix,
                prefix_cache=dict(prefix_cache),
                scenario_cutoff=scenario.cutoff,
            )
            winner = configure(
                block_space,
                scenario.train_instances,
                scenario.cutoff,
                plan.t_c,
                scenario.metric,
                store,
                derive_seed(seed, "iteration", iteration, "rep", rep),
                initial_incumbent=initial,
                evaluator=evaluator,
                settings=settings,
            )
            return decode_product_config(scenario.space, winner, b), store

        blocks = _exclude_failed(
            _map_calls(one_block, plan.r, backend, cores, keep_errors=True), events
        )
        stores.extend(store for _, store in blocks)
        candidates = tuple(prefix + block for block, _ in blocks)
        outcome = validate_and_select(
            candidates,
            scenario.train_instances,
            plan.t_v,
            scenario.cutoff,
            scenario.metric.penalty,
            derive_seed(seed, "validation", iteration),
            backend,
            ledger,
        )
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
