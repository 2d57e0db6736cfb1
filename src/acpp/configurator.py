"""Model-assisted algorithm configuration with racing against an incumbent.

The engine interleaves one random challenger with one model-greedy
challenger (picked from a pool of random candidates scored by the forest),
races each challenger against the incumbent on a growing, seeded-shuffle
instance schedule with early elimination, and caps challenger runs at a
multiple of the incumbent's time on the same instance. A challenger is
eliminated as soon as its mean score over the instances raced so far is
above the incumbent's mean over the same instances; it replaces the
incumbent only when it has run on every instance the incumbent has been
measured on and its mean score over them is strictly lower, so the
incumbent's mean estimate never gets worse at a handover.

All runs go through an evaluator that appends to the shared rundata store
and charges the ledger; the model is fit on this call's own runs, which
keeps concurrent per-subset configuration deterministic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from random import Random
from typing import Sequence

import numpy as np

from .core import Instance, Metric, RunRecord, penalized_score
from .perfmodel import ForestParams, PerformanceModel, fit_forest
from .rundata import RunDataStore
from .runner import Backend, BudgetLedger, execute_run
from .space import (
    Configuration,
    ParameterSpace,
    default_config,
    encode_config,
    encoding_kinds,
    sample_config,
)

logger = logging.getLogger(__name__)

MIN_CAP = 0.05  # smallest cutoff handed to a capped challenger run


@dataclass(frozen=True)
class ConfiguratorSettings:
    refit_interval: int = 10
    refit_growth: float = 1.0  # >1 spaces refits out geometrically as data grows
    n_candidates: int = 1000
    score_instance_sample: int = 10
    cap_slack: float = 2.0
    min_incumbent_coverage: int = 6  # incumbent runs required before racing starts
    min_race_length: int = 3  # instances a challenger gets before it can be eliminated
    forest: ForestParams = field(default_factory=lambda: ForestParams(n_trees=10))


class ComponentEvaluator:
    """Default evaluator: one run of one configuration on one instance."""

    def __init__(
        self,
        backend: Backend,
        store: RunDataStore,
        ledger: BudgetLedger | None = None,
        phase: int | None = None,
        subset_index: int | None = None,
    ):
        self.backend = backend
        self.store = store
        self.ledger = ledger
        self.phase = phase
        self.subset_index = subset_index

    def run(
        self, config: Configuration, instance: Instance, cutoff: float, seed: int
    ) -> tuple[RunRecord, float]:
        record = execute_run(
            self.backend,
            config,
            instance,
            cutoff,
            seed,
            store=self.store,
            ledger=self.ledger,
            charge="configuration",
            phase=self.phase,
            subset_index=self.subset_index,
        )
        return record, record.runtime


@dataclass
class _State:
    incumbent: Configuration
    scores: dict[str, float] = field(default_factory=dict)    # penalized, full-cutoff scale
    runtimes: dict[str, float] = field(default_factory=dict)  # measured runtimes for capping

    def estimate(self, ids: Sequence[str]) -> float:
        return math.fsum(self.scores[i] for i in ids) / len(ids)


def configure(
    space: ParameterSpace,
    instances: Sequence[Instance],
    cutoff: float,
    budget: float,
    metric: Metric,
    store: RunDataStore,
    seed: int,
    *,
    initial_incumbent: Configuration | None = None,
    backend: Backend | None = None,
    evaluator=None,
    ledger: BudgetLedger | None = None,
    phase: int | None = None,
    subset_index: int | None = None,
    settings: ConfiguratorSettings | None = None,
) -> Configuration:
    """Search the space for the configuration minimizing the penalized
    runtime over the instances, stopping when consumed solver time first
    reaches the budget.

    ``initial_incumbent`` warm-starts the search (the default configuration
    otherwise). A budget below one cutoff performs no runs and returns the
    starting incumbent with a warning.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not instances:
        raise ValueError("no instances to configure on")
    settings = settings or ConfiguratorSettings()
    if evaluator is None:
        if backend is None:
            raise ValueError("either a backend or an evaluator is required")
        evaluator = ComponentEvaluator(backend, store, ledger, phase, subset_index)

    incumbent = initial_incumbent if initial_incumbent is not None else default_config(space)
    if budget < cutoff:
        logger.warning(
            "budget %.3fs is below one cutoff (%.3fs); returning the starting incumbent untouched",
            budget,
            cutoff,
        )
        return incumbent

    rng = Random(seed)
    order = list(instances)
    rng.shuffle(order)
    penalty = metric.penalty
    features = {ins.id: np.asarray(ins.features, dtype=float) for ins in instances}
    feature_dim = len(order[0].features)
    by_id = {ins.id: ins for ins in order}

    consumed = 0.0
    runs_done = 0
    last_fit = 0
    own_rows: list[np.ndarray] = []
    own_targets: list[float] = []
    model: PerformanceModel | None = None
    use_model_next = False
    column_kinds = encoding_kinds(space) + ("num",) * feature_dim
    enc_cache: dict[str, np.ndarray] = {}

    def encode_params(config: Configuration) -> np.ndarray:
        enc = enc_cache.get(config.config_id)
        if enc is None:
            enc = encode_config(space, config, features=())
            enc_cache[config.config_id] = enc
        return enc

    def encode_pair(config: Configuration, instance_id: str) -> np.ndarray:
        return np.concatenate([encode_params(config), features[instance_id]])

    def do_run(config: Configuration, instance: Instance, cap: float) -> RunRecord:
        nonlocal consumed, runs_done
        record, cost = evaluator.run(config, instance, cap, rng.randrange(2**31))
        consumed += cost
        runs_done += 1
        own_rows.append(encode_pair(config, instance.id))
        score = penalized_score(record.status, record.runtime, cutoff, penalty)
        own_targets.append(math.log10(max(min(score, penalty * cutoff), 1e-3)))
        return record

    def score_of(record: RunRecord) -> float:
        # a timeout is penalized against the cutoff the run actually got, so
        # a challenger capped at 2x a fast incumbent is censored near the cap
        # instead of being charged the full-scale penalty
        return penalized_score(record.status, record.runtime, record.cutoff, penalty)

    def maybe_refit() -> None:
        nonlocal model, last_fit
        gap = max(settings.refit_interval, int(last_fit * (settings.refit_growth - 1.0)))
        if runs_done - last_fit < gap or len(own_targets) < 5:
            return
        last_fit = runs_done
        targets = np.array(own_targets)
        if np.all(targets == targets[0]):
            return
        model = fit_forest(
            np.vstack(own_rows),
            targets,
            column_kinds,
            settings.forest,
            seed=rng.randrange(2**31),
            feature_dim=feature_dim,
            space=space,
        )

    def propose() -> Configuration:
        nonlocal use_model_next
        use_model = use_model_next and model is not None
        use_model_next = not use_model_next
        if not use_model:
            return sample_config(space, rng)
        pool: dict[str, Configuration] = {}
        for _ in range(settings.n_candidates):
            cand = sample_config(space, rng)
            if cand.config_id != state.incumbent.config_id:
                pool.setdefault(cand.config_id, cand)
        if not pool:
            return sample_config(space, rng)
        candidates = list(pool.values())
        sample = rng.sample(order, min(len(order), settings.score_instance_sample))
        cand_block = np.vstack([encode_params(c) for c in candidates])
        feat_block = np.vstack([features[ins.id] for ins in sample])
        rows = np.hstack(
            [
                np.repeat(cand_block, len(sample), axis=0),
                np.tile(feat_block, (len(candidates), 1)),
            ]
        )
        predictions = model.predict_transformed(rows).reshape(len(candidates), len(sample))
        return candidates[int(np.argmin(predictions.mean(axis=1)))]

    state = _State(incumbent)

    def intensify_incumbent() -> None:
        """Measure the incumbent on the next instance it has not seen."""
        for ins in order:
            if ins.id not in state.scores:
                record = do_run(state.incumbent, ins, cutoff)
                state.scores[ins.id] = score_of(record)
                state.runtimes[ins.id] = record.runtime
                return

    # measure the starting incumbent on a few instances before any racing;
    # otherwise an early challenger can displace it off one or two results
    floor = min(len(order), max(1, settings.min_incumbent_coverage))
    while len(state.scores) < floor and consumed < budget:
        intensify_incumbent()
    stalled = 0
    while consumed < budget:
        before = consumed
        intensify_incumbent()
        if consumed >= budget:
            break
        maybe_refit()
        challenger = propose()
        if challenger.config_id == state.incumbent.config_id:
            # nothing new to race (e.g. a single-configuration space)
            stalled = stalled + 1 if consumed == before else 0
            if stalled >= 50:
                break
            continue
        stalled = 0
        covered = [ins.id for ins in order if ins.id in state.scores]
        # fresh race order per challenger: a fixed order would eliminate a
        # globally better challenger on the same unlucky first instance in
        # every retry
        race_order = list(covered)
        rng.shuffle(race_order)
        challenger_state = _State(challenger)
        raced: list[str] = []
        batch = max(1, min(settings.min_race_length, len(race_order)))
        eliminated = False
        aborted = False
        while len(raced) < len(race_order):
            chunk = race_order[len(raced) : len(raced) + batch]
            for ins_id in chunk:
                inc_time = state.runtimes[ins_id]
                cap = min(cutoff, max(MIN_CAP, settings.cap_slack * inc_time))
                record = do_run(challenger, by_id[ins_id], cap)
                challenger_state.scores[ins_id] = score_of(record)
                challenger_state.runtimes[ins_id] = record.runtime
                raced.append(ins_id)
                if consumed >= budget:
                    aborted = True
                    break
            if aborted:
                break
            if challenger_state.estimate(raced) > state.estimate(raced):
                eliminated = True
                break
            batch *= 2
        if (
            not eliminated
            and not aborted
            and len(raced) == len(race_order)
            and challenger_state.estimate(covered) < state.estimate(covered)
        ):
            state = challenger_state
    return state.incumbent
