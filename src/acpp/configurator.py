"""Model-assisted algorithm configuration with racing against an incumbent.

The engine interleaves one random challenger with one model-greedy
challenger (picked from a pool of random candidates scored by the forest;
the pool's value tuples are decoded from one block of generator words by
``SamplingPlan.draw_many``, with the candidates and generator state of one
``draw`` per candidate, and only the best-scored one becomes a
``Configuration``),
races each challenger against the incumbent on a growing, seeded-shuffle
instance schedule with early elimination, and caps challenger runs at a
multiple of the incumbent's time on the same instance. A challenger is
eliminated as soon as its mean score over the instances raced so far is
above the incumbent's mean over the same instances; it replaces the
incumbent only when it has run on every instance the incumbent has been
measured on and its mean score over them is strictly lower, so the
incumbent's mean estimate never gets worse at a handover.

All runs go through the caller's ``evaluate``, which records and charges
them; the model is fit on this call's own runs, which keeps concurrent
per-subset configuration deterministic. Fits are lazy: a refit draws its
seed and fixes its row count when it is due, but the forest is grown only
when a model-greedy proposal first needs it, so a refit that is replaced
before any proposal uses it costs nothing.

Racing and refits follow module constants, not settings: ``REFIT_INTERVAL``,
``CAP_SLACK``, ``MIN_INCUMBENT_COVERAGE`` and ``MIN_RACE_LENGTH``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Sequence

import numpy as np

from .core import Instance, Metric, RunRecord, penalized_score
from .perfmodel import ForestParams, PerformanceModel, fit_forest, log_target, row_kinds
from .space import (
    Configuration,
    ParameterSpace,
    default_config,
    encode_config,
    make_config,
    sample_config,
)

logger = logging.getLogger(__name__)

MIN_CAP = 0.05  # smallest cutoff handed to a capped challenger run
REFIT_INTERVAL = 10  # fewest runs between two refits
CAP_SLACK = 2.0  # a challenger's cap as a multiple of the incumbent's time
MIN_INCUMBENT_COVERAGE = 6  # incumbent runs required before racing starts
MIN_RACE_LENGTH = 3  # instances a challenger gets before it can be eliminated


@dataclass(frozen=True)
class ConfiguratorSettings:
    refit_growth: float = 1.0  # >1 spaces refits out geometrically as data grows
    n_candidates: int = 1000
    score_instance_sample: int = 10
    forest: ForestParams = field(default_factory=lambda: ForestParams(n_trees=10))

    def __post_init__(self) -> None:
        if self.n_candidates < 1 or self.score_instance_sample < 1:
            raise ValueError("n_candidates and score_instance_sample must be >= 1")
        if not 1.0 <= self.refit_growth < math.inf:
            raise ValueError("refit_growth must be finite and >= 1")


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
    evaluate: Callable[[Configuration, Instance, float, int], tuple[RunRecord, float]],
    seed: int,
    *,
    initial_incumbent: Configuration | None = None,
    settings: ConfiguratorSettings | None = None,
) -> Configuration:
    """Search the space for the configuration minimizing the penalized
    runtime over the instances, stopping when consumed solver time first
    reaches the budget.

    ``initial_incumbent`` warm-starts the search (the default configuration
    otherwise). Each run is one ``evaluate(config, instance, cutoff, seed)``
    call, which returns the run's record and its budget cost. A budget below
    one cutoff performs no runs and returns the starting incumbent with a
    warning.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not instances:
        raise ValueError("no instances to configure on")
    settings = settings or ConfiguratorSettings()
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
    by_id = {ins.id: ins for ins in order}

    consumed = 0.0
    runs_done = 0
    last_fit = 0
    own_rows: list[np.ndarray] = []
    own_targets: list[float] = []
    refit: tuple[int, int] | None = None  # (row count, seed) of the latest refit
    model: PerformanceModel | None = None  # grown from ``refit`` when first needed
    use_model_next = False
    plan = space.sampling_plan
    enc_cache: dict[str, np.ndarray] = {}

    def encode_params(config: Configuration) -> np.ndarray:
        enc = enc_cache.get(config.config_id)
        if enc is None:
            enc = encode_config(space, config)
            enc_cache[config.config_id] = enc
        return enc

    def do_run(config: Configuration, instance: Instance, cap: float) -> RunRecord:
        nonlocal consumed, runs_done
        record, cost = evaluate(config, instance, cap, rng.randrange(2**31))
        consumed += cost
        runs_done += 1
        own_rows.append(np.concatenate([encode_params(config), features[instance.id]]))
        score = penalized_score(record.status, record.runtime, cutoff, penalty)
        own_targets.append(log_target(score, cutoff, penalty))
        return record

    def score_of(record: RunRecord) -> float:
        # a timeout is penalized against the cutoff the run actually got, so
        # a challenger capped at 2x a fast incumbent is censored near the cap
        # instead of being charged the full-scale penalty
        return penalized_score(record.status, record.runtime, record.cutoff, penalty)

    def maybe_refit() -> None:
        nonlocal refit, model, last_fit
        gap = max(REFIT_INTERVAL, int(last_fit * (settings.refit_growth - 1.0)))
        if runs_done - last_fit < gap or len(own_targets) < 5:
            return
        last_fit = runs_done
        targets = np.array(own_targets)
        if np.all(targets == targets[0]):
            return
        refit = (len(own_rows), rng.randrange(2**31))
        model = None

    def propose() -> Configuration:
        nonlocal use_model_next, model
        use_model = use_model_next and refit is not None
        use_model_next = not use_model_next
        if not use_model:
            return sample_config(space, rng)
        # value tuples in first-seen order, on which argmin's first-minimum
        # tie-break depends
        pool = dict.fromkeys(plan.draw_many(rng, settings.n_candidates))
        pool.pop(plan.values_of(state.incumbent), None)
        if not pool:
            return sample_config(space, rng)
        if model is None:
            n_rows, fit_seed = refit
            model = fit_forest(
                np.vstack(own_rows[:n_rows]),
                np.array(own_targets[:n_rows]),
                row_kinds(space, len(order[0].features)),
                settings.forest,
                seed=fit_seed,
            )
        candidates = list(pool)
        sample = rng.sample(order, min(len(order), settings.score_instance_sample))
        predictions = model.predict_pairs(
            plan.encode(candidates), np.vstack([features[ins.id] for ins in sample])
        )
        best = candidates[int(np.argmin(predictions.mean(axis=1)))]
        return make_config(space, plan.assignments(best))

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
    floor = min(len(order), MIN_INCUMBENT_COVERAGE)
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
        batch = max(1, min(MIN_RACE_LENGTH, len(race_order)))
        eliminated = False
        aborted = False
        while len(raced) < len(race_order):
            chunk = race_order[len(raced) : len(raced) + batch]
            for ins_id in chunk:
                inc_time = state.runtimes[ins_id]
                cap = min(cutoff, max(MIN_CAP, CAP_SLACK * inc_time))
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
