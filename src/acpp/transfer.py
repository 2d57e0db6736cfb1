"""Instance transfer between subsets, driven by measured incumbent
performance and model-predicted performance on candidate target subsets.

Candidates are the instances whose measured incumbent score is strictly
above the median across all subsets. Each round examines the remaining
candidates in seeded-random order and moves an instance to the
best-predicted subset that (1) keeps both subset sizes within the bounds,
and (2) is predicted to be no worse than the source. Unmoved instances are
re-examined in the next round; the procedure stops when a round produces no
move or nothing is left to move.

When every subset has the same incumbent, every subset gets the same
prediction for every instance, so no model is fitted: the subsets rank in
index order, which is how equal predictions rank them, and the size bounds
alone decide each move.

Instances whose incumbent was never run on them are excluded from the whole
procedure, including the median computation.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from random import Random
from typing import Mapping, Sequence

import numpy as np

from .core import InstanceGrouping
from .perfmodel import ForestParams, fit_model
from .rundata import RunDataStore
from .space import Configuration, ParameterSpace, encode_config


@dataclass(frozen=True)
class Move:
    instance_id: str
    source: int
    target: int
    # per-subset predicted cost at decision time; None when every subset has
    # the same incumbent, since then no model is fitted
    predicted: tuple[float, ...] | None


@dataclass(frozen=True)
class TransferReport:
    threshold: float | None
    candidates: frozenset[str]
    n_excluded: int
    rounds: int
    moves: tuple[Move, ...]

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "n_candidates": len(self.candidates),
            "n_excluded": self.n_excluded,
            "rounds": self.rounds,
            "moves": [[m.instance_id, m.source, m.target] for m in self.moves],
        }


def select_transfer_candidates(
    grouping: InstanceGrouping,
    incumbents: Sequence[Configuration],
    store: RunDataStore,
    cutoff: float,
    penalty: int,
) -> tuple[set[str], float | None, dict[str, float]]:
    """Measured incumbent scores, their median, and the instances strictly
    above it. Instances without any incumbent run are left out entirely."""
    if len(incumbents) != grouping.k:
        raise ValueError("need exactly one incumbent per subset")
    measured: dict[str, float] = {}
    for subset, incumbent in zip(grouping.subsets, incumbents):
        for instance_id in subset:
            score = store.incumbent_performance(incumbent, instance_id, cutoff, penalty)
            if score is not None:
                measured[instance_id] = score
    if not measured:
        return set(), None, {}
    threshold = statistics.median(measured.values())
    candidates = {ins for ins, score in measured.items() if score > threshold}
    return candidates, threshold, measured


def transfer_instances(
    grouping: InstanceGrouping,
    incumbents: Sequence[Configuration],
    features: Mapping[str, Sequence[float]],
    store: RunDataStore,
    space: ParameterSpace,
    seed: int,
    cutoff: float,
    penalty: int,
    forest: ForestParams | None = None,
) -> tuple[InstanceGrouping, TransferReport]:
    """Re-home badly served instances; returns the new grouping and a report.

    The union of subsets is preserved exactly; sizes only ever move toward
    the [lower, upper] bounds; identical inputs and seed give identical
    output.
    """
    candidates, threshold, measured = select_transfer_candidates(
        grouping, incumbents, store, cutoff, penalty
    )
    n_excluded = sum(grouping.sizes()) - len(measured)
    if not candidates:
        return grouping, TransferReport(
            threshold, frozenset(), n_excluded, rounds=0, moves=()
        )

    subsets = [list(s) for s in grouping.subsets]
    membership = {ins: j for j, subset in enumerate(subsets) for ins in subset}
    sizes = [len(s) for s in subsets]
    lower, upper = grouping.lower_bound, grouping.upper_bound

    # an instance keeps its source until it moves, and a moved instance is
    # not examined again, so each candidate's admissible targets (best
    # predicted first, none predicted worse than the source) are fixed
    if len({inc.config_id for inc in incumbents}) > 1:
        model = fit_model(
            store, space, features, cutoff, penalty,
            params=forest or ForestParams(), seed=seed,
        )
        # predictions depend only on (incumbent, instance), both fixed for
        # the whole call, so one batch covers every examination
        candidate_list = sorted(candidates)
        table = model.predict_pairs(
            np.vstack([encode_config(space, inc) for inc in incumbents]),
            np.array([features[ins] for ins in candidate_list], dtype=float),
        )
        prediction_of = {
            ins: tuple(map(float, column)) for ins, column in zip(candidate_list, table.T)
        }
        targets_of = {}
        for ins, predicted in prediction_of.items():
            ranking = sorted(range(grouping.k), key=lambda j: (predicted[j], j))
            source_cost = predicted[membership[ins]]
            targets_of[ins] = [j for j in ranking if predicted[j] <= source_cost]
    else:
        prediction_of = dict.fromkeys(candidates)
        targets_of = dict.fromkeys(candidates, range(grouping.k))

    rng = Random(seed)
    remaining = candidates
    rounds = 0
    moves: list[Move] = []
    while True:
        rounds += 1
        examine = sorted(remaining)
        rng.shuffle(examine)
        succeeded: set[str] = set()
        unmoved: set[str] = set()
        for instance_id in examine:
            source = membership[instance_id]
            for target in targets_of[instance_id]:
                if sizes[target] < upper and sizes[source] > lower:
                    if target != source:
                        subsets[source].remove(instance_id)
                        subsets[target].append(instance_id)
                        sizes[source] -= 1
                        sizes[target] += 1
                        membership[instance_id] = target
                    moves.append(Move(instance_id, source, target, prediction_of[instance_id]))
                    succeeded.add(instance_id)
                    break
            if instance_id not in succeeded:
                unmoved.add(instance_id)
        if not succeeded or not unmoved:
            break
        remaining = unmoved

    result = InstanceGrouping(
        tuple(tuple(s) for s in subsets), grouping.lower_bound, grouping.upper_bound
    )
    report = TransferReport(
        threshold=threshold,
        candidates=frozenset(candidates),
        n_excluded=n_excluded,
        rounds=rounds,
        moves=tuple(moves),
    )
    return result, report
