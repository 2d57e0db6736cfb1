"""Core domain types, runtime metrics, and instance-grouping primitives.

Everything here is an immutable value object or a pure function, safe to
share across concurrent construction tasks.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .space import Configuration, ParameterSpace

# raised by faulty code, not by a failing solver or backend: these propagate
# instead of being scored as a crashed run or excluding one repetition
PROGRAMMING_ERRORS = (TypeError, AttributeError, NameError, AssertionError)


def derive_seed(*parts) -> int:
    """Stable 31-bit seed derived from arbitrary labels."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


class RunStatus(Enum):
    SOLVED = "SOLVED"
    TIMEOUT = "TIMEOUT"
    CRASHED = "CRASHED"


class Metric(Enum):
    """Penalized-average-runtime metric; the value is the timeout penalty factor."""

    PAR10 = 10
    PAR1 = 1

    @property
    def penalty(self) -> int:
        return self.value


@dataclass(frozen=True)
class Instance:
    """One problem instance: a unique id plus its feature vector."""

    id: str
    features: tuple[float, ...] = ()
    source_path: str | None = None


@dataclass(frozen=True)
class RunRecord:
    """One observed run of a configuration on an instance.

    ``cutoff`` is the cutoff actually applied to this run (it may be lower
    than the scenario cutoff when the run was capped during racing).
    """

    config_id: str
    instance_id: str
    seed: int
    status: RunStatus
    runtime: float
    cutoff: float

    def __post_init__(self) -> None:
        if not 0 < self.cutoff < math.inf:
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")
        if not 0 <= self.runtime <= self.cutoff:
            raise ValueError(f"runtime {self.runtime} must lie in [0, cutoff {self.cutoff}]")
        if self.status is RunStatus.TIMEOUT and self.runtime != self.cutoff:
            raise ValueError("TIMEOUT records must have runtime == cutoff")


@dataclass(frozen=True)
class InstanceResult:
    """Per-instance outcome of running a solver (or a whole portfolio)."""

    instance_id: str
    status: RunStatus
    runtime: float
    cutoff: float
    component_index: int | None = None
    cpu_cost: float = 0.0


@dataclass(frozen=True)
class PortfolioOutcome:
    status: RunStatus
    runtime: float
    winner: int | None = None


@dataclass(frozen=True)
class InstanceGrouping:
    """A partition of instance ids into ordered subsets with size bounds."""

    subsets: tuple[tuple[str, ...], ...]
    lower_bound: int
    upper_bound: int

    def __post_init__(self) -> None:
        if self.lower_bound > self.upper_bound:
            raise ValueError("lower bound exceeds upper bound")
        seen: set[str] = set()
        for subset in self.subsets:
            for ins in subset:
                if ins in seen:
                    raise ValueError(f"instance {ins!r} appears in more than one subset")
                seen.add(ins)

    @property
    def k(self) -> int:
        return len(self.subsets)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.subsets)

    def all_instances(self) -> frozenset[str]:
        return frozenset(ins for subset in self.subsets for ins in subset)


@dataclass(frozen=True)
class Portfolio:
    """A k-tuple of component configurations plus construction provenance."""

    components: tuple[Configuration, ...]
    method_label: str = ""
    seeds: tuple[int, ...] = ()
    consumed_cpu_time: float = 0.0

    @property
    def k(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Scenario:
    """A full construction scenario: space, instances, cutoffs, metric, size."""

    name: str
    space: ParameterSpace
    train_instances: tuple[Instance, ...]
    test_instances: tuple[Instance, ...]
    cutoff: float
    k: int
    metric: Metric = Metric.PAR10
    test_cutoff: float | None = None
    feature_dimension: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("portfolio size k must be >= 1")
        if not 0 < self.cutoff < math.inf or not 0 < self.effective_test_cutoff < math.inf:
            raise ValueError("cutoffs must be positive and finite")
        ids: set[str] = set()
        for ins in self.train_instances + self.test_instances:
            if ins.id in ids:
                raise ValueError(f"duplicate instance id {ins.id!r}")
            ids.add(ins.id)
            if len(ins.features) != self.feature_dimension:
                raise ValueError(
                    f"instance {ins.id!r} has {len(ins.features)} features, "
                    f"expected {self.feature_dimension}"
                )
            if not all(map(math.isfinite, ins.features)):
                raise ValueError(f"instance {ins.id!r} has non-finite feature values")

    @property
    def effective_test_cutoff(self) -> float:
        return self.cutoff if self.test_cutoff is None else self.test_cutoff

    def train_features(self) -> dict[str, tuple[float, ...]]:
        return {ins.id: ins.features for ins in self.train_instances}


def penalized_score(status: RunStatus, runtime: float, cutoff: float, penalty: int) -> float:
    """Penalized runtime of one run: crashes count as timeouts."""
    if status is RunStatus.SOLVED:
        return runtime
    return penalty * cutoff


def clamp_run(status: RunStatus, runtime: float, cutoff: float) -> tuple[RunStatus, float]:
    """A backend's outcome of one run, bounded by the cutoff.

    A TIMEOUT, or a run that did not crash but went past the cutoff, is a
    TIMEOUT at the cutoff; a crash is charged at most the cutoff.
    """
    if runtime > cutoff or status is RunStatus.TIMEOUT:
        return (status if status is RunStatus.CRASHED else RunStatus.TIMEOUT), cutoff
    return status, runtime


def par_score(records: Iterable, cutoff: float, penalty: int) -> float:
    """Mean penalized runtime over per-instance results (PAR-``penalty``).

    Each record has a status and a runtime; a record that also carries a
    cutoff must carry the one given. Timeouts and crashes count as
    ``penalty * cutoff``.
    """
    if penalty < 1:
        raise ValueError("penalty must be >= 1")
    scores = []
    for rec in records:
        if getattr(rec, "cutoff", cutoff) != cutoff:
            raise ValueError(
                f"record cutoff {rec.cutoff} does not match expected {cutoff}"
            )
        scores.append(penalized_score(rec.status, rec.runtime, cutoff, penalty))
    if not scores:
        raise ValueError("no instances")
    return math.fsum(scores) / len(scores)


def portfolio_runtime(
    component_results: Sequence[tuple[RunStatus, float]], cutoff: float
) -> PortfolioOutcome:
    """Outcome of running all components in parallel until the first solves.

    Returns the minimum runtime among solved components (ties broken by the
    lowest component index); TIMEOUT at the cutoff if none solved.
    """
    if not component_results:
        raise ValueError("portfolio has no components")
    winner: int | None = None
    best = math.inf
    for idx, (status, runtime) in enumerate(component_results):
        if status is RunStatus.SOLVED and runtime < best:
            best = runtime
            winner = idx
    if winner is None:
        return PortfolioOutcome(RunStatus.TIMEOUT, cutoff, None)
    return PortfolioOutcome(RunStatus.SOLVED, best, winner)


def subset_bounds(total: int, k: int) -> tuple[int, int]:
    """Size bounds (lower, upper) = ceil(0.8 * total / k), ceil(1.2 * total / k).

    Computed in exact integer arithmetic to avoid float-rounding artifacts.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if total < k:
        raise ValueError("need at least k instances")
    lower = -((-4 * total) // (5 * k))
    upper = -((-6 * total) // (5 * k))
    return lower, upper


def split_random_even(
    instances: Sequence[Instance] | Sequence[str], k: int, seed: int
) -> InstanceGrouping:
    """Randomly and evenly partition instances into k subsets.

    Subset sizes differ by at most one; the remainder goes to the
    lowest-indexed subsets. Deterministic given the seed.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    ids = [ins.id if isinstance(ins, Instance) else ins for ins in instances]
    if len(ids) < k:
        raise ValueError(f"cannot split {len(ids)} instances into {k} subsets")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate instance ids")
    rng = Random(seed)
    rng.shuffle(ids)
    base, rem = divmod(len(ids), k)
    subsets = []
    pos = 0
    for j in range(k):
        size = base + (1 if j < rem else 0)
        subsets.append(tuple(ids[pos : pos + size]))
        pos += size
    lower, upper = subset_bounds(len(ids), k)
    return InstanceGrouping(tuple(subsets), lower, upper)
