"""Planted synthetic scenarios: a deterministic virtual-runtime backend whose
instance families and per-family best configurations are known by
construction, plus the generator behind the ``synth-gen`` command.

Virtual runtimes come from a per-(family, strategy) cost table scaled by a
per-instance hardness factor and a hash-derived multiplicative noise term,
so identical (scenario, configuration, instance) triples always produce
bit-identical results regardless of run seeds or scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Instance, Metric, RunStatus, Scenario
from .space import (
    CATEGORICAL,
    REAL,
    Configuration,
    Parameter,
    ParameterSpace,
)

STRATEGY_PARAM = "strategy"
TILT_PARAM = "tilt"


def _hash_unit(*parts: str) -> float:
    """Deterministic pseudo-uniform draw in [0, 1) keyed by the parts."""
    digest = hashlib.sha256("|".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class SyntheticScenarioSpec:
    """Ground truth of a planted scenario.

    ``cost_table[family][value]`` is the base virtual runtime of strategy
    ``value`` on instances of ``family``; entries at or above the cutoff are
    timeouts.
    """

    instance_family: dict[str, int]
    cost_table: tuple[tuple[float, ...], ...]
    values: tuple[str, ...]
    hardness: dict[str, float]
    cutoff: float
    noise: float = 0.0
    noise_key: str = "0"
    tilt_effect: float = 0.0
    tilt_ideal: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.cutoff < math.inf:
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")
        if not 0 <= self.noise < 1:
            raise ValueError(f"noise must lie in [0, 1), got {self.noise}")
        if not 0 <= self.tilt_effect < math.inf:
            raise ValueError(f"tilt_effect must be >= 0 and finite, got {self.tilt_effect}")

    def family_of(self, instance_id: str) -> int:
        return self.instance_family[instance_id]

    def runtime(self, config: Configuration, instance_id: str) -> float:
        value = config[STRATEGY_PARAM]
        family = self.instance_family[instance_id]
        base = self.cost_table[family][self.values.index(value)]
        t = base * self.hardness.get(instance_id, 1.0)
        if self.tilt_effect > 0 and TILT_PARAM in config:
            ideal = self.tilt_ideal[family] if self.tilt_ideal else 0.5
            t *= 1.0 + self.tilt_effect * abs(config[TILT_PARAM] - ideal)
        if self.noise > 0:
            u = _hash_unit(config.config_id, instance_id, self.noise_key)
            t *= 1.0 + self.noise * (2.0 * u - 1.0)
        return t

    def true_cost(self, config: Configuration, instance_id: str, penalty: int) -> float:
        """Penalized virtual cost, the brute-force oracle value."""
        t = self.runtime(config, instance_id)
        return t if t < self.cutoff else penalty * self.cutoff

    def to_json(self) -> str:
        return json.dumps(
            {
                "instance_family": self.instance_family,
                "cost_table": [list(row) for row in self.cost_table],
                "values": list(self.values),
                "hardness": self.hardness,
                "cutoff": self.cutoff,
                "noise": self.noise,
                "noise_key": self.noise_key,
                "tilt_effect": self.tilt_effect,
                "tilt_ideal": list(self.tilt_ideal),
            },
            sort_keys=True,
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> SyntheticScenarioSpec:
        doc = json.loads(text)
        if doc.get("per_run_jitter", 0) != 0:  # written by older versions
            raise ValueError(f"per_run_jitter is no longer supported, got {doc['per_run_jitter']}")
        return cls(
            instance_family={k: int(v) for k, v in doc["instance_family"].items()},
            cost_table=tuple(tuple(float(x) for x in row) for row in doc["cost_table"]),
            values=tuple(doc["values"]),
            hardness={k: float(v) for k, v in doc["hardness"].items()},
            cutoff=float(doc["cutoff"]),
            noise=float(doc.get("noise", 0.0)),
            noise_key=str(doc.get("noise_key", "0")),
            tilt_effect=float(doc.get("tilt_effect", 0.0)),
            tilt_ideal=tuple(float(x) for x in doc.get("tilt_ideal", ())),
        )


@dataclass
class SyntheticBackend:
    """Backend evaluating the planted runtime function; bit-deterministic."""

    spec: SyntheticScenarioSpec
    label: str = "synthetic"

    def run(
        self, config: Configuration, instance: Instance, cutoff: float, seed: int
    ) -> tuple[RunStatus, float]:
        t = self.spec.runtime(config, instance.id)
        if t >= cutoff:
            return RunStatus.TIMEOUT, cutoff
        return RunStatus.SOLVED, t


@dataclass
class SyntheticScenario:
    """A generated scenario together with its planted ground truth."""

    scenario: Scenario
    spec: SyntheticScenarioSpec

    def backend(self) -> SyntheticBackend:
        return SyntheticBackend(self.spec)

    def family_labels(self) -> dict[str, int]:
        return dict(self.spec.instance_family)


def strategy_space(n_values: int, with_tilt: bool = False) -> ParameterSpace:
    values = tuple(f"s{i:02d}" for i in range(n_values))
    params = [Parameter(STRATEGY_PARAM, CATEGORICAL, choices=values, default=values[0])]
    if with_tilt:
        params.append(Parameter(TILT_PARAM, REAL, lower=0.0, upper=1.0, default=0.5))
    return ParameterSpace(tuple(params))


def generate_synthetic_scenario(
    n_families: int,
    n_configs: int,
    n_train: int,
    k: int | None = None,
    seed: int = 0,
    *,
    feature_dim: int = 2,
    cutoff: float = 30.0,
    noise: float = 0.03,
    tilt_effect: float = 0.0,
    name: str = "synthetic",
) -> SyntheticScenario:
    """Build a planted scenario.

    Family ``f`` gets a dedicated anchor strategy (``f mod n_configs``) that
    is fast on its own instances and times out elsewhere; the remaining
    strategies get mediocre log-uniform costs, some beyond the cutoff.
    Instance features are drawn around well-separated family centers.
    """
    if n_families < 1 or n_configs < 1 or n_train < 1:
        raise ValueError("families, configs and instances must all be >= 1")
    if feature_dim < 2:
        raise ValueError("feature_dim must be >= 2")
    if not 0 < cutoff < math.inf:
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    k = n_families if k is None else k
    if k > n_train:
        raise ValueError(f"cannot split {n_train} training instances into k={k} subsets")
    rng = np.random.default_rng(seed)
    values = tuple(f"s{i:02d}" for i in range(n_configs))

    # Anchor strategies (one per family) cost little on their own family and
    # degrade with ring distance between families. The ring is symmetric, so
    # in an evenly mixed subset every anchor has the same cross-family cost
    # total and the subset's plurality family decides the winner; on a given
    # foreign family, though, anchors are strictly ordered, which gives the
    # transfer model a consistent gradient. Strategies beyond the anchors are
    # dominated fillers near the cutoff.
    max_distance = max(1, n_families // 2)

    def ring_distance(f: int, g: int) -> int:
        return min(abs(f - g), n_families - abs(f - g))

    cost_table = np.empty((n_families, n_configs))
    for family in range(n_families):
        for j in range(n_configs):
            jitter = rng.uniform(0.93, 1.07)
            if j < n_families and j < n_configs:
                if family % n_configs == j:
                    cost_table[family, j] = rng.uniform(0.02 * cutoff, 0.06 * cutoff)
                else:
                    d = ring_distance(family, j % n_families)
                    cost_table[family, j] = cutoff * (0.4 + 0.55 * d / max_distance) * jitter
            else:
                cost_table[family, j] = cutoff * rng.uniform(0.85, 1.15)

    centers = np.zeros((n_families, feature_dim))
    for family in range(n_families):
        angle = 2.0 * math.pi * family / n_families
        centers[family, 0] = 10.0 * math.cos(angle)
        centers[family, 1] = 10.0 * math.sin(angle)

    def make_instances(prefix: str, count: int) -> list[Instance]:
        instances = []
        for i in range(count):
            family = i % n_families
            feats = centers[family] + rng.normal(0.0, 0.8, size=feature_dim)
            instances.append(
                Instance(id=f"{prefix}{i:04d}", features=tuple(float(x) for x in feats))
            )
        return instances

    train = make_instances("train", n_train)
    test = make_instances("test", n_train)
    instance_family = {ins.id: i % n_families for i, ins in enumerate(train)}
    instance_family.update({ins.id: i % n_families for i, ins in enumerate(test)})
    hardness = {
        ins.id: float(rng.uniform(0.9, 1.15)) for ins in train + test
    }

    spec = SyntheticScenarioSpec(
        instance_family=instance_family,
        cost_table=tuple(tuple(float(x) for x in row) for row in cost_table),
        values=values,
        hardness=hardness,
        cutoff=cutoff,
        noise=noise,
        noise_key=str(seed),
        tilt_effect=tilt_effect,
        tilt_ideal=tuple(float(x) for x in rng.uniform(0.1, 0.9, size=n_families)),
    )
    scenario = Scenario(
        name=name,
        space=strategy_space(n_configs, with_tilt=tilt_effect > 0),
        train_instances=tuple(train),
        test_instances=tuple(test),
        cutoff=cutoff,
        k=k,
        metric=Metric.PAR10,
        feature_dimension=feature_dim,
    )
    return SyntheticScenario(scenario=scenario, spec=spec)


def write_scenario_files(
    synthetic: SyntheticScenario,
    out_dir: str | Path,
    *,
    defaults: dict | None = None,
) -> Path:
    """Write the scenario directory (space, instances, features, ground truth,
    scenario document); returns the scenario file path. Deterministic byte
    output for a given generated scenario."""
    from .space import serialize_space

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario = synthetic.scenario

    (out / "space.txt").write_text(serialize_space(scenario.space))
    (out / "train_instances.txt").write_text(
        "".join(f"{ins.id}\n" for ins in scenario.train_instances)
    )
    (out / "test_instances.txt").write_text(
        "".join(f"{ins.id}\n" for ins in scenario.test_instances)
    )
    header = "instance_id," + ",".join(
        f"f{i+1}" for i in range(scenario.feature_dimension)
    )
    rows = [header]
    for ins in scenario.train_instances + scenario.test_instances:
        rows.append(ins.id + "," + ",".join(repr(x) for x in ins.features))
    (out / "features.csv").write_text("\n".join(rows) + "\n")
    (out / "synthetic.json").write_text(synthetic.spec.to_json() + "\n")

    doc = {
        "name": scenario.name,
        "space_file": "space.txt",
        "feature_file": "features.csv",
        "train_instance_file": "train_instances.txt",
        "test_instance_file": "test_instances.txt",
        "train_cutoff": scenario.cutoff,
        "test_cutoff": scenario.effective_test_cutoff,
        "metric": scenario.metric.name,
        "k": scenario.k,
        "backend": {"type": "synthetic", "spec_file": "synthetic.json"},
        "defaults": defaults
        or {"t_c": 40.0 * scenario.cutoff, "t_v": 10.0 * scenario.cutoff, "r": 2, "n": 4, "b": 1},
    }
    path = out / "scenario.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return path
