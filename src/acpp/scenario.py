"""Scenario files: one JSON document tying together the space file, the
instance lists, the feature table, cutoffs, metric, portfolio size, backend
choice and budget defaults. All referenced paths are relative to the
scenario file's directory.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import Instance, Metric, Scenario
from .runner import ExternalBackend
from .space import parse_space
from .synthetic import SyntheticBackend, SyntheticScenarioSpec


class ScenarioError(ValueError):
    pass


@dataclass
class ScenarioBundle:
    scenario: Scenario
    backend_config: dict
    defaults: dict = field(default_factory=dict)
    base_dir: Path = Path(".")

    def make_backend(self):
        kind = self.backend_config.get("type")
        if kind == "synthetic":
            spec_file = self.base_dir / self.backend_config["spec_file"]
            spec = SyntheticScenarioSpec.from_json(spec_file.read_text())
            return SyntheticBackend(spec)
        if kind == "external":
            wrapper = self.backend_config.get("wrapper")
            if not wrapper:
                raise ScenarioError("external backend needs a 'wrapper' command")
            return ExternalBackend(wrapper)
        raise ScenarioError(f"unknown backend type {kind!r}")


def _read_instance_ids(path: Path) -> list[tuple[str, str | None]]:
    entries: list[tuple[str, str | None]] = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        entries.append((parts[0], parts[1].strip() if len(parts) > 1 else None))
    if not entries:
        raise ScenarioError(f"instance list {path} is empty")
    return entries


def _read_features(path: Path) -> tuple[dict[str, tuple[float, ...]], int]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "instance_id":
            raise ScenarioError(f"{path}: feature CSV must start with an 'instance_id' column")
        dim = len(header) - 1
        table: dict[str, tuple[float, ...]] = {}
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise ScenarioError(f"{path} line {row_no}: expected {dim + 1} columns")
            try:
                values = tuple(float(x) for x in row[1:])
            except ValueError as exc:
                raise ScenarioError(f"{path} line {row_no}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise ScenarioError(f"{path} line {row_no}: feature values must be finite")
            table[row[0]] = values
    return table, dim


def load_scenario(path: str | Path) -> ScenarioBundle:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    base = path.parent
    for key in ("space_file", "train_instance_file", "test_instance_file",
                "feature_file", "train_cutoff", "k", "backend"):
        if key not in doc:
            raise ScenarioError(f"{path}: missing required field {key!r}")

    space = parse_space((base / doc["space_file"]).read_text())
    features, dim = _read_features(base / doc["feature_file"])

    def build_instances(list_file: str) -> tuple[Instance, ...]:
        out = []
        for instance_id, source in _read_instance_ids(base / list_file):
            if instance_id not in features:
                raise ScenarioError(
                    f"instance {instance_id!r} has no row in {doc['feature_file']}"
                )
            out.append(Instance(instance_id, features[instance_id], source))
        return tuple(out)

    metric_name = str(doc.get("metric", "PAR10")).upper()
    try:
        metric = Metric[metric_name]
    except KeyError:
        raise ScenarioError(f"unknown metric {metric_name!r}") from None

    scenario = Scenario(
        name=doc.get("name", path.stem),
        space=space,
        train_instances=build_instances(doc["train_instance_file"]),
        test_instances=build_instances(doc["test_instance_file"]),
        cutoff=float(doc["train_cutoff"]),
        test_cutoff=float(doc["test_cutoff"]) if "test_cutoff" in doc else None,
        metric=metric,
        k=int(doc["k"]),
        feature_dimension=dim,
    )
    return ScenarioBundle(
        scenario=scenario,
        backend_config=dict(doc["backend"]),
        defaults=dict(doc.get("defaults", {})),
        base_dir=base,
    )
