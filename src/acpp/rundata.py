"""Append-only store of run records shared by all configuration processes.

The store is global across subsets and phases within one construction run;
concurrent configure calls append under a lock and queries see a consistent
snapshot. It lives in memory only.
"""

from __future__ import annotations

import math
import threading

from .core import RunRecord, penalized_score
from .space import Configuration


class RunDataStore:
    def __init__(self) -> None:
        self._records: list[RunRecord] = []
        self._configs: dict[str, Configuration] = {}
        self._by_pair: dict[tuple[str, str], list[RunRecord]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def add(self, record: RunRecord, config: Configuration | None = None) -> None:
        """Append a record; never mutates or removes existing records."""
        if config is not None and config.config_id != record.config_id:
            raise ValueError("config does not match the record's config_id")
        with self._lock:
            self._records.append(record)
            self._by_pair.setdefault((record.config_id, record.instance_id), []).append(record)
            if config is not None:
                self._configs.setdefault(record.config_id, config)

    def records(self) -> tuple[RunRecord, ...]:
        """Consistent snapshot of all records at call time."""
        with self._lock:
            return tuple(self._records)

    def known_configs(self) -> dict[str, Configuration]:
        with self._lock:
            return dict(self._configs)

    def runs_for(self, config_id: str, instance_id: str) -> tuple[RunRecord, ...]:
        with self._lock:
            return tuple(self._by_pair.get((config_id, instance_id), ()))

    def incumbent_performance(
        self, config: Configuration, instance_id: str, cutoff: float, penalty: int
    ) -> float | None:
        """Mean penalized score over all runs of (config, instance).

        Returns None when the configuration was never run on the instance,
        in which case the instance sits out the whole transfer process.
        """
        runs = self.runs_for(config.config_id, instance_id)
        if not runs:
            return None
        return math.fsum(
            penalized_score(r.status, r.runtime, cutoff, penalty) for r in runs
        ) / len(runs)
