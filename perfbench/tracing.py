"""Layer spans and solver-run counts, recorded from outside the program.

``Tracer.install`` replaces each traced function where its callers look it
up (a module attribute or a class attribute) with a wrapper that records a
span: name, start, end and the span that was open when it was called. The
functions called hundreds of thousands of times per construction
(``sample_config``, ``encode_config``, the synthetic backend's ``run``) are
aggregated instead: one call count and one time total per name under each
parent span. Spans stay in memory and are written by ``Tracer.write`` when
the run ends. ``uninstall`` puts every original back.

A span's self time is its duration minus the time covered by its direct
children, spans and aggregates alike; the program is single-threaded, so
children never overlap.

``CountingBackend`` is the source of solver-run counts in every mode. It
subclasses ``SyntheticBackend`` and overrides only ``run``, so it is neither
an ``ExternalBackend`` nor a backend with ``run_portfolio``, and every code
path in the program stays the one it takes with the plain backend.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path

import acpp.cli
import acpp.configurator
import acpp.constructors
import acpp.evaluation
import acpp.perfmodel
import acpp.runner
import acpp.scenario
import acpp.space
import acpp.transfer
from acpp.constructors import PortfolioEvaluator
from acpp.core import RunStatus
from acpp.perfmodel import PerformanceModel
from acpp.rundata import RunDataStore
from acpp.synthetic import SyntheticBackend

CONFIGURE = "configurator.configure"


@dataclass
class RunCounts:
    """Solver runs seen by every ``CountingBackend``, with the sum of the
    (already clamped) runtimes they returned. ``capped`` counts runs that
    timed out under a cap below the scenario cutoff."""

    runs: int = 0
    runtime: float = 0.0
    capped: int = 0

    def snapshot(self) -> tuple[int, float, int]:
        return self.runs, self.runtime, self.capped


COUNTS = RunCounts()


class CountingBackend(SyntheticBackend):
    """The planted backend plus a count of the runs it serves."""

    def run(self, config, instance, cutoff, seed):
        status, runtime = SyntheticBackend.run(self, config, instance, cutoff, seed)
        COUNTS.runs += 1
        COUNTS.runtime += runtime
        if status is RunStatus.TIMEOUT and cutoff < self.spec.cutoff:
            COUNTS.capped += 1
        return status, runtime


def use_counting_backend() -> None:
    """Make scenario files load with the counting backend."""
    acpp.scenario.SyntheticBackend = CountingBackend


class Tracer:
    def __init__(self) -> None:
        # one entry per span: [name, start, end, parent index, child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        # (parent span index, name) -> [calls, seconds]
        self.aggregates: dict[tuple[int, str], list] = {}
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        # configurations sampled inside the open configure call since the
        # last model prediction there: the proposal pool being built
        self._pool: list[str] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1], 0.0])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self.stack.pop()
        span = self.spans[index]
        span[2] = end
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def parent_name(self) -> str | None:
        index = self.stack[-1]
        return self.spans[index][0] if index >= 0 else None

    def spanned(self, name, fn, rows=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if rows is not None:
                tracer.count(f"{name}.rows", rows(*args, **kwargs))
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def aggregated(self, name, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            parent = tracer.stack[-1]
            entry = tracer.aggregates.get((parent, name))
            if entry is None:
                tracer.aggregates[(parent, name)] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed
            if parent >= 0:
                tracer.spans[parent][4] += elapsed
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    # -- hooks for the ratios ------------------------------------------------

    def _sampled(self, config) -> None:
        if self.parent_name() == CONFIGURE:
            self._pool.append(config.config_id)

    def _predicted(self, _result) -> None:
        # inside configure a prediction scores the pool just sampled
        if self.parent_name() == CONFIGURE:
            self.count("configurator.proposals")
            self.count("configurator.proposal.sampled", len(self._pool))
            self.count("configurator.proposal.distinct", len(set(self._pool)))
            self._pool = []

    def _fitted(self, _model) -> None:
        if self.parent_name() == CONFIGURE:
            self.count("configurator.fits")

    def _configured(self, _config) -> None:
        self._pool = []

    def _transferred(self, result) -> None:
        _, report = result
        stays = sum(1 for move in report.moves if move.target == move.source)
        self.count("transfer.moves", len(report.moves) - stays)
        self.count("transfer.stays", stays)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function at each place it is looked up."""
        sites = [
            # (name, owners that hold the function, attribute, kind, extra)
            ("space.sample_config", [acpp.space, acpp.configurator], "sample_config",
             "aggregate", {"on_return": self._sampled}),
            ("space.encode_config",
             [acpp.space, acpp.configurator, acpp.transfer, acpp.perfmodel], "encode_config",
             "aggregate", {}),
            ("perfmodel.fit_forest", [acpp.perfmodel, acpp.configurator], "fit_forest",
             "span", {"rows": lambda X, *a, **k: len(X), "on_return": self._fitted}),
            ("perfmodel.predict", [PerformanceModel], "predict_transformed",
             "span", {"rows": lambda model, X: len(X), "on_return": self._predicted}),
            ("perfmodel.fit_model", [acpp.perfmodel, acpp.transfer], "fit_model", "span", {}),
            ("transfer.transfer_instances", [acpp.transfer, acpp.constructors],
             "transfer_instances", "span", {"on_return": self._transferred}),
            (CONFIGURE, [acpp.configurator, acpp.constructors], "configure",
             "span", {"on_return": self._configured}),
            ("runner.evaluate_portfolio", [acpp.runner, acpp.constructors, acpp.evaluation],
             "evaluate_portfolio", "span", {}),
            ("constructors.validate_and_select", [acpp.constructors], "validate_and_select",
             "span", {}),
            ("constructors.PortfolioEvaluator.run", [PortfolioEvaluator], "run", "span", {}),
            ("rundata.incumbent_performance", [RunDataStore], "incumbent_performance",
             "span", {}),
            ("evaluation.test_portfolio", [acpp.evaluation, acpp.cli], "test_portfolio",
             "span", {}),
            ("evaluation.permutation_test", [acpp.evaluation], "permutation_test", "span", {}),
            ("scenario.load_scenario", [acpp.scenario, acpp.cli], "load_scenario", "span", {}),
            ("synthetic.run", [SyntheticBackend], "run", "aggregate", {}),
        ]
        for name, owners, attr, kind, extra in sites:
            original = owners[0].__dict__[attr]
            wrap = self.spanned if kind == "span" else self.aggregated
            wrapper = wrap(name, original, **extra)
            for owner in owners:
                self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, seconds and self seconds."""
        totals: dict[str, dict[str, float]] = {}
        for name, start, end, _parent, child in self.spans:
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
        for (_parent, name), (calls, seconds) in self.aggregates.items():
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["s"] += seconds
            entry["self_s"] += seconds
        return totals

    def write(self, path: Path, extra: dict) -> None:
        doc = {
            "spans_columns": ["name", "start", "end", "parent", "child_s"],
            "spans": self.spans,
            "aggregates": [
                [parent, name, calls, seconds]
                for (parent, name), (calls, seconds) in self.aggregates.items()
            ],
            "counters": self.counters,
            **extra,
        }
        path.write_text(json.dumps(doc) + "\n")
