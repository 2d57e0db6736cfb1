"""Run execution: budget metering, the external wrapper backend, and
portfolio evaluation.

Budgets are metered in consumed solver time (virtual seconds for synthetic
backends, wrapper-reported time for external solvers), never wall clock.
The external wrapper protocol is:

    <wrapper> <instance_path> <seed> <cutoff_seconds> [--name value]...

and the wrapper must print a final line ``RESULT: <status>, <runtime>`` with
status one of SAT, UNSAT, SOLVED, TIMEOUT, CRASHED. A missing or
unparseable result line yields a CRASHED record.
"""

from __future__ import annotations

import math
import os
import re
import shlex
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from .core import (
    PROGRAMMING_ERRORS,
    Instance,
    InstanceResult,
    RunRecord,
    RunStatus,
    clamp_run,
    portfolio_runtime,
)
from .rundata import RunDataStore
from .space import Configuration, format_value

GRACE_SECONDS = 1.0  # termination allowance added beyond the cutoff, never scored

_RESULT_RE = re.compile(
    r"^\s*RESULT:\s*(?P<status>SAT|UNSAT|SOLVED|TIMEOUT|CRASHED)\s*,\s*(?P<runtime>[-+0-9.eE]+)\s*$"
)


class Backend(Protocol):
    label: str

    def run(
        self, config: Configuration, instance: Instance, cutoff: float, seed: int
    ) -> tuple[RunStatus, float]: ...


@dataclass
class BudgetLedger:
    """Thread-safe accumulator of consumed configuration and validation time."""

    configuration_time: float = 0.0
    validation_time: float = 0.0
    n_runs: int = 0
    by_phase: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def charge(self, seconds: float, kind: str = "configuration", phase: str | None = None) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        with self._lock:
            if kind == "configuration":
                self.configuration_time += seconds
            elif kind == "validation":
                self.validation_time += seconds
            else:
                raise ValueError(f"unknown budget kind {kind!r}")
            self.n_runs += 1
            if phase is not None:
                self.by_phase[phase] = self.by_phase.get(phase, 0.0) + seconds

    @property
    def total(self) -> float:
        with self._lock:
            return self.configuration_time + self.validation_time

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "configuration_time": self.configuration_time,
                "validation_time": self.validation_time,
                "total": self.configuration_time + self.validation_time,
                "n_runs": self.n_runs,
                "by_phase": dict(self.by_phase),
            }


def execute_run(
    backend: Backend,
    config: Configuration,
    instance: Instance,
    cutoff: float,
    seed: int,
    *,
    store: RunDataStore | None = None,
    ledger: BudgetLedger | None = None,
    phase: int | None = None,
    subset_index: int | None = None,
) -> RunRecord:
    """Run one configuration on one instance under the cutoff.

    The returned record is appended to the store and its runtime charged to
    the ledger as configuration time when those are given.
    """
    if not 0 < cutoff < math.inf:
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    status, runtime = clamp_run(*backend.run(config, instance, cutoff, seed), cutoff)
    record = RunRecord(
        config_id=config.config_id,
        instance_id=instance.id,
        seed=seed,
        status=status,
        runtime=runtime,
        cutoff=cutoff,
        backend_label=backend.label,
        phase=phase,
        subset_index=subset_index,
    )
    if store is not None:
        store.add(record, config)
    if ledger is not None:
        ledger.charge(record.runtime, phase=None if phase is None else f"phase{phase}")
    return record


def evaluate_portfolio(
    backend: Backend,
    components: Sequence[Configuration],
    instance: Instance,
    cutoff: float,
    seed: int,
    *,
    ledger: BudgetLedger | None = None,
) -> InstanceResult:
    """Result of running all components on one instance in parallel.

    Backends that expose ``run_portfolio`` (the external backend) race real
    processes with first-success cancellation; otherwise each component is
    evaluated independently and combined with ``portfolio_runtime``. A
    backend exception scores that component CRASHED, except
    ``PROGRAMMING_ERRORS``, which propagate. Component time is charged to
    the ledger as validation time, one charge per component run in process.
    """
    if hasattr(backend, "run_portfolio"):
        result = backend.run_portfolio(components, instance, cutoff, seed)
        if ledger is not None:
            ledger.charge(result.cpu_cost, kind="validation")
        return result
    outcomes = []
    cpu = 0.0
    for comp in components:
        try:
            status, runtime = backend.run(comp, instance, cutoff, seed)
        except PROGRAMMING_ERRORS:
            raise
        except Exception:
            status, runtime = RunStatus.CRASHED, cutoff
        status, runtime = clamp_run(status, runtime, cutoff)
        outcomes.append((status, runtime))
        cpu += runtime
        if ledger is not None:
            ledger.charge(runtime, kind="validation")
    outcome = portfolio_runtime(outcomes, cutoff)
    return InstanceResult(
        instance_id=instance.id,
        status=outcome.status,
        runtime=outcome.runtime,
        cutoff=cutoff,
        component_index=outcome.winner,
        cpu_cost=cpu,
    )


@dataclass
class ExternalBackend:
    """Runs configurations through an external wrapper process.

    ``wrapper`` is the argv prefix (given as a list or a shell-quoted
    string). The cutoff is enforced by terminating the wrapper's process
    group ``GRACE_SECONDS`` after the cutoff elapses.
    """

    wrapper: Sequence[str] | str
    label: str = "external"
    grace: float = GRACE_SECONDS

    def _argv(self, config: Configuration, instance: Instance, cutoff: float, seed: int) -> list[str]:
        prefix = shlex.split(self.wrapper) if isinstance(self.wrapper, str) else list(self.wrapper)
        argv = prefix + [instance.source_path or instance.id, str(seed), format_value(float(cutoff))]
        for name, value in config.items:
            argv.extend([f"--{name}", format_value(value)])
        return argv

    def _spawn(
        self, config: Configuration, instance: Instance, cutoff: float, seed: int
    ) -> subprocess.Popen:
        return subprocess.Popen(
            self._argv(config, instance, cutoff, seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )

    def _wait(self, proc: subprocess.Popen, cutoff: float, start: float) -> tuple[RunStatus, float]:
        """The wrapper's result, or TIMEOUT once it has overrun the cutoff
        by the grace period, at which point its process group is killed."""
        try:
            stdout, _ = proc.communicate(timeout=cutoff + self.grace)
        except subprocess.TimeoutExpired:
            _kill_process_group(proc)
            return RunStatus.TIMEOUT, cutoff
        return _parse_result(stdout, cutoff, time.monotonic() - start)

    def run(
        self, config: Configuration, instance: Instance, cutoff: float, seed: int
    ) -> tuple[RunStatus, float]:
        start = time.monotonic()
        return self._wait(self._spawn(config, instance, cutoff, seed), cutoff, start)

    def run_portfolio(
        self,
        components: Sequence[Configuration],
        instance: Instance,
        cutoff: float,
        seed: int,
    ) -> InstanceResult:
        """Race one process per component; the rest are terminated when the
        first one solves the instance. A wrapper that cannot start scores
        its component CRASHED."""
        procs: list[subprocess.Popen | None] = [None] * len(components)
        outcomes: list[tuple[RunStatus, float]] = [(RunStatus.TIMEOUT, cutoff)] * len(components)
        first_solved = threading.Event()
        lock = threading.Lock()

        def work(j: int, comp: Configuration) -> None:
            start = time.monotonic()
            try:
                proc = self._spawn(comp, instance, cutoff, seed)
            except OSError:
                outcomes[j] = (RunStatus.CRASHED, cutoff)
                return
            with lock:
                procs[j] = proc
            try:
                status, runtime = self._wait(proc, cutoff, start)
            except (OSError, ValueError):
                # terminated by the winning component while we were reading
                outcomes[j] = (RunStatus.TIMEOUT, min(time.monotonic() - start, cutoff))
                return
            outcomes[j] = (status, runtime)
            if status is RunStatus.SOLVED and not first_solved.is_set():
                first_solved.set()
                with lock:
                    for other in procs:
                        if other is not None and other is not proc and other.poll() is None:
                            _kill_process_group(other)

        threads = [
            threading.Thread(target=work, args=(j, comp)) for j, comp in enumerate(components)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        outcome = portfolio_runtime(outcomes, cutoff)
        cpu = sum(runtime for _, runtime in outcomes)
        return InstanceResult(
            instance_id=instance.id,
            status=outcome.status,
            runtime=outcome.runtime,
            cutoff=cutoff,
            component_index=outcome.winner,
            cpu_cost=cpu,
        )


def _kill_process_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.communicate(timeout=5)
    except Exception:
        pass


def _parse_result(stdout: str, cutoff: float, elapsed: float) -> tuple[RunStatus, float]:
    match = None
    for line in (stdout or "").splitlines():
        found = _RESULT_RE.match(line)
        if found:
            match = found
    if match is None:
        return RunStatus.CRASHED, min(elapsed, cutoff)
    status_word = match.group("status")
    try:
        runtime = float(match.group("runtime"))
    except ValueError:
        return RunStatus.CRASHED, min(elapsed, cutoff)
    if status_word == "CRASHED":
        return RunStatus.CRASHED, max(0.0, min(runtime, cutoff))
    if status_word == "TIMEOUT" or runtime > cutoff:
        return RunStatus.TIMEOUT, cutoff
    return RunStatus.SOLVED, max(0.0, runtime)
