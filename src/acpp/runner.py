"""Run execution: budget metering, the external wrapper backend, and
portfolio evaluation.

Budgets are metered in consumed solver time (virtual seconds for synthetic
backends, wrapper-reported time for external solvers), never wall clock.
The external wrapper protocol is:

    <wrapper> <instance_path> <seed> <cutoff_seconds> [--name value]...

and the wrapper must print a final line ``RESULT: <status>, <runtime>`` with
status one of SAT, UNSAT, SOLVED, TIMEOUT, CRASHED. A missing or
unparseable result line yields a CRASHED record at the cutoff.

Every external run is a race on one single-threaded loop: a single run is a
race of one wrapper, a portfolio a race of one wrapper per component. Each
wrapper that answers scores its reported result. Wall time only sets when
the race stops waiting, one grace period after the best reported solve (or
the cutoff); a wrapper still running then is killed and charged that time,
so the scores do not depend on which process the OS lets finish first.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import selectors
import shlex
import signal
import subprocess
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
    """Accumulator of consumed configuration and validation time; ``charges``
    holds every charge, ``(seconds, kind, phase)``, in the order made."""

    configuration_time: float = 0.0
    validation_time: float = 0.0
    n_runs: int = 0
    by_phase: dict[str, float] = field(default_factory=dict)
    charges: list[tuple[float, str, str | None]] = field(default_factory=list, repr=False)

    def charge(self, seconds: float, kind: str = "configuration", phase: str | None = None) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        if kind == "configuration":
            self.configuration_time += seconds
        elif kind == "validation":
            self.validation_time += seconds
        else:
            raise ValueError(f"unknown budget kind {kind!r}")
        self.n_runs += 1
        self.charges.append((seconds, kind, phase))
        if phase is not None:
            self.by_phase[phase] = self.by_phase.get(phase, 0.0) + seconds

    @property
    def total(self) -> float:
        return self.configuration_time + self.validation_time

    def snapshot(self) -> dict:
        return {
            "configuration_time": self.configuration_time,
            "validation_time": self.validation_time,
            "total": self.total,
            "n_runs": self.n_runs,
            "by_phase": dict(self.by_phase),
        }


def execute_run(
    backend: Backend, config: Configuration, instance: Instance, cutoff: float, seed: int
) -> RunRecord:
    """The record of one configuration's run on one instance under the
    cutoff; the caller stores and charges it."""
    if not 0 < cutoff < math.inf:
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    status, runtime = clamp_run(*backend.run(config, instance, cutoff, seed), cutoff)
    return RunRecord(
        config_id=config.config_id,
        instance_id=instance.id,
        seed=seed,
        status=status,
        runtime=runtime,
        cutoff=cutoff,
    )


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
    processes on their reported clock, and the race is one validation
    charge. Otherwise each component runs to its end, one validation charge
    per component: a backend exception scores that component CRASHED at the
    cutoff, except ``PROGRAMMING_ERRORS``, which propagate. Either way the
    outcome is ``portfolio_runtime`` over the component outcomes, and
    ``cpu_cost`` their runtimes added in component order.
    """
    if hasattr(backend, "run_portfolio"):
        result = backend.run_portfolio(components, instance, cutoff, seed)
        if ledger is not None:
            ledger.charge(result.cpu_cost, kind="validation")
        return result
    outcomes = []
    for comp in components:
        try:
            status, runtime = backend.run(comp, instance, cutoff, seed)
        except PROGRAMMING_ERRORS:
            raise
        except Exception:
            status, runtime = RunStatus.CRASHED, cutoff
        status, runtime = clamp_run(status, runtime, cutoff)
        outcomes.append((status, runtime))
        if ledger is not None:
            ledger.charge(runtime, kind="validation")
    return _portfolio_result(instance, outcomes, cutoff)


def _portfolio_result(
    instance: Instance, outcomes: Sequence[tuple[RunStatus, float]], cutoff: float
) -> InstanceResult:
    outcome = portfolio_runtime(outcomes, cutoff)
    cpu = 0.0
    for _, runtime in outcomes:
        cpu += runtime
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
    """Runs configurations through external wrapper processes.

    ``wrapper`` is the argv prefix (given as a list or a shell-quoted
    string). ``run`` is a race of one wrapper and ``run_portfolio`` a race
    of one wrapper per component; both are scored on the wrappers' reported
    clock (see ``_race``).
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
            start_new_session=True,
        )

    def _race(
        self, procs: Sequence[subprocess.Popen | None], cutoff: float, start: float
    ) -> list[tuple[RunStatus, float]]:
        """Outcomes of wrappers started at monotonic time ``start`` on one
        instance; ``None``, a wrapper that could not start, is CRASHED.

        A wrapper scores its result line once it closes its output. At the
        wall deadline ``start + min(cutoff, best reported solve) + grace``,
        the wrappers still running are killed and score TIMEOUT, charged
        that min.
        """
        outcomes = [(RunStatus.CRASHED, cutoff)] * len(procs)
        output = [bytearray() for _ in procs]
        best = cutoff
        try:
            with selectors.DefaultSelector() as selector:
                for j, proc in enumerate(procs):
                    if proc is not None:
                        selector.register(proc.stdout, selectors.EVENT_READ, j)
                while selector.get_map():
                    remaining = start + best + self.grace - time.monotonic()
                    if remaining <= 0:
                        break
                    for key, _ in selector.select(remaining):
                        chunk = os.read(key.fd, 65536)
                        output[key.data] += chunk
                        if not chunk:
                            selector.unregister(key.fileobj)
                            status, runtime = _parse_result(output[key.data], cutoff)
                            outcomes[key.data] = status, runtime
                            if status is RunStatus.SOLVED:
                                best = min(best, runtime)
                for key in selector.get_map().values():
                    outcomes[key.data] = (RunStatus.TIMEOUT, best)
        finally:
            for proc in procs:
                if proc is not None:
                    if proc.poll() is None:  # the wrapper leads its own process group
                        with contextlib.suppress(ProcessLookupError, PermissionError):
                            os.killpg(proc.pid, signal.SIGKILL)
                    proc.stdout.close()
                    proc.wait()
        return outcomes

    def run(
        self, config: Configuration, instance: Instance, cutoff: float, seed: int
    ) -> tuple[RunStatus, float]:
        start = time.monotonic()
        return self._race([self._spawn(config, instance, cutoff, seed)], cutoff, start)[0]

    def run_portfolio(
        self,
        components: Sequence[Configuration],
        instance: Instance,
        cutoff: float,
        seed: int,
    ) -> InstanceResult:
        """Race one wrapper per component; a wrapper that cannot start
        scores its component CRASHED."""
        start = time.monotonic()
        procs: list[subprocess.Popen | None] = []
        for comp in components:
            try:
                procs.append(self._spawn(comp, instance, cutoff, seed))
            except OSError:
                procs.append(None)
        return _portfolio_result(instance, self._race(procs, cutoff, start), cutoff)


def _parse_result(output: bytes, cutoff: float) -> tuple[RunStatus, float]:
    """The outcome of the last result line, bounded by the cutoff; CRASHED
    at the cutoff when there is no parseable one."""
    lines = output.decode(errors="replace").splitlines()
    matches = [m for m in map(_RESULT_RE.match, lines) if m]
    if not matches:
        return RunStatus.CRASHED, cutoff
    word, runtime = matches[-1].group("status", "runtime")
    try:
        runtime = max(0.0, float(runtime))
    except ValueError:
        return RunStatus.CRASHED, cutoff
    status = RunStatus[word] if word in ("TIMEOUT", "CRASHED") else RunStatus.SOLVED
    return clamp_run(status, runtime, cutoff)
