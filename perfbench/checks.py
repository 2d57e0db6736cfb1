"""Independent checks on one operation's outputs.

Every expected value here is computed from the planted ground truth (the
cost table, hardness, tilt and noise fields of the scenario's
``synthetic.json``), from an enumeration, or from a property the output
must have. Nothing is compared with a stored copy of earlier output. Each
check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import Iterable, Sequence

from acpp.core import RunStatus

PENALTY = 10
REL_TOL = 1e-9


def _unit(*parts: str) -> float:
    digest = hashlib.sha256("|".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def planted_runtime(spec, config, instance_id: str) -> float:
    """Virtual runtime of a configuration on an instance, from the planted
    fields: the family's cost for the strategy, times the instance's
    hardness, times the tilt penalty, times the hash-keyed noise factor."""
    items = dict(config.items)
    family = spec.instance_family[instance_id]
    t = spec.cost_table[family][spec.values.index(items["strategy"])]
    t *= spec.hardness.get(instance_id, 1.0)
    if spec.tilt_effect > 0 and "tilt" in items:
        ideal = spec.tilt_ideal[family] if spec.tilt_ideal else 0.5
        t *= 1.0 + spec.tilt_effect * abs(items["tilt"] - ideal)
    if spec.noise > 0:
        u = _unit(config.config_id, instance_id, spec.noise_key)
        t *= 1.0 + spec.noise * (2.0 * u - 1.0)
    return t


def portfolio_outcome(spec, components, instance_id: str, cutoff: float) -> tuple[RunStatus, float]:
    """First-finisher outcome of the components, timed out at the cutoff."""
    best = min(planted_runtime(spec, c, instance_id) for c in components)
    if best >= cutoff:
        return RunStatus.TIMEOUT, cutoff
    return RunStatus.SOLVED, best


def planted_par10(spec, components, instance_ids: Sequence[str], cutoff: float) -> float:
    total = 0.0
    for instance_id in instance_ids:
        status, runtime = portfolio_outcome(spec, components, instance_id, cutoff)
        total += runtime if status is RunStatus.SOLVED else PENALTY * cutoff
    return total / len(instance_ids)


def lower_bound_par10(spec, instance_ids: Sequence[str], cutoff: float) -> float:
    """Mean over instances of a PAR-10 no portfolio can beat: the cheapest
    strategy's cost at the lowest noise draw, with no tilt penalty."""
    total = 0.0
    for instance_id in instance_ids:
        row = spec.cost_table[spec.instance_family[instance_id]]
        t = min(row) * spec.hardness.get(instance_id, 1.0) * (1.0 - spec.noise)
        total += t if t < cutoff else PENALTY * cutoff
    return total / len(instance_ids)


def check_lower_bound(spec, par10: float, instance_ids, cutoff, label) -> list[str]:
    """A reported PAR-10 may not beat the planted lower bound."""
    bound = lower_bound_par10(spec, instance_ids, cutoff)
    if par10 < bound * (1 - REL_TOL):
        return [f"{label}: PAR-10 {par10!r} is below the planted lower bound {bound!r}"]
    return []


def check_test_results(spec, components, report, label) -> list[str]:
    """Each per-instance result (and every repetition) is the portfolio's
    planted first-finisher outcome; the summary PAR-10 matches it."""
    failures = []
    for res in report.per_instance:
        status, runtime = portfolio_outcome(spec, components, res.instance_id, report.cutoff)
        if res.status is not status or not math.isclose(res.runtime, runtime, rel_tol=REL_TOL):
            failures.append(
                f"{label}: {res.instance_id} gave {res.status.value} {res.runtime!r}, "
                f"planted {status.value} {runtime!r}"
            )
        for rep_runtime in res.repetition_runtimes:
            if not math.isclose(rep_runtime, runtime, rel_tol=REL_TOL):
                failures.append(f"{label}: {res.instance_id} repetition gave {rep_runtime!r}")
    ids = [res.instance_id for res in report.per_instance]
    expected = planted_par10(spec, components, ids, report.cutoff)
    if not math.isclose(report.par10, expected, rel_tol=REL_TOL):
        failures.append(f"{label}: reported PAR-10 {report.par10!r}, planted {expected!r}")
    return failures


def check_par_identity(report, label) -> list[str]:
    """PAR-10 = PAR-1 + 9 * cutoff * #TOs / n, with #TOs counted here."""
    n = len(report.per_instance)
    timeouts = sum(1 for res in report.per_instance if res.status is not RunStatus.SOLVED)
    failures = []
    if timeouts != report.timeouts:
        failures.append(f"{label}: report says {report.timeouts} timeouts, results show {timeouts}")
    expected = report.par1 + 9.0 * report.cutoff * timeouts / n
    if not math.isclose(report.par10, expected, rel_tol=REL_TOL):
        failures.append(f"{label}: PAR-10 {report.par10!r} != PAR-1 + 9*cutoff*TOs/n = {expected!r}")
    return failures


def check_ledger(ledger_total: float, counted_runtime: float, label) -> list[str]:
    """All construction runs are metered: the ledger holds exactly the
    runtime the backend returned."""
    if not math.isclose(ledger_total, counted_runtime, rel_tol=REL_TOL):
        return [f"{label}: ledger total {ledger_total!r}, backend returned {counted_runtime!r}"]
    return []


def check_partition(grouping, train_ids: Iterable[str], k: int, label) -> list[str]:
    """The grouping partitions the training set into k subsets whose sizes
    lie in [ceil(0.8 n / k), ceil(1.2 n / k)]."""
    train = sorted(train_ids)
    n = len(train)
    lower, upper = -((-4 * n) // (5 * k)), -((-6 * n) // (5 * k))
    members = [ins for subset in grouping.subsets for ins in subset]
    failures = []
    if len(grouping.subsets) != k:
        failures.append(f"{label}: {len(grouping.subsets)} subsets, expected {k}")
    if sorted(members) != train:
        failures.append(f"{label}: subsets hold {len(members)} ids, not the {n} training instances")
    for j, subset in enumerate(grouping.subsets):
        if not lower <= len(subset) <= upper:
            failures.append(f"{label}: subset {j} has {len(subset)} instances, bounds [{lower}, {upper}]")
    return failures


def check_p_values(p_values: dict, self_p_values: dict, label) -> list[str]:
    failures = [
        f"{label}: {kind} p-value {p!r} outside (0, 1]"
        for kind, p in p_values.items()
        if not 0.0 < p <= 1.0
    ]
    failures += [
        f"{label}: {kind} p-value of a report against itself is {p!r}, not 1"
        for kind, p in self_p_values.items()
        if p != 1.0
    ]
    if set(p_values) != {"timeout", "par10", "par1"}:
        failures.append(f"{label}: compared {sorted(p_values)}")
    return failures


def brute_force_optimum(spec, configs, k: int, instance_ids, cutoff) -> float:
    """Best planted PAR-10 over every k-multiset of the configurations."""
    return min(
        planted_par10(spec, combo, instance_ids, cutoff)
        for combo in itertools.combinations_with_replacement(configs, k)
    )


def check_optimum_gap(spec, configs, components, instance_ids, cutoff, tolerance, label) -> list[str]:
    """The portfolio's planted training PAR-10 is within ``tolerance`` of the
    enumerated optimum over all portfolios of its size."""
    optimum = brute_force_optimum(spec, configs, len(components), instance_ids, cutoff)
    value = planted_par10(spec, components, instance_ids, cutoff)
    if value > (1.0 + tolerance) * optimum:
        return [f"{label}: planted PAR-10 {value:.4f} is {value / optimum:.3f}x the optimum {optimum:.4f}"]
    return []
