"""Test-set protocol and statistics: repeated runs with per-instance
medians, timeout/PAR summaries, and the paired sign-flip permutation test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Instance, Portfolio, RunStatus, derive_seed, par_score, penalized_score
from .runner import Backend, BudgetLedger, evaluate_portfolio


@dataclass(frozen=True)
class InstanceTestResult:
    instance_id: str
    status: RunStatus
    runtime: float
    repetition_runtimes: tuple[float, ...]
    repetition_statuses: tuple[str, ...]

    @property
    def timed_out(self) -> bool:
        return self.status is not RunStatus.SOLVED


@dataclass(frozen=True)
class TestReport:
    label: str
    cutoff: float
    repetitions: int
    per_instance: tuple[InstanceTestResult, ...]
    timeouts: int
    crashed: int
    par10: float
    par1: float

    @property
    def n_instances(self) -> int:
        return len(self.per_instance)

    def score_vector(self, kind: str) -> dict[str, float]:
        """Per-instance scores keyed by instance id; kind is one of
        'timeout' (0/1), 'par10', 'par1'."""
        out = {}
        for res in self.per_instance:
            if kind == "timeout":
                out[res.instance_id] = 1.0 if res.timed_out else 0.0
            elif kind == "par10":
                out[res.instance_id] = penalized_score(res.status, res.runtime, self.cutoff, 10)
            elif kind == "par1":
                out[res.instance_id] = penalized_score(res.status, res.runtime, self.cutoff, 1)
            else:
                raise ValueError(f"unknown score kind {kind!r}")
        return out


def test_portfolio(
    backend: Backend,
    portfolio: Portfolio | Sequence,
    test_instances: Sequence[Instance],
    cutoff: float,
    repetitions: int = 3,
    seed: int = 0,
    *,
    ledger: BudgetLedger | None = None,
    label: str = "portfolio",
) -> TestReport:
    """Run the portfolio ``repetitions`` times per instance and report the
    per-instance median result (ordered by penalized score) plus the
    #timeouts / PAR-10 / PAR-1 summary over those medians. Each run's seed
    is derived from ``seed``, the instance id and the repetition."""
    if repetitions < 1 or repetitions % 2 == 0:
        raise ValueError("repetitions must be odd")
    components = portfolio.components if isinstance(portfolio, Portfolio) else tuple(portfolio)
    per_instance: list[InstanceTestResult] = []
    medians = []
    for instance in test_instances:
        outcomes = [
            evaluate_portfolio(
                backend, components, instance, cutoff, derive_seed(seed, instance.id, rep),
                ledger=ledger,
            )
            for rep in range(repetitions)
        ]
        ordered = sorted(
            outcomes,
            key=lambda r: (penalized_score(r.status, r.runtime, cutoff, 10), r.runtime),
        )
        median = ordered[repetitions // 2]
        medians.append(median)
        per_instance.append(
            InstanceTestResult(
                instance_id=instance.id,
                status=median.status,
                runtime=median.runtime,
                repetition_runtimes=tuple(r.runtime for r in outcomes),
                repetition_statuses=tuple(r.status.value for r in outcomes),
            )
        )
    timeouts = sum(1 for r in per_instance if r.timed_out)
    crashed = sum(1 for r in per_instance if r.status is RunStatus.CRASHED)
    return TestReport(
        label=label,
        cutoff=cutoff,
        repetitions=repetitions,
        per_instance=tuple(per_instance),
        timeouts=timeouts,
        crashed=crashed,
        par10=par_score(medians, cutoff, 10),
        par1=par_score(medians, cutoff, 1),
    )


@dataclass(frozen=True)
class PermutationOutcome:
    p_value: float
    significant: bool
    observed_mean_difference: float
    n_permutations: int
    alpha: float


def permutation_test(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    n_permutations: int = 100_000,
    alpha: float = 0.05,
    seed: int = 0,
) -> PermutationOutcome:
    """Two-sided Monte Carlo paired sign-flip test on the mean difference.

    p = (1 + #{permuted |mean| >= observed |mean|}) / (1 + n_permutations),
    so p is in (0, 1] and equals 1.0 for identical inputs; swapping the two
    sides gives the identical p-value under the same seed.
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("score vectors must be 1-d and of equal length")
    if len(a) < 1:
        raise ValueError("need at least one pair")
    if n_permutations < 1:
        raise ValueError("need at least one permutation")
    diffs = a - b
    observed = abs(float(diffs.mean()))
    rng = np.random.default_rng(seed)
    n = len(diffs)
    hits = 0
    remaining = n_permutations
    # blocks of at most 2**20 signs: successive draws continue one stream,
    # so the blocking does not change which signs are drawn
    batch = max(1, (1 << 20) // n)
    while remaining > 0:
        m = min(batch, remaining)
        signs = rng.integers(0, 2, size=(m, n)).astype(np.float64)
        signs *= 2
        signs -= 1
        means = np.abs(signs @ diffs) / n
        hits += int((means >= observed).sum())
        remaining -= m
    p = (1 + hits) / (1 + n_permutations)
    return PermutationOutcome(
        p_value=p,
        significant=p < alpha,
        observed_mean_difference=float(diffs.mean()),
        n_permutations=n_permutations,
        alpha=alpha,
    )


def compare_reports(
    report_a: TestReport,
    report_b: TestReport,
    n_permutations: int = 100_000,
    alpha: float = 0.05,
    seed: int = 0,
) -> dict[str, PermutationOutcome]:
    """Permutation tests on the paired timeout (0/1), PAR-10 and PAR-1
    per-instance scores of two reports over the same instance set."""
    ids_a = [r.instance_id for r in report_a.per_instance]
    ids_b = {r.instance_id for r in report_b.per_instance}
    if set(ids_a) != ids_b:
        raise ValueError("reports cover different instance sets")
    out = {}
    for kind in ("timeout", "par10", "par1"):
        vec_a = report_a.score_vector(kind)
        vec_b = report_b.score_vector(kind)
        a = [vec_a[i] for i in ids_a]
        b = [vec_b[i] for i in ids_a]
        out[kind] = permutation_test(a, b, n_permutations, alpha, seed)
    return out


# ---------------------------------------------------------------------------
# report files


def report_to_dict(report: TestReport) -> dict:
    return {
        "label": report.label,
        "cutoff": report.cutoff,
        "repetitions": report.repetitions,
        "summary": {
            "n_instances": report.n_instances,
            "timeouts": report.timeouts,
            "crashed": report.crashed,
            "par10": report.par10,
            "par1": report.par1,
        },
        "per_instance": [
            {
                "instance_id": r.instance_id,
                "status": r.status.value,
                "runtime": r.runtime,
                "repetition_runtimes": list(r.repetition_runtimes),
                "repetition_statuses": list(r.repetition_statuses),
            }
            for r in report.per_instance
        ],
    }


def report_from_dict(doc: dict) -> TestReport:
    per_instance = tuple(
        InstanceTestResult(
            instance_id=entry["instance_id"],
            status=RunStatus(entry["status"]),
            runtime=entry["runtime"],
            repetition_runtimes=tuple(entry.get("repetition_runtimes", ())),
            repetition_statuses=tuple(entry.get("repetition_statuses", ())),
        )
        for entry in doc["per_instance"]
    )
    return TestReport(
        label=doc.get("label", "portfolio"),
        cutoff=doc["cutoff"],
        repetitions=doc["repetitions"],
        per_instance=per_instance,
        timeouts=doc["summary"]["timeouts"],
        crashed=doc["summary"]["crashed"],
        par10=doc["summary"]["par10"],
        par1=doc["summary"]["par1"],
    )


def write_report(report: TestReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report), sort_keys=True, indent=1) + "\n")


def read_report(path: str | Path) -> TestReport:
    return report_from_dict(json.loads(Path(path).read_text()))


def format_table(reports: Sequence[TestReport]) -> str:
    """Plain-text summary table with #TOs / PAR-10 / PAR-1 columns."""
    header = f"{'solver':<20} {'#TOs':>6} {'PAR-10':>10} {'PAR-1':>10}"
    lines = [header, "-" * len(header)]
    for rep in reports:
        lines.append(
            f"{rep.label:<20} {rep.timeouts:>6} {rep.par10:>10.2f} {rep.par1:>10.2f}"
        )
    return "\n".join(lines) + "\n"
