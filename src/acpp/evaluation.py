"""Test-set protocol and statistics: repeated runs with per-instance
medians, timeout/PAR summaries, and the paired sign-flip permutation test.

``compare_reports`` tests the timeout, PAR-10 and PAR-1 differences of two
reports on one set of sign flips, drawn once: each permutation is the low
bits of whole PCG64 outputs, one bit per pair. Each permuted sum is added
up from per-byte tables of signed pair sums in a fixed order, without BLAS,
so the p-values depend only on the inputs and the seed (see
``_sign_flip_hits``). The flips are drawn a bounded chunk of permutations
at a time, so the test's memory does not grow with the permutation count.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Instance, Portfolio, RunStatus, derive_seed, par_score, penalized_score
from .runner import Backend, evaluate_portfolio


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
    for instance in test_instances:
        outcomes = [
            evaluate_portfolio(
                backend, components, instance, cutoff, derive_seed(seed, instance.id, rep)
            )
            for rep in range(repetitions)
        ]
        ordered = sorted(
            outcomes,
            key=lambda r: (penalized_score(r.status, r.runtime, cutoff, 10), r.runtime),
        )
        median = ordered[repetitions // 2]
        per_instance.append(
            InstanceTestResult(
                instance_id=instance.id,
                status=median.status,
                runtime=median.runtime,
                repetition_runtimes=tuple(r.runtime for r in outcomes),
                repetition_statuses=tuple(r.status.value for r in outcomes),
            )
        )
    return TestReport(
        label=label,
        cutoff=cutoff,
        repetitions=repetitions,
        per_instance=tuple(per_instance),
        **_summary(per_instance, cutoff),
    )


def _summary(per_instance: Sequence[InstanceTestResult], cutoff: float) -> dict:
    """A report's summary fields, from its per-instance results."""
    return {
        "timeouts": sum(1 for r in per_instance if r.timed_out),
        "crashed": sum(1 for r in per_instance if r.status is RunStatus.CRASHED),
        "par10": par_score(per_instance, cutoff, 10),
        "par1": par_score(per_instance, cutoff, 1),
    }


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

    p = (1 + #{permuted |sum| >= observed |sum|}) / (1 + n_permutations),
    the sum being n times the mean, so p is in (0, 1] and equals 1.0 for
    identical inputs; swapping the two sides gives the identical p-value
    under the same seed. A difference that is not finite raises
    ``ValueError``.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("score vectors must be 1-d and of equal length")
    diffs = a - b
    (hits,) = _sign_flip_hits([diffs], n_permutations, seed)
    return _outcome(diffs, hits, n_permutations, alpha)


def compare_reports(
    report_a: TestReport,
    report_b: TestReport,
    n_permutations: int = 100_000,
    alpha: float = 0.05,
    seed: int = 0,
) -> dict[str, PermutationOutcome]:
    """Permutation tests on the paired timeout (0/1), PAR-10 and PAR-1
    per-instance scores of two reports over the same instance set and
    cutoff, each instance listed once. Each outcome equals
    ``permutation_test`` on that score kind with the same seed; the three
    share one draw of the sign flips."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    ids = [r.instance_id for r in report_a.per_instance]
    for report in (report_a, report_b):
        listed = Counter(r.instance_id for r in report.per_instance)
        repeated = [i for i, count in listed.items() if count > 1]
        if repeated:
            raise ValueError(
                f"report {report.label!r} lists instance {repeated[0]!r} more than once"
            )
    if set(ids) != {r.instance_id for r in report_b.per_instance}:
        raise ValueError("reports cover different instance sets")
    if report_a.cutoff != report_b.cutoff:
        raise ValueError(
            f"reports have different cutoffs ({report_a.cutoff} and {report_b.cutoff}), "
            "so their PAR scores are on different scales"
        )
    diffs = {}
    for kind in ("timeout", "par10", "par1"):
        vec_a = report_a.score_vector(kind)
        vec_b = report_b.score_vector(kind)
        diffs[kind] = np.array([vec_a[i] for i in ids]) - np.array([vec_b[i] for i in ids])
    hits = _sign_flip_hits(list(diffs.values()), n_permutations, seed)
    return {
        kind: _outcome(d, h, n_permutations, alpha) for (kind, d), h in zip(diffs.items(), hits)
    }


def _outcome(diffs: np.ndarray, hits: int, n_permutations: int, alpha: float) -> PermutationOutcome:
    p = (1 + hits) / (1 + n_permutations)
    return PermutationOutcome(
        p_value=p,
        significant=p < alpha,
        observed_mean_difference=float(diffs.mean()),
        n_permutations=n_permutations,
        alpha=alpha,
    )


# A call draws this many permutations at a time. Each permutation takes its
# own whole generator outputs, so the chunk size does not change which flips
# a row gets; it bounds the buffers. On a 2-core Xeon one 100,000-permutation
# compare at 80 pairs peaked at 441 KiB (tracemalloc) with 4,096 rows and
# 805 KiB with 8,192, and took 5.5 against 5.0 ms in this function.
_CHUNK_ROWS = 1 << 12


def _sign_flip_hits(diffs: Sequence[np.ndarray], n_permutations: int, seed: int) -> list[int]:
    """For each difference vector ``d`` of length n, count the sign flips
    ``s`` with ``|s @ d| >= |sum(d)|``; every vector is tested on the same
    flips.

    Permutation ``i`` is the low n bits of the ``w = ceil(n / 64)`` outputs
    ``w * i`` to ``w * i + w - 1`` of ``random_raw`` on
    ``np.random.default_rng(seed).bit_generator``, read as little-endian
    bytes: pair ``j`` is bit ``j % 8`` of byte ``j // 8``, and a set bit
    keeps its sign. The outputs are drawn ``_CHUNK_ROWS`` permutations at a
    time.

    Each vector gets one table per byte of pairs: the signed sums of that
    byte's (up to) 8 pairs for all 256 byte values, added in pair order. A
    permutation's sum adds one entry per byte, in byte order, and the
    observed sum is the all-set permutation's sum on the same path. So a
    permutation that flips only zero differences ties exactly, negating
    ``d`` negates every sum exactly, and no sum depends on the chunk size
    or on BLAS, which is not used. The tables take 2 KiB per 8 pairs per
    vector; the other buffers hold ``_CHUNK_ROWS`` rows of 8 bytes per
    generator output, 17 bytes per vector and 8 bytes of byte index, so the
    memory does not grow with the permutation count.
    """
    n = len(diffs[0])
    if n < 1:
        raise ValueError("need at least one pair")
    if n_permutations < 1:
        raise ValueError("need at least one permutation")
    if not all(np.isfinite(d).all() for d in diffs):
        raise ValueError("score differences must be finite")
    n_bytes, words = -(-n // 8), -(-n // 64)
    padded = np.zeros((len(diffs), n_bytes * 8))
    padded[:, :n] = diffs
    pairs = padded.reshape(len(diffs), n_bytes, 8, 1)
    keep = (np.arange(256) >> np.arange(8)[:, None]) & 1 == 1  # keep[i, v]: bit i of v
    tables = np.where(keep[0], pairs[:, :, 0], -pairs[:, :, 0])
    for i in range(1, 8):
        tables += np.where(keep[i], pairs[:, :, i], -pairs[:, :, i])
    tables = np.ascontiguousarray(tables.transpose(1, 0, 2))  # [byte, vector, value]
    observed = tables[0, :, 255].copy()
    for table in tables[1:]:
        observed += table[:, 255]
    observed = np.abs(observed)[:, None]
    hits = np.zeros(len(diffs), dtype=np.int64)
    bit_gen = np.random.default_rng(seed).bit_generator
    chunk = min(_CHUNK_ROWS, n_permutations)
    sums, part = np.empty((2, len(diffs), chunk))
    above = np.empty((len(diffs), chunk), dtype=bool)
    index = np.empty(chunk, dtype=np.intp)
    for first in range(0, n_permutations, chunk):
        r = min(chunk, n_permutations - first)
        flips = bit_gen.random_raw(r * words).astype("<u8", copy=False).view(np.uint8)
        flips = flips.reshape(r, 8 * words)
        s, p, ix = sums[:, :r], part[:, :r], index[:r]
        for k, table in enumerate(tables):
            np.copyto(ix, flips[:, k], casting="unsafe")
            # byte values are always in range, and "clip" skips the check
            np.take(table, ix, axis=1, out=p if k else s, mode="clip")
            if k:
                s += p
        np.abs(s, out=s)
        np.greater_equal(s, observed, out=above[:, :r])
        hits += np.count_nonzero(above[:, :r], axis=1)
    return hits.tolist()


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
    """The report a ``report_to_dict`` document holds; ``ValueError`` when
    a field is missing or its stored summary disagrees with its rows."""
    try:
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
        summary = _summary(per_instance, doc["cutoff"])
        for name, value in {"n_instances": len(per_instance), **summary}.items():
            stored = doc["summary"][name]
            if isinstance(stored, bool) or not isinstance(stored, (int, float)):
                raise ValueError(f"report summary {name} is {stored!r}, not a number")
            # a NaN runtime gives a NaN mean, which ``compare_reports`` rejects
            both_nan = math.isnan(stored) and math.isnan(value)
            if not (both_nan or math.isclose(stored, value, rel_tol=1e-9)):
                raise ValueError(f"report summary {name} is {stored}, its rows give {value}")
        return TestReport(
            label=doc.get("label", "portfolio"),
            cutoff=doc["cutoff"],
            repetitions=doc["repetitions"],
            per_instance=per_instance,
            **summary,
        )
    except KeyError as exc:
        raise ValueError(f"report has no field {exc}") from None


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
