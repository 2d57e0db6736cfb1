"""Test-set protocol and statistics: repeated runs with per-instance
medians, timeout/PAR summaries, and the paired sign-flip permutation test.

``compare_reports`` tests the timeout, PAR-10 and PAR-1 differences of two
reports on one set of sign flips, drawn once. Its p-values do not depend on
the BLAS thread count (see ``_sign_flip_hits``). The flips are streamed
chunk by chunk through one buffer of about 2**16 cells, so the test's
memory does not grow with the permutation count.
"""

from __future__ import annotations

import json
from collections import Counter
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
    sides gives the identical p-value under the same seed. A difference
    that is not finite raises ``ValueError``.
    """
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


# OpenBLAS computes a matrix-vector product of fewer than 2304 * 4 cells on
# the calling thread (interface/gemv.c, GEMM_MULTITHREAD_THRESHOLD = 4). A
# larger one is split by rows over its threads. Its x86-64 dgemv_t kernels
# sum the rows of ``signs`` in groups of 4 and the rest on a remainder path
# that can round differently, so the last rows of each thread's share could
# make a permuted mean that ties the observed one count at one thread count
# and not at another.
_ONE_THREAD_CELLS = 2304 * 4
_ROW_GROUP = 4
# Signs are made and multiplied one chunk of whole row slices at a time, in a
# buffer of about this many float64 cells (0.5 MiB) that stays in the core's
# 2 MiB L2 cache. On a 2-core Xeon at one OpenBLAS thread, one 3-vector call
# at 24, 80 and 300 pairs ran fastest at 2**16 or 2**17 cells; at 2**14 a
# chunk holds a single slice of about 9,000 cells, and 2**18 was slower again.
_CHUNK_CELLS = 1 << 16


def _sign_flip_hits(diffs: Sequence[np.ndarray], n_permutations: int, seed: int) -> list[int]:
    """For each difference vector ``d`` of length n, count the sign flips
    ``s`` with ``|s @ d| / n >= |mean(d)|``; every vector is tested on the
    same flips.

    The flips are ``rng.integers(0, 2, size=(m, n)) * 2 - 1`` on
    ``np.random.default_rng(seed)``, drawn in blocks of ``m = 2**20 // n``
    rows, but read straight from the PCG64 stream. With range 2, numpy's
    Lemire draw takes one 32-bit word per cell, never rejects (its threshold
    is (2**32 - 2) % 2 = 0) and returns the word's top bit. PCG64 serves the
    low half of each 64-bit output first, so a block with an odd cell count
    leaves the high half of its last output to the next block.

    No block is built whole. The signs are streamed chunk by chunk through
    one preallocated buffer of about ``_CHUNK_CELLS`` cells: each chunk reads
    only its own words, writes their top bits into the buffer, takes each
    bit (a carried one too) to ``bit * 2 - 1`` in place, multiplies and
    counts. So the memory does not grow with the permutation count or the
    block size, only with n when a single row slice exceeds the buffer.

    Each vector gets its own product per row slice of fewer than
    ``_ONE_THREAD_CELLS`` cells and whole ``_ROW_GROUP``s, counted from the
    start of each block; a chunk is a run of whole slices inside one block,
    so a block's short last slice is the same as without chunks. OpenBLAS
    keeps each slice on one thread, so each row's sum is the one that a
    single ``signs @ d`` over the block gives on one thread, and the counts
    do not depend on the BLAS thread count (up to 2,303 pairs; beyond that a
    slice of 4 rows is already split). A single product with all vectors as
    columns would sum in another order and could move a tie.
    """
    n = len(diffs[0])
    if n < 1:
        raise ValueError("need at least one pair")
    if n_permutations < 1:
        raise ValueError("need at least one permutation")
    if not all(np.isfinite(d).all() for d in diffs):
        raise ValueError("score differences must be finite")
    observed = [abs(float(d.mean())) for d in diffs]
    hits = [0] * len(diffs)
    bit_gen = np.random.default_rng(seed).bit_generator
    batch = max(1, (1 << 20) // n)
    rows = max(_ROW_GROUP, (_ONE_THREAD_CELLS - 1) // n // _ROW_GROUP * _ROW_GROUP)
    chunk = min(max(1, _CHUNK_CELLS // (rows * n)) * rows, batch, n_permutations)
    signs = np.empty(chunk * n)
    sums = np.empty(chunk)
    above = np.empty(chunk, dtype=bool)
    carry: list[int] = []  # top bit of the unused high half of the last output
    remaining = n_permutations
    while remaining > 0:
        m = min(batch, remaining)
        for first in range(0, m, chunk):
            r = min(chunk, m - first)
            cells, c = r * n, len(carry)
            words = bit_gen.random_raw((cells - c + 1) // 2).astype("<u8", copy=False).view("<u4")
            np.right_shift(words, 31, out=words)
            signs[:c] = carry
            signs[c:cells] = words[: cells - c]
            carry = words[cells - c :].tolist()
            del words  # free it before the next chunk's draw
            flips = signs[:cells]
            flips *= 2
            flips -= 1
            flips = flips.reshape(r, n)
            for j, d in enumerate(diffs):
                s, hit = sums[:r], above[:r]
                for start in range(0, r, rows):
                    np.matmul(flips[start : start + rows], d, out=s[start : start + rows])
                np.abs(s, out=s)
                s /= n
                np.greater_equal(s, observed[j], out=hit)
                hits[j] += int(np.count_nonzero(hit))
        remaining -= m
    return hits


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
