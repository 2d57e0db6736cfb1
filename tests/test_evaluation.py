import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import acpp
from acpp.cli import run_command
from acpp.core import Instance, RunStatus, penalized_score
from acpp.evaluation import TestReport as Report
from acpp.evaluation import test_portfolio as run_test_protocol
from acpp.evaluation import (
    InstanceTestResult,
    compare_reports,
    format_table,
    permutation_test,
    read_report,
    report_from_dict,
    report_to_dict,
    write_report,
)
from acpp.space import make_config, parse_space
from acpp.synthetic import SyntheticBackend, SyntheticScenarioSpec


@pytest.fixture
def space():
    return parse_space("strategy categorical {fast, slow} [fast]\n")


def backend_with(fast=2.0, slow=50.0, cutoff=60.0, jitter=0.0, n=6):
    spec = SyntheticScenarioSpec(
        instance_family={f"i{j}": 0 for j in range(n)},
        cost_table=((fast, slow),),
        values=("fast", "slow"),
        hardness={},
        cutoff=cutoff,
        per_run_jitter=jitter,
    )
    return SyntheticBackend(spec)


class CyclingBackend:
    """Hands out scripted outcomes per repetition, for median checks."""

    label = "scripted"

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.calls = 0

    def run(self, config, instance, cutoff, seed):
        out = self.outcomes[self.calls % len(self.outcomes)]
        self.calls += 1
        return out


def make_report(label, runs, cutoff):
    """A one-repetition report of ``(status, runtime)`` runs on instances
    ``i00``, ``i01``, ..."""
    per_instance = tuple(
        InstanceTestResult(f"i{j:02d}", status, runtime, (runtime,), (status.value,))
        for j, (status, runtime) in enumerate(runs)
    )
    timeouts = sum(1 for res in per_instance if res.timed_out)

    def par(penalty):
        scores = [penalized_score(status, runtime, cutoff, penalty) for status, runtime in runs]
        return sum(scores) / len(scores) if scores else 0.0

    return Report(label, cutoff, 1, per_instance, timeouts, 0, par(10), par(1))


def tied_par10_reports(n, seed):
    """Two reports at cutoff 10 whose PAR-10 scores tie often, as in
    ``test_tied_p_value_unchanged_by_blocking``."""
    rng = np.random.default_rng(100 * n + seed)
    side = rng.choice(4, size=n, p=[0.6, 0.2, 0.1, 0.1])
    timeout = (RunStatus.TIMEOUT, 10.0)
    a_runs = {0: timeout, 1: (RunStatus.SOLVED, 2.5), 2: timeout, 3: (RunStatus.SOLVED, 1.25)}
    b_runs = {0: timeout, 1: timeout, 2: (RunStatus.SOLVED, 2.5), 3: (RunStatus.SOLVED, 3.75)}
    return (
        make_report("a", [a_runs[s] for s in side], 10.0),
        make_report("b", [b_runs[s] for s in side], 10.0),
    )


def blocked_compare_lines(path_a, path_b):
    """The p-value parts of ``acpp compare``'s output on two report files at
    the default seed and permutation count, each score kind tested on its own
    blocked draw."""
    a, b = read_report(path_a), read_report(path_b)
    lines = []
    for kind in ("timeout", "par10", "par1"):
        vec_a, vec_b = a.score_vector(kind), b.score_vector(kind)
        diffs = np.array(list(vec_a.values())) - np.array([vec_b[i] for i in vec_a])
        p = TestPermutationTest.blocked_p_value(diffs, 100_000, 0)
        lines.append(f"{kind:>8}: p={p:.6f} (")
    return lines


class TestTestPortfolio:
    def test_median_of_three(self, space):
        backend = CyclingBackend(
            [(RunStatus.SOLVED, 2.0), (RunStatus.SOLVED, 3.0), (RunStatus.TIMEOUT, 60.0)]
        )
        config = make_config(space, {"strategy": "fast"})
        report = run_test_protocol(backend, [config], [Instance("i0")], 60.0, repetitions=3)
        (res,) = report.per_instance
        assert res.status is RunStatus.SOLVED
        assert res.runtime == 3.0
        assert report.timeouts == 0

    def test_all_timeouts_counted(self, space):
        backend = CyclingBackend([(RunStatus.TIMEOUT, 60.0)])
        config = make_config(space, {"strategy": "slow"})
        report = run_test_protocol(backend, [config], [Instance("i0"), Instance("i1")], 60.0)
        assert report.timeouts == 2
        assert report.par10 == 600.0
        assert report.par1 == 60.0

    def test_deterministic_backend_repetitions_identical(self, space):
        backend = backend_with()
        config = make_config(space, {"strategy": "fast"})
        instances = [Instance(f"i{j}") for j in range(4)]
        report = run_test_protocol(backend, [config], instances, 60.0, repetitions=3, seed=5)
        for res in report.per_instance:
            assert len(set(res.repetition_runtimes)) == 1

    def test_even_repetitions_rejected(self, space):
        config = make_config(space, {"strategy": "fast"})
        with pytest.raises(ValueError, match="odd"):
            run_test_protocol(backend_with(), [config], [Instance("i0")], 60.0, repetitions=2)

    def test_summary_identity_on_medians(self, space):
        backend = backend_with(fast=10.0, slow=80.0, n=8)
        config_fast = make_config(space, {"strategy": "fast"})
        config_slow = make_config(space, {"strategy": "slow"})
        instances = [Instance(f"i{j}") for j in range(8)]
        for portfolio in ([config_fast], [config_slow], [config_fast, config_slow]):
            report = run_test_protocol(backend_with(fast=10.0, slow=80.0, n=8), portfolio, instances, 60.0)
            expected = report.par1 + 9.0 * 60.0 * report.timeouts / report.n_instances
            assert report.par10 == pytest.approx(expected, rel=1e-12)

    def test_instance_order_invariance(self, space):
        backend = backend_with(jitter=0.1, n=6)
        config = make_config(space, {"strategy": "fast"})
        instances = [Instance(f"i{j}") for j in range(6)]
        forward = run_test_protocol(backend, [config], instances, 60.0, seed=3)
        backward = run_test_protocol(backend, [config], list(reversed(instances)), 60.0, seed=3)
        fw = {r.instance_id: r.runtime for r in forward.per_instance}
        bw = {r.instance_id: r.runtime for r in backward.per_instance}
        assert fw == bw

    def test_run_seeds_differ_per_instance_and_repetition(self, space):
        seeds = {}

        class RecordingBackend:
            label = "recording"

            def run(self, config, instance, cutoff, seed):
                seeds.setdefault(instance.id, []).append(seed)
                return RunStatus.SOLVED, 1.0

        config = make_config(space, {"strategy": "fast"})
        instances = [Instance(f"i{j}") for j in range(6)]
        run_test_protocol(RecordingBackend(), [config], instances, 60.0, seed=3)
        forward, seeds = seeds, {}
        run_test_protocol(RecordingBackend(), [config], list(reversed(instances)), 60.0, seed=3)
        assert seeds == forward
        assert len({s for runs in forward.values() for s in runs}) == 6 * 3


class TestPermutationTest:
    def test_identical_inputs_give_p_one(self):
        scores = [3.0, 5.0, 9.0, 2.0]
        outcome = permutation_test(scores, scores, n_permutations=2000, seed=1)
        assert outcome.p_value == 1.0
        assert not outcome.significant

    def test_swap_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.normal(10, 2, size=50).tolist()
        b = rng.normal(11, 2, size=50).tolist()
        ab = permutation_test(a, b, n_permutations=5000, seed=9)
        ba = permutation_test(b, a, n_permutations=5000, seed=9)
        assert ab.p_value == ba.p_value

    def test_detects_clear_shift(self):
        rng = np.random.default_rng(11)
        b = rng.normal(50, 1, size=100)
        a = b - 10.0
        outcome = permutation_test(a.tolist(), b.tolist(), n_permutations=20_000, seed=2)
        assert outcome.p_value < 0.05
        assert outcome.significant

    def test_seed_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, 30).tolist()
        b = rng.normal(0.2, 1, 30).tolist()
        first = permutation_test(a, b, n_permutations=10_000, seed=42)
        second = permutation_test(a, b, n_permutations=10_000, seed=42)
        assert first.p_value == second.p_value

    def test_p_in_unit_interval(self):
        outcome = permutation_test([1.0], [5.0], n_permutations=100, seed=0)
        assert 0.0 < outcome.p_value <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            permutation_test([1.0, 2.0], [1.0], n_permutations=10)

    @staticmethod
    def unblocked_p_value(a, b, n_permutations, seed):
        """The p-value as computed before the signs were drawn in blocks of
        2**20: integer signs, in batches of up to 20,000,000 cells."""
        diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        observed = abs(float(diffs.mean()))
        rng = np.random.default_rng(seed)
        n = len(diffs)
        hits = 0
        remaining = n_permutations
        batch = max(1, min(remaining, 20_000_000 // n))
        while remaining > 0:
            m = min(batch, remaining)
            signs = rng.integers(0, 2, size=(m, n)) * 2 - 1
            hits += int((np.abs(signs @ diffs) / n >= observed).sum())
            remaining -= m
        return (1 + hits) / (1 + n_permutations)

    @staticmethod
    def blocked_p_value(diffs, n_permutations, seed):
        """The p-value as computed before the score kinds shared one draw:
        ``rng.integers`` signs in blocks of 2**20 and one product per block."""
        observed = abs(float(diffs.mean()))
        rng = np.random.default_rng(seed)
        n = len(diffs)
        hits = 0
        remaining = n_permutations
        batch = max(1, (1 << 20) // n)
        while remaining > 0:
            m = min(batch, remaining)
            signs = rng.integers(0, 2, size=(m, n)).astype(np.float64) * 2 - 1
            hits += int((np.abs(signs @ diffs) / n >= observed).sum())
            remaining -= m
        return (1 + hits) / (1 + n_permutations)

    # 24 and 25 pairs fit 43,690 and 41,943 permutations in a block, 80 and
    # 81 pairs 13,107 and 12,945: 100,000 permutations take 3 and 8 blocks
    @pytest.mark.parametrize("n", [1, 2, 7, 24, 25, 80, 81])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_p_value_unchanged_by_blocking(self, n, seed):
        rng = np.random.default_rng(100 * n + seed)
        b = rng.normal(10.0, 2.0, size=n)
        a = b + rng.normal(0.3, 1.0, size=n)
        outcome = permutation_test(a.tolist(), b.tolist(), n_permutations=100_000, seed=seed)
        assert outcome.p_value == self.unblocked_p_value(a, b, 100_000, seed)

    # PAR-10 scores at cutoff 10 tie often: most pairs time out on both sides
    # (difference 0) and the rest repeat a few differences, so many permuted
    # means equal the observed one and a last-bit change would move hits
    @pytest.mark.parametrize("n", [1, 2, 7, 24, 25, 80, 81])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_tied_p_value_unchanged_by_blocking(self, n, seed):
        rng = np.random.default_rng(100 * n + seed)
        a = np.full(n, 100.0)
        b = np.full(n, 100.0)
        side = rng.choice(4, size=n, p=[0.6, 0.2, 0.1, 0.1])
        a[side == 1] = 2.5  # only a solves
        b[side == 2] = 2.5  # only b solves, the same difference negated
        a[side == 3], b[side == 3] = 1.25, 3.75  # both solve
        outcome = permutation_test(a.tolist(), b.tolist(), n_permutations=100_000, seed=seed)
        assert outcome.p_value == self.unblocked_p_value(a, b, 100_000, seed)

    # 50,001 permutations end on a partial block at every n; at 81 pairs a
    # block of 12,945 rows has an odd cell count, so its last 64-bit output
    # leaves a half to the next block
    @pytest.mark.parametrize("n", [24, 80, 81])
    def test_compare_shares_one_draw(self, n):
        a, b = tied_par10_reports(n, seed=1)
        outcomes = compare_reports(a, b, n_permutations=50_001, seed=3)
        assert list(outcomes) == ["timeout", "par10", "par1"]
        for kind, outcome in outcomes.items():
            vec_a, vec_b = a.score_vector(kind), b.score_vector(kind)
            scores_a, scores_b = list(vec_a.values()), [vec_b[i] for i in vec_a]
            assert outcome == permutation_test(scores_a, scores_b, n_permutations=50_001, seed=3)
            assert outcome.p_value == self.unblocked_p_value(
                np.array(scores_a), np.array(scores_b), 50_001, 3
            )

    # with 4,096-cell chunks a block spans many chunks. A chunk is a whole
    # number of 4-row slices, so a half-word is carried only out of a block
    # that starts without one and has an odd cell count: at 25 pairs into
    # row 41,944, at 81 pairs into rows 12,946 and 38,836, at 2,303 pairs
    # after every second block of 455 rows. At 2,303 and 2,304 pairs a chunk
    # is a single 4-row slice
    @pytest.mark.parametrize("n", [1, 2, 25, 81, 2303, 2304])
    @pytest.mark.parametrize("n_permutations", [1, 4, 12_946, 50_001])
    def test_p_value_unchanged_by_chunk_edges(self, monkeypatch, n, n_permutations):
        a, b = tied_par10_reports(n, seed=2)
        default = compare_reports(a, b, n_permutations=n_permutations, seed=4)
        monkeypatch.setattr(acpp.evaluation, "_CHUNK_CELLS", 4096)
        outcomes = compare_reports(a, b, n_permutations=n_permutations, seed=4)
        assert outcomes == default
        for kind, outcome in outcomes.items():
            vec_a, vec_b = a.score_vector(kind), b.score_vector(kind)
            diffs = np.array(list(vec_a.values())) - np.array([vec_b[i] for i in vec_a])
            assert outcome.p_value == self.blocked_p_value(diffs, n_permutations, 4)

    # a NaN, or inf - inf, made every comparison false, so p came out as
    # 1 / (1 + n_permutations) and "significant"
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "a, b", [(float("nan"), 1.0), (float("inf"), float("inf")), (float("inf"), 1.0)]
    )
    def test_non_finite_differences_rejected(self, a, b):
        with pytest.raises(ValueError, match="must be finite"):
            permutation_test([1.0, a, 2.0], [1.0, b, 1.0], n_permutations=1000)

    # numpy reports its buffers to tracemalloc; the signs of 100,000
    # permutations of 80 pairs would take 61 MiB as float64
    def test_compare_memory_does_not_grow_with_permutations(self):
        a, b = tied_par10_reports(80, seed=1)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            compare_reports(a, b, n_permutations=100_000)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2 << 20

    def test_compare_needs_pairs_and_permutations(self):
        empty = make_report("empty", [], 10.0)
        with pytest.raises(ValueError, match="at least one pair"):
            compare_reports(empty, empty)
        a, b = tied_par10_reports(24, seed=0)
        with pytest.raises(ValueError, match="at least one permutation"):
            compare_reports(a, b, n_permutations=0)

    # PAR-1 differences repeat with both signs, so many permuted means equal
    # the observed one up to rounding, and a row summed on another path can
    # move the PAR-1 p-value by 1e-5: at seed 35 a two-thread OpenBLAS
    # product over a whole block does, at seed 2 row slices that are not
    # whole groups of 4 rows do
    @pytest.mark.parametrize("seed", [2, 35])
    def test_compare_output_independent_of_blas_threads(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        delta = rng.choice(
            [0.0, 1.37, -1.37, 2.91, -2.91, 0.1, -0.1, 3.3],
            size=80, p=[0.4, 0.1, 0.1, 0.1, 0.1, 0.08, 0.07, 0.05],
        )
        reports = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        write_report(make_report("a", [(RunStatus.SOLVED, 5.0)] * 80, 10.0), reports[0])
        write_report(make_report("b", [(RunStatus.SOLVED, 5.0 - x) for x in delta], 10.0), reports[1])
        src = str(Path(acpp.__file__).resolve().parents[1])

        def run(threads, *args):
            return subprocess.run(
                [sys.executable, *args],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src),
                cwd=Path(__file__).resolve().parents[1],
                capture_output=True, text=True, check=True, timeout=300,
            ).stdout

        compare = ["-m", "acpp", "compare", "--reports", *reports]
        one_thread = run("1", *compare)
        assert one_thread == run("2", *compare)
        # on one thread the whole-block products of the blocked reference sum
        # every row as the row slices do
        reference = run(
            "1", "-c",
            "import sys; from tests.test_evaluation import blocked_compare_lines; "
            "print(*blocked_compare_lines(*sys.argv[1:]), sep='\\n')",
            *reports,
        )
        assert len(reference.splitlines()) == 3
        for line in reference.splitlines():
            assert line in one_thread


class TestReports:
    def _report(self, space, label="a", jitter=0.0, fast=2.0):
        backend = backend_with(fast=fast, n=5)
        config = make_config(space, {"strategy": "fast"})
        instances = [Instance(f"i{j}") for j in range(5)]
        return run_test_protocol(backend, [config], instances, 60.0, label=label)

    def test_roundtrip(self, space, tmp_path):
        report = self._report(space)
        path = tmp_path / "report.json"
        write_report(report, path)
        again = read_report(path)
        assert again == report

    def test_dict_roundtrip(self, space):
        report = self._report(space)
        assert report_from_dict(report_to_dict(report)) == report

    def test_table_columns(self, space):
        table = format_table([self._report(space, label="mine")])
        assert "#TOs" in table and "PAR-10" in table and "PAR-1" in table
        assert "mine" in table

    def test_compare_reports_three_score_kinds(self, space):
        a = self._report(space, label="a", fast=2.0)
        b = self._report(space, label="b", fast=30.0)
        outcomes = compare_reports(a, b, n_permutations=2000, seed=5)
        assert set(outcomes) == {"timeout", "par10", "par1"}
        assert outcomes["par10"].observed_mean_difference < 0

    def test_compare_requires_same_instances(self, space):
        a = self._report(space)
        b_backend = backend_with(n=3)
        config = make_config(space, {"strategy": "fast"})
        b = run_test_protocol(b_backend, [config], [Instance("other")], 60.0)
        with pytest.raises(ValueError, match="instance sets"):
            compare_reports(a, b, n_permutations=10)

    def test_compare_requires_same_cutoff(self, space, tmp_path, caplog):
        a = self._report(space)
        b = dataclasses.replace(self._report(space, label="b"), cutoff=30.0)
        with pytest.raises(ValueError, match="different cutoffs"):
            compare_reports(a, b, n_permutations=10)
        write_report(a, tmp_path / "a.json")
        write_report(b, tmp_path / "b.json")
        argv = ["compare", "--reports", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        assert run_command(argv) == 1
        assert "different cutoffs (60.0 and 30.0)" in caplog.text

    def test_compare_rejects_non_finite_scores(self, space, tmp_path, caplog):
        a = self._report(space)
        first = dataclasses.replace(a.per_instance[0], runtime=float("nan"))
        b = dataclasses.replace(a, label="b", per_instance=(first, *a.per_instance[1:]))
        with pytest.raises(ValueError, match="must be finite"):
            compare_reports(a, b, n_permutations=10)
        write_report(a, tmp_path / "a.json")
        write_report(b, tmp_path / "b.json")
        argv = ["compare", "--reports", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        assert run_command(argv) == 1
        assert "score differences must be finite" in caplog.text

    # the set check passed, and the repeated pair was counted twice
    def test_compare_rejects_repeated_instances(self, space):
        a = self._report(space)
        twice = dataclasses.replace(a, per_instance=a.per_instance + a.per_instance[:1])
        with pytest.raises(ValueError, match="lists instance 'i0' more than once"):
            compare_reports(twice, twice, n_permutations=10)
        with pytest.raises(ValueError, match="more than once"):
            compare_reports(a, twice, n_permutations=10)
