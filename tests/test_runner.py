import math
import os
import stat
import textwrap
import time

import pytest

from acpp.core import Instance, RunStatus, penalized_score
from acpp.runner import BudgetLedger, ExternalBackend, evaluate_portfolio, execute_run
from acpp.space import make_config, parse_space
from acpp.synthetic import SyntheticBackend, SyntheticScenarioSpec


@pytest.fixture
def space():
    return parse_space("strategy categorical {fast, slow} [fast]\n")


def manual_spec(cutoff=20.0, fast=4.0, slow=35.0):
    return SyntheticScenarioSpec(
        instance_family={"i1": 0, "i2": 0},
        cost_table=((fast, slow),),
        values=("fast", "slow"),
        hardness={},
        cutoff=cutoff,
    )


class TestLedger:
    def test_charges_accumulate(self):
        ledger = BudgetLedger()
        ledger.charge(5.0, "configuration", phase="phase1")
        ledger.charge(2.0, "validation")
        assert ledger.configuration_time == 5.0
        assert ledger.validation_time == 2.0
        assert ledger.total == 7.0
        assert ledger.n_runs == 2
        assert ledger.by_phase == {"phase1": 5.0}
        assert ledger.charges == [(5.0, "configuration", "phase1"), (2.0, "validation", None)]

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            BudgetLedger().charge(-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BudgetLedger().charge(1.0, "wall_decor")


class TestSyntheticExecution:
    def test_solved_below_cutoff(self, space):
        backend = SyntheticBackend(manual_spec())
        config = make_config(space, {"strategy": "fast"})
        record = execute_run(backend, config, Instance("i1"), 20.0, seed=0)
        assert record.status is RunStatus.SOLVED
        assert record.runtime == pytest.approx(4.0)

    def test_clamped_to_timeout(self, space):
        backend = SyntheticBackend(manual_spec())
        config = make_config(space, {"strategy": "slow"})
        record = execute_run(backend, config, Instance("i1"), 20.0, seed=0)
        assert record.status is RunStatus.TIMEOUT
        assert record.runtime == 20.0

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf])
    def test_non_finite_cutoff_rejected_before_any_run(self, space, cutoff):
        backend = SyntheticBackend(manual_spec())
        calls = []
        solve = backend.run

        def run(*args):
            calls.append(args)
            return solve(*args)

        backend.run = run
        config = make_config(space, {"strategy": "fast"})
        with pytest.raises(ValueError, match="positive and finite"):
            execute_run(backend, config, Instance("i1"), cutoff, seed=0)
        assert calls == []

    def test_bit_deterministic(self, space):
        spec = SyntheticScenarioSpec(
            instance_family={"i1": 0},
            cost_table=((4.0, 9.0),),
            values=("fast", "slow"),
            hardness={"i1": 1.1},
            cutoff=20.0,
            noise=0.05,
        )
        backend = SyntheticBackend(spec)
        config = make_config(space, {"strategy": "fast"})
        first = execute_run(backend, config, Instance("i1"), 20.0, seed=1)
        second = execute_run(backend, config, Instance("i1"), 20.0, seed=2)
        assert first.runtime == second.runtime  # run seed does not perturb


class TestPortfolioEvaluation:
    def test_first_solver_wins(self, space):
        backend = SyntheticBackend(manual_spec(fast=3.0, slow=9.0, cutoff=20.0))
        components = [make_config(space, {"strategy": "slow"}), make_config(space, {"strategy": "fast"})]
        result = evaluate_portfolio(backend, components, Instance("i1"), 20.0, 0)
        assert result.status is RunStatus.SOLVED
        assert result.runtime == pytest.approx(3.0)
        assert result.component_index == 1

    def test_all_timeout(self, space):
        backend = SyntheticBackend(manual_spec(fast=50.0, slow=70.0, cutoff=20.0))
        components = [make_config(space, {"strategy": "fast"}), make_config(space, {"strategy": "slow"})]
        result = evaluate_portfolio(backend, components, Instance("i1"), 20.0, 0)
        assert result.status is RunStatus.TIMEOUT
        assert result.runtime == 20.0

    def test_solved_past_cutoff_scores_as_timeout(self, space):
        class LateSolver:
            label = "late"

            def run(self, config, instance, cutoff, seed):
                return RunStatus.SOLVED, cutoff + 1.0

        components = [make_config(space, {"strategy": "fast"})]
        ledger = BudgetLedger()
        result = evaluate_portfolio(LateSolver(), components, Instance("i1"), 20.0, 0, ledger=ledger)
        assert (result.status, result.runtime) == (RunStatus.TIMEOUT, 20.0)
        assert penalized_score(result.status, result.runtime, 20.0, 10) == 200.0
        assert ledger.validation_time == 20.0

    def test_component_run_accounting(self, space):
        spec = SyntheticScenarioSpec(
            instance_family={f"i{j}": 0 for j in range(10)},
            cost_table=((2.0,) * 8,),
            values=tuple(f"v{j}" for j in range(8)),
            hardness={},
            cutoff=20.0,
        )
        wide = parse_space("strategy categorical {v0, v1, v2, v3, v4, v5, v6, v7} [v0]\n")
        backend = SyntheticBackend(spec)
        components = [make_config(wide, {"strategy": f"v{j}"}) for j in range(8)]
        ledger = BudgetLedger()
        for j in range(10):
            evaluate_portfolio(backend, components, Instance(f"i{j}"), 20.0, 0, ledger=ledger)
        assert ledger.n_runs == 80  # every component run metered
        assert ledger.validation_time == pytest.approx(160.0)

    def test_programming_error_propagates(self, space):
        class FaultyBackend:
            label = "faulty"

            def run(self, config, instance, cutoff, seed):
                raise TypeError("faulty backend code")

        components = [make_config(space, {"strategy": "fast"})]
        with pytest.raises(TypeError, match="faulty backend code"):
            evaluate_portfolio(FaultyBackend(), components, Instance("i1"), 10.0, 0)

    def test_backend_failure_crashes_one_component(self, space):
        solver = SyntheticBackend(manual_spec(fast=3.0, slow=9.0, cutoff=20.0))
        calls = []

        class FlakyBackend:
            label = "flaky"

            def run(self, config, instance, cutoff, seed):
                calls.append(config["strategy"])
                if config["strategy"] == "fast":
                    raise RuntimeError("solver exploded")
                return solver.run(config, instance, cutoff, seed)

        components = [make_config(space, {"strategy": "fast"}), make_config(space, {"strategy": "slow"})]
        ledger = BudgetLedger()
        result = evaluate_portfolio(FlakyBackend(), components, Instance("i1"), 20.0, 0, ledger=ledger)
        assert calls == ["fast", "slow"]
        assert (result.status, result.runtime, result.component_index) == (RunStatus.SOLVED, 9.0, 1)
        assert result.cpu_cost == ledger.validation_time == 29.0  # the crash is charged the cutoff


def make_wrapper(tmp_path, body):
    script = tmp_path / "wrapper.py"
    script.write_text(textwrap.dedent(body))
    return ["python3", str(script)]


class TestExternalBackend:
    def test_result_line_parsed(self, space, tmp_path):
        wrapper = make_wrapper(
            tmp_path,
            """\
            import sys
            print("c", "some solver noise")
            print("RESULT: SAT, 1.27")
            """,
        )
        backend = ExternalBackend(wrapper)
        config = make_config(space, {"strategy": "fast"})
        status, runtime = backend.run(config, Instance("i1", source_path="inst.cnf"), 10.0, 7)
        assert status is RunStatus.SOLVED
        assert runtime == pytest.approx(1.27)

    def test_arguments_follow_protocol(self, space, tmp_path):
        wrapper = make_wrapper(
            tmp_path,
            """\
            import sys
            expected = ["inst.cnf", "7", "10.0", "--strategy", "fast"]
            ok = sys.argv[1:] == expected
            print("RESULT: SAT, 0.5" if ok else "RESULT: CRASHED, 0.0")
            """,
        )
        backend = ExternalBackend(wrapper)
        config = make_config(space, {"strategy": "fast"})
        status, _ = backend.run(config, Instance("i1", source_path="inst.cnf"), 10.0, 7)
        assert status is RunStatus.SOLVED

    def test_missing_result_line_is_crash(self, space, tmp_path):
        wrapper = make_wrapper(tmp_path, "print('no structured output here')\n")
        backend = ExternalBackend(wrapper)
        config = make_config(space, {"strategy": "fast"})
        status, runtime = backend.run(config, Instance("i1"), 10.0, 0)
        assert status is RunStatus.CRASHED
        assert runtime == 10.0  # no reported time, so the cutoff, not wall time

    def test_timeout_reported_as_timeout(self, space, tmp_path):
        wrapper = make_wrapper(tmp_path, "print('RESULT: TIMEOUT, 10.0')\n")
        backend = ExternalBackend(wrapper)
        config = make_config(space, {"strategy": "fast"})
        status, runtime = backend.run(config, Instance("i1"), 10.0, 0)
        assert status is RunStatus.TIMEOUT
        assert runtime == 10.0

    def test_cutoff_enforced_by_killing(self, space, tmp_path):
        wrapper = make_wrapper(
            tmp_path,
            """\
            import time
            time.sleep(60)
            print("RESULT: SAT, 60.0")
            """,
        )
        backend = ExternalBackend(wrapper, grace=0.5)
        config = make_config(space, {"strategy": "fast"})
        started = time.monotonic()
        status, runtime = backend.run(config, Instance("i1"), 0.6, 0)
        assert status is RunStatus.TIMEOUT
        assert runtime == 0.6
        assert time.monotonic() - started < 10.0

    def test_reported_runtime_beyond_cutoff_is_timeout(self, space, tmp_path):
        wrapper = make_wrapper(tmp_path, "print('RESULT: SAT, 99.0')\n")
        backend = ExternalBackend(wrapper)
        config = make_config(space, {"strategy": "fast"})
        status, runtime = backend.run(config, Instance("i1"), 10.0, 0)
        assert status is RunStatus.TIMEOUT
        assert runtime == 10.0

    def test_spawn_failure_surfaces(self, space):
        backend = ExternalBackend(["/definitely/not/a/real/binary"])
        config = make_config(space, {"strategy": "fast"})
        with pytest.raises(OSError):
            backend.run(config, Instance("i1"), 5.0, 0)

    def test_portfolio_first_success_cancels_rest(self, space, tmp_path):
        wrapper = make_wrapper(
            tmp_path,
            """\
            import sys, time
            # the 'fast' configuration answers quickly, 'slow' would take 30s
            if sys.argv[4:6] == ["--strategy", "fast"]:
                time.sleep(0.2)
                print("RESULT: SAT, 0.2")
            else:
                time.sleep(30)
                print("RESULT: SAT, 30.0")
            """,
        )
        backend = ExternalBackend(wrapper, grace=0.5)
        components = [make_config(space, {"strategy": "slow"}), make_config(space, {"strategy": "fast"})]
        started = time.monotonic()
        result = evaluate_portfolio(backend, components, Instance("i1"), 8.0, 0)
        elapsed = time.monotonic() - started
        assert result.status is RunStatus.SOLVED
        assert result.component_index == 1
        assert result.runtime == pytest.approx(0.2, abs=0.05)
        assert elapsed < 6.0  # the slow component was terminated early

    def test_portfolio_scored_on_reported_clock(self, tmp_path):
        # s01 finishes last in wall time but reports the faster solve
        wrapper = make_wrapper(
            tmp_path,
            """\
            import sys, time
            if sys.argv[5] == "s01":
                time.sleep(0.3)
                print("RESULT: SAT, 0.1")
            else:
                print("RESULT: SAT, 5.0")
            """,
        )
        space = parse_space("strategy categorical {s01, s02} [s01]\n")
        components = [make_config(space, {"strategy": value}) for value in ("s01", "s02")]
        backend = ExternalBackend(wrapper)
        ledger = BudgetLedger()
        result = evaluate_portfolio(backend, components, Instance("i1"), 10.0, 0, ledger=ledger)
        assert (result.status, result.runtime, result.component_index) == (RunStatus.SOLVED, 0.1, 0)
        assert result.cpu_cost == ledger.validation_time == 5.1

    def test_killed_wrapper_charged_best_reported_time(self, space, tmp_path):
        wrapper = make_wrapper(
            tmp_path,
            """\
            import sys, time
            if sys.argv[5] == "slow":
                time.sleep(30)
            print("RESULT: SAT, 0.25")
            """,
        )
        backend = ExternalBackend(wrapper, grace=0.5)
        components = [make_config(space, {"strategy": value}) for value in ("slow", "fast")]
        started = time.monotonic()
        result = evaluate_portfolio(backend, components, Instance("i1"), 8.0, 0)
        assert time.monotonic() - started < 6.0
        assert (result.status, result.runtime, result.component_index) == (RunStatus.SOLVED, 0.25, 1)
        assert result.cpu_cost == 0.5  # the killed wrapper is charged the winner's 0.25

    def test_portfolio_component_that_cannot_start_crashes(self, space, tmp_path):
        wrapper = make_wrapper(tmp_path, "print('RESULT: SAT, 2.0')\n")
        backend = ExternalBackend(wrapper)
        spawn = backend._spawn

        def flaky_spawn(config, instance, cutoff, seed):
            if config["strategy"] == "slow":
                raise OSError("cannot start")
            return spawn(config, instance, cutoff, seed)

        backend._spawn = flaky_spawn
        components = [make_config(space, {"strategy": value}) for value in ("slow", "fast")]
        result = backend.run_portfolio(components, Instance("i1"), 8.0, 0)
        assert (result.status, result.runtime, result.component_index) == (RunStatus.SOLVED, 2.0, 1)
        assert result.cpu_cost == 10.0  # the crash is charged the cutoff
