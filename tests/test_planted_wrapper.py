"""Builds through a real external wrapper process.

``planted_wrapper.py`` answers the wrapper protocol from a planted
scenario's ``synthetic.json``, so ``ExternalBackend`` runs, races and builds
can be checked against the in-process ``SyntheticBackend`` and the golden
files. Wrappers answer at once, so no race waits for a deadline and every
component's reported time is charged, as in process, except on the pairs
that ``--sleep-on`` names: there the race reaches its deadline and kills.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from acpp.constructors import construct_pcit, plan_budget
from acpp.core import RunStatus
from acpp.runner import ExternalBackend
from acpp.scenario import load_scenario
from acpp.space import make_config
from acpp.synthetic import SyntheticBackend, SyntheticScenarioSpec, generate_synthetic_scenario
from tests.test_constructors import FAST, SMALL_TRANSFER
from tests.test_golden import BUDGET_ARGS, GOLDEN, build, make_scenario, make_tilt_scenario

WRAPPER = Path(__file__).resolve().parent / "planted_wrapper.py"


def wrapper_argv(spec_file: Path) -> list[str]:
    # -I -S: no site packages, so the wrapper starts in tens of milliseconds
    return [sys.executable, "-I", "-S", str(WRAPPER), str(spec_file)]


def external_scenario(out_dir: Path) -> Path:
    """The plain golden scenario, run through the planted wrapper."""
    path = make_scenario(out_dir)
    doc = json.loads(path.read_text())
    doc["backend"] = {"type": "external", "wrapper": wrapper_argv(out_dir / "synthetic.json")}
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("make", [make_scenario, make_tilt_scenario])
def test_wrapper_answers_as_synthetic_backend(make, tmp_path):
    scenario_file = make(tmp_path)
    scenario = load_scenario(scenario_file).scenario
    spec_file = scenario_file.parent / "synthetic.json"
    synthetic = SyntheticBackend(SyntheticScenarioSpec.from_json(spec_file.read_text()))
    external = ExternalBackend(wrapper_argv(spec_file))
    strategies = scenario.space["strategy"].choices
    tilts = (0.5, 0.123456789, 1.0, 0.0, 0.7) if "tilt" in scenario.space else (None,) * 5
    for value, tilt in zip(strategies, tilts):
        config = make_config(
            scenario.space, {"strategy": value, **({} if tilt is None else {"tilt": tilt})}
        )
        # the scenario cutoff, and a capped one that some runs reach
        for instance, cutoff in ((scenario.train_instances[0], scenario.cutoff),
                                 (scenario.test_instances[1], 1.0)):
            expected = synthetic.run(config, instance, cutoff, 5)
            assert external.run(config, instance, cutoff, 5) == expected


@pytest.fixture(scope="module")
def pcit_builds(tmp_path_factory):
    """``construct`` and ``test`` of pcit, seed 0, on the golden scenario
    through the wrapper: twice at ``--cores 1`` and once at ``--cores 2``."""
    work = tmp_path_factory.mktemp("external")
    scenario = external_scenario(work / "scenario")
    cores_2 = [*BUDGET_ARGS[:-1], "2"]
    for name, budget_args in (("first", BUDGET_ARGS), ("again", BUDGET_ARGS), ("cores2", cores_2)):
        build("pcit", 0, scenario, work / name, budget_args)
    return work


def validation_scores(out_dir: Path) -> list:
    events = map(json.loads, (out_dir / "construction_log.jsonl").read_text().splitlines())
    return [event["scores"] for event in events if event["event"] == "validation"]


def test_pcit_build_is_repeatable_and_matches_golden(pcit_builds):
    first, again = pcit_builds / "first", pcit_builds / "again"
    for name in ("portfolio.json", "construction_log.jsonl", "report.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
    golden = GOLDEN / "pcit-seed0"
    assert (first / "report.json").read_bytes() == (golden / "report.json").read_bytes()
    built = json.loads((first / "portfolio.json").read_text())
    expected = json.loads((golden / "portfolio.json").read_text())
    assert built["components"] == expected["components"]
    # one ledger charge per race, not per component, may move the last digits
    assert math.isclose(built["consumed_cpu_time"], expected["consumed_cpu_time"], rel_tol=1e-9)
    assert validation_scores(first) == validation_scores(golden)


def test_pcit_build_on_two_cores_matches(pcit_builds):
    first, cores2 = pcit_builds / "first", pcit_builds / "cores2"
    for name in ("portfolio.json", "construction_log.jsonl", "report.json"):
        assert (cores2 / name).read_bytes() == (first / name).read_bytes(), name


def test_killed_runs_charged_their_cap_on_any_cores(tmp_path):
    """pcit through wrappers that sleep on an (instance, strategy) pair the
    planted scenario solves: each race there is killed one grace period
    after its cap and charged the cap, and the builds at one and two cores
    are equal."""
    syn = generate_synthetic_scenario(
        n_families=2, n_configs=4, n_train=8, k=2, seed=0, cutoff=1.0
    )
    spec_file = tmp_path / "synthetic.json"
    spec_file.write_text(syn.spec.to_json())
    sleep_on = ("train0005", "s03")
    argv = wrapper_argv(spec_file)
    argv[-1:-1] = ["--sleep-on", *sleep_on]
    plan = plan_budget("pcit", 2, 4.0, 0.5, 2, n=2)
    serial, threaded = (
        construct_pcit(
            syn.scenario, plan, 0, ExternalBackend(argv), settings=FAST,
            transfer_forest=SMALL_TRANSFER, cores=cores,
        )
        for cores in (1, 2)
    )
    configs = {k: c for store in serial.stores for k, c in store.known_configs().items()}
    killed = [
        (r, configs[r.config_id]) for store in serial.stores for r in store.records()
        if (r.instance_id, configs[r.config_id]["strategy"]) == sleep_on
    ]
    assert killed
    for record, config in killed:
        assert syn.spec.runtime(config, record.instance_id) < record.cutoff
        assert (record.status, record.runtime) == (RunStatus.TIMEOUT, record.cutoff)
    assert threaded.portfolio == serial.portfolio
    assert threaded.events == serial.events
    assert threaded.ledger.snapshot() == serial.ledger.snapshot()
