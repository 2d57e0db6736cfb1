"""Golden outputs of the command-line path for every construction method.

Two small planted scenarios go through ``construct`` (each method, two
seeds, ``--cores 1``) and ``test``, all via ``run_command``.
``portfolio.json``, ``report.json`` and ``construction_log.jsonl`` must
equal the files under ``tests/golden/`` byte for byte, so a refactor that
claims to keep results can be checked against them:

- ``<method>-seed<seed>/``: a categorical-only scenario made by
  ``synth-gen``, built at ``--tc 300``;
- ``tilt/<method>-seed<seed>/``: the same shape with a real ``tilt``
  parameter and four feature columns, built at ``--tc 600``. ``synth-gen``
  has no tilt option, so this scenario is written through the library.
  Its builds draw candidate pools with a real slot, and pcit's subsets
  end some phases with different incumbents.
- ``transfer/pcit-<scenario>-seed<seed>/``: pcit on each of the two
  scenarios at ``--tc 1000``, where a repetition's subsets end their first
  phase with different incumbents. So the first transfer fits its forest,
  and later phases warm-start from incumbents other than the default.

After a change that is meant to move the outputs, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import json
from pathlib import Path

import pytest

from acpp.cli import run_command
from acpp.synthetic import generate_synthetic_scenario, write_scenario_files

GOLDEN = Path(__file__).resolve().parent / "golden"
TILT_GOLDEN = GOLDEN / "tilt"
METHODS = ("pcit", "pcrs", "global", "clustering", "parhydra")
SEEDS = (0, 1)
FILES = ("portfolio.json", "report.json", "construction_log.jsonl")
SYNTH_ARGS = ["synth-gen", "--families", "3", "--configs", "5", "--instances", "24", "--seed", "3"]
BUDGET_ARGS = ["--tc", "300", "--tv", "120", "--r", "2", "--cores", "1"]
TILT_BUDGET_ARGS = ["--tc", "600", "--tv", "120", "--r", "2", "--cores", "1"]
TRANSFER_GOLDEN = GOLDEN / "transfer"
TRANSFER_BUDGET_ARGS = ["--tc", "1000", "--tv", "120", "--r", "2", "--cores", "1"]
TRANSFER_BUILDS = (("plain", 3), ("tilt", 3))  # (scenario, seed) of each pcit build


def build(method: str, seed: int, scenario: Path, out_dir: Path, budget_args=BUDGET_ARGS) -> None:
    construct = ["construct", "--method", method, "--scenario", str(scenario),
                 "--seed", str(seed), *budget_args, "--out-dir", str(out_dir)]
    assert run_command(construct) == 0
    test = ["test", "--portfolio", str(out_dir / "portfolio.json"),
            "--scenario", str(scenario), "--out-dir", str(out_dir)]
    assert run_command(test) == 0


def make_scenario(out_dir: Path) -> Path:
    assert run_command(SYNTH_ARGS + ["--out-dir", str(out_dir)]) == 0
    return out_dir / "scenario.json"


def make_tilt_scenario(out_dir: Path) -> Path:
    synthetic = generate_synthetic_scenario(
        n_families=3, n_configs=5, n_train=24, seed=3, feature_dim=4, tilt_effect=0.3
    )
    return write_scenario_files(synthetic, out_dir)


def assert_matches(out_dir: Path, expected_dir: Path) -> None:
    for name in FILES:
        assert (out_dir / name).read_bytes() == (expected_dir / name).read_bytes(), name


@pytest.fixture(scope="module")
def scenario(tmp_path_factory) -> Path:
    return make_scenario(tmp_path_factory.mktemp("golden-scenario"))


@pytest.fixture(scope="module")
def tilt_scenario(tmp_path_factory) -> Path:
    return make_tilt_scenario(tmp_path_factory.mktemp("golden-tilt-scenario"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", METHODS)
def test_outputs_match_golden_files(method, seed, scenario, tmp_path):
    build(method, seed, scenario, tmp_path)
    assert_matches(tmp_path, GOLDEN / f"{method}-seed{seed}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", METHODS)
def test_tilt_outputs_match_golden_files(method, seed, tilt_scenario, tmp_path):
    build(method, seed, tilt_scenario, tmp_path, TILT_BUDGET_ARGS)
    assert_matches(tmp_path, TILT_GOLDEN / f"{method}-seed{seed}")


@pytest.mark.parametrize("name, seed", TRANSFER_BUILDS)
def test_transfer_outputs_match_golden_files(name, seed, scenario, tilt_scenario, tmp_path):
    path = {"plain": scenario, "tilt": tilt_scenario}[name]
    build("pcit", seed, path, tmp_path, TRANSFER_BUDGET_ARGS)
    assert_matches(tmp_path, TRANSFER_GOLDEN / f"pcit-{name}-seed{seed}")
    events = [json.loads(line) for line in (tmp_path / "construction_log.jsonl").open()]
    first_phases = [e for e in events if e["event"] == "phase_done" and e["phase"] == 1]
    assert any(len(set(e["incumbents"])) > 1 for e in first_phases)


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        scenarios = {
            "plain": make_scenario(Path(tmp) / "plain"),
            "tilt": make_tilt_scenario(Path(tmp) / "tilt"),
        }
        builds = [
            (method, seed, scenarios[name], budget_args, golden / f"{method}-seed{seed}")
            for name, budget_args, golden in (
                ("plain", BUDGET_ARGS, GOLDEN), ("tilt", TILT_BUDGET_ARGS, TILT_GOLDEN)
            )
            for method in METHODS
            for seed in SEEDS
        ]
        builds += [
            ("pcit", seed, scenarios[name], TRANSFER_BUDGET_ARGS,
             TRANSFER_GOLDEN / f"pcit-{name}-seed{seed}")
            for name, seed in TRANSFER_BUILDS
        ]
        for method, seed, path, budget_args, target in builds:
            out_dir = Path(tmp) / "out" / target.relative_to(GOLDEN)
            build(method, seed, path, out_dir, budget_args)
            target.mkdir(parents=True, exist_ok=True)
            for name in FILES:
                (target / name).write_bytes((out_dir / name).read_bytes())


if __name__ == "__main__":
    regenerate()
