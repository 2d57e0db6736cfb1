"""Golden outputs of the command-line path for every construction method.

One small planted scenario goes through ``synth-gen``, ``construct`` (each
method, two seeds, ``--cores 1``) and ``test``, all via ``run_command``.
``portfolio.json``, ``report.json`` and ``construction_log.jsonl`` must
equal the files under ``tests/golden/<method>-seed<seed>/`` byte for byte,
so a refactor that claims to keep results can be checked against them.

After a change that is meant to move the outputs, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from pathlib import Path

import pytest

from acpp.cli import run_command

GOLDEN = Path(__file__).resolve().parent / "golden"
METHODS = ("pcit", "pcrs", "global", "clustering", "parhydra")
SEEDS = (0, 1)
FILES = ("portfolio.json", "report.json", "construction_log.jsonl")
SYNTH_ARGS = ["synth-gen", "--families", "3", "--configs", "5", "--instances", "24", "--seed", "3"]
BUDGET_ARGS = ["--tc", "300", "--tv", "120", "--r", "2", "--cores", "1"]


def build(method: str, seed: int, scenario: Path, out_dir: Path) -> None:
    construct = ["construct", "--method", method, "--scenario", str(scenario),
                 "--seed", str(seed), *BUDGET_ARGS, "--out-dir", str(out_dir)]
    assert run_command(construct) == 0
    test = ["test", "--portfolio", str(out_dir / "portfolio.json"),
            "--scenario", str(scenario), "--out-dir", str(out_dir)]
    assert run_command(test) == 0


def make_scenario(out_dir: Path) -> Path:
    assert run_command(SYNTH_ARGS + ["--out-dir", str(out_dir)]) == 0
    return out_dir / "scenario.json"


@pytest.fixture(scope="module")
def scenario(tmp_path_factory) -> Path:
    return make_scenario(tmp_path_factory.mktemp("golden-scenario"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", METHODS)
def test_outputs_match_golden_files(method, seed, scenario, tmp_path):
    build(method, seed, scenario, tmp_path)
    expected_dir = GOLDEN / f"{method}-seed{seed}"
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (expected_dir / name).read_bytes(), name


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = make_scenario(Path(tmp) / "scenario")
        for method in METHODS:
            for seed in SEEDS:
                out_dir = Path(tmp) / f"{method}-seed{seed}"
                build(method, seed, path, out_dir)
                target = GOLDEN / out_dir.name
                target.mkdir(parents=True, exist_ok=True)
                for name in FILES:
                    (target / name).write_bytes((out_dir / name).read_bytes())


if __name__ == "__main__":
    regenerate()
