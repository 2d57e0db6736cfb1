import argparse
import json
from pathlib import Path

import pytest

from acpp.cli import parse_duration, read_portfolio, run_command
from acpp.core import RunStatus
from acpp.evaluation import write_report
from acpp.scenario import ScenarioError, load_scenario
from acpp.synthetic import SyntheticBackend, generate_synthetic_scenario, write_scenario_files
from tests.test_evaluation import make_report


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,expected",
        [("36h", 36 * 3600.0), ("90m", 5400.0), ("120s", 120.0), ("42", 42.0), ("1.5h", 5400.0)],
    )
    def test_units(self, text, expected):
        assert parse_duration(text) == expected

    def test_bad_input(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_duration("soon")

    @pytest.mark.parametrize("text", ["nan", "inf", "1e400", "infh", "1e305h"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="finite"):
            parse_duration(text)


class TestPlanCommand:
    def test_prints_paper_scale_total(self, capsys):
        code = run_command(
            ["plan", "--method", "pcit", "--k", "8", "--tc", "36h", "--tv", "4h", "--r", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3200h" in out
        assert "6h, 6h, 6h, 18h" in out

    def test_parhydra_plan(self, capsys):
        code = run_command(
            ["plan", "--method", "parhydra", "--k", "8", "--tc", "6h", "--tv", "4h", "--r", "10", "--b", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3600h" in out

    def test_invalid_block_size_fails(self, capsys):
        code = run_command(
            ["plan", "--method", "parhydra", "--k", "8", "--tc", "6h", "--tv", "4h", "--b", "3"]
        )
        assert code == 1


class TestSynthGen:
    def test_deterministic_bytes(self, tmp_path):
        args = [
            "synth-gen", "--families", "3", "--configs", "5", "--instances", "12",
            "--seed", "7",
        ]
        assert run_command(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert run_command(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("scenario.json", "space.txt", "features.csv", "synthetic.json",
                     "train_instances.txt", "test_instances.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_scenario_roundtrips_through_loader(self, tmp_path):
        run_command(
            ["synth-gen", "--families", "2", "--configs", "4", "--instances", "10",
             "--seed", "3", "--out-dir", str(tmp_path)]
        )
        bundle = load_scenario(tmp_path / "scenario.json")
        assert bundle.scenario.k == 2
        assert len(bundle.scenario.train_instances) == 10
        assert len(bundle.scenario.test_instances) == 10
        backend = bundle.make_backend()
        assert backend.label == "synthetic"

    @pytest.mark.parametrize(
        "flags, message",
        [(["--noise", "1.5"], "noise must lie in [0, 1), got 1.5"),
         (["--noise", "nan"], "noise must lie in [0, 1), got nan"),
         (["--cutoff", "nan"], "cutoff must be positive and finite, got nan"),
         (["--cutoff", "inf"], "cutoff must be positive and finite, got inf"),
         (["--instances", "6", "--k", "8"], "cannot split 6 training instances into k=8")],
    )
    def test_invalid_parameters_exit_one(self, tmp_path, caplog, flags, message):
        args = ["synth-gen", "--families", "3", "--configs", "5", "--instances", "12",
                "--out-dir", str(tmp_path / "scen"), *flags]
        assert run_command(args) == 1
        assert message in caplog.text
        assert not (tmp_path / "scen").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature_rejected(self, tmp_path, bad):
        run_command(
            ["synth-gen", "--families", "2", "--configs", "4", "--instances", "10",
             "--seed", "3", "--out-dir", str(tmp_path)]
        )
        features = tmp_path / "features.csv"
        lines = features.read_text().splitlines()
        cells = lines[3].split(",")
        cells[-1] = bad
        lines[3] = ",".join(cells)
        features.write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match=r"features\.csv line 4: .*finite"):
            load_scenario(tmp_path / "scenario.json")


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("scen")
    synthetic = generate_synthetic_scenario(
        n_families=2, n_configs=4, n_train=12, k=2, seed=5, cutoff=20.0
    )
    write_scenario_files(
        synthetic, path, defaults={"t_c": 400.0, "t_v": 150.0, "r": 2, "n": 2}
    )
    return path


class TestPipeline:
    def test_construct_test_compare(self, scenario_dir, tmp_path, capsys):
        scenario = str(scenario_dir / "scenario.json")
        out_a = tmp_path / "pcit"
        out_b = tmp_path / "pcrs"
        assert run_command(
            ["construct", "--method", "pcit", "--scenario", scenario,
             "--seed", "1", "--out-dir", str(out_a), "--cores", "2"]
        ) == 0
        assert run_command(
            ["construct", "--method", "pcrs", "--scenario", scenario,
             "--seed", "1", "--out-dir", str(out_b), "--cores", "2"]
        ) == 0
        portfolio_doc = json.loads((out_a / "portfolio.json").read_text())
        assert portfolio_doc["k"] == 2
        assert len(portfolio_doc["components"]) == 2
        log_lines = (out_a / "construction_log.jsonl").read_text().splitlines()
        assert any(json.loads(line)["event"] == "validation" for line in log_lines)
        # portfolio file round-trips through its parser
        bundle = load_scenario(scenario)
        portfolio = read_portfolio(out_a / "portfolio.json", bundle.scenario.space)
        assert portfolio.k == 2

        for out in (out_a, out_b):
            assert run_command(
                ["test", "--portfolio", str(out / "portfolio.json"),
                 "--scenario", scenario, "--out-dir", str(out)]
            ) == 0
            report = json.loads((out / "report.json").read_text())
            assert {"timeouts", "par10", "par1", "n_instances", "crashed"} <= set(report["summary"])
        capsys.readouterr()
        assert run_command(
            ["compare", "--reports", str(out_a / "report.json"), str(out_b / "report.json"),
             "--permutations", "2000"]
        ) == 0
        out = capsys.readouterr().out
        assert "par10" in out and "p=" in out

    def test_failed_construction_exits_one(self, scenario_dir, tmp_path, caplog, monkeypatch):
        def broken(self, config, instance, cutoff, seed):
            raise RuntimeError("no solver here")

        monkeypatch.setattr(SyntheticBackend, "run", broken)
        argv = ["construct", "--method", "pcrs", "--scenario", str(scenario_dir / "scenario.json"),
                "--cores", "1", "--out-dir", str(tmp_path)]
        assert run_command(argv) == 1
        assert "every construction repetition failed" in caplog.text
        assert not (tmp_path / "portfolio.json").exists()

        def faulty(self, config, instance, cutoff, seed):
            raise TypeError("faulty backend code")

        monkeypatch.setattr(SyntheticBackend, "run", faulty)
        with pytest.raises(TypeError, match="faulty backend code"):
            run_command(argv)

    def test_missing_scenario_is_error_exit(self, tmp_path):
        assert run_command(
            ["construct", "--method", "pcit", "--scenario", str(tmp_path / "nope.json")]
        ) == 1

    def test_unknown_method_exits_two(self, scenario_dir):
        with pytest.raises(SystemExit) as err:
            run_command(["construct", "--method", "sorcery", "--scenario", "x"])
        assert err.value.code == 2

    def test_non_finite_budget_flag_exits_two(self, scenario_dir, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_command(
                ["construct", "--method", "pcrs", "--scenario", str(scenario_dir / "scenario.json"),
                 "--tc", "nan", "--out-dir", str(tmp_path)]
            )
        assert err.value.code == 2
        assert not (tmp_path / "portfolio.json").exists()

    @pytest.mark.parametrize("cores", ["0", "-1"])
    def test_cores_must_be_positive(self, scenario_dir, tmp_path, cores):
        with pytest.raises(SystemExit) as err:
            run_command(
                ["construct", "--method", "pcrs", "--scenario", str(scenario_dir / "scenario.json"),
                 "--cores", cores, "--out-dir", str(tmp_path)]
            )
        assert err.value.code == 2
        assert not (tmp_path / "portfolio.json").exists()

    @pytest.mark.parametrize(
        "key,value",
        [("train_cutoff", float("nan")), ("train_cutoff", float("inf")),
         ("test_cutoff", float("nan")), ("defaults", {"t_c": float("nan")}),
         ("defaults", {"t_v": float("inf")})],
    )
    def test_non_finite_scenario_value_exits_one(self, scenario_dir, tmp_path, key, value):
        for path in scenario_dir.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        doc = json.loads((tmp_path / "scenario.json").read_text())
        doc[key] = value
        # json writes these as the non-standard NaN and Infinity tokens,
        # which json.loads reads back
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_command(
            ["construct", "--method", "pcrs", "--scenario", str(tmp_path / "scenario.json"),
             "--out-dir", str(out)]
        ) == 1
        assert not out.exists()


class TestDamagedFiles:
    """A report or portfolio file that lacks a field ends the command with
    exit 1 and a message naming the field, not with a traceback."""

    @pytest.mark.parametrize("path", ["summary.crashed", "per_instance", "cutoff", "repetitions"])
    def test_report_missing_field(self, tmp_path, caplog, capsys, path):
        reports = [tmp_path / "a.json", tmp_path / "b.json"]
        for report in reports:
            write_report(make_report("a", [(RunStatus.SOLVED, 2.0)] * 4, 10.0), report)
        doc = json.loads(reports[1].read_text())
        *parents, field = path.split(".")
        owner = doc
        for key in parents:
            owner = owner[key]
        del owner[field]
        reports[1].write_text(json.dumps(doc))
        argv = ["compare", "--reports", *map(str, reports), "--permutations", "100"]
        assert run_command(argv) == 1
        assert f"report has no field '{field}'" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_portfolio_missing_components(self, scenario_dir, tmp_path, caplog, capsys):
        portfolio = tmp_path / "portfolio.json"
        portfolio.write_text(json.dumps({"k": 2, "method": "pcit"}))
        argv = ["test", "--portfolio", str(portfolio),
                "--scenario", str(scenario_dir / "scenario.json"), "--out-dir", str(tmp_path)]
        assert run_command(argv) == 1
        assert "portfolio has no field 'components'" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
