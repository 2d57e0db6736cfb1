"""The traced build equals the untraced one, and tracing leaves the program
as it found it."""

import acpp.configurator
import acpp.constructors
import acpp.space
from acpp.synthetic import SyntheticBackend

import run
import workloads
from tracing import COUNTS, Tracer, use_counting_backend


class SmallPcit(workloads.PcitVsPcrs):
    t_c, t_v, r = 600.0, 200.0, 1


class SmallProduct(workloads.ProductSpaceOracle):
    t_c, t_v, r = 600.0, 200.0, 1
    optimum_tolerance = 10.0  # a tiny budget is not expected to find the optimum


class SmallCli(workloads.CliDefaultSettings):
    tc, tv, r = "300", "100", "1"


def test_traced_and_untraced_builds_are_byte_identical(tmp_path):
    use_counting_backend()
    for workload in (SmallPcit(), SmallProduct(), SmallCli()):
        tracer = Tracer()
        traced = run.run_operation(workload, 7, tmp_path / workload.name, tracer)
        assert traced.failures == (), traced.failures
        untraced = run.run_operation(workload, 7, tmp_path / workload.name, None)
        assert untraced.failures == (), untraced.failures
        assert traced.fingerprint == untraced.fingerprint
        totals = tracer.layer_totals()
        assert totals["configurator.configure"]["calls"] > 0
        for entry in totals.values():
            assert 0 <= entry["self_s"] <= entry["s"] + 1e-9


def test_uninstall_restores_every_original():
    originals = (
        acpp.configurator.sample_config,
        acpp.configurator.fit_forest,
        acpp.constructors.configure,
        SyntheticBackend.__dict__["run"],
    )
    tracer = Tracer()
    tracer.install()
    assert acpp.configurator.sample_config is not originals[0]
    tracer.uninstall()
    assert originals == (
        acpp.configurator.sample_config,
        acpp.configurator.fit_forest,
        acpp.constructors.configure,
        SyntheticBackend.__dict__["run"],
    )
    assert acpp.space.sample_config is originals[0]


def test_counting_backend_counts_runs(tmp_path):
    use_counting_backend()
    workload = SmallPcit()
    prep = workload.prepare(3, tmp_path)
    before = COUNTS.runs
    built = workload.construct(prep, tmp_path)
    assert COUNTS.runs - before == built.runs > 0
    # validation runs reach the backend but not the run store
    assert built.runs >= built.records
