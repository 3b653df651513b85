"""Tests of the benchmark itself: input scaling, the artifact gate and the
tracer.  Run with ``python -m pytest perfbench``."""

import gc
import json
from pathlib import Path

import pytest

import bench
import scaling
import tracing
from bamsim import metrics, scenario


def _artifacts(scn, out: Path) -> bytes:
    result = scenario.simulate(scn)
    result.metrics.write_csv(str(out / "metrics.csv"))
    metrics.write_journal(result.journal, str(out / "journal.jsonl"))
    return (out / "metrics.csv").read_bytes() + (out / "journal.jsonl").read_bytes()


@pytest.mark.parametrize("name", bench.BUNDLED)
def test_k1_scaling_reproduces_the_bundled_artifacts(name, tmp_path):
    bundled = scenario.load(name)
    scaled = scenario.parse_text(scaling.scaled_text(name, 1), source="scaled")
    bundled.run.seed = scaled.run.seed = 5
    assert _artifacts(scaled, tmp_path) == _artifacts(bundled, tmp_path)


def test_scaling_multiplies_capacity_constraints_counts_and_stop():
    base = scenario.load("exp2_hard")
    scaled = scenario.parse_text(scaling.scaled_text("exp2_hard", 16))
    assert [cap for *_l, cap in scaled.links] == [16 * cap for *_l, cap in base.links]
    assert scaled.bc_mbps == [16 * v for v in base.bc_mbps]
    assert scaled.reconfigs[0].bc_mbps == [16 * v for v in base.reconfigs[0].bc_mbps]
    assert scaled.reconfigs[0].after_request == 16 * base.reconfigs[0].after_request
    assert [d.count for d in scaled.demands] == [16 * d.count for d in base.demands]
    assert scaled.run.stop == 16 * base.run.stop
    assert scaled.classes == base.classes
    assert scaled.run.cycle_length == base.run.cycle_length


def test_references_cover_every_unit_a_seed_can_select():
    refs = json.loads(bench.REFERENCES.read_text())
    for workload in bench.WORKLOADS:
        for seed in range(50):
            for unit in bench.units_for(workload, seed):
                assert unit.key in refs
    assert bench.units_for("rdm_k16", 7) == bench.units_for("rdm_k16", 7)


def _originals():
    return [vars(owner)[attr] for owner, attr, _name, _hooks in tracing.LAYERS]


def test_traced_and_untraced_artifacts_are_identical(tmp_path):
    refs = json.loads(bench.REFERENCES.read_text())
    unit = bench.Unit("exp1_rdm", 1, 3)
    before = _originals()
    bench.run_unit(unit, {}, tmp_path, probe=tracing.Probe())
    untraced = bench.digests(tmp_path)
    bench.run_unit(unit, {}, tmp_path, tracer=tracing.Tracer())
    assert bench.digests(tmp_path) == untraced == refs[unit.key]
    assert _originals() == before


def test_wrappers_are_restored_when_a_run_raises():
    before = _originals()
    callbacks = list(gc.callbacks)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert _originals() != before
            raise RuntimeError("boom")
    assert _originals() == before
    assert gc.callbacks == callbacks


def test_self_times_are_non_negative_and_sum_to_the_traced_wall_time(tmp_path):
    refs = json.loads(bench.REFERENCES.read_text())
    tracer, tally = tracing.Tracer(), bench.Tally()
    units = [bench.Unit(name, 1, 2) for name in bench.BUNDLED]
    bench.run_pass(units, {}, tmp_path, refs, tally, tracer=tracer)
    assert tally.failed == 0
    own = tracer.span_self_ns()
    assert min(own) >= 0
    covered = sum(own) / 1e9
    assert 0.9 * tally.wall <= covered <= 1.001 * tally.wall
    request = tracer.names.index("controller.request")
    children = 0
    for span, parent in enumerate(tracer.parent):
        if parent >= 0 and tracer.name[parent] == request:
            assert tracer.lsp[span] == tracer.lsp[parent] > 0
            children += 1
    assert children > 0


def test_victim_selection_never_runs_under_mam(tmp_path):
    refs = json.loads(bench.REFERENCES.read_text())
    units = [bench.Unit(name, 1, 1) for name in ("exp1_mam", "exp2_hard", "exp2_soft")]
    tracer, tally = tracing.Tracer(), bench.Tally()
    bench.run_pass(units, {}, tmp_path, refs, tally, tracer=tracer)
    assert tally.failed == 0
    assert tracer.counts["bam.decide_calls"] > 0
    assert tracer.counts["bam.select_victims_calls"] == 0


def _probe_pass(probe, start, first_request, request, expire, end):
    """One unit with one request and one expiry, clock readings given."""
    probe.start_unit(start)
    probe._mark(first_request)
    probe.request_ns.append(request)
    probe.expire_ns.append(expire)
    probe.end_unit(end)
    probe.end_pass()


def test_probe_keeps_each_stretch_from_the_pass_that_ran_it_fastest():
    probe = tracing.Probe()
    _probe_pass(probe, 0, 10, 9, 8, 30)  # set-up 10, then 20
    _probe_pass(probe, 100, 115, 5, 4, 125)  # set-up 15, then 10
    _probe_pass(probe, 200, 207, 6, 6, 230)  # set-up 7, then 23
    assert probe.passes == 3
    assert list(probe.best_stretch) == [7, 10]
    assert list(probe.setups_ns()) == [7]
    assert (list(probe.best_request), list(probe.best_expire)) == ([5], [4])
    probe.start_unit(300)
    probe._mark(310)
    probe.end_unit(320)  # no request: not the same calls as before
    with pytest.raises(RuntimeError):
        probe.end_pass()


def test_a_hash_mismatch_counts_as_a_failed_unit(tmp_path, capsys):
    refs = json.loads(bench.REFERENCES.read_text())
    unit = bench.Unit("exp2_hard", 1, 4)
    wrong = {**refs, unit.key: {**refs[unit.key], "journal.jsonl": "0" * 64}}
    tally = bench.Tally()
    bench.run_pass([unit, unit], {}, tmp_path, wrong, tally, probe=tracing.Probe())
    assert (tally.attempted, tally.failed) == (2, 2)
    bench.run_pass([unit], {}, tmp_path, {}, tally, probe=tracing.Probe())
    assert (tally.attempted, tally.failed) == (3, 3)
    bench.run_pass([unit], {}, tmp_path, refs, tally, probe=tracing.Probe())
    assert (tally.attempted, tally.failed) == (4, 3)
    assert "differ from reference" in capsys.readouterr().err


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_results_carry_exactly_the_declared_metrics(trace, section, tmp_path):
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())[section]
    refs = json.loads(bench.REFERENCES.read_text())
    result = bench.run_workload("checked", 1, 0, trace, tmp_path, refs)
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
