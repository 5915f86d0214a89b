"""Tests of the benchmark itself: python -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json

import pytest

import checks
import gen
import run
import spans

dcrsim = run.import_dcrsim()

SMALL = {
    "churn": dataclasses.replace(gen.CHURN, n=12, vms=10, lifecycles=30, packets=30,
                                 users=5, flood_window=30.0),
    "traffic": dataclasses.replace(gen.TRAFFIC, n=16, vms=8, lifecycles=6,
                                   packets=80, users=10),
}


def _run_workload(tmp_path, shape: str, seed: int) -> run.RunWorkload:
    w = run.RunWorkload(dcrsim, SMALL[shape], seed, str(tmp_path))
    assert w.job() == 0
    return w


def _small_compare(tmp_path, seed: int = 3) -> run.CompareWorkload:
    w = run.CompareWorkload(dcrsim, seed, str(tmp_path))
    w.N = 20
    assert w.job() == 0
    return w


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_generator_is_deterministic_per_seed(shape):
    spec = SMALL[shape]
    assert gen.generate(spec, 5) == gen.generate(spec, 5)
    assert gen.generate(spec, 5).scenario_text != gen.generate(spec, 6).scenario_text


def test_generator_writes_times_exactly():
    inputs = gen.generate(SMALL["churn"], 1)
    events = dcrsim.parse_scenario(inputs.scenario_text)
    written = [line.split()[0] for line in inputs.scenario_text.splitlines()]
    assert [repr(ev.time) for ev in events] == written
    assert max(ev.time for ev in events) == inputs.probe_time


@pytest.mark.parametrize("shape", sorted(SMALL))
@pytest.mark.parametrize("seed", range(8))
def test_generated_scenarios_run_and_pass_the_checks(tmp_path, shape, seed):
    w = _run_workload(tmp_path, shape, seed)
    checked = w.check()
    assert checked["notifications"] == SMALL[shape].lifecycles


def test_full_size_scenarios_parse_and_validate():
    for spec in (gen.CHURN, gen.TRAFFIC):
        inputs = gen.generate(spec, 0)
        t = dcrsim.parse_topology(inputs.topology_text)
        events = dcrsim.parse_scenario(inputs.scenario_text)
        assert len(events) == inputs.lines
        dcrsim.Simulation(t, dcrsim.build_overlay(t, 1), events)


def _drop_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:2] + lines[3:])


def _flip_byte(text: str) -> str:
    # Change the last digit of the first row's last number.
    head, _, rest = text.partition("\n")
    row, _, tail = rest.partition("\n")
    i = max(row.rfind(d) for d in "0123456789")
    row = row[:i] + str((int(row[i]) + 1) % 10) + row[i + 1:]
    return f"{head}\n{row}\n{tail}"


@pytest.mark.parametrize("damage", [_drop_row, _flip_byte])
def test_run_checks_reject_damaged_output(tmp_path, damage):
    w = _run_workload(tmp_path, "churn", 2)
    w.check()
    checks.write_text(w.csv, damage(checks.read_text(w.csv)))
    with pytest.raises(checks.CheckFailed):
        w.check()


@pytest.mark.parametrize("damage", [_drop_row, _flip_byte])
def test_compare_checks_reject_damaged_output(tmp_path, damage):
    w = _small_compare(tmp_path)
    w.check()
    checks.write_text(w.csv, damage(checks.read_text(w.csv)))
    with pytest.raises(checks.CheckFailed):
        w.check()


def test_known_answers_hold_and_catch_a_change(tmp_path):
    known = checks.KnownAnswers(str(tmp_path))
    assert [dcrsim.cli.main(argv) for argv in known.commands] == [0, 0]
    known.check()
    report = known.commands[0][known.commands[0].index("--out") + 1]
    checks.write_text(report, _flip_byte(checks.read_text(report)))
    with pytest.raises(checks.CheckFailed):
        known.check()


def test_tracer_counts_every_heap_event_and_restores(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("protocol.gone", "dcrsim.protocol", "no_such_function"),
        ("simulator.gone", "dcrsim.simulator", "Simulation.no_such_method")))
    original_step = dcrsim.Simulation.step
    original_nearest = dcrsim.simulator.nearest_dcr
    w = run.RunWorkload(dcrsim, SMALL["churn"], 4, str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dcrsim.simulator.nearest_dcr is not original_nearest
        assert dcrsim.protocol.nearest_dcr is dcrsim.simulator.nearest_dcr
        assert dcrsim.cli.main(w.argv) == 0
    finally:
        tracer.uninstall()
    assert dcrsim.Simulation.step is original_step
    assert dcrsim.simulator.nearest_dcr is original_nearest
    assert tracer.absent == ["protocol.gone", "simulator.gone"]

    s = tracer.summarize()
    spec, inputs = SMALL["churn"], w.inputs
    # One step per scenario line, per DCR per flood and per send, and a last
    # one that finds the heap empty.
    assert s.calls["simulator.step"] == (inputs.lines + spec.n * inputs.notifications
                                         + inputs.sends + 1)
    assert s.step_calls["apply"] == s.calls["protocol.apply"] == spec.n * inputs.notifications
    assert s.step_calls["lifecycle"] == inputs.notifications + spec.vms
    assert s.step_calls["deliver"] == inputs.sends
    assert s.calls["cli.main"] == 1
    # Self times partition the root span.
    assert sum(s.self_s.values()) == pytest.approx(s.incl_s["cli.main"])


def test_emitted_metrics_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)
    end_to_end = run.end_to_end_metrics(10, [1.0, 2.0], [0.5])
    per_layer, attributed = run.layer_metrics(spans.Summary(), 1, [2.0], [1.0], [])
    for emitted, kind in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
        assert {k: v["unit"] for k, v in emitted.items()} == {
            m["name"]: m["unit"] for m in declared[kind]}
    assert attributed["bench.unattributed_s"] == 2.0
