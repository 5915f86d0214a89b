"""The simulator against the eager oracle in `oracles.py`.

The oracle writes every DCR's table on every flood; the simulator evaluates
a table only when a packet reads it. The oracle also routes, formats and
reports each packet with its own code, while the simulator records each
delivery once and renders the report from the records. Both must give the
same report and trace bytes (the summary row holds every counter, session
breaks included), the same packet records, and the same tables and
in-flight counts wherever the run is paused.
"""

import functools
import os
import runpy

import pytest

from dcrsim import (EventKind, Point, ScenarioEvent, Simulation, VmMode,
                    build_overlay, generate_random_topology, load_scenario,
                    load_topology, parse_scenario, parse_topology, run_scenario)

import scenariogen
from conftest import example_path, golden_path
from oracles import EagerSimulation, as_library_table, packet_records, summary

SCENARIOS = ("migration", "replication", "destruction", "stretch")


def assert_same_output(topology, overlay, events, label):
    lazy = run_scenario(topology, overlay, events)
    eager = EagerSimulation(topology, overlay, events).run()
    assert lazy.to_csv() == eager.to_csv(), label
    assert lazy.trace_lines == eager.trace_lines, label
    # The one walk as `dcrsim run` takes it, without and with --trace.
    for trace in (False, True):
        csv, text = Simulation(topology, overlay, events).run().render(trace=trace)
        assert csv == eager.to_csv(), label
        assert text == ("".join(line + "\n" for line in eager.trace_lines)
                        if trace else None), label


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_scenarios_match_the_eager_engine(name):
    t = load_topology(example_path("square.top"))
    events = load_scenario(example_path(f"{name}.scn"))
    assert_same_output(t, build_overlay(t, 3), events, name)


def test_users_at_negative_and_positive_zero_print_apart():
    # -0.0 == 0.0, and both hash alike, yet the two users print apart even
    # though both attach to DCR 4.
    t = load_topology(example_path("square.top"))
    events = parse_scenario("0 user a -0.0 1\n0 user b 0.0 1\n0 create v 1 anycast-migrate\n"
                            "1 send a v\n2 send b v\n3 send a v\n")
    lines = run_scenario(t, build_overlay(t, 3), events).trace_lines
    assert [line.split()[2] for line in lines] == [
        "(-0.000000,1.000000)->dcr4:1.000000", "(0.000000,1.000000)->dcr4:1.000000",
        "(-0.000000,1.000000)->dcr4:1.000000"]
    assert lines == EagerSimulation(t, build_overlay(t, 3), events).run().trace_lines


def assert_renders_as_the_eager_engine(topology, events):
    """The run's CSV and trace text, checked against the eager engine's bytes."""
    overlay = build_overlay(topology, 3)
    csv, text = run_scenario(topology, overlay, events).render(trace=True)
    eager = EagerSimulation(topology, overlay, events).run()
    assert csv == eager.to_csv()
    assert text == "".join(line + "\n" for line in eager.trace_lines)
    return csv.splitlines(), text.splitlines()


def test_a_session_shared_by_a_migrated_and_a_replicated_vm_matches_the_eager_engine():
    # s pins at dcr1 on a, and moves with a to dcr2 without a break. Its send
    # to b, which has replicated from dcr2 to dcr1, is answered at dcr1: a
    # switch away from dcr2, by a replicated VM, which breaks s. Whether a
    # send breaks its session depends on the mode of the VM it is sent to.
    t = load_topology(example_path("square.top"))
    events = parse_scenario("0 user u 1 1\n0 create a 1 anycast-migrate\n"
                            "0 create b 2 anycast-replicate\n1 send u a session s\n"
                            "10 migrate a 2\n50 send u a session s\n"
                            "60 replicate b 2 1\n110 send u b session s\n")
    rows, _ = assert_renders_as_the_eager_engine(t, events)
    assert [row.split(",")[7] for row in rows[1:-1]] == ["1", "2", "1"]
    assert " session_breaks=1 " in rows[-1]


def test_render_prints_unicast_rows_percent_names_and_negative_zero_as_the_eager_engine():
    # Names holding `%` go into the templates as values; the unicast rows are
    # direct (tunneled=0), one delivered and one missed after its DC is gone.
    t = load_topology(example_path("square.top"))
    events = parse_scenario("0 user u%s -0.0 1\n0 user %(x)s 9.9 0.3\n"
                            "0 create v%d%% 1 unicast\n0 create w 2 anycast-migrate\n"
                            "1 send u%s v%d%% session %(x)s\n2 send %(x)s w session s%%\n"
                            "20 destroy v%d%% 1\n20 migrate w 3\n"
                            "21 send u%s v%d%%\n21 send u%s w\n")
    rows, lines = assert_renders_as_the_eager_engine(t, events)
    assert rows[1:5] == [
        "0,2.000000,%(x)s,w,s%%,3,2,2,10.316228,1,1.063472,0.615712,9.700515,0",
        "1,1.000000,u%s,v%d%%,%(x)s,,1,1,9.000000,0,1.000000,0.000000,9.000000,0",
        "2,21.000000,u%s,w,,4,2,MISS,15.142136,1,,,,",
        "3,21.000000,u%s,v%d%%,,,1,MISS,9.000000,0,,,,"]
    assert lines == [
        "PKT 2.000000 (9.900000,0.300000)->dcr3:0.316228 dcr3->dcr2:10.000000 "
        "delay=10.316228 tunneled=1 result=dcr2",
        "PKT 1.000000 (-0.000000,1.000000)->dcr1:9.000000 delay=9.000000 tunneled=0 result=dcr1",
        "NOTIFY 0 MIGRATION 2:0 3",
        "PKT 21.000000 (-0.000000,1.000000)->dcr4:1.000000 dcr4->dcr2:14.142136 "
        "delay=15.142136 tunneled=1 result=MISS",
        "PKT 21.000000 (-0.000000,1.000000)->dcr1:9.000000 delay=9.000000 tunneled=0 result=MISS"]


def test_render_numbers_and_orders_rows_across_its_blocks():
    # 2200 sends and 11 floods: render formats the stream in blocks (of 256
    # entries), and neither the packet numbers nor the line order see the edges.
    t = load_topology(example_path("square.top"))
    lines = ["0 user u 1 1", "0 create v 1 anycast-migrate"]
    lines += [f"{100 * k} migrate v {k % 4 + 1}" for k in range(1, 12)]
    lines += [f"{1 + 0.5 * i} send u v" for i in range(2200)]
    rows, trace = assert_renders_as_the_eager_engine(t, parse_scenario("\n".join(lines)))
    assert [row.split(",")[0] for row in rows[1:-1]] == [str(i) for i in range(2200)]
    assert len(trace) == 2211 and sum(line.startswith("NOTIFY ") for line in trace) == 11
    # Stream entries 1023 and 1024, on either side of an edge.
    assert trace[1023:1025] == [
        f"PKT {time} (1.000000,1.000000)->dcr4:1.414214 dcr4->dcr1:10.000000 "
        "delay=11.414214 tunneled=1 result=MISS" for time in ("510.000000", "510.500000")]
    assert rows[1024:1026] == ["1023,512.500000,u,v,,4,1,MISS,11.414214,1,,,,",
                               "1024,513.000000,u,v,,4,1,MISS,11.414214,1,,,,"]
    assert rows[2048] == "2047,1024.500000,u,v,,4,3,3,11.414214,1,1.260489,2.358828,9.055385,0"


def differential_runs():
    """(label, topology, overlay, events) for the goldens, the generated
    corpus and the hot VM."""
    t = load_topology(example_path("square.top"))
    for name in SCENARIOS:
        yield name, t, build_overlay(t, 3), load_scenario(example_path(f"{name}.scn"))
    for seed in range(200):
        gen = scenariogen.generate(seed)
        yield f"seed {seed}", gen.topology, gen.overlay, gen.events
    yield ("hot vm", *hot_vm_scenario())


def test_packet_records_match_the_eager_engine():
    # repr tells every two floats apart, so the records match bit for bit.
    for label, topology, overlay, events in differential_runs():
        lazy = run_scenario(topology, overlay, events)
        eager = EagerSimulation(topology, overlay, events).run()
        records = packet_records(lazy)
        assert len(records) == len(eager.packets), label
        for mine, theirs in zip(records, eager.packets):
            assert repr(mine) == repr(theirs), label
        counts = summary(lazy)
        assert (counts["delivered"], counts["miss"]) == (eager.delivered, eager.missed), label


def test_scenario_corpus_matches_the_eager_engine():
    for seed in range(200):
        gen = scenariogen.generate(seed)
        assert_same_output(gen.topology, gen.overlay, gen.events, f"seed {seed}")


def hot_vm_scenario():
    """One VM migrated 60 times, faster than its floods settle, while four
    users send to it. u0 sits on DCR 3, so its packets reach their ingress at
    the send time and tie with floods started there at the same time."""
    t = generate_random_topology(5, 16)
    ids = t.ids()
    origin = t.position(3)
    users = [Point(origin.x, origin.y), Point(10.0, 90.0), Point(55.0, 45.0),
             Point(95.0, 5.0)]
    events = [ScenarioEvent(0.0, EventKind.PLACE_USER, user=f"u{i}", x=p.x, y=p.y)
              for i, p in enumerate(users)]
    events += [ScenarioEvent(0.0, EventKind.CREATE_VM, vm="hot", dc=1,
                             mode=VmMode.ANYCAST_MIGRATABLE),
               ScenarioEvent(0.0, EventKind.CREATE_VM, vm="rep", dc=2,
                             mode=VmMode.ANYCAST_REPLICATED)]
    for k in range(60):
        time = 2.0 + 4.0 * k
        dc = 3 if k % 5 == 0 else ids[(7 * k) % len(ids)]
        migrate = ScenarioEvent(time, EventKind.MIGRATE_VM, vm="hot", dc=dc)
        if k % 5 == 0:  # u0 sends just before the flood starts at its DCR, and just after
            send = ScenarioEvent(time, EventKind.SEND_PACKET, user="u0", vm="hot")
            events += [send, migrate, send]
        else:
            events.append(migrate)
        for i in range(4):
            events.append(ScenarioEvent(time + 0.5 + 0.9 * i, EventKind.SEND_PACKET,
                                        user=f"u{i}", vm="hot", session=f"s{i}"))
        if k % 10 == 3:
            events.append(ScenarioEvent(time, EventKind.REPLICATE_VM, vm="rep",
                                        src_dc=2, dst_dc=ids[k % 7 + 3]))
        if k % 10 == 8:
            events.append(ScenarioEvent(time, EventKind.DESTROY_VM_AT, vm="rep",
                                        dc=ids[(k - 5) % 7 + 3]))
        events.append(ScenarioEvent(time + 1.0, EventKind.SEND_PACKET, user="u2",
                                    vm="rep", session=f"r{k}"))
    return t, build_overlay(t, 2), events


def test_hot_vm_matches_the_eager_engine():
    t, overlay, events = hot_vm_scenario()
    assert sum(e.kind is EventKind.MIGRATE_VM for e in events) >= 50
    assert_same_output(t, overlay, events, "hot vm")


def test_hot_vm_reproduces_its_golden_report_and_trace():
    # Written before deliveries became records.
    report = run_scenario(*hot_vm_scenario())
    with open(golden_path("hotvm.report.csv"), encoding="utf-8") as f:
        assert report.to_csv() == f.read()
    with open(golden_path("hotvm.trace.txt"), encoding="utf-8") as f:
        assert "\n".join(report.trace_lines) + "\n" == f.read()


def test_hot_vm_tables_match_the_eager_engine_wherever_paused():
    t, overlay, events = hot_vm_scenario()
    lazy = Simulation(t, overlay, events)
    eager = EagerSimulation(t, overlay, events)
    for tenth in range(0, 4200, 7):
        time = tenth / 10
        lazy.run_until(time)
        eager.run_until(time)
        assert lazy.pending_floods() == eager.pending_floods(), time
        assert dict(lazy.tables) == {d: as_library_table(table)
                                     for d, table in eager.tables.items()}, time
    lazy.run()
    eager.run()
    assert lazy.pending_floods() == eager.pending_floods() == 0
    assert dict(lazy.tables) == {d: as_library_table(table)
                                 for d, table in eager.tables.items()}


@functools.cache
def bench_gen():
    """The globals of the benchmark's input generator, `bench/gen.py`, run
    from its source, so that nothing is written under `bench/`."""
    return runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir, "bench", "gen.py"))


def bench_inputs(workload):
    """The topology, alg-3 overlay and scenario of a benchmark workload at
    seed 1, as `bench/run.py` runs them."""
    gen = bench_gen()
    inputs = gen["generate"](gen[workload.upper()], 1)
    t = parse_topology(inputs.topology_text)
    return t, build_overlay(t, 3), parse_scenario(inputs.scenario_text), inputs


@pytest.mark.parametrize("workload", ["churn", "traffic"])
def test_benchmark_inputs_match_the_eager_engine(workload):
    # churn starts about one flood per time unit against a worst overlay
    # delay of about 150, so floods of one VM overlap heavily.
    t, overlay, events, _ = bench_inputs(workload)
    assert_same_output(t, overlay, events, workload)


def test_churn_tables_match_the_eager_engine_wherever_paused():
    t, overlay, events, inputs = bench_inputs("churn")
    lazy = Simulation(t, overlay, events)
    eager = EagerSimulation(t, overlay, events)
    pending = []
    for fifth in range(1, 6):
        time = inputs.last_lifecycle * fifth / 5 - 0.5
        lazy.run_until(time)
        eager.run_until(time)
        pending.append(lazy.pending_floods())
        assert pending[-1] == eager.pending_floods(), time
        assert dict(lazy.tables) == {d: as_library_table(table)
                                     for d, table in eager.tables.items()}, time
    assert min(pending) > 0  # every pause finds floods in flight
