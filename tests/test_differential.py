"""The simulator against the eager oracle in `oracles.py`.

The oracle writes every DCR's table on every flood; the simulator evaluates
a table only when a packet reads it. The oracle also routes, formats and
reports each packet with its own code, while the simulator records each
delivery once and renders the report from the records. Both must give the
same report and trace bytes, the same packet records, sessions and
counters, and the same tables and in-flight counts wherever the run is
paused.
"""

import pytest

from dcrsim import (EventKind, Point, ScenarioEvent, Simulation, VmMode,
                    build_overlay, generate_random_topology, load_scenario,
                    load_topology, parse_scenario, run_scenario)

import scenariogen
from conftest import example_path, golden_path
from oracles import EagerSimulation, as_library_table, packet_records

SCENARIOS = ("migration", "replication", "destruction", "stretch")


def assert_same_output(topology, overlay, events, label):
    lazy = run_scenario(topology, overlay, events)
    eager = EagerSimulation(topology, overlay, events).run()
    assert lazy.to_csv() == eager.to_csv(), label
    assert lazy.trace_lines == eager.trace_lines, label
    assert lazy.sessions == eager.sessions, label
    for counter in ("notifications", "duplicate_notifications", "session_breaks",
                    "tunnel_header_bytes"):
        assert getattr(lazy, counter) == getattr(eager, counter), (label, counter)
    # The one walk as `dcrsim run` takes it, without and with --trace.
    for trace in (False, True):
        csv, lines = Simulation(topology, overlay, events).run().render(trace=trace)
        assert csv == eager.to_csv(), label
        assert lines == (eager.trace_lines if trace else None), label


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
        assert (lazy.delivered, lazy.missed) == (eager.delivered, eager.missed), label


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
