import builtins
import gc
import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import dcrsim.overlay
import dcrsim.simulator
from dcrsim import (AnycastAddress, ConfigError, Delivery, EventKind, ModeConflict, Overlay,
                    ParseError, Point, ScenarioError, ScenarioEvent, Simulation, Topology,
                    UnicastAddress, VmMode, VmRegister,
                    build_overlay, format_scenario, format_topology, generate_random_topology,
                    load_topology, overlay_metrics, parse_scenario, parse_topology,
                    run_scenario)
from dcrsim.overlay import stages

import oracles
import scenariogen
from conftest import example_path
from oracles import dijkstra_matrix, packet_records, summary


def square() -> Topology:
    return Topology(((1, Point(0.0, 10.0)), (2, Point(10.0, 10.0)),
                     (3, Point(10.0, 0.0)), (4, Point(0.0, 0.0))))


def sim_for(events, alg=3, topology=None):
    t = topology or square()
    return Simulation(t, build_overlay(t, alg), events)


def ev(time, kind, **kw):
    return ScenarioEvent(time, kind, **kw)


BASE = [
    ev(0, EventKind.PLACE_USER, user="u1", x=1.0, y=1.0),
    ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.ANYCAST_MIGRATABLE),
]


def test_parse_scenario_all_kinds():
    text = ("# demo\n"
            "0 user u1 1 2.5\n"
            "0 create vm1 1 anycast-migrate\n"
            "1 create vm2 2 anycast-replicate\n"
            "2 create vm3 3 unicast\n"
            "3 migrate vm1 2\n"
            "4 replicate vm2 2 3\n"
            "5 destroy vm3 3\n"
            "6 send u1 vm1\n"
            "7 send u1 vm2 session s1\n")
    events = parse_scenario(text)
    assert [e.kind for e in events] == [
        EventKind.PLACE_USER, EventKind.CREATE_VM, EventKind.CREATE_VM,
        EventKind.CREATE_VM, EventKind.MIGRATE_VM, EventKind.REPLICATE_VM,
        EventKind.DESTROY_VM_AT, EventKind.SEND_PACKET, EventKind.SEND_PACKET]
    assert events[0].x == 1.0 and events[0].y == 2.5
    assert events[1].mode is VmMode.ANYCAST_MIGRATABLE
    assert events[5].src_dc == 2 and events[5].dst_dc == 3
    assert events[7].session is None
    assert events[8].session == "s1"
    assert events[8].line == 10


def test_parse_scenario_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_scenario("0 teleport vm1 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_scenario("0 user u1 1 1\n1 send u1 vm1 sess s1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_scenario("soon migrate vm1 2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_scenario("0 migrate vm1 two\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_scenario("0 create vm1 1 broadcast\n")


def test_parse_scenario_reads_a_negative_time_that_simulation_rejects():
    events = parse_scenario("-1 user u1 0 0\n")
    assert events == [ev(-1.0, EventKind.PLACE_USER, user="u1", x=0.0, y=0.0, line=1)]
    with pytest.raises(ScenarioError, match=r"^line 1: event time must be >= 0, got -1\.0$"):
        sim_for(events)


def test_a_send_naming_a_user_no_line_can_place_fails_as_an_unknown_user():
    events = parse_scenario("0 create vm1 1 unicast\n1 send a,b vm1\n")
    with pytest.raises(ScenarioError, match="^line 2: unknown user a,b$"):
        sim_for(events)


# Every kind and every mode, one event a line.
ALL_KINDS = [
    ev(0.0, EventKind.PLACE_USER, user="u1", x=1.0, y=-2.5, line=1),
    ev(0.0, EventKind.PLACE_USER, user="u2", x=12.3456789, y=0.1 + 0.2, line=2),
    ev(0.0, EventKind.CREATE_VM, vm="m", dc=1, mode=VmMode.ANYCAST_MIGRATABLE, line=3),
    ev(0.0, EventKind.CREATE_VM, vm="r", dc=2, mode=VmMode.ANYCAST_REPLICATED, line=4),
    ev(0.0, EventKind.CREATE_VM, vm="c", dc=3, mode=VmMode.UNICAST, line=5),
    ev(2.5, EventKind.MIGRATE_VM, vm="m", dc=2, line=6),
    ev(3.0, EventKind.REPLICATE_VM, vm="r", src_dc=2, dst_dc=4, line=7),
    ev(4.0, EventKind.DESTROY_VM_AT, vm="r", dc=2, line=8),
    ev(5.0, EventKind.SEND_PACKET, user="u1", vm="m", line=9),
    ev(1234.567, EventKind.SEND_PACKET, user="u2", vm="r", session="s1", line=10),
]


def test_scenario_round_trips_through_text():
    assert {e.kind for e in ALL_KINDS} == set(EventKind)
    assert {e.mode for e in ALL_KINDS} == set(VmMode) | {None}
    again = parse_scenario(format_scenario(ALL_KINDS))
    assert [tuple(e) for e in again] == [tuple(e) for e in ALL_KINDS]
    # Every field, the line included, since the events are one a line.
    for field in ScenarioEvent._fields:
        assert [getattr(e, field) for e in again] == [getattr(e, field) for e in ALL_KINDS]


def test_generated_scenarios_round_trip_through_text():
    for seed in range(200):
        events = scenariogen.generate(seed).events
        again = parse_scenario(format_scenario(events))
        # Generated events carry no line; parsed ones carry theirs.
        assert [e.line for e in again] == list(range(1, len(events) + 1))
        assert [e._replace(line=None) for e in again] == events, seed


def test_events_are_sorted_stably_by_time():
    events = [
        ev(5, EventKind.SEND_PACKET, user="u1", vm="vm1"),
        ev(0, EventKind.PLACE_USER, user="u1", x=1.0, y=1.0),
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.ANYCAST_MIGRATABLE),
    ]
    report = sim_for(events).run()
    assert packet_records(report)[0].trace.delivered_at == 1


def test_create_rejects_duplicate_name():
    events = BASE + [ev(1, EventKind.CREATE_VM, vm="vm1", dc=2,
                        mode=VmMode.UNICAST)]
    with pytest.raises(ScenarioError, match="already exists"):
        sim_for(events).run()


def test_lifecycle_mode_conflicts():
    events = BASE + [ev(1, EventKind.REPLICATE_VM, vm="vm1", src_dc=1, dst_dc=2)]
    with pytest.raises(ModeConflict):
        sim_for(events).run()
    events = [
        ev(0, EventKind.CREATE_VM, vm="vm2", dc=2, mode=VmMode.ANYCAST_REPLICATED),
        ev(1, EventKind.MIGRATE_VM, vm="vm2", dc=3),
    ]
    with pytest.raises(ModeConflict):
        sim_for(events).run()
    events = [
        ev(0, EventKind.CREATE_VM, vm="vm3", dc=2, mode=VmMode.UNICAST),
        ev(1, EventKind.MIGRATE_VM, vm="vm3", dc=3),
    ]
    with pytest.raises(ModeConflict):
        sim_for(events).run()


def test_undefined_references_fail_before_execution_starts():
    events = parse_scenario("0 migrate ghost 2\n")
    with pytest.raises(ScenarioError, match="line 1.*ghost"):
        sim_for(events)
    events = parse_scenario("0 user u1 1 1\n1 send u1 ghost\n")
    with pytest.raises(ScenarioError, match="line 2.*ghost"):
        sim_for(events)
    events = parse_scenario("0 create vm1 1 anycast-migrate\n1 send ghost vm1\n")
    with pytest.raises(ScenarioError, match="line 2.*ghost"):
        sim_for(events)
    # A name defined later in time is still undefined for an earlier send.
    events = parse_scenario("5 user u1 1 1\n1 send u1 vm1\n"
                            "0 create vm1 1 anycast-migrate\n")
    with pytest.raises(ScenarioError, match="unknown user"):
        sim_for(events)


BAD_LIFECYCLES = [
    ("0 create vm1 1 anycast-migrate\n1 create vm1 2 unicast\n",
     ScenarioError, "line 3: vm vm1 already exists"),
    ("0 create vm1 1 anycast-migrate\n1 replicate vm1 1 2\n",
     ModeConflict, "line 3: cannot replicate anycast-migrate vm vm1"),
    ("0 create vm1 1 anycast-replicate\n1 migrate vm1 2\n",
     ModeConflict, "line 3: cannot migrate anycast-replicate vm vm1"),
    ("0 create vm1 1 unicast\n1 migrate vm1 2\n",
     ModeConflict, "line 3: cannot migrate unicast vm vm1"),
    ("0 create vm1 1 unicast\n1 replicate vm1 1 2\n",
     ModeConflict, "line 3: cannot replicate unicast vm vm1"),
    ("0 create vm1 1 anycast-migrate\n1 destroy vm1 1\n2 migrate vm1 2\n",
     ScenarioError, "line 4: vm vm1 has been destroyed"),
    ("0 create vm1 1 anycast-replicate\n1 replicate vm1 3 2\n",
     ScenarioError, "line 3: vm vm1 has no replica at DC 3"),
    ("0 create vm1 1 anycast-replicate\n1 replicate vm1 1 2\n2 replicate vm1 1 2\n",
     ScenarioError, "line 4: vm vm1 already has a replica at DC 2"),
    ("0 create vm1 1 anycast-migrate\n1 destroy vm1 2\n",
     ScenarioError, "line 3: vm vm1 is not hosted at DC 2"),
]


@pytest.mark.parametrize("text, error, message", BAD_LIFECYCLES, ids=[
    "duplicate-create", "replicate-migratable", "migrate-replicated",
    "migrate-unicast", "replicate-unicast", "migrate-destroyed",
    "missing-replica-source", "existing-replica-destination",
    "destroy-at-non-host"])
def test_bad_lifecycles_fail_before_anything_runs(text, error, message, monkeypatch):
    # Valid events, a packet among them, precede the bad line, so a
    # run_until() short of it could replay them; the scenario must instead be
    # refused before anything runs.
    events = parse_scenario("0 user u1 1 1\n" + text + "0.5 send u1 vm1\n")
    placed = []
    monkeypatch.setattr(dcrsim.simulator, "nearest_among",
                        lambda points, t: placed.append(points) or [4] * len(points))
    with pytest.raises(error, match=message):
        sim_for(events)
    assert placed == []


NAMED_FIELDS = [("user", 1), ("vm", 2), ("session", 3)]


def events_naming(field, bad):
    """A placement, a creation and a send, built in code, with `bad` as the
    name in `field`, on lines 1, 2 and 3."""
    name = {"user": "u1", "vm": "vm1", "session": "s1", field: bad}
    return [ev(0, EventKind.PLACE_USER, user=name["user"], x=1.0, y=1.0, line=1),
            ev(0, EventKind.CREATE_VM, vm=name["vm"], dc=1,
               mode=VmMode.ANYCAST_MIGRATABLE, line=2),
            ev(1, EventKind.SEND_PACKET, user=name["user"], vm=name["vm"],
               session=name["session"], line=3)]


@pytest.mark.parametrize("field, line", NAMED_FIELDS)
def test_names_with_a_comma_fail_before_anything_runs(field, line):
    # Each would split its CSV row into 15 fields.
    with pytest.raises(ScenarioError, match=f"^line {line}: bad identifier 'a,b'$"):
        sim_for(events_naming(field, "a,b"))


@pytest.mark.parametrize("bad", ["u 1\n2", "", "a\tb", " a", "a\u00a0b", 'a"b', '"u'])
@pytest.mark.parametrize("field, line", NAMED_FIELDS)
def test_names_with_whitespace_or_empty_fail_before_anything_runs(field, line, bad):
    # parse_scenario splits lines on whitespace, so it never reads such a
    # name. Built in code, user 'u 1\n2' would split its CSV row over two
    # lines, and session '' would be dropped by format_scenario. A quote,
    # which the parser does read, would open a quoted CSV field that runs on
    # past the field's end.
    with pytest.raises(ScenarioError,
                       match=f"^line {line}: bad identifier {re.escape(repr(bad))}$"):
        sim_for(events_naming(field, bad))


LACKING = [
    (dict(kind=EventKind.CREATE_VM, vm="vm2", dc=1), "create event lacks its mode"),
    (dict(kind=EventKind.CREATE_VM, dc=1, mode=VmMode.UNICAST), "create event lacks its vm"),
    (dict(kind=EventKind.PLACE_USER, user="u2", y=1.0), "user event lacks its x"),
    (dict(kind=EventKind.PLACE_USER, x=1.0), "user event lacks its user, y"),
    (dict(kind=EventKind.MIGRATE_VM, vm="vm1"), "migrate event lacks its dc"),
    (dict(kind=EventKind.REPLICATE_VM, vm="vm1", src_dc=1), "replicate event lacks its dst_dc"),
    (dict(kind=EventKind.DESTROY_VM_AT, dc=1), "destroy event lacks its vm"),
]


@pytest.mark.parametrize("fields, message", LACKING, ids=[
    "create-mode", "create-vm", "user-x", "user-name-y", "migrate-dc", "replicate-dst",
    "destroy-vm"])
def test_events_lacking_a_field_fail_before_anything_runs(fields, message, monkeypatch):
    # Built in code: parse_scenario never builds such an event. A send and a
    # placement precede the bad event, which must not get as far as the replay.
    placed = []
    monkeypatch.setattr(dcrsim.simulator, "nearest_among",
                        lambda points, t: placed.append(points) or [4] * len(points))
    events = BASE + [ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1", line=3),
                     ScenarioEvent(2, line=4, **fields)]
    with pytest.raises(ScenarioError, match=f"^line 4: {message}$"):
        sim_for(events)
    assert placed == []


MISTYPED = [
    ([ScenarioEvent(None, EventKind.PLACE_USER, user="u2", x=1.0, y=1.0, line=4)],
     "event time must be a number, got None"),
    ([ScenarioEvent(Decimal("1"), EventKind.SEND_PACKET, user="u1", vm="vm1", line=4)],
     "event time must be a number, got Decimal('1')"),
    ([ScenarioEvent(Fraction(1, 3), EventKind.SEND_PACKET, user="u1", vm="vm1", line=4)],
     "event time must be a number, got Fraction(1, 3)"),
    ([ScenarioEvent(True, EventKind.PLACE_USER, user="u2", x=1.0, y=1.0, line=4)],
     "event time must be a number, got True"),
    ([ev(2, EventKind.PLACE_USER, user="u2", x="a", y=1.0, line=4)],
     "user event has a bad x: 'a'"),
    ([ev(2, EventKind.CREATE_VM, vm="vm2", dc=1, mode="anycast-migrate", line=4),
      ev(3, EventKind.MIGRATE_VM, vm="vm2", dc=2, line=5)],
     "create event has a bad mode: 'anycast-migrate'"),
    ([ev(2, "create", vm="vm2", dc=1, mode=VmMode.UNICAST, line=4)],
     "unknown event kind 'create'"),
    ([ev(2, EventKind.MIGRATE_VM, vm="vm1", dc=1.0, line=4)], "migrate event has a bad dc: 1.0"),
    ([ev(2, EventKind.MIGRATE_VM, vm="vm1", dc=True, line=4)],
     "migrate event has a bad dc: True"),
]


@pytest.mark.parametrize("bad, message", MISTYPED, ids=[
    "time-None", "time-Decimal", "time-Fraction", "time-bool", "x-str", "mode-str", "kind-str",
    "dc-float", "dc-bool"])
def test_mistyped_fields_fail_before_anything_runs(bad, message, monkeypatch):
    # Built in code: parse_scenario never builds such an event. A float or a
    # bool DC id would print as 1.0 or True in the report and the trace.
    placed = []
    monkeypatch.setattr(dcrsim.simulator, "nearest_among",
                        lambda points, t: placed.append(points) or [4] * len(points))
    events = BASE + [ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1", line=3)] + bad
    with pytest.raises(ScenarioError, match=f"^line 4: {re.escape(message)}$"):
        sim_for(events)
    assert placed == []


BAD_VALUES = [("time", math.nan, "event time must be finite, got nan"),
              ("time", math.inf, "event time must be finite, got inf"),
              ("time", -math.inf, "event time must be finite, got -inf"),
              ("time", -1.0, "event time must be >= 0, got -1.0"),
              ("time", -sys.float_info.max,
               re.escape(f"event time must be >= 0, got {-sys.float_info.max!r}"))]
BAD_VALUES += [(axis, value, r"user u2 at \(.*\): coordinates must be finite")
               for axis in ("x", "y") for value in (math.nan, math.inf, -math.inf)]
# An int compares with floats exactly, but one past the largest float is no float.
BAD_VALUES += [(axis, value, r"user u2 at \(.*\): coordinates must be finite")
               for axis in ("x", "y") for value in (10**400, -10**400)]


def _case_id(field, value):
    """The test id of a BAD_VALUES case, with an int past the largest float as 10**400."""
    if type(value) is int:
        return f"{field}-{'-' if value < 0 else ''}10**400"
    return f"{field}-{value}"


@pytest.mark.parametrize("field, value, message", BAD_VALUES,
                         ids=[_case_id(field, value) for field, value, _ in BAD_VALUES])
def test_bad_times_and_coordinates_fail_before_anything_runs(field, value, message,
                                                             monkeypatch):
    # Built in code: parse_scenario rejects such a line itself. The event
    # holds the value as given; compiling it fails, before the replay places
    # anyone.
    bad = ScenarioEvent(**{"time": 2.0, "kind": EventKind.PLACE_USER, "user": "u2",
                           "x": 1.0, "y": 1.0, "line": 4, field: value})
    assert getattr(bad, field) is value
    placed = []
    monkeypatch.setattr(dcrsim.simulator, "nearest_among",
                        lambda points, t: placed.append(points) or [4] * len(points))
    events = BASE + [ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1", line=3), bad]
    with pytest.raises(ScenarioError, match=f"^line 4: {message}$"):
        sim_for(events)
    assert placed == []


@pytest.mark.parametrize("bad", [
    ScenarioEvent(-10**400, EventKind.PLACE_USER, user="w", x=0.0, y=0.0, line=3),
    ScenarioEvent(10**400, EventKind.SEND_PACKET, user="u", vm="v", line=3),
    ScenarioEvent(10**400, EventKind.MIGRATE_VM, vm="v", dc=2, line=3),
], ids=["user", "send", "migrate"])
def test_int_times_past_the_largest_float_fail_with_their_line(bad):
    # Built in code: an int compares with floats exactly, but no float sum
    # takes one this large.
    t = Topology(((1, Point(0.0, 0.0)), (2, Point(1.0, 0.0))))
    events = [ScenarioEvent(0.0, EventKind.PLACE_USER, user="u", x=0.0, y=0.0, line=1),
              ScenarioEvent(0.0, EventKind.CREATE_VM, vm="v", dc=1,
                            mode=VmMode.ANYCAST_MIGRATABLE, line=2), bad]
    with pytest.raises(ScenarioError,
                       match=f"^line 3: event time must be finite, got {bad.time}$"):
        Simulation(t, build_overlay(t, 1), events)


def test_compiling_places_no_user_and_computes_no_delays(monkeypatch):
    events = parse_scenario("0 user u1 1 1\n0 user u2 9 9\n"
                            "0 create vm1 1 anycast-migrate\n"
                            "1 send u1 vm1\n2 migrate vm1 2\n3 send u1 vm1\n"
                            "4 user u1 5 5\n5 send u2 vm1\n")
    nearest, calls = dcrsim.simulator.nearest_among, []
    monkeypatch.setattr(dcrsim.simulator, "nearest_among",
                        lambda points, t: calls.append(points) or nearest(points, t))
    t = square()
    overlay = build_overlay(t, 3)
    sim = Simulation(t, overlay, events)
    assert calls == []
    assert "_delays" not in vars(overlay)  # the overlay's cached delay matrix
    report = sim.run()
    assert calls == [[Point(1, 1), Point(9, 9), Point(5, 5)]]  # one call places every user
    assert [p.ingress for p in packet_records(report)] == [4, 4, 2]


def test_step_replays_one_change_or_delivery_at_a_time():
    events = parse_scenario("0 user u1 1 1\n0 create vm1 1 anycast-migrate\n"
                            "1 send u1 vm1\n2 migrate vm1 2\n")
    sim = sim_for(events)
    times = []
    while sim.step():
        times.append(sim.now)
    # The create, the migration, then the delivery of the send at 1, which
    # reaches dcr4 at 1 + sqrt(2); placing a user or sending takes no step.
    assert times == [0.0, 2.0, 1.0 + math.sqrt(2)]
    assert not sim.step()


def replay_state(sim):
    return list(sim._stream), sim.now, dict(sim.tables), sim.pending_floods()


@pytest.mark.parametrize("seed", range(12))
def test_step_run_until_and_run_replay_alike_at_every_stop(seed):
    gen = scenariogen.generate(seed)

    def new():
        return Simulation(gen.topology, gen.overlay, gen.events)

    stepped, paused = new(), new()
    times = [entry[0] for entry in stepped._queue]
    # After each entry, as one step at a time leaves it.
    states = []
    while stepped.step():
        states.append(replay_state(stepped))
    assert len(states) == len(times) and stepped._next == len(times)
    for i, time in enumerate(times):
        if i + 1 < len(times) and times[i + 1] == time:
            continue  # run_until replays every entry at its time
        paused.run_until(time)
        assert replay_state(paused) == states[i], (i, time)
        if i + 1 < len(times):
            # Between two entries, as a fresh run_until to that time leaves it.
            between = (time + times[i + 1]) / 2
            paused.run_until(between)
            fresh = new()
            fresh.run_until(between)
            assert replay_state(paused) == replay_state(fresh)
            assert paused._stream == states[i][0] and paused.now == between
    ran = new()
    report = ran.run()
    assert replay_state(ran) == states[-1]
    assert report.stream == states[-1][0]


def test_run_until_replays_the_entries_at_its_time_and_no_later():
    # u's packet arrives at dcr4, 5 away, at 6, just as v migrates: both
    # are replayed at 6, the change first, and neither just before 6.
    sim = sim_for(parse_scenario("0 user u 3 4\n0 create v 1 anycast-migrate\n"
                                 "1 send u v\n6 migrate v 2\n"))
    sim.run_until(math.nextafter(6.0, 0.0))
    assert sim._stream == [] and sim._next == 1
    sim.run_until(6.0)
    assert [type(x) for x in sim._stream] == [dcrsim.Notification, Delivery]
    assert sim._next == len(sim._queue) and sim.now == 6.0


def test_run_until_before_now_or_at_nan_replays_nothing_and_at_inf_everything():
    sim = sim_for(parse_scenario("0 user u 3 4\n0 create v 1 anycast-migrate\n"
                                 "1 send u v\n6 migrate v 2\n9 send u v\n"))
    sim.run_until(7.0)
    replayed = list(sim._stream)
    for time in (3.0, math.nan):
        sim.run_until(time)
        assert (sim._stream, sim.now) == (replayed, 7.0)
    sim.run_until(math.inf)
    assert sim._next == len(sim._queue) and sim.now == math.inf
    assert len(sim._stream) == len(replayed) + 1
    assert not sim.step() and sim.now == math.inf  # a step past the end leaves `now`


def test_a_replay_that_raises_resumes_at_the_entry_it_failed_on(monkeypatch):
    events = parse_scenario("0 user u 1 1\n0 create v 1 anycast-migrate\n1 send u v\n"
                            "2 migrate v 2\n3 send u v\n4 send u v\n")
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("lookup failed")
        return dcrsim.protocol.lookup(*args)

    sim = sim_for(events)
    monkeypatch.setattr(dcrsim.simulator, "lookup", failing)
    with pytest.raises(RuntimeError):
        sim.run()
    # The create, the send at 1 and the migration are replayed; the send at
    # 3, whose lookup raised, is not.
    assert sim._next == 3 and sim._queue[3][1:3] == (1, 4)
    monkeypatch.undo()
    assert sim.run().to_csv() == sim_for(events).run().to_csv()


def test_one_session_send_pins_without_a_break():
    report = sim_for(BASE + [ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1",
                                session="s9")]).run()
    row = report.to_csv().splitlines()[1].split(",")
    assert (row[2], row[3], row[4], row[7]) == ("u1", "vm1", "s9", "1")
    assert summary(report)["session_breaks"] == 0


def test_a_report_taken_mid_run_keeps_its_sessions():
    # On examples/square.top's layout: s1 pins at dcr2 by 30, and its send at
    # 60 reaches the new replica at its ingress, dcr4, which breaks it.
    sim = sim_for(parse_scenario(
        "0 user u1 1 1\n0 create vm1 2 anycast-replicate\n1 send u1 vm1 session s1\n"
        "10 replicate vm1 2 4\n60 send u1 vm1 session s1\n"))
    sim.run_until(30)
    early, untouched = sim.report(), sim.report()
    csv = early.to_csv()
    final = sim.run()
    assert summary(final)["session_breaks"] == 1
    assert summary(early)["session_breaks"] == 0
    assert summary(early)["packets"] == 1 and summary(final)["packets"] == 2
    assert csv.splitlines()[1].split(",")[4:8] == ["s1", "4", "2", "2"]
    for report in (early, untouched):
        assert report.to_csv() == csv


def test_replicate_requires_live_source_and_fresh_destination():
    base = [ev(0, EventKind.CREATE_VM, vm="vm1", dc=2, mode=VmMode.ANYCAST_REPLICATED)]
    with pytest.raises(ScenarioError, match="no replica"):
        sim_for(base + [ev(1, EventKind.REPLICATE_VM, vm="vm1", src_dc=3, dst_dc=4)]).run()
    with pytest.raises(ScenarioError, match="already has a replica"):
        sim_for(base + [ev(1, EventKind.REPLICATE_VM, vm="vm1", src_dc=2, dst_dc=2)]).run()


def test_destroy_requires_hosting_dc():
    events = BASE + [ev(1, EventKind.DESTROY_VM_AT, vm="vm1", dc=2)]
    with pytest.raises(ScenarioError, match="not hosted"):
        sim_for(events).run()


def test_migrate_dead_vm_fails():
    events = BASE + [ev(1, EventKind.DESTROY_VM_AT, vm="vm1", dc=1),
                     ev(2, EventKind.MIGRATE_VM, vm="vm1", dc=2)]
    with pytest.raises(ScenarioError, match="destroyed"):
        sim_for(events).run()


def test_overlay_topology_mismatch():
    t = square()
    other = Topology(((1, Point(0, 0)), (2, Point(5, 5)), (3, Point(9, 1))))
    with pytest.raises(ConfigError):
        Simulation(t, build_overlay(other, 1), [])


def test_overlay_edge_cost_may_differ_from_its_length_by_exactly_1e_6():
    # 1.001e-06 - 1e-09 is exactly 1e-06 in floats; the next cost up is over.
    t = Topology(((1, Point(0.0, 0.0)), (2, Point(1e-9, 0.0))))
    assert 1.001e-06 - 1e-9 == 1e-6
    Simulation(t, Overlay((1, 2), {(1, 2): 1.001e-06}, root=1), [])
    over = math.nextafter(1.001e-06, math.inf)
    with pytest.raises(ConfigError, match="^overlay edge 1 2 costs 1.0010000000000002e-06, "
                                          "but DCRs 1 and 2 are 1e-09 apart$"):
        Simulation(t, Overlay((1, 2), {(1, 2): over}, root=1), [])


def test_packet_races_flood_and_misses():
    # vm1 leaves DC 1 at t=10; the flood reaches ingress DCR 4 at t=30, so a
    # packet arriving in between is tunneled to the stale location.
    events = BASE + [
        ev(10, EventKind.MIGRATE_VM, vm="vm1", dc=2),
        ev(12, EventKind.SEND_PACKET, user="u1", vm="vm1"),
        ev(50, EventKind.SEND_PACKET, user="u1", vm="vm1"),
    ]
    report = sim_for(events).run()
    racing, settled = packet_records(report)
    assert racing.trace.delivered_at is None
    assert racing.target == 1
    assert settled.trace.delivered_at == 2
    assert settled.target == 2


def addresses(text):
    """Each VM's address after running the scenario text on the square."""
    sim = sim_for(parse_scenario(text))
    sim.run()
    return {name: vm.address for name, vm in sim.vms.items()}


def test_vm_addresses_count_from_zero_per_dc():
    assert addresses("0 create a 2 anycast-migrate\n1 create b 2 anycast-replicate\n"
                     "2 create c 3 anycast-migrate\n") == {
        "a": AnycastAddress(2, 0), "b": AnycastAddress(2, 1), "c": AnycastAddress(3, 0)}


def test_anycast_and_unicast_addresses_count_independently():
    assert addresses("0 create a 1 anycast-migrate\n1 create u 1 unicast\n"
                     "2 create v 1 unicast\n3 create b 1 anycast-replicate\n") == {
        "a": AnycastAddress(1, 0), "u": UnicastAddress(1, 0),
        "v": UnicastAddress(1, 1), "b": AnycastAddress(1, 1)}


def test_flood_applies_origin_first_then_by_distance():
    events = [ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.ANYCAST_MIGRATABLE),
              ev(10, EventKind.MIGRATE_VM, vm="vm1", dc=2)]
    sim = sim_for(events)
    addr = None
    sim.run_until(10.0)
    addr = sim.vms["vm1"].address
    # Origin DCR 2 applied at t=10; DCRs 1 and 3 are 10 away, DCR 4 is 20 away.
    assert sim.tables[2][addr] == VmRegister((0, 2), {}, {})
    assert addr not in sim.tables[1]
    sim.run_until(20.0)
    assert sim.tables[1][addr].hosts() == frozenset({2})
    assert sim.tables[3][addr].hosts() == frozenset({2})
    assert addr not in sim.tables[4]
    sim.run_until(30.0)
    assert sim.tables[4][addr].hosts() == frozenset({2})


def test_one_ingress_reads_a_replicated_vm_across_replicas_coming_and_going():
    # u1 attaches to dcr4 at (0,0). Each read comes after its flood has
    # settled, so it reads the VM's settled register, whose nearest host from
    # dcr4 changes as each notification changes its replicas.
    report = square_run_replicated(
        "0 user u1 1 1\n1 send u1 vm1\n"
        "10 replicate vm1 2 3\n50 send u1 vm1\n55 send u1 vm1\n"
        "60 replicate vm1 2 4\n100 send u1 vm1\n"
        "110 destroy vm1 4\n150 send u1 vm1\n160 destroy vm1 3\n200 send u1 vm1\n")
    assert [p.ingress for p in packet_records(report)] == [4] * 6
    assert [p.target for p in packet_records(report)] == [2, 3, 3, 4, 3, 2]
    assert all(p.trace.delivered_at == p.target for p in packet_records(report))


def test_a_read_in_flight_leaves_the_settled_tables_as_the_eager_engine_has_them():
    # The migration floods from dcr2 at 10 and reaches dcr4 at 30. u2 sits by
    # dcr2, so its packet reads the new entry there at 10 + sqrt(2), while the
    # flood is still on its way to the other DCRs.
    events = parse_scenario("0 user u2 9 9\n0 create vm1 1 anycast-migrate\n"
                            "10 migrate vm1 2\n10 send u2 vm1\n")
    sim = sim_for(events)
    eager = oracles.EagerSimulation(sim.topology, sim.overlay, events)
    sim.run_until(12.0)
    eager.run_until(12.0)
    (delivery,) = [x for x in sim.report().stream if isinstance(x, Delivery)]
    assert delivery.ingress == 2 and delivery.delivered_at == 2
    assert sim.pending_floods() > 0
    addr = sim.vms["vm1"].address
    assert sim.tables[2][addr].hosts() == frozenset({2})
    assert addr not in sim.tables[4]
    assert dict(sim.tables) == {d: oracles.as_library_table(table)
                                for d, table in eager.tables.items()}


def square_run(text):
    """Run a scenario on examples/square.top's layout with overlay alg 3, where
    dcr4 at (0,0) is 20 away from dcr2 and 10 away from dcr1 and dcr3."""
    return sim_for(parse_scenario("0 create vm1 1 anycast-migrate\n" + text)).run()


def square_run_replicated(text):
    """square_run's layout, with vm1 created replicated at dcr2."""
    return sim_for(parse_scenario("0 create vm1 2 anycast-replicate\n" + text)).run()


def test_flood_emitted_before_a_send_at_the_same_time_is_seen():
    report = square_run("0 user u1 0 0\n10 migrate vm1 4\n10 send u1 vm1\n")
    assert packet_records(report)[0].trace.delivered_at == 4


def test_send_accepted_before_a_flood_at_the_same_time_misses_it():
    report = square_run("0 user u1 0 0\n10 send u1 vm1\n10 migrate vm1 4\n")
    p = packet_records(report)[0]
    assert p.trace.delivered_at is None and p.target == 1


def test_packet_arriving_with_the_flood_but_sent_before_it_misses():
    # Sent at 7 from 3 away, the packet reaches dcr4 at 10, when the flood
    # starts there; it was accepted first, so it reads the old table.
    report = square_run("0 user u1 0 3\n7 send u1 vm1\n10 migrate vm1 4\n")
    p = packet_records(report)[0]
    assert p.trace.hops[0][2] == 3.0
    assert p.trace.delivered_at is None and p.target == 1


def test_flood_reaching_the_ingress_as_the_packet_does_is_seen():
    # The flood from dcr2 at 10 reaches dcr4 at 30, before the send at 30.
    report = square_run("0 user u1 0 0\n10 migrate vm1 2\n30 send u1 vm1\n")
    assert packet_records(report)[0].trace.delivered_at == 2


def test_flood_settling_as_the_packet_arrives_is_not_folded_early():
    # The packet reaches dcr4 at 30, when the flood from dcr2 does and so
    # settles everywhere. The send sorts before the change, so it reads the
    # old entry and misses; folding a flood whose last arrival equals now
    # would deliver it at dcr2.
    t = load_topology(example_path("square.top"))
    events = parse_scenario("0 user u 0 -25\n0 create v 1 anycast-migrate\n"
                            "5 send u v\n10 migrate v 2\n")
    report = Simulation(t, build_overlay(t, 3), events).run()
    assert report.to_csv().splitlines()[1] == "0,5.000000,u,v,,4,1,MISS,35.000000,1,,,,"


def test_quiescence_only_after_floods_settle():
    events = [ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.ANYCAST_MIGRATABLE),
              ev(10, EventKind.MIGRATE_VM, vm="vm1", dc=2)]
    sim = sim_for(events)
    sim.run_until(15.0)
    assert sim.pending_floods() > 0
    sim.run_until(30.0)
    assert sim.pending_floods() == 0
    assert len({repr(t) for t in sim.tables.values()}) == 1


def test_fresh_simulation_is_quiescent():
    sim = sim_for([])
    assert sim.pending_floods() == 0
    report = sim.run()
    assert packet_records(report) == []
    counts = summary(report)
    assert counts["delivered"] == counts["miss"] == 0
    assert counts["notifications"] == counts["session_breaks"] == 0
    assert report.to_csv().splitlines()[-1].startswith("# summary: packets=0")


def test_migration_session_survives_relocation():
    events = BASE + [
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
        ev(10, EventKind.MIGRATE_VM, vm="vm1", dc=2),
        ev(50, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
        ev(60, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
    ]
    report = sim_for(events).run()
    assert [p.trace.delivered_at for p in packet_records(report)] == [1, 2, 2]
    assert summary(report)["session_breaks"] == 0


def test_replica_switch_breaks_session_once():
    events = [
        ev(0, EventKind.PLACE_USER, user="u1", x=1.0, y=1.0),
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=2, mode=VmMode.ANYCAST_REPLICATED),
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
        ev(10, EventKind.REPLICATE_VM, vm="vm1", src_dc=2, dst_dc=3),
        ev(50, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
        ev(60, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
    ]
    report = sim_for(events).run()
    # The second send switches to the replica at dcr3; the third, answered
    # there too, finds the session closed and does not break it again.
    assert [p.trace.delivered_at for p in packet_records(report)] == [2, 3, 3]
    assert summary(report)["session_breaks"] == 1


def test_miss_breaks_established_session():
    events = BASE + [
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
        ev(30, EventKind.MIGRATE_VM, vm="vm1", dc=2),
        ev(31, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
    ]
    report = sim_for(events).run()
    assert packet_records(report)[1].trace.delivered_at is None
    assert summary(report)["session_breaks"] == 1


def test_miss_always_breaks_and_closes_the_session():
    events = BASE + [
        ev(1, EventKind.DESTROY_VM_AT, vm="vm1", dc=1),
        ev(100, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
        ev(101, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
    ]
    report = sim_for(events).run()
    assert packet_records(report)[0].trace.delivered_at is None
    assert packet_records(report)[1].trace.delivered_at is None
    assert summary(report)["session_breaks"] == 1  # closed after the first miss


def test_user_can_move_between_sends():
    events = [
        ev(0, EventKind.PLACE_USER, user="u1", x=1.0, y=1.0),
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.ANYCAST_MIGRATABLE),
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1"),
        ev(5, EventKind.PLACE_USER, user="u1", x=9.0, y=9.0),
        ev(6, EventKind.SEND_PACKET, user="u1", vm="vm1"),
    ]
    report = sim_for(events).run()
    assert packet_records(report)[0].ingress == 4
    assert packet_records(report)[1].ingress == 2


def test_user_moving_mid_flight_keeps_the_packets_ingress():
    events = [
        ev(0, EventKind.PLACE_USER, user="u1", x=1.0, y=1.0),
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.ANYCAST_MIGRATABLE),
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1"),
        # The packet reaches dcr4 at 1 + sqrt(2) ~ 2.414, after the move.
        ev(1.5, EventKind.PLACE_USER, user="u1", x=9.0, y=9.0),
    ]
    report = sim_for(events).run()
    p = packet_records(report)[0]
    assert p.ingress == 4
    assert f"{p.trace.hops[0][2]:.6f}" == "1.414214"
    assert p.trace.delivered_at == 1


def test_unicast_send_is_direct():
    events = [
        ev(0, EventKind.PLACE_USER, user="u1", x=1.0, y=1.0),
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=2, mode=VmMode.UNICAST),
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1"),
    ]
    report = sim_for(events).run()
    p = packet_records(report)[0]
    assert p.ingress is None
    assert not p.trace.tunneled
    assert p.trace.delivered_at == 2
    assert p.stretch == 1.0 and p.penalty == 0.0
    assert summary(report)["tunnel_header_bytes"] == 0
    assert summary(report)["notifications"] == 0


def test_unicast_destroy_floods_nothing():
    events = [
        ev(0, EventKind.PLACE_USER, user="u1", x=1.0, y=1.0),
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=2, mode=VmMode.UNICAST),
        ev(1, EventKind.DESTROY_VM_AT, vm="vm1", dc=2),
        ev(2, EventKind.SEND_PACKET, user="u1", vm="vm1"),
    ]
    report = sim_for(events).run()
    assert summary(report)["notifications"] == 0
    assert packet_records(report)[0].trace.delivered_at is None


def test_flood_accounting():
    events = [
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=2, mode=VmMode.ANYCAST_REPLICATED),
        ev(1, EventKind.REPLICATE_VM, vm="vm1", src_dc=2, dst_dc=3),
        ev(2, EventKind.DESTROY_VM_AT, vm="vm1", dc=2),
    ]
    report = sim_for(events, alg=3).run()
    # The alg-3 square overlay has 5 edges over 4 nodes: 4 duplicates/flood.
    assert summary(report)["notifications"] == 2
    assert summary(report)["duplicate_notifications"] == 8
    report = sim_for(events, alg=1).run()
    assert summary(report)["duplicate_notifications"] == 0


def test_tunnel_header_accounting():
    events = BASE + [
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1"),
        ev(2, EventKind.SEND_PACKET, user="u1", vm="vm1"),
    ]
    report = sim_for(events).run()
    assert summary(report)["tunnel_header_bytes"] == 40


def test_report_csv_shape():
    events = BASE + [ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1")]
    report = sim_for(events).run()
    lines = report.to_csv().splitlines()
    assert lines[0].startswith("packet,time,user,vm,session,ingress,target,result,")
    assert lines[1].split(",")[:8] == ["0", "1.000000", "u1", "vm1", "s1", "4", "1", "1"]
    assert lines[-1].startswith("# summary: packets=1 delivered=1 miss=0 ")
    assert "overlay_worst=20.000000" in lines[-1]


def test_stretch_is_at_least_one_for_delivered_anycast():
    events = BASE + [
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1"),
        ev(5, EventKind.MIGRATE_VM, vm="vm1", dc=3),
        ev(40, EventKind.SEND_PACKET, user="u1", vm="vm1"),
    ]
    report = sim_for(events).run()
    for p in packet_records(report):
        if p.stretch is not None:
            assert p.stretch >= 1.0
            assert p.penalty >= 0.0
            assert p.reply is not None
            assert not p.reply.tunneled
            assert p.trace.total_delay == pytest.approx(
                p.reply.total_delay * p.stretch)


def test_mean_delay_of_far_packets_does_not_overflow():
    # Each delay is finite, but four of them sum past the largest float.
    t = Topology(((1, Point(0.0, 0.0)), (2, Point(1e307, 0.0))))
    events = [ev(0, EventKind.PLACE_USER, user="u1", x=-4e307, y=0.0),
              ev(0, EventKind.CREATE_VM, vm="vm1", dc=2, mode=VmMode.ANYCAST_MIGRATABLE)]
    events += [ev(k, EventKind.SEND_PACKET, user="u1", vm="vm1") for k in range(1, 5)]
    report = run_scenario(t, build_overlay(t, 1), events)
    assert summary(report)["delivered"] == 4
    row = report.to_csv().splitlines()[-1]
    total = 4e307 + 1e307
    assert f"mean_delay={total:.6f} max_delay={total:.6f} " in row


def compensated_sum(values):
    """sum() as Python 3.12 and later add floats: with a running
    compensation (Neumaier's), so 1e16 + 1.0 + 1.0 sums to 1e16 + 2, where
    adding left to right gives 1e16. Ints still add exactly."""
    values = list(values)
    if all(type(v) is int for v in values):
        return builtins.sum(values)
    total, c = 0.0, 0.0
    for v in values:
        t = total + v
        c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_printed_sums_add_left_to_right_whatever_sum_does(monkeypatch):
    # The summary's means and an overlay's total link cost print the same
    # bytes on a Python whose sum() of floats is compensated.
    for module in (dcrsim.simulator, dcrsim.overlay):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert compensated_sum([1e16, 1.0, 1.0]) == 1e16 + 2 != 1e16 + 1.0 + 1.0
    t = Topology(((1, Point(0.0, 0.0)), (2, Point(10.0, 0.0))))
    events = [ev(0, EventKind.PLACE_USER, user="far", x=-1e16, y=0.0),
              ev(0, EventKind.PLACE_USER, user="near", x=-1.0, y=0.0),
              ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.UNICAST)]
    # Delivered in the order far, near, near: packets replay by arrival time.
    events += [ev(time, EventKind.SEND_PACKET, user=user, vm="vm1")
               for time, user in ((1, "far"), (2e16, "near"), (3e16, "near"))]
    row = run_scenario(t, build_overlay(t, 1), events).to_csv().splitlines()[-1]
    assert " delivered=3 " in row and " mean_delay=3333333333333333.500000 " in row
    o = Overlay(nodes=(1, 2, 3, 4), edges={(1, 2): 1e16, (2, 3): 1.0, (3, 4): 1.0}, root=1)
    assert o.total_cost == overlay_metrics(o).flooding_overhead == 1e16


def _run_and_compare() -> None:
    gen = scenariogen.generate(8)
    t = parse_topology(format_topology(gen.topology))
    events = parse_scenario(format_scenario(gen.events))
    csv, trace = Simulation(t, build_overlay(t, gen.alg), events).run().render(trace=True)
    assert "# summary:" in csv and "PKT " in trace
    for seed in (1, 2):
        metrics = [overlay_metrics(o) for o in stages(generate_random_topology(seed, 40))]
        assert len(metrics) == 3


def test_a_run_and_a_compare_leave_no_reference_cycles():
    # All that a run makes is freed by reference counting alone.
    gc.collect()  # earlier tests' garbage does not count
    enabled = gc.isenabled()
    gc.disable()
    try:
        _run_and_compare()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_run_scenario_matches_simulation_run():
    events = BASE + [ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1")]
    t = square()
    a = run_scenario(t, build_overlay(t, 3), events).to_csv()
    b = Simulation(t, build_overlay(t, 3), events).run().to_csv()
    assert a == b


def test_scenario_event_is_an_immutable_named_tuple():
    kw = dict(vm="vm1", dc=2, mode=VmMode.ANYCAST_MIGRATABLE, line=3)
    e = ScenarioEvent(1.5, EventKind.CREATE_VM, **kw)
    # Same fields, order, defaults and repr as the dataclass it replaced.
    old = oracles.ScenarioEvent(1.5, EventKind.CREATE_VM, **kw)
    assert ScenarioEvent._fields == tuple(f for f in vars(old))
    assert tuple(e) == tuple(vars(old).values())
    assert repr(e) == repr(old)
    same = ScenarioEvent(time=1.5, kind=EventKind.CREATE_VM, **kw)
    assert e == same and hash(e) == hash(same) and len({e, same}) == 1
    assert e != same._replace(line=4) and e._replace(line=4).line == 4
    assert ScenarioEvent._make(tuple(e)) == e
    with pytest.raises(AttributeError):
        e.time = 2.0


def test_an_event_at_nan_no_longer_runs():
    # It used to be accepted, and the send at 1.0 after it was delivered.
    with pytest.raises(ScenarioError, match="event time must be finite, got nan"):
        sim_for([BASE[0], ev(math.nan, EventKind.CREATE_VM, vm="vm2", dc=1,
                                mode=VmMode.ANYCAST_MIGRATABLE),
                 ev(1.0, EventKind.SEND_PACKET, user="u1", vm="vm2")])


@pytest.mark.parametrize("alg", (1, 2, 3))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_miss_count_matches_the_flood_race_predicted_from_geometry(seed, alg):
    # One migratable VM hops every 1000 time units, and packets race its
    # floods. From the geometry and the overlay's delays alone: a packet
    # misses iff it reaches its ingress before the latest migration's flood
    # does, which starts at the migration's destination.
    rng = random.Random(seed)
    t = generate_random_topology(seed, 40)
    overlay = build_overlay(t, alg)
    users = {f"u{i}": Point(rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(20)}
    events = [ev(0.0, EventKind.PLACE_USER, user=u, x=p.x, y=p.y) for u, p in users.items()]
    events.append(ev(0.0, EventKind.CREATE_VM, vm="v", dc=1, mode=VmMode.ANYCAST_MIGRATABLE))
    migrations, at = [], 1
    for i in range(1, 31):
        at = rng.choice([d for d in t.ids() if d != at])
        migrations.append((1000.0 * i, at))
        events.append(ev(1000.0 * i, EventKind.MIGRATE_VM, vm="v", dc=at))
    sends = [(rng.uniform(0, 31000), rng.choice(sorted(users))) for _ in range(1500)]
    events += [ev(time, EventKind.SEND_PACKET, user=u, vm="v") for time, u in sends]

    nodes = list(overlay.nodes)
    delays = dijkstra_matrix(nodes, dict(overlay.edges))
    assert max(map(max, delays)) < 1000  # each flood settles before the next starts
    index = {d: i for i, d in enumerate(nodes)}
    predicted = 0
    for time, u in sends:
        p = users[u]
        gap, ingress = min((math.hypot(p.x - q.x, p.y - q.y), d) for d, q in t.dcrs)
        arrival = time + gap
        for t0, dst in migrations:
            assert arrival != t0 + delays[index[dst]][index[ingress]]
        latest = [(t0, dst) for t0, dst in migrations if t0 <= arrival]
        if latest:
            t0, dst = latest[-1]
            predicted += arrival < t0 + delays[index[dst]][index[ingress]]
    assert summary(run_scenario(t, overlay, events))["miss"] == predicted > 0
