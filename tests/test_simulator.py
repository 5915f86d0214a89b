import math

import pytest

import dcrsim.simulator
from dcrsim import (ConfigError, EventKind, ModeConflict, ParseError, Point,
                    ScenarioError, ScenarioEvent, Simulation, Topology, VmMode,
                    build_overlay, format_scenario, parse_scenario, run_scenario)


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


def test_parse_scenario_rejects_negative_time():
    with pytest.raises(ParseError, match="line 1: negative time"):
        parse_scenario("-1 user u1 0 0\n")
    with pytest.raises(ScenarioError, match=">= 0"):
        ScenarioEvent(-1.0, EventKind.PLACE_USER, user="u1", x=0.0, y=0.0)


def test_scenario_round_trips_through_text():
    events = parse_scenario("0 user u1 1 1\n"
                            "0 user u2 12.3456789 0.1\n"
                            "0 create vm1 1 anycast-migrate\n"
                            "2.5 migrate vm1 2\n"
                            "1234.567 send u1 vm1 session s1\n")
    again = parse_scenario(format_scenario(events))
    assert [(e.time, e.kind, e.vm, e.user, e.x, e.y, e.session) for e in again] == \
           [(e.time, e.kind, e.vm, e.user, e.x, e.y, e.session) for e in events]


def test_events_are_sorted_stably_by_time():
    events = [
        ev(5, EventKind.SEND_PACKET, user="u1", vm="vm1"),
        ev(0, EventKind.PLACE_USER, user="u1", x=1.0, y=1.0),
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.ANYCAST_MIGRATABLE),
    ]
    report = sim_for(events).run()
    assert report.packets[0].trace.delivered_at == 1


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
    monkeypatch.setattr(dcrsim.simulator, "nearest_dcr",
                        lambda *args: placed.append(args) or 4)
    with pytest.raises(error, match=message):
        sim_for(events)
    assert placed == []


def test_compiling_places_no_user_and_computes_no_delays(monkeypatch):
    events = parse_scenario("0 user u1 1 1\n0 user u2 9 9\n"
                            "0 create vm1 1 anycast-migrate\n"
                            "1 send u1 vm1\n2 migrate vm1 2\n3 send u1 vm1\n"
                            "4 user u1 5 5\n5 send u2 vm1\n")
    nearest, placed = dcrsim.simulator.nearest_dcr, []
    monkeypatch.setattr(dcrsim.simulator, "nearest_dcr",
                        lambda p, t: placed.append(p) or nearest(p, t))
    t = square()
    overlay = build_overlay(t, 3)
    sim = Simulation(t, overlay, events)
    assert placed == []
    assert "_delays" not in vars(overlay)  # the overlay's cached delay matrix
    report = sim.run()
    assert placed == [Point(1, 1), Point(9, 9), Point(5, 5)]
    assert [p.ingress for p in report.packets] == [4, 4, 2]


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


def test_track_session_returns_state_and_break_flag():
    sim = sim_for(list(BASE))
    sim.run()
    hit = sim_for(BASE + [ev(1, EventKind.SEND_PACKET, user="u1",
                             vm="vm1")]).run().packets[0].trace.delivered_at
    st, broke = sim.track_session("s9", "u1", "vm1", hit)
    assert st.pinned_location == 1 and not broke and st.open


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


def test_packet_races_flood_and_misses():
    # vm1 leaves DC 1 at t=10; the flood reaches ingress DCR 4 at t=30, so a
    # packet arriving in between is tunneled to the stale location.
    events = BASE + [
        ev(10, EventKind.MIGRATE_VM, vm="vm1", dc=2),
        ev(12, EventKind.SEND_PACKET, user="u1", vm="vm1"),
        ev(50, EventKind.SEND_PACKET, user="u1", vm="vm1"),
    ]
    report = sim_for(events).run()
    racing, settled = report.packets
    assert racing.trace.delivered_at is None
    assert racing.target == 1
    assert settled.trace.delivered_at == 2
    assert settled.target == 2


def test_flood_applies_origin_first_then_by_distance():
    events = [ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.ANYCAST_MIGRATABLE),
              ev(10, EventKind.MIGRATE_VM, vm="vm1", dc=2)]
    sim = sim_for(events)
    addr = None
    sim.run_until(10.0)
    addr = sim.vms["vm1"].address
    # Origin DCR 2 applied at t=10; DCRs 1 and 3 are 10 away, DCR 4 is 20 away.
    assert sim.tables[2].entry(addr) == frozenset({2})
    assert sim.tables[1].entry(addr) == frozenset()
    sim.run_until(20.0)
    assert sim.tables[1].entry(addr) == frozenset({2})
    assert sim.tables[3].entry(addr) == frozenset({2})
    assert sim.tables[4].entry(addr) == frozenset()
    sim.run_until(30.0)
    assert sim.tables[4].entry(addr) == frozenset({2})


def square_run(text):
    """Run a scenario on examples/square.top's layout with overlay alg 3, where
    dcr4 at (0,0) is 20 away from dcr2 and 10 away from dcr1 and dcr3."""
    return sim_for(parse_scenario("0 create vm1 1 anycast-migrate\n" + text)).run()


def test_flood_emitted_before_a_send_at_the_same_time_is_seen():
    report = square_run("0 user u1 0 0\n10 migrate vm1 4\n10 send u1 vm1\n")
    assert report.packets[0].trace.delivered_at == 4


def test_send_accepted_before_a_flood_at_the_same_time_misses_it():
    report = square_run("0 user u1 0 0\n10 send u1 vm1\n10 migrate vm1 4\n")
    p = report.packets[0]
    assert p.trace.delivered_at is None and p.target == 1


def test_packet_arriving_with_the_flood_but_sent_before_it_misses():
    # Sent at 7 from 3 away, the packet reaches dcr4 at 10, when the flood
    # starts there; it was accepted first, so it reads the old table.
    report = square_run("0 user u1 0 3\n7 send u1 vm1\n10 migrate vm1 4\n")
    p = report.packets[0]
    assert p.trace.hops[0][2] == 3.0
    assert p.trace.delivered_at is None and p.target == 1


def test_flood_reaching_the_ingress_as_the_packet_does_is_seen():
    # The flood from dcr2 at 10 reaches dcr4 at 30, before the send at 30.
    report = square_run("0 user u1 0 0\n10 migrate vm1 2\n30 send u1 vm1\n")
    assert report.packets[0].trace.delivered_at == 2


def test_quiescence_only_after_floods_settle():
    events = [ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.ANYCAST_MIGRATABLE),
              ev(10, EventKind.MIGRATE_VM, vm="vm1", dc=2)]
    sim = sim_for(events)
    sim.run_until(15.0)
    assert sim.pending_floods() > 0
    assert not sim.quiescence_check()
    sim.run_until(30.0)
    assert sim.pending_floods() == 0
    assert sim.quiescence_check()
    assert len({repr(t) for t in sim.tables.values()}) == 1


def test_fresh_simulation_is_quiescent():
    sim = sim_for([])
    assert sim.quiescence_check()
    report = sim.run()
    assert report.packets == []
    assert report.delivered == report.missed == 0
    assert report.notifications == report.session_breaks == 0
    assert report.to_csv().splitlines()[-1].startswith("# summary: packets=0")


def test_migration_session_survives_relocation():
    events = BASE + [
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
        ev(10, EventKind.MIGRATE_VM, vm="vm1", dc=2),
        ev(50, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
    ]
    report = sim_for(events).run()
    assert report.session_breaks == 0
    assert report.sessions["s1"].pinned_location == 2
    assert report.sessions["s1"].open


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
    assert report.session_breaks == 1
    assert not report.sessions["s1"].open


def test_miss_breaks_established_session():
    events = BASE + [
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
        ev(30, EventKind.MIGRATE_VM, vm="vm1", dc=2),
        ev(31, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
    ]
    report = sim_for(events).run()
    assert report.packets[1].trace.delivered_at is None
    assert report.session_breaks == 1


def test_miss_always_breaks_and_closes_the_session():
    events = BASE + [
        ev(1, EventKind.DESTROY_VM_AT, vm="vm1", dc=1),
        ev(100, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
        ev(101, EventKind.SEND_PACKET, user="u1", vm="vm1", session="s1"),
    ]
    report = sim_for(events).run()
    assert report.packets[0].trace.delivered_at is None
    assert report.session_breaks == 1  # closed after the first miss
    assert not report.sessions["s1"].open


def test_user_can_move_between_sends():
    events = [
        ev(0, EventKind.PLACE_USER, user="u1", x=1.0, y=1.0),
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.ANYCAST_MIGRATABLE),
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1"),
        ev(5, EventKind.PLACE_USER, user="u1", x=9.0, y=9.0),
        ev(6, EventKind.SEND_PACKET, user="u1", vm="vm1"),
    ]
    report = sim_for(events).run()
    assert report.packets[0].ingress == 4
    assert report.packets[1].ingress == 2


def test_user_moving_mid_flight_keeps_the_packets_ingress():
    events = [
        ev(0, EventKind.PLACE_USER, user="u1", x=1.0, y=1.0),
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=1, mode=VmMode.ANYCAST_MIGRATABLE),
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1"),
        # The packet reaches dcr4 at 1 + sqrt(2) ~ 2.414, after the move.
        ev(1.5, EventKind.PLACE_USER, user="u1", x=9.0, y=9.0),
    ]
    report = sim_for(events).run()
    p = report.packets[0]
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
    p = report.packets[0]
    assert p.ingress is None
    assert not p.trace.tunneled
    assert p.trace.delivered_at == 2
    assert p.stretch == 1.0 and p.penalty == 0.0
    assert report.tunnel_header_bytes == 0
    assert report.notifications == 0


def test_unicast_destroy_floods_nothing():
    events = [
        ev(0, EventKind.PLACE_USER, user="u1", x=1.0, y=1.0),
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=2, mode=VmMode.UNICAST),
        ev(1, EventKind.DESTROY_VM_AT, vm="vm1", dc=2),
        ev(2, EventKind.SEND_PACKET, user="u1", vm="vm1"),
    ]
    report = sim_for(events).run()
    assert report.notifications == 0
    assert report.packets[0].trace.delivered_at is None


def test_flood_accounting():
    events = [
        ev(0, EventKind.CREATE_VM, vm="vm1", dc=2, mode=VmMode.ANYCAST_REPLICATED),
        ev(1, EventKind.REPLICATE_VM, vm="vm1", src_dc=2, dst_dc=3),
        ev(2, EventKind.DESTROY_VM_AT, vm="vm1", dc=2),
    ]
    report = sim_for(events, alg=3).run()
    # The alg-3 square overlay has 5 edges over 4 nodes: 4 duplicates/flood.
    assert report.notifications == 2
    assert report.duplicate_notifications == 8
    report = sim_for(events, alg=1).run()
    assert report.duplicate_notifications == 0


def test_tunnel_header_accounting():
    events = BASE + [
        ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1"),
        ev(2, EventKind.SEND_PACKET, user="u1", vm="vm1"),
    ]
    report = sim_for(events).run()
    assert report.tunnel_header_bytes == 40
    sim = Simulation(square(), build_overlay(square(), 3), events,
                     tunnel_header_bytes=28)
    assert sim.run().tunnel_header_bytes == 56


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
    for p in report.packets:
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
    assert report.delivered == 4
    summary = report.to_csv().splitlines()[-1]
    total = 4e307 + 1e307
    assert f"mean_delay={total:.6f} max_delay={total:.6f} " in summary


def test_run_scenario_matches_simulation_run():
    events = BASE + [ev(1, EventKind.SEND_PACKET, user="u1", vm="vm1")]
    t = square()
    a = run_scenario(t, build_overlay(t, 3), events).to_csv()
    b = Simulation(t, build_overlay(t, 3), events).run().to_csv()
    assert a == b
