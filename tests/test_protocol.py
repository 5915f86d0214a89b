import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrsim import (AnycastAddress, ConfigError, Delivery, Notification, NotificationKind,
                    Point, Topology, VmRegister, build_overlay,
                    distance, lookup, notification_origin, parse_scenario, run_scenario)

VM = AnycastAddress(1, 0)


def square() -> Topology:
    return Topology(((1, Point(0.0, 10.0)), (2, Point(10.0, 10.0)),
                     (3, Point(10.0, 0.0)), (4, Point(0.0, 0.0))))


def square_run(scenario):
    """A run on the square of user u at (1, 1), whose ingress is DCR 4, then
    `scenario`."""
    t = square()
    return run_scenario(t, build_overlay(t, 3), parse_scenario("0 user u 1 1\n" + scenario))


def last_delivery(scenario):
    """The last packet delivery of square_run(scenario)."""
    return [x for x in square_run(scenario).stream if type(x) is Delivery][-1]


def apply_all(notifications):
    """One VM's register after `notifications`, all about it, in this order."""
    register = VmRegister()
    for n in notifications:
        register.apply(n)
    return register


def test_notification_checks_arity():
    Notification(NotificationKind.MIGRATION, VM, (2,), 0)
    Notification(NotificationKind.REPLICATION, VM, (2, 3), 1)
    Notification(NotificationKind.DESTRUCTION, VM, (2,), 2)
    with pytest.raises(ConfigError):
        Notification(NotificationKind.MIGRATION, VM, (2, 3), 0)
    with pytest.raises(ConfigError):
        Notification(NotificationKind.REPLICATION, VM, (2,), 0)
    with pytest.raises(ConfigError):
        Notification(NotificationKind.DESTRUCTION, VM, (), 0)


def test_notification_origin():
    assert notification_origin(Notification(NotificationKind.MIGRATION, VM, (2,), 0)) == 2
    assert notification_origin(Notification(NotificationKind.REPLICATION, VM, (2, 3), 1)) == 3
    assert notification_origin(Notification(NotificationKind.DESTRUCTION, VM, (4,), 2)) == 4


def test_empty_table_has_no_entries():
    assert apply_all([]) == VmRegister(None, {}, {})
    assert apply_all([]).hosts() == frozenset()


def test_migration_replaces_entry():
    register = apply_all([
        Notification(NotificationKind.MIGRATION, VM, (2,), 0),
        Notification(NotificationKind.MIGRATION, VM, (4,), 1),
    ])
    assert register.hosts() == frozenset({4})
    assert register == VmRegister((1, 4), {}, {})


def test_replication_accumulates_replicas():
    register = apply_all([
        Notification(NotificationKind.REPLICATION, VM, (1, 2), 0),
        Notification(NotificationKind.REPLICATION, VM, (2, 3), 1),
    ])
    assert register.hosts() == frozenset({1, 2, 3})


def test_destruction_removes_one_replica():
    register = apply_all([
        Notification(NotificationKind.REPLICATION, VM, (1, 2), 0),
        Notification(NotificationKind.DESTRUCTION, VM, (1,), 1),
    ])
    assert register.hosts() == frozenset({2})


def test_destruction_after_migration_clears_entry():
    register = apply_all([
        Notification(NotificationKind.MIGRATION, VM, (3,), 0),
        Notification(NotificationKind.DESTRUCTION, VM, (3,), 1),
    ])
    assert register.hosts() == frozenset()
    assert register == VmRegister((0, 3), {}, {3: 1})


def test_stale_migration_is_ignored():
    fresh = Notification(NotificationKind.MIGRATION, VM, (4,), 5)
    stale = Notification(NotificationKind.MIGRATION, VM, (2,), 3)
    assert apply_all([stale, fresh]) == apply_all([fresh, stale]) == VmRegister((5, 4), {}, {})
    assert apply_all([fresh, stale]).hosts() == frozenset({4})


def test_replica_can_return_after_destruction():
    register = apply_all([
        Notification(NotificationKind.REPLICATION, VM, (1, 2), 0),
        Notification(NotificationKind.DESTRUCTION, VM, (2,), 1),
        Notification(NotificationKind.REPLICATION, VM, (1, 2), 2),
    ])
    assert register.hosts() == frozenset({1, 2})


def test_apply_notification_is_idempotent():
    n = Notification(NotificationKind.REPLICATION, VM, (1, 2), 0)
    once = apply_all([n])
    assert apply_all([n, n]) == once


def _notification_stream(rng: random.Random, n_events: int):
    """Mode-consistent random notifications over two VMs with unique seqs."""
    vms = [(AnycastAddress(1, 0), "migrate"), (AnycastAddress(2, 0), "replicate")]
    seqs = list(range(n_events))
    out = []
    for seq in seqs:
        vm, style = rng.choice(vms)
        if style == "migrate":
            kind = rng.choice([NotificationKind.MIGRATION, NotificationKind.DESTRUCTION])
            addrs = (rng.randint(1, 4),)
        else:
            kind = rng.choice([NotificationKind.REPLICATION, NotificationKind.DESTRUCTION])
            if kind is NotificationKind.REPLICATION:
                addrs = (rng.randint(1, 4), rng.randint(1, 4))
            else:
                addrs = (rng.randint(1, 4),)
        out.append(Notification(kind, vm, addrs, seq))
    return out


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
def test_tables_converge_regardless_of_arrival_order(seed, n_events):
    rng = random.Random(seed)
    stream = _notification_stream(rng, n_events)
    shuffled = list(stream)
    rng.shuffle(shuffled)
    for vm in {n.vm for n in stream}:
        a = apply_all(n for n in stream if n.vm == vm)
        b = apply_all(n for n in shuffled if n.vm == vm)
        assert a == b
        assert a.hosts() == b.hosts()


def test_lookup_prefers_nearest_member():
    t = square()
    register = apply_all([Notification(NotificationKind.REPLICATION, VM, (2, 3), 0)])
    assert lookup(register, VM, 1, t) == 2
    assert lookup(register, VM, 4, t) == 3


def test_lookup_distance_tie_goes_to_lowest_id():
    t = square()
    register = apply_all([Notification(NotificationKind.REPLICATION, VM, (2, 4), 0)])
    # DCRs 2 and 4 are both 10 away from DCR 1.
    assert lookup(register, VM, 1, t) == 2


def test_lookup_falls_back_to_subblock():
    t = square()
    assert lookup(VmRegister(), AnycastAddress(3, 5), 1, t) == 3


def test_a_copy_of_a_register_applies_without_changing_it():
    reg = apply_all([Notification(NotificationKind.REPLICATION, VM, (2, 3), 0)])
    copy = reg.copy()
    copy.apply(Notification(NotificationKind.DESTRUCTION, VM, (3,), 1))
    assert reg.hosts() == frozenset({2, 3}) and copy.hosts() == frozenset({2})
    assert reg == VmRegister(None, {2: 0, 3: 0}, {})


def test_route_unicast_packet_direct():
    trace = last_delivery("0 create v 2 unicast\n1 send u v\n")
    assert trace.ingress is None
    assert (trace.ingress, trace.target, len(trace.delays)) == (None, 2, 1)
    assert trace.delivered_at == 2
    assert sum(trace.delays) == pytest.approx(distance(Point(1, 1), Point(10, 10)))


def test_route_unicast_packet_misses_destroyed_vm():
    trace = last_delivery("0 create v 2 unicast\n0.5 destroy v 2\n1 send u v\n")
    assert trace.delivered_at is None


def test_route_anycast_packet_tunnels_via_ingress():
    # Created at dcr1, v migrates to dcr2, whose flood has settled by 100.
    trace = last_delivery("0 create v 1 anycast-migrate\n1 migrate v 2\n100 send u v\n")
    assert trace.ingress is not None
    assert (trace.ingress, trace.target, len(trace.delays)) == (4, 2, 2)
    assert trace.delivered_at == 2
    assert sum(trace.delays) == pytest.approx(
        distance(Point(1, 1), Point(0, 0)) + distance(Point(0, 0), Point(10, 10)))


def test_route_anycast_packet_miss_when_table_is_stale():
    # The packet reaches dcr4 sqrt(2) after the move to dcr3, whose flood,
    # 10 away, has not: dcr4 still sends it to dcr2.
    trace = last_delivery("0 create v 1 anycast-migrate\n1 migrate v 2\n"
                          "100 migrate v 3\n100 send u v\n")
    assert trace.delivered_at is None
    assert trace.target == 2


def test_route_reply_is_direct_and_untunneled():
    # Delivered at DCR 2, the reply goes straight back to u, in one hop.
    report = square_run("0 create v 2 anycast-migrate\n1 send u v\n")
    reply_delay, reply_tunneled = report.to_csv().splitlines()[1].split(",")[-2:]
    assert reply_tunneled == "0"
    assert float(reply_delay) == pytest.approx(distance(Point(10, 10), Point(1, 1)))


def test_format_notification_line():
    # v is DCR 2's first anycast VM, 2:0; the replication is flood 0, the
    # migration of w, DCR 1's fifth VM (1:4), flood 1, and its destruction flood 2.
    lines = square_run("0 create v 2 anycast-replicate\n"
                       + "".join(f"0 create w{i} 1 anycast-migrate\n" for i in range(5))
                       + "1 replicate v 2 3\n2 migrate w4 2\n3 destroy w4 2\n").trace_lines
    assert lines == ["NOTIFY 0 REPLICATION 2:0 2,3", "NOTIFY 1 MIGRATION 1:4 2",
                     "NOTIFY 2 DESTRUCTION 1:4 2"]


def test_format_trace_line():
    # No flood: the empty table sends the packet to v's subblock DCR, 1.
    assert square_run("0 create v 1 anycast-migrate\n1 send u v\n").trace_lines == [
        "PKT 1.000000 (1.000000,1.000000)->dcr4:1.414214 "
        "dcr4->dcr1:10.000000 delay=11.414214 tunneled=1 result=dcr1"]


def test_format_trace_line_miss():
    # v is destroyed at once, but DCR 4 hears of it only after the packet.
    lines = square_run("0 create v 1 anycast-migrate\n0 destroy v 1\n2 send u v\n").trace_lines
    assert lines[-1] == ("PKT 2.000000 (1.000000,1.000000)->dcr4:1.414214 "
                         "dcr4->dcr1:10.000000 delay=11.414214 tunneled=1 result=MISS")
