import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrsim import (AnycastAddress, ConfigError, ForwardingTable, Notification,
                    NotificationKind, Point, Topology, UnicastAddress, VmMode,
                    VmRecord, VmRegister, build_overlay, distance, format_notification_line,
                    lookup, notification_origin, parse_scenario, route_user_packet,
                    run_scenario)

VM = AnycastAddress(1, 0)


def square() -> Topology:
    return Topology(((1, Point(0.0, 10.0)), (2, Point(10.0, 10.0)),
                     (3, Point(10.0, 0.0)), (4, Point(0.0, 0.0))))


def square_run(scenario):
    """A run on the square of user u at (1, 1), whose ingress is DCR 4, then
    `scenario`."""
    t = square()
    return run_scenario(t, build_overlay(t, 3), parse_scenario("0 user u 1 1\n" + scenario))


def apply_all(notifications):
    table = ForwardingTable()
    for n in notifications:
        table.setdefault(n.vm, VmRegister()).apply(n)
    return table


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
    table = ForwardingTable()
    assert table.entries() == {}
    assert table.entry(VM) == frozenset()


def test_migration_replaces_entry():
    table = apply_all([
        Notification(NotificationKind.MIGRATION, VM, (2,), 0),
        Notification(NotificationKind.MIGRATION, VM, (4,), 1),
    ])
    assert table.entries() == {VM: frozenset({4})}


def test_replication_accumulates_replicas():
    table = apply_all([
        Notification(NotificationKind.REPLICATION, VM, (1, 2), 0),
        Notification(NotificationKind.REPLICATION, VM, (2, 3), 1),
    ])
    assert table.entry(VM) == frozenset({1, 2, 3})


def test_destruction_removes_one_replica():
    table = apply_all([
        Notification(NotificationKind.REPLICATION, VM, (1, 2), 0),
        Notification(NotificationKind.DESTRUCTION, VM, (1,), 1),
    ])
    assert table.entry(VM) == frozenset({2})


def test_destruction_after_migration_clears_entry():
    table = apply_all([
        Notification(NotificationKind.MIGRATION, VM, (3,), 0),
        Notification(NotificationKind.DESTRUCTION, VM, (3,), 1),
    ])
    assert table.entries() == {}


def test_stale_migration_is_ignored():
    fresh = Notification(NotificationKind.MIGRATION, VM, (4,), 5)
    stale = Notification(NotificationKind.MIGRATION, VM, (2,), 3)
    assert apply_all([stale, fresh]).entry(VM) == frozenset({4})
    assert apply_all([fresh, stale]).entry(VM) == frozenset({4})


def test_replica_can_return_after_destruction():
    table = apply_all([
        Notification(NotificationKind.REPLICATION, VM, (1, 2), 0),
        Notification(NotificationKind.DESTRUCTION, VM, (2,), 1),
        Notification(NotificationKind.REPLICATION, VM, (1, 2), 2),
    ])
    assert table.entry(VM) == frozenset({1, 2})


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
    a = apply_all(stream)
    b = apply_all(shuffled)
    assert a == b
    assert a.entries() == b.entries()


def test_lookup_prefers_nearest_member():
    t = square()
    table = apply_all([Notification(NotificationKind.REPLICATION, VM, (2, 3), 0)])
    assert lookup(table[VM], VM, 1, t) == 2
    assert lookup(table[VM], VM, 4, t) == 3


def test_lookup_distance_tie_goes_to_lowest_id():
    t = square()
    table = apply_all([Notification(NotificationKind.REPLICATION, VM, (2, 4), 0)])
    # DCRs 2 and 4 are both 10 away from DCR 1.
    assert lookup(table[VM], VM, 1, t) == 2


def test_lookup_falls_back_to_subblock():
    t = square()
    assert lookup(VmRegister(), AnycastAddress(3, 5), 1, t) == 3


def test_a_copy_of_a_register_applies_without_changing_it():
    reg = apply_all([Notification(NotificationKind.REPLICATION, VM, (2, 3), 0)])[VM]
    copy = reg.copy()
    copy.apply(Notification(NotificationKind.DESTRUCTION, VM, (3,), 1))
    assert reg.hosts() == frozenset({2, 3}) and copy.hosts() == frozenset({2})
    assert reg == VmRegister(None, {2: 0, 3: 0}, {})


def test_route_unicast_packet_direct():
    t = square()
    vm = VmRecord(address=UnicastAddress(2, 0), mode=VmMode.UNICAST, locations={2})
    trace = route_user_packet(Point(1, 1), 4, distance(Point(1, 1), t.position(2)), vm,
                              None, t)
    assert trace.ingress is None
    assert (trace.ingress, trace.target, len(trace.delays)) == (None, 2, 1)
    assert trace.delivered_at == 2
    assert sum(trace.delays) == pytest.approx(distance(Point(1, 1), Point(10, 10)))


def test_route_unicast_packet_misses_destroyed_vm():
    t = square()
    vm = VmRecord(address=UnicastAddress(2, 0), mode=VmMode.UNICAST, locations={2})
    vm.locations.clear()
    trace = route_user_packet(Point(1, 1), 4, distance(Point(1, 1), t.position(2)), vm,
                              None, t)
    assert trace.delivered_at is None


def test_route_anycast_packet_tunnels_via_ingress():
    t = square()
    vm = VmRecord(address=VM, mode=VmMode.ANYCAST_MIGRATABLE, locations={2})
    tables = {d: apply_all([Notification(NotificationKind.MIGRATION, VM, (2,), 0)])
              for d in t.ids()}
    trace = route_user_packet(Point(1, 1), 4, distance(Point(1, 1), t.position(4)), vm,
                              tables[4][VM], t)
    assert trace.ingress is not None
    assert (trace.ingress, trace.target, len(trace.delays)) == (4, 2, 2)
    assert trace.delivered_at == 2
    assert sum(trace.delays) == pytest.approx(
        distance(Point(1, 1), Point(0, 0)) + distance(Point(0, 0), Point(10, 10)))


def test_route_anycast_packet_miss_when_table_is_stale():
    t = square()
    vm = VmRecord(address=VM, mode=VmMode.ANYCAST_MIGRATABLE, locations={3})
    tables = {d: apply_all([Notification(NotificationKind.MIGRATION, VM, (2,), 0)])
              for d in t.ids()}
    trace = route_user_packet(Point(1, 1), 4, distance(Point(1, 1), t.position(4)), vm,
                              tables[4][VM], t)
    assert trace.delivered_at is None
    assert trace.target == 2


def test_route_reply_is_direct_and_untunneled():
    # Delivered at DCR 2, the reply goes straight back to u, in one hop.
    report = square_run("0 create v 2 anycast-migrate\n1 send u v\n")
    reply_delay, reply_tunneled = report.to_csv().splitlines()[1].split(",")[-2:]
    assert reply_tunneled == "0"
    assert float(reply_delay) == pytest.approx(distance(Point(10, 10), Point(1, 1)))


def test_vm_record_validation():
    with pytest.raises(ConfigError):
        VmRecord(address=VM, mode=VmMode.ANYCAST_MIGRATABLE, locations=set())
    with pytest.raises(ConfigError):
        VmRecord(address=VM, mode=VmMode.UNICAST, locations={1})
    with pytest.raises(ConfigError):
        VmRecord(address=UnicastAddress(1, 0), mode=VmMode.ANYCAST_MIGRATABLE,
                 locations={1})
    with pytest.raises(ConfigError):
        VmRecord(address=VM, mode=VmMode.ANYCAST_MIGRATABLE, locations={1, 2})
    VmRecord(address=VM, mode=VmMode.ANYCAST_REPLICATED, locations={1, 2})


def test_format_notification_line():
    n = Notification(NotificationKind.REPLICATION, AnycastAddress(2, 0), (2, 3), 7)
    assert format_notification_line(n) == "NOTIFY 7 REPLICATION 2:0 2,3"
    m = Notification(NotificationKind.MIGRATION, AnycastAddress(1, 4), (2,), 9)
    assert format_notification_line(m) == "NOTIFY 9 MIGRATION 1:4 2"


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
