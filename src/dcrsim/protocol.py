"""Router-side state and packet handling.

Each DCR keeps a forwarding table mapping anycast addresses to the DCRs that
currently host the VM. Lifecycle changes are announced by flooding a
notification over the overlay; tables apply whatever arrives, whenever it
arrives, and must still converge once the flood settles. Updates are
therefore stamped with the notification sequence number and merged
last-writer-wins per (address, DCR) slot, so arrival order cannot change the
final table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Union

from .errors import ConfigError
from .topology import AnycastAddress, DcrId, Point, Topology, UnicastAddress, distance


class VmMode(enum.Enum):
    UNICAST = "unicast"
    ANYCAST_MIGRATABLE = "anycast-migrate"
    ANYCAST_REPLICATED = "anycast-replicate"


class NotificationKind(enum.Enum):
    MIGRATION = "MIGRATION"
    REPLICATION = "REPLICATION"
    DESTRUCTION = "DESTRUCTION"


_ARITY = {
    NotificationKind.MIGRATION: 1,
    NotificationKind.REPLICATION: 2,
    NotificationKind.DESTRUCTION: 1,
}


@dataclass(frozen=True)
class Notification:
    """One flooded table update.

    dcr_addrs carries the DCR ids the update concerns: [destination] for a
    migration, [source, destination] for a replication, [departed] for a
    destruction. seq is a global strictly increasing stamp assigned when the
    event happens, giving floods a total order even when they interleave.
    """

    kind: NotificationKind
    vm: AnycastAddress
    dcr_addrs: tuple[DcrId, ...]
    seq: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dcr_addrs", tuple(self.dcr_addrs))
        want = _ARITY[self.kind]
        if len(self.dcr_addrs) != want:
            raise ConfigError(
                f"{self.kind.value} notification needs {want} DCR address(es), "
                f"got {len(self.dcr_addrs)}")


def notification_origin(n: Notification) -> DcrId:
    """The DCR whose router starts the flood: the destination for migration
    and replication, the departed DCR for destruction."""
    return n.dcr_addrs[-1] if n.kind is NotificationKind.REPLICATION else n.dcr_addrs[0]


def format_notification_line(n: Notification) -> str:
    addrs = ",".join(str(d) for d in n.dcr_addrs)
    return f"NOTIFY {n.seq} {n.kind.value} {n.vm} {addrs}"


@dataclass(frozen=True)
class ForwardingTable:
    """Anycast entries of one DCR, merged from flooded notifications.

    Internally three seq-stamped registers per address: replica additions,
    removals (kept as tombstones), and the latest migration. Two tables that
    saw the same set of notifications compare equal regardless of order.
    """

    _adds: dict[AnycastAddress, dict[DcrId, int]] = field(default_factory=dict)
    _removes: dict[AnycastAddress, dict[DcrId, int]] = field(default_factory=dict)
    _migrations: dict[AnycastAddress, tuple[int, DcrId]] = field(default_factory=dict)

    def _live(self, vm: AnycastAddress) -> frozenset[DcrId]:
        removed = self._removes.get(vm, {})
        mig = self._migrations.get(vm)
        if mig is not None:
            seq, dst = mig
            return frozenset() if removed.get(dst, -1) > seq else frozenset((dst,))
        adds = self._adds.get(vm, {})
        return frozenset(d for d, s in adds.items() if s > removed.get(d, -1))

    def entry(self, vm: AnycastAddress) -> frozenset[DcrId]:
        """Hosting DCRs this router believes in; empty if no live entry."""
        return self._live(vm)

    def entries(self) -> dict[AnycastAddress, frozenset[DcrId]]:
        """All addresses with a live entry, for inspection and tests."""
        out = {}
        for vm in set(self._adds) | set(self._migrations):
            live = self._live(vm)
            if live:
                out[vm] = live
        return out


def apply_notification(table: ForwardingTable, n: Notification) -> ForwardingTable:
    """Merge one notification; pure, returns the updated table."""
    if n.kind is NotificationKind.MIGRATION:
        cur = table._migrations.get(n.vm)
        if cur is not None and cur[0] >= n.seq:
            return table
        migrations = dict(table._migrations)
        migrations[n.vm] = (n.seq, n.dcr_addrs[0])
        return replace(table, _migrations=migrations)
    if n.kind is NotificationKind.REPLICATION:
        adds = dict(table._adds)
        slot = dict(adds.get(n.vm, {}))
        for d in n.dcr_addrs:
            slot[d] = max(slot.get(d, -1), n.seq)
        adds[n.vm] = slot
        return replace(table, _adds=adds)
    removes = dict(table._removes)
    slot = dict(removes.get(n.vm, {}))
    d = n.dcr_addrs[0]
    slot[d] = max(slot.get(d, -1), n.seq)
    removes[n.vm] = slot
    return replace(table, _removes=removes)


def join_tables(a: ForwardingTable, b: ForwardingTable) -> ForwardingTable:
    """State-based merge of two tables: every register keeps its higher
    stamp, so the result equals applying both tables' notifications."""
    def slots(x: dict, y: dict) -> dict:
        out = {vm: dict(slot) for vm, slot in x.items()}
        for vm, slot in y.items():
            mine = out.setdefault(vm, {})
            for d, seq in slot.items():
                mine[d] = max(mine.get(d, -1), seq)
        return out
    migrations = dict(a._migrations)
    for vm, reg in b._migrations.items():
        if vm not in migrations or reg[0] > migrations[vm][0]:
            migrations[vm] = reg
    return ForwardingTable(slots(a._adds, b._adds), slots(a._removes, b._removes),
                           migrations)


@dataclass
class VmRecord:
    """Ground truth for one VM: its address, mode, and true hosting DCs."""

    address: Union[AnycastAddress, UnicastAddress]
    mode: VmMode
    locations: set[DcrId]

    def __post_init__(self) -> None:
        if not self.locations:
            raise ConfigError("a VM must be created somewhere")
        is_unicast = isinstance(self.address, UnicastAddress)
        if is_unicast != (self.mode is VmMode.UNICAST):
            raise ConfigError(f"address family does not match mode {self.mode.value}")
        if self.mode is not VmMode.ANYCAST_REPLICATED and len(self.locations) != 1:
            raise ConfigError(f"{self.mode.value} VM must live in exactly one DC")


Endpoint = Union[Point, DcrId]
Hop = tuple[Endpoint, Endpoint, float]


@dataclass(frozen=True)
class PacketTrace:
    """Path one packet took. delivered_at is the final DCR, or None for a
    miss (the packet arrived where the VM no longer was); replies terminate
    at the user's position, also None."""

    hops: tuple[Hop, ...]
    tunneled: bool
    delivered_at: DcrId | None

    @property
    def total_delay(self) -> float:
        return sum(delay for _, _, delay in self.hops)


def lookup(table: ForwardingTable, vm: AnycastAddress, at: DcrId, t: Topology) -> DcrId:
    """Where router `at` forwards a packet for vm: the nearest DCR among the
    table entry (ties to the lowest id), or the address's own subblock DCR
    when the table has no entry (packets then fall back to the birth DC)."""
    members = table.entry(vm)
    if not members:
        return vm.subblock
    ap = t.position(at)
    return min(members, key=lambda d: (distance(ap, t.position(d)), d))


def route_user_packet(user: Point, ingress: DcrId, vm: VmRecord,
                      table: ForwardingTable | None, t: Topology) -> PacketTrace:
    """Route one user packet and report the path it took.

    Unicast goes straight to the address's DC, no tunnel, and reads no table
    (pass None). Anycast enters the network at `ingress`, the DCR the user
    attached to, which consults `table`, its forwarding table, and tunnels
    the packet to the chosen DCR. Delivery succeeds only if the VM truly
    hosts there; otherwise the trace records a miss.
    """
    if vm.mode is VmMode.UNICAST:
        assert isinstance(vm.address, UnicastAddress)
        dc = vm.address.dc
        hop = (user, dc, distance(user, t.position(dc)))
        return PacketTrace(hops=(hop,), tunneled=False,
                           delivered_at=dc if dc in vm.locations else None)
    assert isinstance(vm.address, AnycastAddress) and table is not None
    target = lookup(table, vm.address, ingress, t)
    ip = t.position(ingress)
    hops = ((user, ingress, distance(user, ip)),
            (ingress, target, distance(ip, t.position(target))))
    return PacketTrace(hops=hops, tunneled=True,
                       delivered_at=target if target in vm.locations else None)


def route_reply(vm_location: DcrId, user: Point, t: Topology) -> PacketTrace:
    """Reply path: straight from the hosting DCR back to the user, no tunnel
    (the user's address is a plain destination)."""
    hop = (vm_location, user, distance(t.position(vm_location), user))
    return PacketTrace(hops=(hop,), tunneled=False, delivered_at=None)


def _fmt_endpoint(e: Endpoint) -> str:
    if isinstance(e, Point):
        return f"({e.x:.6f},{e.y:.6f})"
    return f"dcr{e}"


def format_trace_line(time: float, trace: PacketTrace) -> str:
    hops = " ".join(f"{_fmt_endpoint(a)}->{_fmt_endpoint(b)}:{d:.6f}"
                    for a, b, d in trace.hops)
    result = "MISS" if trace.delivered_at is None else f"dcr{trace.delivered_at}"
    return (f"PKT {time:.6f} {hops} delay={trace.total_delay:.6f} "
            f"tunneled={int(trace.tunneled)} result={result}")
