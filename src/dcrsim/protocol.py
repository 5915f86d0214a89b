"""The router model: notifications, forwarding-table entries and the host lookup.

Each DCR keeps a forwarding table mapping anycast addresses to the DCRs that
currently host the VM, one `VmRegister` per address. Lifecycle changes are
announced by flooding a notification over the overlay; tables apply whatever
arrives, whenever it arrives, and must still converge once the flood
settles. Updates are therefore stamped with the notification sequence number
and merged last-writer-wins per (address, DCR) slot, so arrival order cannot
change the final table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import ConfigError
from .topology import AnycastAddress, DcrId, Topology, UnicastAddress, by_distance


class VmMode(enum.Enum):
    UNICAST = "unicast"
    ANYCAST_MIGRATABLE = "anycast-migrate"
    ANYCAST_REPLICATED = "anycast-replicate"


class NotificationKind(enum.Enum):
    MIGRATION = "MIGRATION"
    REPLICATION = "REPLICATION"
    DESTRUCTION = "DESTRUCTION"

    __hash__ = object.__hash__  # members are singletons; Enum's own hash runs in Python


# Read once per notification or change: a module global is read faster than a member.
_MIGRATION, _REPLICATION, _DESTRUCTION = NotificationKind  # in definition order
_ARITY = {_MIGRATION: 1, _REPLICATION: 2, _DESTRUCTION: 1}


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
    """The DCR whose router starts the flood, n's last DCR address: a migration's
    or a replication's destination (after its source), a destruction's departed DCR."""
    return n.dcr_addrs[-1]


@dataclass(slots=True)
class VmRegister:
    """One VM's entry in a forwarding table, merged from flooded notifications.

    The latest migration as (seq, destination), and the replica additions
    and removals (tombstones) as {DCR: seq}. apply() merges one notification
    in place, last writer wins per slot, so registers that saw the same
    notifications in any order compare equal. It is the only writer of the
    stamps, and drops the live hosts that hosts() caches."""

    migration: tuple[int, DcrId] | None = None
    adds: dict[DcrId, int] = field(default_factory=dict)
    removes: dict[DcrId, int] = field(default_factory=dict)
    _hosts: frozenset[DcrId] | None = field(default=None, init=False, repr=False, compare=False)

    def copy(self) -> VmRegister:
        return VmRegister(self.migration, dict(self.adds), dict(self.removes))

    def apply(self, n: Notification) -> None:
        """Merge one notification about this VM, in place."""
        if n.kind is _MIGRATION:
            if self.migration is not None and self.migration[0] >= n.seq:
                return
            self.migration = (n.seq, n.dcr_addrs[0])
        else:
            slot = self.adds if n.kind is _REPLICATION else self.removes
            for d in n.dcr_addrs:
                if slot.get(d, -1) < n.seq:
                    slot[d] = n.seq
        self._hosts = None

    def hosts(self) -> frozenset[DcrId]:
        """Hosting DCRs this router believes in; empty if no live entry."""
        if self._hosts is None:
            removed = self.removes
            if self.migration is not None:
                seq, dst = self.migration
                self._hosts = frozenset(() if removed.get(dst, -1) > seq else (dst,))
            else:
                self._hosts = frozenset(d for d, s in self.adds.items()
                                        if s > removed.get(d, -1))
        return self._hosts


@dataclass
class VmRecord:
    """Ground truth for one VM: its address, mode, and true hosting DCs (the compiler
    builds each record and is the one checker of its rules)."""

    address: AnycastAddress | UnicastAddress
    mode: VmMode
    locations: set[DcrId]


def lookup(entry: VmRegister, vm: AnycastAddress, at: DcrId, t: Topology) -> DcrId:
    """Where router `at` forwards a packet for vm, given vm's register `entry`:
    the nearest live host (ties to the lowest id), or the address's own
    subblock DCR when there is none (packets then fall back to the birth DC)."""
    hosts = entry.hosts()
    if len(hosts) < 2:
        return next(iter(hosts), vm.subblock)
    return min(hosts, key=by_distance(t.position(at), t))
