"""Deterministic discrete-event simulation of the whole system.

A scenario is compiled once, then replayed. Compiling sorts it stably by time
and checks every name, DC id and lifecycle rule in one pass, so a bad line
fails with its number before anything runs. The replay walks one sorted list
of entries: a lifecycle change starts a flood, which reaches each DCR after
its overlay delay from the origin, and a packet is delivered at its first
DCR against that router's table at that moment, so packets genuinely race
floods. Tables are not written per DCR: a DCR's table is evaluated from the
VM's notification log when a packet reads it. There is no randomness, so the
same inputs always reproduce the same report byte for byte.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import ConfigError, ModeConflict, ParseError, ScenarioError
from .overlay import Overlay, OverlayMetrics, flood_duplicate_count, flood_schedule, overlay_metrics
from .protocol import (ForwardingTable, Notification, NotificationKind, PacketTrace,
                       Route, VmMode, VmRecord, apply_notification,
                       format_notification_line, format_trace_line, join_tables,
                       notification_origin, route_user_packet)
from .topology import (AddressPlan, AnycastAddress, DcrId, Point, Topology, box_fits,
                       distance, nearest_dcr)

TUNNEL_HEADER_BYTES = 20

Flood = tuple[NotificationKind, tuple[DcrId, ...], int]  # kind, DCR ids, seq
# One flooded notification: (emit time, scenario index, origin, notification).
LogEntry = tuple[float, int, DcrId, Notification]


class EventKind(enum.Enum):
    CREATE_VM = "create"
    MIGRATE_VM = "migrate"
    REPLICATE_VM = "replicate"
    DESTROY_VM_AT = "destroy"
    PLACE_USER = "user"
    SEND_PACKET = "send"


_MODES = {m.value: m for m in VmMode}


@dataclass(frozen=True)
class ScenarioEvent:
    time: float
    kind: EventKind
    vm: str | None = None
    mode: VmMode | None = None
    dc: DcrId | None = None
    src_dc: DcrId | None = None
    dst_dc: DcrId | None = None
    user: str | None = None
    x: float | None = None
    y: float | None = None
    session: str | None = None
    line: int | None = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ScenarioError(f"event time must be >= 0, got {self.time}")


def _name_ok(name: str) -> bool:
    return bool(name) and "," not in name


def parse_scenario(text: str) -> list[ScenarioEvent]:
    """Parse a scenario file; events stay in file order (the engine sorts
    stably by time). Blank lines and `#` comments are ignored."""
    events: list[ScenarioEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ParseError(f"line {lineno}: incomplete event {raw!r}")
        try:
            time = float(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad time {parts[0]!r}") from None
        if not math.isfinite(time):
            raise ParseError(f"line {lineno}: non-finite time {parts[0]!r}")
        if time < 0:
            raise ParseError(f"line {lineno}: negative time {parts[0]!r}")
        word = parts[1]
        try:
            if word == "create" and len(parts) == 5 and parts[4] in _MODES:
                ev = ScenarioEvent(time, EventKind.CREATE_VM, vm=parts[2],
                                   dc=int(parts[3]), mode=_MODES[parts[4]], line=lineno)
            elif word == "migrate" and len(parts) == 4:
                ev = ScenarioEvent(time, EventKind.MIGRATE_VM, vm=parts[2],
                                   dc=int(parts[3]), line=lineno)
            elif word == "replicate" and len(parts) == 5:
                ev = ScenarioEvent(time, EventKind.REPLICATE_VM, vm=parts[2],
                                   src_dc=int(parts[3]), dst_dc=int(parts[4]), line=lineno)
            elif word == "destroy" and len(parts) == 4:
                ev = ScenarioEvent(time, EventKind.DESTROY_VM_AT, vm=parts[2],
                                   dc=int(parts[3]), line=lineno)
            elif word == "user" and len(parts) == 5:
                x, y = float(parts[3]), float(parts[4])
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ParseError(f"line {lineno}: non-finite coordinate in {raw!r}")
                ev = ScenarioEvent(time, EventKind.PLACE_USER, user=parts[2],
                                   x=x, y=y, line=lineno)
            elif word == "send" and len(parts) in (4, 6):
                session = None
                if len(parts) == 6:
                    if parts[4] != "session":
                        raise ParseError(f"line {lineno}: expected `session <id>` in {raw!r}")
                    session = parts[5]
                ev = ScenarioEvent(time, EventKind.SEND_PACKET, user=parts[2],
                                   vm=parts[3], session=session, line=lineno)
            else:
                raise ParseError(f"line {lineno}: unrecognized event {raw!r}")
        except (ParseError, ScenarioError):
            raise
        except ValueError:
            raise ParseError(f"line {lineno}: bad number in {raw!r}") from None
        for name in (ev.vm, ev.user, ev.session):
            if name is not None and not _name_ok(name):
                raise ParseError(f"line {lineno}: bad identifier {name!r}")
        events.append(ev)
    return events


def format_scenario(events: list[ScenarioEvent]) -> str:
    """Inverse of parse_scenario, used to persist generated scenarios."""
    out = []
    for ev in events:
        t = repr(ev.time)
        if ev.kind is EventKind.CREATE_VM:
            out.append(f"{t} create {ev.vm} {ev.dc} {ev.mode.value}")
        elif ev.kind is EventKind.MIGRATE_VM:
            out.append(f"{t} migrate {ev.vm} {ev.dc}")
        elif ev.kind is EventKind.REPLICATE_VM:
            out.append(f"{t} replicate {ev.vm} {ev.src_dc} {ev.dst_dc}")
        elif ev.kind is EventKind.DESTROY_VM_AT:
            out.append(f"{t} destroy {ev.vm} {ev.dc}")
        elif ev.kind is EventKind.PLACE_USER:
            out.append(f"{t} user {ev.user} {ev.x!r} {ev.y!r}")
        else:
            tail = f" session {ev.session}" if ev.session else ""
            out.append(f"{t} send {ev.user} {ev.vm}{tail}")
    return "\n".join(out) + "\n"


def _where(ev: ScenarioEvent) -> str:
    """The prefix that names ev's line in an error about it."""
    return f"line {ev.line}: " if ev.line is not None else ""


def load_scenario(path: str) -> list[ScenarioEvent]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_scenario(f.read())


@dataclass
class SessionState:
    """One long-lived connection, pinned to the DC that answered it first.

    A session breaks when the connection cannot continue where it was: the
    packet missed, or it was answered by a different replica of a replicated
    VM (replicas share no connection state, so the peer resets). Migration
    moves the VM's state along, so a migrated session re-pins without
    breaking. A broken session is closed; later packets still route but are
    no longer tracked.
    """

    session_id: str
    user: str
    vm: str
    pinned_location: DcrId | None = None
    open: bool = True


@dataclass
class PacketRecord:
    index: int
    time: float
    user: str
    vm: str
    session: str | None
    ingress: DcrId | None
    target: DcrId
    trace: PacketTrace
    stretch: float | None
    penalty: float | None
    reply: PacketTrace | None


class Delivery(NamedTuple):
    """One packet delivery: the scenario index of its send, and its route."""

    send: int
    route: Route


_CSV_HEADER = ("packet,time,user,vm,session,ingress,target,result,"
               "total_delay,tunneled,stretch,penalty,reply_delay,reply_tunneled")


def _stretch_penalty(total: float, direct: float) -> tuple[float, float]:
    """A delivered packet's stretch and penalty: its delay against the
    user's direct distance to where it was delivered."""
    return (1.0 if direct == 0.0 else total / direct), total - direct


def _agg(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    mean = sum(values) / len(values)
    if mean == math.inf:  # the sum overflowed, though a mean of finite values cannot
        mean = math.fsum(v / len(values) for v in values)
    return mean, max(values)


@dataclass
class SimReport:
    """What a run produced: one stream of its flooded notifications and
    packet deliveries, in replay order, and its counters. The CSV, the trace
    lines and the packet records are all rendered from the stream; the trace
    lines and the records on first read."""

    stream: list[Notification | Delivery]
    events: Sequence[ScenarioEvent]  # the scenario sorted by time, as Delivery.send indexes it
    notifications: int
    duplicate_notifications: int
    session_breaks: int
    sessions: dict[str, SessionState]
    tunnel_header_bytes: int
    overlay: OverlayMetrics

    @functools.cached_property
    def _deliveries(self) -> list[Delivery]:
        return [x for x in self.stream if type(x) is Delivery]

    @functools.cached_property
    def trace_lines(self) -> list[str]:
        events = self.events
        return [format_trace_line(events[x.send].time, x.route) if type(x) is Delivery
                else format_notification_line(x) for x in self.stream]

    @functools.cached_property
    def packets(self) -> list[PacketRecord]:
        out = []
        for k, (send, route) in enumerate(self._deliveries):
            ev = self.events[send]
            at = route.delivered_at
            stretch = penalty = reply = None
            if at is not None:
                stretch, penalty = _stretch_penalty(route.total_delay, route.direct)
                reply = PacketTrace(((at, route.user, route.direct),), False, None)
            out.append(PacketRecord(k, ev.time, ev.user, ev.vm, ev.session, route.ingress,
                                    route.target, route.trace(), stretch, penalty, reply))
        return out

    @property
    def delivered(self) -> int:
        return sum(1 for d in self._deliveries if d.route.delivered_at is not None)

    @property
    def missed(self) -> int:
        return len(self._deliveries) - self.delivered

    def to_csv(self) -> str:
        rows = [_CSV_HEADER]
        events = self.events
        delays, stretches, penalties = [], [], []
        for k, (send, (_, ingress, target, at, hop_delays, direct)) in \
                enumerate(self._deliveries):
            ev = events[send]
            total = sum(hop_delays)
            head = (f"{k},{ev.time:.6f},{ev.user},{ev.vm},{ev.session or ''},"
                    f"{'' if ingress is None else ingress},{target}")
            if at is None:
                rows.append(f"{head},MISS,{total:.6f},{int(ingress is not None)},,,,")
                continue
            # A reply goes straight back from `at`, which is target: `direct` away.
            stretch, penalty = _stretch_penalty(total, direct)
            rows.append(f"{head},{at},{total:.6f},{int(ingress is not None)},"
                        f"{stretch:.6f},{penalty:.6f},{direct:.6f},0")
            delays.append(total)
            stretches.append(stretch)
            penalties.append(penalty)
        mean_delay, max_delay = _agg(delays)
        mean_stretch, max_stretch = _agg(stretches)
        mean_penalty, max_penalty = _agg(penalties)
        rows.append(
            "# summary:"
            f" packets={len(rows) - 1}"
            f" delivered={len(delays)}"
            f" miss={len(rows) - 1 - len(delays)}"
            f" session_breaks={self.session_breaks}"
            f" notifications={self.notifications}"
            f" duplicate_notifications={self.duplicate_notifications}"
            f" tunnel_header_bytes={self.tunnel_header_bytes}"
            f" mean_delay={mean_delay:.6f}"
            f" max_delay={max_delay:.6f}"
            f" mean_stretch={mean_stretch:.6f}"
            f" max_stretch={max_stretch:.6f}"
            f" mean_penalty={mean_penalty:.6f}"
            f" max_penalty={max_penalty:.6f}"
            f" overlay_worst={self.overlay.worst_delay:.6f}"
            f" overlay_avg={self.overlay.avg_delay:.6f}"
            f" overlay_overhead={self.overlay.flooding_overhead:.6f}")
        return "\n".join(rows) + "\n"


class Simulation:
    """Compiles a scenario against a topology and overlay, then replays it.
    Use run() for the whole scenario or run_until()/step() to inspect
    intermediate state."""

    def __init__(self, topology: Topology, overlay: Overlay,
                 events: list[ScenarioEvent], *,
                 tunnel_header_bytes: int = TUNNEL_HEADER_BYTES) -> None:
        if set(overlay.nodes) != set(topology.ids()):
            raise ConfigError("overlay nodes do not match the topology's DCR ids")
        # Floods travel the overlay at its edge costs and packets travel the
        # map, so the two must agree (to the 6 decimals of an overlay file).
        for (a, b), cost in overlay.edges.items():
            length = distance(topology.position(a), topology.position(b))
            if abs(cost - length) > 1e-6:
                raise ConfigError(f"overlay edge {a} {b} costs {cost!r}, but DCRs "
                                  f"{a} and {b} are {length!r} apart")
        self.topology = topology
        self.overlay = overlay
        self.now = 0.0
        # The VMs created so far in the replay, with their hosts at `now`.
        self.vms: dict[str, VmRecord] = {}
        self.sessions: dict[str, SessionState] = {}
        self._events = sorted(events, key=lambda e: e.time)
        # Every VM the scenario creates, by name. Compiling leaves each at its
        # final hosts; the replay sets them change by change.
        self._records: dict[str, VmRecord] = {}
        # By scenario index: each lifecycle change's hosts afterwards and what
        # it floods, and each send's user placement.
        self._changes: dict[int, tuple[frozenset[DcrId], Flood | None]] = {}
        self._placed: dict[int, int] = {}
        self._compile()
        self._next = 0  # position in _queue of the next entry to replay
        # Per origin: each DCR's flood delay, and the largest one.
        self._schedules: dict[DcrId, tuple[dict[DcrId, float], float]] = {}
        # Per VM address: the merge of the notifications that have reached
        # every DCR, and the log of those that may still be in flight.
        self._settled: defaultdict[AnycastAddress, ForwardingTable] = \
            defaultdict(ForwardingTable)
        self._logs: defaultdict[AnycastAddress, list[LogEntry]] = defaultdict(list)
        self._tunnel_bytes_per_packet = tunnel_header_bytes
        # Every flooded notification and packet delivery, in replay order.
        self._stream: list[Notification | Delivery] = []
        self._notifications = 0
        self._duplicates = 0
        self._breaks = 0
        self._tunnel_bytes = 0

    def _compile(self) -> None:
        """Check every event in time order, with its line number, and record
        what the replay needs. Ground truth does not depend on floods, so a
        bad scenario fails here, before any event runs."""
        known = set(self.topology.ids())
        xs = [p.x for _, p in self.topology.dcrs]
        ys = [p.y for _, p in self.topology.dcrs]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        plan = AddressPlan(self.topology.n)
        seqs = itertools.count()
        placed: dict[str, int] = {}  # each user's latest placement
        for i, ev in enumerate(self._events):
            if ev.kind is EventKind.SEND_PACKET:
                if ev.user not in placed:
                    raise ScenarioError(f"{_where(ev)}unknown user {ev.user}")
                if ev.vm not in self._records:
                    raise ScenarioError(f"{_where(ev)}unknown vm {ev.vm}")
                self._placed[i] = placed[ev.user]
                continue
            if ev.kind is EventKind.PLACE_USER:
                # A packet takes at most two hops: user to ingress, then on.
                if not box_fits(min(x0, ev.x), max(x1, ev.x), min(y0, ev.y), max(y1, ev.y), 2):
                    raise ScenarioError(f"{_where(ev)}user {ev.user} at ({ev.x!r}, {ev.y!r}) "
                                        "is too far from the DCRs: a packet's distance overflows")
                placed[ev.user] = i
                continue
            # The DC ids the line names, which its notification carries too.
            dc_ids = (ev.src_dc, ev.dst_dc) if ev.kind is EventKind.REPLICATE_VM else (ev.dc,)
            for dc in dc_ids:
                if dc not in known:
                    raise ScenarioError(f"{_where(ev)}unknown DCR id {dc}")
            vm = self._records.get(ev.vm)
            kind = None
            if ev.kind is EventKind.CREATE_VM:
                if vm is not None:
                    raise ScenarioError(f"{_where(ev)}vm {ev.vm} already exists")
                allocate = (plan.allocate_unicast if ev.mode is VmMode.UNICAST
                            else plan.allocate_anycast)
                vm = self._records[ev.vm] = VmRecord(address=allocate(ev.dc), mode=ev.mode,
                                                     locations={ev.dc})
            elif vm is None:
                raise ScenarioError(f"{_where(ev)}unknown vm {ev.vm}")
            elif ev.kind is EventKind.MIGRATE_VM:
                if vm.mode is not VmMode.ANYCAST_MIGRATABLE:
                    raise ModeConflict(f"{_where(ev)}cannot migrate {vm.mode.value} vm {ev.vm}")
                if not vm.locations:
                    raise ScenarioError(f"{_where(ev)}vm {ev.vm} has been destroyed")
                vm.locations = {ev.dc}
                kind = NotificationKind.MIGRATION
            elif ev.kind is EventKind.REPLICATE_VM:
                if vm.mode is not VmMode.ANYCAST_REPLICATED:
                    raise ModeConflict(f"{_where(ev)}cannot replicate {vm.mode.value} vm {ev.vm}")
                if ev.src_dc not in vm.locations:
                    raise ScenarioError(f"{_where(ev)}vm {ev.vm} has no replica at DC {ev.src_dc}")
                if ev.dst_dc in vm.locations:
                    raise ScenarioError(f"{_where(ev)}vm {ev.vm} already has a replica "
                                        f"at DC {ev.dst_dc}")
                vm.locations.add(ev.dst_dc)
                kind = NotificationKind.REPLICATION
            else:
                if ev.dc not in vm.locations:
                    raise ScenarioError(f"{_where(ev)}vm {ev.vm} is not hosted at DC {ev.dc}")
                vm.locations.discard(ev.dc)
                kind = NotificationKind.DESTRUCTION
            # Creations and unicast changes flood nothing: no table holds them.
            self._changes[i] = frozenset(vm.locations), (
                None if kind is None or vm.mode is VmMode.UNICAST else (kind, dc_ids, next(seqs)))

    @functools.cached_property
    def _placements(self) -> dict[int, tuple[Point, DcrId]]:
        """Per user placement, by scenario index: the user's position and ingress."""
        users = {i: Point(ev.x, ev.y) for i, ev in enumerate(self._events)
                 if ev.kind is EventKind.PLACE_USER}
        return {i: (user, nearest_dcr(user, self.topology)) for i, user in users.items()}

    @functools.cached_property
    def _queue(self) -> list[tuple[float, int, int]]:
        """Replay order: (time, 0, index) per lifecycle change and (arrival at
        the first DCR, 1, index) per send, so changes go first at equal times."""
        queue = [(self._events[i].time, 0, i) for i in self._changes]
        for j, p in self._placed.items():
            ev = self._events[j]
            user, ingress = self._placements[p]
            vm = self._records[ev.vm]
            first_dcr = vm.address.dc if vm.mode is VmMode.UNICAST else ingress
            queue.append((ev.time + distance(user, self.topology.position(first_dcr)), 1, j))
        queue.sort()
        return queue

    def _change(self, i: int) -> None:
        """Apply lifecycle change i to the ground truth and flood it."""
        name = self._events[i].vm
        hosts, flood = self._changes[i]
        vm = self.vms[name] = self._records[name]
        vm.locations = set(hosts)
        if flood is not None:
            kind, addrs, seq = flood
            self._flood(Notification(kind, vm.address, addrs, seq), i)

    def _flood(self, n: Notification, index: int) -> None:
        origin = notification_origin(n)
        self._notifications += 1
        self._duplicates += flood_duplicate_count(self.overlay)
        self._stream.append(n)
        if origin not in self._schedules:
            delays = flood_schedule(self.overlay, origin)
            self._schedules[origin] = delays, max(delays.values())
        # The flood is logged under its change's scenario index, which
        # breaks ties with deliveries that reach a DCR when it does.
        self._in_flight(n.vm).append((self.now, index, origin, n))

    def _in_flight(self, vm: AnycastAddress) -> list[LogEntry]:
        """Fold vm's notifications that reached every DCR before `now` into
        its settled table, and return the log of the rest."""
        table, flying = self._settled[vm], []
        for entry in self._logs[vm]:
            emit, _, origin, n = entry
            if emit + self._schedules[origin][1] < self.now:
                table = apply_notification(table, n)
            else:
                flying.append(entry)
        self._settled[vm] = table
        self._logs[vm] = flying
        return flying

    def _read_table(self, dcr: DcrId, vm: AnycastAddress, index: int) -> ForwardingTable:
        """vm's entry in dcr's table as the packet of send `index`, arriving
        now, reads it: the notifications whose (arrival at dcr, scenario index
        of their change) is below (now, index)."""
        if not self._logs[vm]:
            return self._settled[vm]
        flying = self._in_flight(vm)
        table = self._settled[vm]
        for emit, i, origin, n in flying:
            if (emit + self._schedules[origin][0][dcr], i) < (self.now, index):
                table = apply_notification(table, n)
        return table

    def _deliver(self, j: int) -> None:
        ev = self._events[j]
        # The packet carries where the user was and the ingress chosen there,
        # so a user who moves while it is in flight does not reroute it.
        user, ingress = self._placements[self._placed[j]]
        vm = self.vms[ev.vm]
        table = None
        if vm.mode is not VmMode.UNICAST:
            table = self._read_table(ingress, vm.address, j)
            self._tunnel_bytes += self._tunnel_bytes_per_packet
        route = route_user_packet(user, ingress, vm, table, self.topology)
        self._stream.append(Delivery(j, route))
        if ev.session is not None:
            self.track_session(ev.session, ev.user, ev.vm, route.delivered_at)

    def track_session(self, session_id: str, user: str, vm_name: str,
                      delivered_at: DcrId | None) -> tuple[SessionState, bool]:
        """Update session pinning for one packet outcome: delivery at
        delivered_at, or a miss (None).

        Returns the session state and whether this packet broke it. A miss
        always breaks and closes the session; so does delivery at a different
        DC than the pinned one, unless the VM is migratable (its connection
        state moved with it, so the session re-pins instead).
        """
        st = self.sessions.get(session_id)
        if st is None:
            st = SessionState(session_id=session_id, user=user, vm=vm_name)
            self.sessions[session_id] = st
        if not st.open:
            return st, False
        if delivered_at is None:
            st.open = False
            self._breaks += 1
            return st, True
        if st.pinned_location is None:
            st.pinned_location = delivered_at
            return st, False
        if delivered_at != st.pinned_location:
            if self.vms[vm_name].mode is VmMode.ANYCAST_REPLICATED:
                st.open = False
                self._breaks += 1
                return st, True
            st.pinned_location = delivered_at
        return st, False

    def step(self) -> bool:
        """Replay one lifecycle change or delivery; False when none is left."""
        queue = self._queue
        if self._next == len(queue):
            return False
        self.now, phase, index = queue[self._next]
        self._next += 1
        (self._deliver if phase else self._change)(index)
        return True

    def run_until(self, time: float) -> None:
        """Replay every change and delivery with timestamp <= time."""
        while self._next < len(self._queue) and self._queue[self._next][0] <= time:
            self.step()
        self.now = max(self.now, time)

    @property
    def tables(self) -> Mapping[DcrId, ForwardingTable]:
        """Every DCR's forwarding table at `now`, as a read-only snapshot: the
        merge of the notifications whose flood has reached it by `now`."""
        settled = functools.reduce(join_tables, self._settled.values(), ForwardingTable())
        out = {}
        for d in self.topology.ids():
            table = settled
            for log in self._logs.values():
                for emit, _, origin, n in log:
                    if emit + self._schedules[origin][0][d] <= self.now:
                        table = apply_notification(table, n)
            out[d] = table
        return MappingProxyType(out)

    def pending_floods(self) -> int:
        """(notification, DCR) arrivals still ahead of `now`."""
        return sum(1 for log in self._logs.values() for emit, _, origin, _ in log
                   for delay in self._schedules[origin][0].values()
                   if emit + delay > self.now)

    def quiescence_check(self) -> bool:
        """True iff no notification is in flight. Every DCR's table is then
        the same merge of every flooded notification."""
        return not self.pending_floods()

    def run(self) -> SimReport:
        while self.step():
            pass
        return self.report()

    def report(self) -> SimReport:
        return SimReport(stream=list(self._stream), events=self._events,
                         notifications=self._notifications,
                         duplicate_notifications=self._duplicates,
                         session_breaks=self._breaks,
                         sessions=dict(self.sessions),
                         tunnel_header_bytes=self._tunnel_bytes,
                         overlay=overlay_metrics(self.overlay))


def run_scenario(topology: Topology, overlay: Overlay,
                 events: list[ScenarioEvent], *,
                 tunnel_header_bytes: int = TUNNEL_HEADER_BYTES) -> SimReport:
    """One-shot run of a scenario to completion."""
    sim = Simulation(topology, overlay, events,
                     tunnel_header_bytes=tunnel_header_bytes)
    return sim.run()
