"""Deterministic discrete-event simulation of the whole system.

Lifecycle events change the ground truth immediately and start a notification
flood, which reaches each DCR after its overlay delay from the origin (the
origin at delay zero). User packets enter at send time and are evaluated when
they reach their ingress router, against that router's table at that moment,
so packets genuinely race floods. Tables are not written per DCR: each VM
keeps a log of its flooded notifications, and a DCR's table is evaluated when
a packet reads it, as the merge of the notifications that reached that DCR
first. There is no randomness here: ties in time are broken by event
insertion order, so the same inputs always reproduce the same report byte for
byte.
"""

from __future__ import annotations

import enum
import functools
import heapq
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import ConfigError, ModeConflict, ParseError, ScenarioError
from .overlay import Overlay, OverlayMetrics, flood_duplicate_count, flood_schedule, overlay_metrics
from .protocol import (ForwardingTable, Notification, NotificationKind, PacketTrace,
                       VmMode, VmRecord, apply_notification, format_notification_line,
                       format_trace_line, join_tables, make_notification,
                       notification_origin, route_reply, route_user_packet)
from .topology import (AddressPlan, AnycastAddress, DcrId, Point, Topology, distance,
                       nearest_dcr)

TUNNEL_HEADER_BYTES = 20

# One flooded notification: (emit time, push counter, origin, notification).
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


_CSV_HEADER = ("packet,time,user,vm,session,ingress,target,result,"
               "total_delay,tunneled,stretch,penalty,reply_delay,reply_tunneled")


def _opt(v: float | None) -> str:
    return "" if v is None else f"{v:.6f}"


@dataclass
class SimReport:
    packets: list[PacketRecord]
    notifications: int
    duplicate_notifications: int
    session_breaks: int
    sessions: dict[str, SessionState]
    tunnel_header_bytes: int
    overlay: OverlayMetrics
    trace_lines: list[str]

    @property
    def delivered(self) -> int:
        return sum(1 for p in self.packets if p.trace.delivered_at is not None)

    @property
    def missed(self) -> int:
        return len(self.packets) - self.delivered

    def _agg(self, values: list[float]) -> tuple[float, float]:
        if not values:
            return 0.0, 0.0
        return sum(values) / len(values), max(values)

    def to_csv(self) -> str:
        rows = [_CSV_HEADER]
        for p in self.packets:
            result = "MISS" if p.trace.delivered_at is None else str(p.trace.delivered_at)
            reply_delay = p.reply.total_delay if p.reply is not None else None
            reply_tun = "" if p.reply is None else str(int(p.reply.tunneled))
            rows.append(",".join([
                str(p.index), f"{p.time:.6f}", p.user, p.vm, p.session or "",
                "" if p.ingress is None else str(p.ingress), str(p.target), result,
                f"{p.trace.total_delay:.6f}", str(int(p.trace.tunneled)),
                _opt(p.stretch), _opt(p.penalty), _opt(reply_delay), reply_tun,
            ]))
        delays = [p.trace.total_delay for p in self.packets
                  if p.trace.delivered_at is not None]
        stretches = [p.stretch for p in self.packets if p.stretch is not None]
        penalties = [p.penalty for p in self.packets if p.penalty is not None]
        mean_delay, max_delay = self._agg(delays)
        mean_stretch, max_stretch = self._agg(stretches)
        mean_penalty, max_penalty = self._agg(penalties)
        rows.append(
            "# summary:"
            f" packets={len(self.packets)}"
            f" delivered={self.delivered}"
            f" miss={self.missed}"
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
    """Event loop tying topology, overlay, tables, VMs, users and sessions
    together. Use run() for the whole scenario or run_until()/step() to
    inspect intermediate state."""

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
        self.vms: dict[str, VmRecord] = {}
        # Each user's position and the DCR nearest it, chosen when placed.
        self.users: dict[str, tuple[Point, DcrId]] = {}
        self.sessions: dict[str, SessionState] = {}
        self._plan = AddressPlan(topology.n)
        self._counter = itertools.count()
        self._next_seq = itertools.count()
        self._order = -1  # push counter of the event being processed
        # Per origin: each DCR's flood delay, and the largest one.
        self._schedules: dict[DcrId, tuple[dict[DcrId, float], float]] = {}
        # Per VM address: the merge of the notifications that have reached
        # every DCR, and the log of those that may still be in flight.
        self._settled: defaultdict[AnycastAddress, ForwardingTable] = \
            defaultdict(ForwardingTable)
        self._logs: defaultdict[AnycastAddress, list[LogEntry]] = defaultdict(list)
        self._tunnel_bytes_per_packet = tunnel_header_bytes
        self._packets: list[PacketRecord] = []
        self._packet_index = itertools.count()
        self._notifications = 0
        self._duplicates = 0
        self._breaks = 0
        self._tunnel_bytes = 0
        self.trace_lines: list[str] = []
        ordered = sorted(events, key=lambda e: e.time)
        self._validate_references(ordered)
        # (time, push counter, handler, handler arguments); sorted, the
        # scenario events already form a heap.
        process = self._process_scenario
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = [
            (ev.time, next(self._counter), process, (ev,)) for ev in ordered]

    def _validate_references(self, ordered: list[ScenarioEvent]) -> None:
        """Reject events that reference names not defined by then, before any
        event executes (no partial reports on broken scenarios)."""
        vms: set[str] = set()
        users: set[str] = set()
        for ev in ordered:
            where = self._where(ev)
            if ev.kind is EventKind.CREATE_VM:
                vms.add(ev.vm)
            elif ev.kind is EventKind.PLACE_USER:
                users.add(ev.user)
            elif ev.kind is EventKind.SEND_PACKET:
                if ev.user not in users:
                    raise ScenarioError(f"{where}unknown user {ev.user}")
                if ev.vm not in vms:
                    raise ScenarioError(f"{where}unknown vm {ev.vm}")
            else:
                if ev.vm not in vms:
                    raise ScenarioError(f"{where}unknown vm {ev.vm}")

    def _push(self, time: float, handler: Callable[..., None], *args: object) -> None:
        heapq.heappush(self._heap, (time, next(self._counter), handler, args))

    def _where(self, ev: ScenarioEvent) -> str:
        return f"line {ev.line}: " if ev.line is not None else ""

    def handle_lifecycle(self, ev: ScenarioEvent) -> Notification | None:
        """Apply a lifecycle event to the ground truth and return the
        notification to flood, if the change concerns anycast tables."""
        where = self._where(ev)
        if ev.kind is EventKind.CREATE_VM:
            if ev.vm in self.vms:
                raise ScenarioError(f"{where}vm {ev.vm} already exists")
            self.topology.position(ev.dc)
            if ev.mode is VmMode.UNICAST:
                addr = self._plan.allocate_unicast(ev.dc)
            else:
                addr = self._plan.allocate_anycast(ev.dc)
            self.vms[ev.vm] = VmRecord(address=addr, mode=ev.mode, locations={ev.dc})
            return None
        vm = self.vms.get(ev.vm)
        if vm is None:
            raise ScenarioError(f"{where}unknown vm {ev.vm}")
        if ev.kind is EventKind.MIGRATE_VM:
            if vm.mode is not VmMode.ANYCAST_MIGRATABLE:
                raise ModeConflict(f"{where}cannot migrate {vm.mode.value} vm {ev.vm}")
            if not vm.locations:
                raise ScenarioError(f"{where}vm {ev.vm} has been destroyed")
            self.topology.position(ev.dc)
            vm.locations.clear()
            vm.locations.add(ev.dc)
            return make_notification(NotificationKind.MIGRATION, vm.address,
                                     (ev.dc,), next(self._next_seq))
        if ev.kind is EventKind.REPLICATE_VM:
            if vm.mode is not VmMode.ANYCAST_REPLICATED:
                raise ModeConflict(f"{where}cannot replicate {vm.mode.value} vm {ev.vm}")
            if ev.src_dc not in vm.locations:
                raise ScenarioError(f"{where}vm {ev.vm} has no replica at DC {ev.src_dc}")
            self.topology.position(ev.dst_dc)
            if ev.dst_dc in vm.locations:
                raise ScenarioError(f"{where}vm {ev.vm} already has a replica at DC {ev.dst_dc}")
            vm.locations.add(ev.dst_dc)
            return make_notification(NotificationKind.REPLICATION, vm.address,
                                     (ev.src_dc, ev.dst_dc), next(self._next_seq))
        if ev.kind is EventKind.DESTROY_VM_AT:
            if ev.dc not in vm.locations:
                raise ScenarioError(f"{where}vm {ev.vm} is not hosted at DC {ev.dc}")
            vm.locations.discard(ev.dc)
            if vm.mode is VmMode.UNICAST:
                return None
            return make_notification(NotificationKind.DESTRUCTION, vm.address,
                                     (ev.dc,), next(self._next_seq))
        raise ScenarioError(f"{where}not a lifecycle event: {ev.kind.value}")

    def _flood(self, n: Notification, origin: DcrId) -> None:
        self._notifications += 1
        self._duplicates += flood_duplicate_count(self.overlay)
        self.trace_lines.append(format_notification_line(n))
        if origin not in self._schedules:
            delays = flood_schedule(self.overlay, origin)
            self._schedules[origin] = delays, max(delays.values())
        # The flood takes one push counter: it precedes, in heap order, every
        # event pushed after it and follows every event pushed before it.
        self._in_flight(n.vm).append((self.now, next(self._counter), origin, n))

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

    def _read_table(self, dcr: DcrId, vm: AnycastAddress) -> ForwardingTable:
        """vm's entry in dcr's table as the event being processed reads it:
        the notifications that reached dcr before this event in (time, push
        counter) order, which is the order the heap would pop them in."""
        flying = self._in_flight(vm)
        table = self._settled[vm]
        for emit, counter, origin, n in flying:
            if (emit + self._schedules[origin][0][dcr], counter) < (self.now, self._order):
                table = apply_notification(table, n)
        return table

    def _process_scenario(self, ev: ScenarioEvent) -> None:
        if ev.kind is EventKind.PLACE_USER:
            user = Point(ev.x, ev.y)
            self.users[ev.user] = (user, nearest_dcr(user, self.topology))
            return
        if ev.kind is EventKind.SEND_PACKET:
            self._send(ev)
            return
        notification = self.handle_lifecycle(ev)
        if notification is not None:
            self._flood(notification, notification_origin(notification))

    def _send(self, ev: ScenarioEvent) -> None:
        # The packet carries where the user was and the ingress chosen there,
        # so a user who moves while it is in flight does not reroute it.
        user, ingress = self.users[ev.user]
        vm = self.vms[ev.vm]
        first_dcr = vm.address.dc if vm.mode is VmMode.UNICAST else ingress
        arrival = ev.time + distance(user, self.topology.position(first_dcr))
        self._push(arrival, self._deliver, ev, user, ingress)

    def _deliver(self, ev: ScenarioEvent, user: Point, ingress: DcrId) -> None:
        vm = self.vms[ev.vm]
        tables = ({} if vm.mode is VmMode.UNICAST
                  else {ingress: self._read_table(ingress, vm.address)})
        trace = route_user_packet(user, ingress, vm, tables, self.topology)
        if vm.mode is VmMode.UNICAST:
            ingress = None  # the packet bypassed it, so the report leaves it empty
            target = vm.address.dc
            stretch = penalty = None
            if trace.delivered_at is not None:
                stretch, penalty = 1.0, 0.0
        else:
            target = trace.hops[-1][1]
            self._tunnel_bytes += self._tunnel_bytes_per_packet
            stretch = penalty = None
            if trace.delivered_at is not None:
                direct = distance(user, self.topology.position(target))
                actual = trace.total_delay
                stretch = 1.0 if direct == 0.0 else actual / direct
                penalty = actual - direct
        reply = None
        if trace.delivered_at is not None:
            reply = route_reply(trace.delivered_at, user, self.topology)
        record = PacketRecord(index=next(self._packet_index), time=ev.time,
                              user=ev.user, vm=ev.vm, session=ev.session,
                              ingress=ingress, target=target, trace=trace,
                              stretch=stretch, penalty=penalty, reply=reply)
        self._packets.append(record)
        self.trace_lines.append(format_trace_line(ev.time, trace))
        if ev.session is not None:
            self.track_session(ev.session, ev.user, ev.vm, trace)

    def track_session(self, session_id: str, user: str, vm_name: str,
                      trace: PacketTrace) -> tuple[SessionState, bool]:
        """Update session pinning for one packet outcome.

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
        delivered_at = trace.delivered_at
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
        """Process one event; False when nothing is pending."""
        if not self._heap:
            return False
        self.now, self._order, handler, args = heapq.heappop(self._heap)
        handler(*args)
        return True

    def run_until(self, time: float) -> None:
        """Process every event with timestamp <= time."""
        while self._heap and self._heap[0][0] <= time:
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
        return SimReport(packets=list(self._packets),
                         notifications=self._notifications,
                         duplicate_notifications=self._duplicates,
                         session_breaks=self._breaks,
                         sessions=dict(self.sessions),
                         tunnel_header_bytes=self._tunnel_bytes,
                         overlay=overlay_metrics(self.overlay),
                         trace_lines=list(self.trace_lines))


def run_scenario(topology: Topology, overlay: Overlay,
                 events: list[ScenarioEvent], *,
                 tunnel_header_bytes: int = TUNNEL_HEADER_BYTES) -> SimReport:
    """One-shot run of a scenario to completion."""
    sim = Simulation(topology, overlay, events,
                     tunnel_header_bytes=tunnel_header_bytes)
    return sim.run()
