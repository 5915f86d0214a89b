"""Independent reference implementations used to cross-check the library.

The shortest-path oracles (Floyd-Warshall, and the scalar Dijkstra that the
library's vectorised delay matrix must match bit for bit) work on plain dicts
and lists rather than the package's own types, so a bug in the library cannot
hide inside a shared code path. `scalar_nearest_dcr` and `scalar_build_tree`
are the plain Python scans that the library's vectorised nearest-point rule
must match exactly. `EagerSimulation` is the event loop that writes every
DCR's table on every flood, against which the lazy table views are checked.
It routes, formats and reports each packet with its own copies of the
library's per-packet code as it stood before deliveries became records, and
starts and formats each flood with its own `notification_origin` and
`format_notification_line`, so the report and trace bytes, NOTIFY lines
included, are checked against an independent formatter. It tracks each
session with its own `SessionState`, the per-session record the library kept
before its report counted breaks in the render walk. What it shares with
the library is the package's value types (`Notification` with its arity
check, `VmRecord`, the addresses, `Point`), `distance`, and the report
summary's `overlay_metrics` and `flood_duplicate_count`.
`ScenarioEvent` and `parse_scenario` are the frozen dataclass and the parser
as they stood before events became named tuples and sends took a fast path;
the parser breaks lines only at \n, \r\n and \r, as the input formats do.
`ForwardingTable` and `apply_notification` are the address-keyed table and
its copying merge as they stood before each VM's entry became one in-place
register; the eager loop writes its tables with them.
`PacketTrace` and `PacketRecord` are the per-packet records the library kept
before it reported from its delivery stream; `packet_records` reads a
library report as such records, to compare with the eager loop's bit for bit.
`summary` reads the counts and aggregates of a report's `# summary:` row.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass, field, replace

import dcrsim
from dcrsim import (AnycastAddress, DcrId, EventKind, Notification,
                    NotificationKind, Overlay, OverlayMetrics,
                    ParseError, Point, UnicastAddress, VmMode,
                    VmRecord, distance, flood_duplicate_count, overlay_metrics)

INF = float("inf")
TUNNEL_HEADER_BYTES = 20  # the simulator's default


def floyd_warshall(nodes, edges):
    """All-pairs shortest paths by the classic triple loop.

    nodes: iterable of hashable node ids.
    edges: mapping (a, b) -> cost, undirected.

    Returns dist[a][b] as a dict of dicts; unreachable pairs stay at inf.
    """
    order = sorted(nodes)
    dist = {a: {b: (0.0 if a == b else INF) for b in order} for a in order}
    for (a, b), cost in edges.items():
        if cost < dist[a][b]:
            dist[a][b] = cost
            dist[b][a] = cost
    for k in order:
        row_k = dist[k]
        for i in order:
            dik = dist[i][k]
            if dik == INF:
                continue
            row_i = dist[i]
            for j in order:
                via = dik + row_k[j]
                if via < row_i[j]:
                    row_i[j] = via
    return dist


def dijkstra(edges, src):
    """Single-source shortest paths with a binary heap.

    edges: mapping (a, b) -> cost, undirected. Each delay is the float sum of
    the costs along the path, added from src outward. Returns dist[v] for
    every v reachable from src.
    """
    adj = {}
    for (a, b), cost in edges.items():
        adj.setdefault(a, []).append((b, cost))
        adj.setdefault(b, []).append((a, cost))
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, cost in adj.get(v, ()):
            nd = d + cost
            if nd < dist.get(w, INF):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def dijkstra_matrix(nodes, edges):
    """dist[i][j] from src nodes[i] to nodes[j] by one dijkstra per source, as
    nested lists; unreachable pairs are inf."""
    rows = [dijkstra(edges, s) for s in nodes]
    return [[row.get(w, INF) for w in nodes] for row in rows]


def pair_delays(nodes, edges):
    """Shortest-path delay for every unordered pair, as a flat list."""
    dist = floyd_warshall(nodes, edges)
    order = sorted(nodes)
    out = []
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            out.append(dist[a][b])
    return out


def scalar_nearest_dcr(p, t):
    """The DCR nearest p by a scan of every DCR; ties go to the lowest id."""
    return min(t.ids(), key=lambda i: (distance(p, t.position(i)), i))


def scalar_build_tree(t, root=None):
    """Stage 1 with a Python scan of the whole tree for each joiner's nearest
    in-tree node, as the library's `build_tree` did before it was vectorised."""
    if root is None:
        xs = [p.x for _, p in t.dcrs]
        ys = [p.y for _, p in t.dcrs]
        center = Point((min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0)
        root = scalar_nearest_dcr(center, t)
    rp = t.position(root)
    pending = sorted((i for i in t.ids() if i != root),
                     key=lambda i: (distance(rp, t.position(i)), i))
    in_tree = [root]
    parents = {}
    edges = {}
    for j in pending:
        jp = t.position(j)
        k = min(in_tree, key=lambda v: (distance(jp, t.position(v)), v))
        attach = k
        if k != root:
            m = parents[k]
            direct = distance(jp, t.position(m))
            indirect = distance(jp, t.position(k)) + distance(t.position(k), t.position(m))
            if indirect >= 1.25 * direct:
                attach = m
        parents[j] = attach
        edges[(min(j, attach), max(j, attach))] = distance(jp, t.position(attach))
        in_tree.append(j)
    return Overlay(nodes=tuple(t.ids()), edges=edges, root=root)


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


def as_library_table(table: ForwardingTable) -> dict[AnycastAddress, dcrsim.VmRegister]:
    """The library's form of an oracle table: one register per address
    that holds any stamp, with the same stamps."""
    vms = set(table._adds) | set(table._removes) | set(table._migrations)
    return {vm: dcrsim.VmRegister(table._migrations.get(vm), dict(table._adds.get(vm, {})),
                                  dict(table._removes.get(vm, {}))) for vm in vms}


def notification_origin(n: Notification) -> DcrId:
    """The DCR whose router starts n's flood: the destination for a migration
    or a replication, the departed DCR for a destruction."""
    if n.kind is NotificationKind.REPLICATION:
        return n.dcr_addrs[1]
    return n.dcr_addrs[0]


def lookup(table, vm, at, t):
    """Where router `at` forwards a packet for vm: the nearest DCR among the
    table entry (ties to the lowest id), or the address's own subblock DCR
    when the table has no entry (packets then fall back to the birth DC)."""
    members = table.entry(vm)
    if not members:
        return vm.subblock
    ap = t.position(at)
    return min(members, key=lambda d: (distance(ap, t.position(d)), d))


@dataclass(frozen=True)
class PacketTrace:
    """Path one packet took, as (from, to, delay) hops, where each end is a
    user's Point or a DCR id. delivered_at is the final DCR, or None for a
    miss (the packet arrived where the VM no longer was); replies terminate
    at the user's position, also None."""

    hops: tuple
    tunneled: bool
    delivered_at: DcrId | None

    @property
    def total_delay(self) -> float:
        return sum(delay for _, _, delay in self.hops)


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


def packet_records(report: dcrsim.SimReport) -> list[PacketRecord]:
    """A library report's deliveries as packet records: each path as its
    hops, and a delivered packet's reply straight back from where it was
    delivered, `direct` away. Stretch and penalty come from the library's own
    formula, so the records hold the values its report summarises."""
    out = []
    deliveries = [x for x in report.stream if type(x) is dcrsim.Delivery]
    for k, (send, user, ingress, target, at, delays, direct) in enumerate(deliveries):
        ev = report.events[send]
        hops = (((user, target, delays[0]),) if ingress is None else
                ((user, ingress, delays[0]), (ingress, target, delays[1])))
        stretch = penalty = reply = None
        if at is not None:
            stretch, penalty = dcrsim.simulator._stretch_penalty(sum(delays), direct)
            reply = PacketTrace(((at, user, direct),), False, None)
        out.append(PacketRecord(k, ev.time, ev.user, ev.vm, ev.session, ingress, target,
                                PacketTrace(hops, ingress is not None, at),
                                stretch, penalty, reply))
    return out


def route_user_packet(user, ingress, vm, table, t):
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


def route_reply(vm_location, user, t):
    """Reply path: straight from the hosting DCR back to the user, no tunnel
    (the user's address is a plain destination)."""
    hop = (vm_location, user, distance(t.position(vm_location), user))
    return PacketTrace(hops=(hop,), tunneled=False, delivered_at=None)


def _fmt_endpoint(e):
    if isinstance(e, Point):
        return f"({e.x:.6f},{e.y:.6f})"
    return f"dcr{e}"


def format_trace_line(time, trace):
    hops = " ".join(f"{_fmt_endpoint(a)}->{_fmt_endpoint(b)}:{d:.6f}"
                    for a, b, d in trace.hops)
    result = "MISS" if trace.delivered_at is None else f"dcr{trace.delivered_at}"
    return (f"PKT {time:.6f} {hops} delay={trace.total_delay:.6f} "
            f"tunneled={int(trace.tunneled)} result={result}")


def format_notification_line(n: Notification) -> str:
    addrs = ",".join(str(d) for d in n.dcr_addrs)
    return f"NOTIFY {n.seq} {n.kind.value} {n.vm} {addrs}"


def summary(report):
    """The `# summary:` row of report's CSV, as a dict of its values."""
    row = report.to_csv().splitlines()[-1]
    assert row.startswith("# summary: "), row
    return {key: float(value) for key, _, value in
            (item.partition("=") for item in row[len("# summary: "):].split())}


_CSV_HEADER = ("packet,time,user,vm,session,ingress,target,result,"
               "total_delay,tunneled,stretch,penalty,reply_delay,reply_tunneled")


def _opt(v):
    return "" if v is None else f"{v:.6f}"


@dataclass
class EagerReport:
    """The report as the library built it before it recorded deliveries:
    packet records and trace lines made per packet, and the CSV rendered
    from the records."""

    packets: list
    notifications: int
    duplicate_notifications: int
    session_breaks: int
    sessions: dict
    tunnel_header_bytes: int
    overlay: OverlayMetrics
    trace_lines: list

    @property
    def delivered(self):
        return sum(1 for p in self.packets if p.trace.delivered_at is not None)

    @property
    def missed(self):
        return len(self.packets) - self.delivered

    def _agg(self, values):
        if not values:
            return 0.0, 0.0
        total = 0.0
        for v in values:  # left to right, which sum() of floats is not on every Python
            total += v
        return total / len(values), max(values)

    def to_csv(self):
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


class EagerSimulation:
    """The simulator's eager flood path, kept as a differential oracle.

    Every flood pushes one arrival event per DCR, and each arrival merges the
    notification into that DCR's own table, so the tables are always
    materialised and a packet reads its ingress table as it stands. Events
    are ordered by (time, push counter), as in the library. Unlike the rest
    of this module it uses the package's own types, but it owns its table
    merge, its flood origins and delays (by `dijkstra`), its event order, its
    tables, its ground truth, its routing and its report, which are what it
    cross-checks. Valid scenarios only: it checks no lifecycle
    legality.
    """

    def __init__(self, topology, overlay, events):
        self.topology = topology
        self.overlay = overlay
        self.now = 0.0
        self.tables = {d: ForwardingTable() for d in topology.ids()}
        self.vms = {}
        self.users = {}
        self.sessions = {}
        self.trace_lines = []
        # By (address family, DC): the next host number there.
        self._hosts = {}
        self._seq = itertools.count()
        self._counter = itertools.count()
        self._heap = []
        self._packets = []
        self._notifications = self._duplicates = self._breaks = self._tunnel = 0
        for ev in sorted(events, key=lambda e: e.time):
            self._push(ev.time, "scenario", ev)

    def _push(self, time, kind, payload):
        heapq.heappush(self._heap, (time, next(self._counter), kind, payload))

    def step(self):
        if not self._heap:
            return False
        self.now, _, kind, payload = heapq.heappop(self._heap)
        if kind == "scenario":
            self._scenario(payload)
        elif kind == "apply":
            d, n = payload
            self.tables[d] = apply_notification(self.tables[d], n)
        else:
            self._deliver(*payload)
        return True

    def run_until(self, time):
        while self._heap and self._heap[0][0] <= time:
            self.step()
        self.now = max(self.now, time)

    def pending_floods(self):
        return sum(1 for _, _, kind, _ in self._heap if kind == "apply")

    def run(self):
        while self.step():
            pass
        return EagerReport(packets=list(self._packets),
                         notifications=self._notifications,
                         duplicate_notifications=self._duplicates,
                         session_breaks=self._breaks, sessions=dict(self.sessions),
                         tunnel_header_bytes=self._tunnel,
                         overlay=overlay_metrics(self.overlay),
                         trace_lines=list(self.trace_lines))

    def _scenario(self, ev):
        if ev.kind is EventKind.PLACE_USER:
            user = Point(ev.x, ev.y)
            self.users[ev.user] = (user, scalar_nearest_dcr(user, self.topology))
        elif ev.kind is EventKind.SEND_PACKET:
            user, ingress = self.users[ev.user]
            vm = self.vms[ev.vm]
            first = vm.address.dc if vm.mode is VmMode.UNICAST else ingress
            arrival = ev.time + distance(user, self.topology.position(first))
            self._push(arrival, "deliver", (ev, user, ingress))
        elif ev.kind is EventKind.CREATE_VM:
            family = UnicastAddress if ev.mode is VmMode.UNICAST else AnycastAddress
            host = self._hosts.get((family, ev.dc), 0)
            self._hosts[family, ev.dc] = host + 1
            self.vms[ev.vm] = VmRecord(address=family(ev.dc, host), mode=ev.mode,
                                       locations={ev.dc})
        else:
            self._lifecycle(ev)

    def _lifecycle(self, ev):
        vm = self.vms[ev.vm]
        if ev.kind is EventKind.MIGRATE_VM:
            vm.locations = {ev.dc}
            kind, addrs = NotificationKind.MIGRATION, (ev.dc,)
        elif ev.kind is EventKind.REPLICATE_VM:
            vm.locations.add(ev.dst_dc)
            kind, addrs = NotificationKind.REPLICATION, (ev.src_dc, ev.dst_dc)
        else:
            vm.locations.discard(ev.dc)
            if vm.mode is VmMode.UNICAST:
                return
            kind, addrs = NotificationKind.DESTRUCTION, (ev.dc,)
        n = Notification(kind, vm.address, addrs, next(self._seq))
        self._notifications += 1
        self._duplicates += flood_duplicate_count(self.overlay)
        self.trace_lines.append(format_notification_line(n))
        delays = dijkstra(self.overlay.edges, notification_origin(n))
        for d in self.topology.ids():
            self._push(self.now + delays[d], "apply", (d, n))

    def _deliver(self, ev, user, ingress):
        vm = self.vms[ev.vm]
        table = None if vm.mode is VmMode.UNICAST else self.tables[ingress]
        trace = route_user_packet(user, ingress, vm, table, self.topology)
        stretch = penalty = None
        if vm.mode is VmMode.UNICAST:
            ingress = None
            target = vm.address.dc
            if trace.delivered_at is not None:
                stretch, penalty = 1.0, 0.0
        else:
            target = trace.hops[-1][1]
            self._tunnel += TUNNEL_HEADER_BYTES
            if trace.delivered_at is not None:
                direct = distance(user, self.topology.position(target))
                stretch = 1.0 if direct == 0.0 else trace.total_delay / direct
                penalty = trace.total_delay - direct
        reply = None
        if trace.delivered_at is not None:
            reply = route_reply(trace.delivered_at, user, self.topology)
        self._packets.append(PacketRecord(
            index=len(self._packets), time=ev.time, user=ev.user, vm=ev.vm,
            session=ev.session, ingress=ingress, target=target, trace=trace,
            stretch=stretch, penalty=penalty, reply=reply))
        self.trace_lines.append(format_trace_line(ev.time, trace))
        if ev.session is not None:
            self._track_session(ev, trace.delivered_at)

    def _track_session(self, ev, delivered_at):
        st = self.sessions.setdefault(
            ev.session, SessionState(session_id=ev.session, user=ev.user, vm=ev.vm))
        if not st.open:
            return
        if delivered_at is None:
            st.open = False
            self._breaks += 1
        elif st.pinned_location is None:
            st.pinned_location = delivered_at
        elif delivered_at != st.pinned_location:
            if self.vms[ev.vm].mode is VmMode.ANYCAST_REPLICATED:
                st.open = False
                self._breaks += 1
            else:
                st.pinned_location = delivered_at


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


def parse_scenario(text: str) -> list[ScenarioEvent]:
    """Parse a scenario file; events stay in file order (the engine sorts
    stably by time). Blank lines and `#` comments are ignored."""
    events: list[ScenarioEvent] = []
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
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
                ev = ScenarioEvent(time, EventKind.PLACE_USER, user=parts[2],
                                   x=float(parts[3]), y=float(parts[4]), line=lineno)
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
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"line {lineno}: bad number in {raw!r}") from None
        events.append(ev)
    return events
