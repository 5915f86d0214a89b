"""Deterministic discrete-event simulation of the whole system.

A scenario is compiled once, then replayed. Compiling sorts it stably by time
and checks every name, DC id and lifecycle rule in one pass, so a bad line
fails with its number before anything runs. The replay walks one sorted list
of entries: a lifecycle change starts a flood, which reaches each DCR after
its overlay delay from the origin, and a packet is delivered at its first
DCR against that router's table at that moment, so packets genuinely race
floods. Tables are not written per DCR: a packet reads its VM's register,
plus the VM's floods in flight that have reached the DCR. There is no
randomness, so the same inputs always reproduce the same report byte for byte.
"""

from __future__ import annotations

import bisect
import collections
import enum
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from math import hypot
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import ConfigError, ModeConflict, ParseError, ScenarioError
from .overlay import (Overlay, OverlayMetrics, _spanning_tree, flood_duplicate_count,
                      overlay_metrics)
from .protocol import (_DESTRUCTION, _MIGRATION, _REPLICATION, Notification, NotificationKind,
                       VmMode, VmRecord, VmRegister, lookup, notification_origin)
from .topology import (AnycastAddress, DcrId, Point, Topology, UnicastAddress, box_reach,
                       distance, input_lines, nearest_among, read_input)

TUNNEL_HEADER_BYTES = 20

# One flooded notification: (emit time, scenario index, origin, notification).
LogEntry = tuple[float, int, DcrId, Notification]
# One step of the replay, with what it needs (see _compile and _queue).
Entry = tuple[float, int, int, tuple]  # time, phase, scenario index, change or send


class EventKind(enum.Enum):
    CREATE_VM = "create"
    MIGRATE_VM = "migrate"
    REPLICATE_VM = "replicate"
    DESTROY_VM_AT = "destroy"
    PLACE_USER = "user"
    SEND_PACKET = "send"

    __hash__ = object.__hash__  # members are singletons; Enum's own hash runs in Python


_MODES = {m.value: m for m in VmMode}


class ScenarioEvent(NamedTuple):
    """One scenario line, as an immutable named tuple. A Simulation checks
    its values when it compiles it: a negative or non-finite time, a
    non-finite coordinate, or a field its kind needs but lacks fails there,
    with its line."""

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


# Builds a named tuple (a ScenarioEvent, a Delivery) from all its fields in
# order, faster than its keyword constructor.
_new_tuple = tuple.__new__
# The members read once per event or packet: a module global is read faster.
_SEND, _CREATE, _PLACE = EventKind.SEND_PACKET, EventKind.CREATE_VM, EventKind.PLACE_USER
_MIGRATE, _REPLICATE = EventKind.MIGRATE_VM, EventKind.REPLICATE_VM
_UNICAST, _MIGRATABLE, _REPLICATED = VmMode  # an Enum iterates in definition order

# Each kind of word on a scenario line: how it is read, how it is written
# back, and what an event built in code may hold in its place.
_NAME = (str, str, str)
_DC = (int, str, int)
_COORDINATE = (float, repr, (float, int))
_MODE = (_MODES.__getitem__, operator.attrgetter("value"), VmMode)

# The line grammar of each kind: after the time and the kind's word (its
# EventKind value), the fields the kind needs, in line order, each with its
# word. A send may end in `session <id>`; parse_scenario reads sends, most
# lines of a large scenario, on a path of their own, and a send needs a
# placed user and a created VM rather than a check of its fields' types.
_GRAMMAR = {
    EventKind.CREATE_VM: (("vm", _NAME), ("dc", _DC), ("mode", _MODE)),
    EventKind.MIGRATE_VM: (("vm", _NAME), ("dc", _DC)),
    EventKind.REPLICATE_VM: (("vm", _NAME), ("src_dc", _DC), ("dst_dc", _DC)),
    EventKind.DESTROY_VM_AT: (("vm", _NAME), ("dc", _DC)),
    EventKind.PLACE_USER: (("user", _NAME), ("x", _COORDINATE), ("y", _COORDINATE)),
    EventKind.SEND_PACKET: (("user", _NAME), ("vm", _NAME)),
}
# By line word and length: the kind, and each field's slot in the event, its
# reader and its word's position on the line, last word first. A `create`
# line ends in its mode word, and a bad one is reported as an unrecognized
# event before a bad number is.
_LINES = {(kind.value, len(fields) + 2):
          (kind, [(ScenarioEvent._fields.index(name), read, 2 + i)
                  for i, (name, (read, _, _)) in enumerate(fields)][::-1])
          for kind, fields in _GRAMMAR.items()}


def parse_scenario(text: str) -> list[ScenarioEvent]:
    """Read a scenario file's events in file order, skipping blank lines and
    `#` comments. A Simulation sorts them stably by time and checks values."""
    events: list[ScenarioEvent] = []
    append = events.append
    for lineno, raw in enumerate(input_lines(text), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        n = len(parts)
        if n < 2:
            raise ParseError(f"line {lineno}: incomplete event {raw!r}")
        try:
            time = float(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad time {parts[0]!r}") from None
        word = parts[1]
        if word == "send" and (n == 4 or n == 6):
            # Most lines are sends, so they take the shortest path.
            session = None
            if n == 6:
                if parts[4] != "session":
                    raise ParseError(f"line {lineno}: expected `session <id>` in {raw!r}")
                session = parts[5]
            ev = _new_tuple(ScenarioEvent, (time, _SEND, parts[3], None, None, None, None,
                                            parts[2], None, None, session, lineno))
        else:
            try:
                kind, readers = _LINES[word, n]
                slots = [time, kind, None, None, None, None, None, None, None, None, None, lineno]
                for slot, read, at in readers:
                    slots[slot] = read(parts[at])
            except KeyError:  # an unknown word, a wrong length or a bad mode word
                raise ParseError(f"line {lineno}: unrecognized event {raw!r}") from None
            except ValueError:
                raise ParseError(f"line {lineno}: bad number in {raw!r}") from None
            ev = _new_tuple(ScenarioEvent, slots)
        append(ev)
    return events


def format_scenario(events: list[ScenarioEvent]) -> str:
    """Inverse of parse_scenario, used to persist generated scenarios."""
    out = []
    for ev in events:
        words = [repr(ev.time), ev.kind.value]
        words += [write(getattr(ev, name)) for name, (_, write, _) in _GRAMMAR[ev.kind]]
        if ev.session:
            words += ["session", ev.session]
        out.append(" ".join(words))
    return "\n".join(out) + "\n"


def _where(ev: ScenarioEvent) -> str:
    """The prefix that names ev's line in an error about it."""
    return f"line {ev.line}: " if ev.line is not None else ""


def _check_name(ev: ScenarioEvent, name: object) -> None:
    """Reject a name that would break a CSV row or a scenario file: empty, or
    with whitespace, a comma or a quote."""
    text = str(name)
    if text.split() != [text] or "," in text or '"' in text:
        raise ScenarioError(f"{_where(ev)}bad identifier {name!r}")


def load_scenario(path: str) -> list[ScenarioEvent]:
    return parse_scenario(read_input(path))


class Delivery(NamedTuple):
    """One packet delivery: its send's scenario index, its user's position,
    and its path. ingress is None for unicast, which bypasses it; else the
    packet was tunnelled from there to target. delivered_at is target, or
    None for a miss. delays holds each hop's delay in hop order, and direct
    is the user's distance to target, also the delay of the reply."""

    send: int
    user: Point
    ingress: DcrId | None
    target: DcrId
    delivered_at: DcrId | None
    delays: tuple[float, ...]
    direct: float


_CSV_HEADER = ("packet,time,user,vm,session,ingress,target,result,"
               "total_delay,tunneled,stretch,penalty,reply_delay,reply_tunneled\n")
# SimReport.render's templates, one per kind of row and trace line. Names
# and ids go in as %s, times and delays as %.6f and the tunnel flag as %d.
_DELIVERED_ROW = "%s,%.6f,%s,%s,%s,%s,%s,%s,%.6f,%d,%.6f,%.6f,%.6f,0\n"
_MISS_ROW = "%s,%.6f,%s,%s,%s,%s,%s,MISS,%.6f,%d,,,,\n"
# A NOTIFY line's template by its DCR id count less one, and each kind's word.
_NOTIFY = ("NOTIFY %s %s %s %s\n", "NOTIFY %s %s %s %s,%s\n")
_KIND_WORDS = {kind: kind.value for kind in NotificationKind}
_USER_HOP = "(%.6f,%.6f)->dcr%s:%.6f"
_TUNNELED_PKT = "PKT %.6f %s dcr%s->dcr%s:%.6f delay=%.6f tunneled=1 result=%s%s\n"
_DIRECT_PKT = "PKT %.6f %s delay=%.6f tunneled=0 result=%s%s\n"
_SUMMARY = ("# summary: packets=%s delivered=%s miss=%s session_breaks=%s notifications=%s"
            " duplicate_notifications=%s tunnel_header_bytes=%s mean_delay=%.6f max_delay=%.6f"
            " mean_stretch=%.6f max_stretch=%.6f mean_penalty=%.6f max_penalty=%.6f"
            " overlay_worst=%.6f overlay_avg=%.6f overlay_overhead=%.6f\n")
# A broken session's entry in render's pins: closed, it never breaks again.
_CLOSED = object()
# Stream entries formatted by one `%`. This bounds the values alive at once,
# and blocks this small kept a run's peak RSS below that of blocks of 1024.
_BLOCK = 256


def _stretch_penalty(total: float, direct: float) -> tuple[float, float]:
    """A delivered packet's stretch and penalty: its delay against the
    user's direct distance to where it was delivered."""
    return (1.0 if direct == 0.0 else total / direct), total - direct


def _mean(values: Sequence[float]) -> float:
    """The mean of finite values, added left to right, as sum() does not on
    every Python. Their sum may overflow though their mean cannot."""
    n = len(values)
    total = functools.reduce(operator.add, values, 0.0)
    return math.fsum(v / n for v in values) if total == math.inf else total / n


def _agg(values: list[float]) -> tuple[float, float]:
    return (_mean(values), max(values)) if values else (0.0, 0.0)


@dataclass
class SimReport:
    """What a run produced: one stream of its flooded notifications and
    packet deliveries, in replay order. The CSV, its summary row's counts
    and the trace lines are all made from it in one walk (render).

    A session is a long-lived connection, pinned to the DC that last
    answered it. It breaks when the connection cannot continue there: its
    packet missed, or a replicated VM answered it from a different replica
    (replicas share no connection state, so the peer resets). Migration
    moves the VM's state along, so a migrated session survives the move.
    A broken session is closed: its later packets still route, but never
    break it again. A VM's mode is that of its create.
    """

    stream: list[Notification | Delivery]
    events: Sequence[ScenarioEvent]  # the scenario sorted by time, as Delivery.send indexes it
    overlay: OverlayMetrics
    flood_duplicates: int  # duplicate receptions of each flooded notification

    @functools.cached_property
    def trace_lines(self) -> list[str]:
        return self.render(trace=True)[1].split("\n")[:-1]

    def to_csv(self) -> str:
        return self.render()[0]

    def render(self, trace: bool = False) -> tuple[str, str | None]:
        """The CSV report and, if trace, the NOTIFY/PKT lines as one text
        (else None), from one walk of the stream. The walk picks each row's
        and line's template and gathers its values, and each block of
        _BLOCK stream entries is formatted with one `%` per output. Each
        placement's user hop is formatted once. The walk also makes every
        count of the summary row, session breaks included."""
        csv, text = _CSV_HEADER, ""
        events, stream = self.events, self.stream
        modes = {ev.vm: ev.mode for ev in events if ev.kind is _CREATE}
        # Each session's pinned DC, or _CLOSED once it has broken.
        pins: dict[str, DcrId | object] = {}
        # Keyed on the identity of the user's Point, which the stream keeps
        # alive, and not on its value: -0.0 == 0.0, but they print apart.
        user_hops: dict[tuple[int, DcrId], str] = {}
        delays, stretches, penalties = [], [], []
        packet = tunnels = breaks = 0
        for start in range(0, len(stream), _BLOCK):
            rows, row_values, lines, line_values = [], [], [], []
            for x in stream[start:start + _BLOCK]:
                if type(x) is not Delivery:
                    if trace:
                        addrs = x.dcr_addrs
                        lines.append(_NOTIFY[len(addrs) - 1])
                        line_values += (x.seq, _KIND_WORDS[x.kind], x.vm) + addrs
                    continue
                send, user, ingress, target, at, hop_delays, direct = x
                ev = events[send]
                session = ev.session
                total, tunneled = sum(hop_delays), ingress is not None
                row_values += (packet, ev.time, ev.user, ev.vm, session or "",
                               ingress if tunneled else "", target)
                packet += 1
                tunnels += tunneled
                # A session's first packet pins it where it is delivered.
                if session is not None and (pin := pins.get(session, at)) is not _CLOSED:
                    if at is None or pin != at and modes[ev.vm] is _REPLICATED:
                        pins[session] = _CLOSED
                        breaks += 1
                    else:
                        pins[session] = at
                if at is None:
                    rows.append(_MISS_ROW)
                    row_values += (total, tunneled)
                else:
                    # A reply goes straight back from `at`, which is target: `direct` away.
                    stretch, penalty = _stretch_penalty(total, direct)
                    rows.append(_DELIVERED_ROW)
                    row_values += (at, total, tunneled, stretch, penalty, direct)
                    delays.append(total)
                    stretches.append(stretch)
                    penalties.append(penalty)
                if trace:
                    first = ingress if tunneled else target
                    hop = user_hops.get((id(user), first))
                    if hop is None:
                        hop = user_hops[id(user), first] = _USER_HOP % (
                            user.x, user.y, first, hop_delays[0])
                    if tunneled:
                        lines.append(_TUNNELED_PKT)
                        line_values += (ev.time, hop, ingress, target, hop_delays[1], total)
                    else:
                        lines.append(_DIRECT_PKT)
                        line_values += (ev.time, hop, total)
                    line_values += ("MISS", "") if at is None else ("dcr", at)
            csv += "".join(rows) % tuple(row_values)
            if trace:
                text += "".join(lines) % tuple(line_values)
        o, notifications = self.overlay, len(stream) - packet
        csv += _SUMMARY % (packet, len(delays), packet - len(delays), breaks, notifications,
                           notifications * self.flood_duplicates, TUNNEL_HEADER_BYTES * tunnels,
                           *_agg(delays), *_agg(stretches), *_agg(penalties),
                           o.worst_delay, o.avg_delay, o.flooding_overhead)
        return csv, text if trace else None


class Simulation:
    """Compiles a scenario against a topology and overlay, then replays it.
    Use run() for the whole scenario or run_until()/step() to inspect
    intermediate state."""

    def __init__(self, topology: Topology, overlay: Overlay,
                 events: list[ScenarioEvent]) -> None:
        if set(overlay.nodes) != set(topology.ids()):
            raise ConfigError("overlay nodes do not match the topology's DCR ids")
        # Floods travel the overlay at its edge costs and packets travel the
        # map, so the two must agree (to the 6 decimals of an overlay file).
        for (a, b), cost in overlay.edges.items():
            length = distance(topology.position(a), topology.position(b))
            if abs(cost - length) > 1e-6:
                raise ConfigError(f"overlay edge {a} {b} costs {cost!r}, but DCRs "
                                  f"{a} and {b} are {length!r} apart")
        # Refused here, not part-way through the replay; set-up computes no delays.
        _spanning_tree(overlay, {v: i for i, v in enumerate(overlay.nodes)})
        self.topology = topology
        self.overlay = overlay
        self.now = 0.0
        # The VMs created so far in the replay, with their hosts at `now`.
        self.vms: dict[str, VmRecord] = {}
        # Checked before the sort, which a NaN time would leave in no order.
        # An int past the largest float has no float sum, so it is not finite.
        largest = sys.float_info.max
        for ev in events:
            at = ev.time  # parsed times are floats, so test that type first
            if type(at) is float or isinstance(at, (float, int)) and type(at) is not bool:
                if 0.0 <= at <= largest:
                    continue
                must = ">= 0" if -largest <= at < 0.0 else "finite"
            else:  # None, a bool, or a Decimal or Fraction that no float sum takes
                must = "a number"
            raise ScenarioError(f"{_where(ev)}event time must be {must}, got {ev.time!r}")
        self._events = sorted(events, key=lambda e: e.time)
        # Every VM the scenario creates, by number, which is its order of
        # creation. Compiling leaves each at its final hosts; the replay sets
        # them change by change.
        self._records: list[VmRecord] = []
        # Each lifecycle change's Entry; each placement's position, by its
        # number; and each send's (time, scenario index, its user's placement
        # number, VM, VM number), which _queue makes an Entry of.
        self._changes: list[Entry] = []
        self._users: list[Point] = []
        self._sends: list[tuple[float, int, int, VmRecord, int]] = []
        self._compile()
        self._next = 0  # position in _queue of the next entry to replay
        # By VM number: the register of the notifications folded as settled, and
        # the log of the rest: those in flight, and any settled since the last read.
        self._settled = [VmRegister() for _ in self._records]
        self._logs: list[list[LogEntry]] = [[] for _ in self._records]
        # Every flooded notification and packet delivery, in replay order.
        self._stream: list[Notification | Delivery] = []

    def _compile(self) -> None:
        """Check every event in time order, with its line number, and record
        what the replay needs. Ground truth does not depend on floods, so a
        bad scenario fails here, before any event runs."""
        known = set(self.topology.ids())
        x0, x1, y0, y1 = self.topology.box
        seqs = itertools.count()
        # By address family and DC: the host numbers of the VMs created there.
        host_numbers = collections.defaultdict(itertools.count)
        # No flood delay exceeds the overlay's total link cost.
        flood_reach = self.overlay.total_cost
        # Each user's latest placement number, with two diagonals of the box
        # around the DCRs and the user, which bound a packet's two hops (user
        # to ingress, then on).
        placed: dict[str, tuple[int, float]] = {}
        numbers: dict[str, int] = {}  # each VM's number
        records, isfinite, largest = self._records, math.isfinite, sys.float_info.max
        for i, ev in enumerate(self._events):
            if ev.kind is _SEND:
                user, k = placed.get(ev.user), numbers.get(ev.vm)
                if user is None:
                    raise ScenarioError(f"{_where(ev)}unknown user {ev.user}")
                if k is None:
                    raise ScenarioError(f"{_where(ev)}unknown vm {ev.vm}")
                if not isfinite(ev.time + user[1]):
                    raise ScenarioError(f"{_where(ev)}send at {ev.time!r} is too late: "
                                        "its packet's arrival time overflows")
                if ev.session is not None:
                    _check_name(ev, ev.session)
                self._sends.append((ev.time, i, user[0], records[k], k))
                continue
            fields = _GRAMMAR.get(ev.kind)
            if fields is None:
                raise ScenarioError(f"{_where(ev)}unknown event kind {ev.kind!r}")
            for name, (_, _, holds) in fields:
                value = getattr(ev, name)
                if not isinstance(value, holds) or type(value) is bool:
                    lacks = ", ".join(f for f, _ in fields if getattr(ev, f) is None)
                    fault = f"lacks its {lacks}" if lacks else f"has a bad {name}: {value!r}"
                    raise ScenarioError(f"{_where(ev)}{ev.kind.value} event {fault}")
            if ev.kind is _PLACE:
                _check_name(ev, ev.user)
                # As for times, an int past the largest float is not finite.
                if not (-largest <= ev.x <= largest and -largest <= ev.y <= largest):
                    raise ScenarioError(f"{_where(ev)}user {ev.user} at ({ev.x}, {ev.y}): "
                                        "coordinates must be finite")
                reach = box_reach(min(x0, ev.x), max(x1, ev.x), min(y0, ev.y), max(y1, ev.y), 2)
                if not math.isfinite(reach):
                    raise ScenarioError(f"{_where(ev)}user {ev.user} at ({ev.x!r}, {ev.y!r}) "
                                        "is too far from the DCRs: a packet's distance overflows")
                placed[ev.user] = len(self._users), reach
                self._users.append(Point(ev.x, ev.y))
                continue
            # The DC ids the line names, which its notification carries too.
            dc_ids = (ev.src_dc, ev.dst_dc) if ev.kind is _REPLICATE else (ev.dc,)
            for dc in dc_ids:
                if dc not in known:
                    raise ScenarioError(f"{_where(ev)}unknown DCR id {dc}")
            k = numbers.get(ev.vm)
            vm = None if k is None else records[k]
            kind = None
            if ev.kind is _CREATE:
                if vm is not None:
                    raise ScenarioError(f"{_where(ev)}vm {ev.vm} already exists")
                _check_name(ev, ev.vm)
                family = UnicastAddress if ev.mode is _UNICAST else AnycastAddress
                address = family(ev.dc, next(host_numbers[family, ev.dc]))
                k = numbers[ev.vm] = len(records)
                vm = VmRecord(address=address, mode=ev.mode, locations={ev.dc})
                records.append(vm)
            elif vm is None:
                raise ScenarioError(f"{_where(ev)}unknown vm {ev.vm}")
            elif ev.kind is _MIGRATE:
                if vm.mode is not _MIGRATABLE:
                    raise ModeConflict(f"{_where(ev)}cannot migrate {vm.mode.value} vm {ev.vm}")
                if not vm.locations:
                    raise ScenarioError(f"{_where(ev)}vm {ev.vm} has been destroyed")
                vm.locations = {ev.dc}
                kind = _MIGRATION
            elif ev.kind is _REPLICATE:
                if vm.mode is not _REPLICATED:
                    raise ModeConflict(f"{_where(ev)}cannot replicate {vm.mode.value} vm {ev.vm}")
                if ev.src_dc not in vm.locations:
                    raise ScenarioError(f"{_where(ev)}vm {ev.vm} has no replica at DC {ev.src_dc}")
                if ev.dst_dc in vm.locations:
                    raise ScenarioError(f"{_where(ev)}vm {ev.vm} already has a replica "
                                        f"at DC {ev.dst_dc}")
                vm.locations.add(ev.dst_dc)
                kind = _REPLICATION
            else:
                if ev.dc not in vm.locations:
                    raise ScenarioError(f"{_where(ev)}vm {ev.vm} is not hosted at DC {ev.dc}")
                vm.locations.discard(ev.dc)
                kind = _DESTRUCTION
            # Creations and unicast changes flood nothing: no table holds them.
            floods = kind is not None and vm.mode is not _UNICAST
            if floods and not math.isfinite(ev.time + flood_reach):
                raise ScenarioError(f"{_where(ev)}{ev.kind.value} at {ev.time!r} is too late: "
                                    "its flood's arrival times overflow")
            flood = (kind, dc_ids, next(seqs)) if floods else None
            self._changes.append((ev.time, 0, i, (k, ev.vm, frozenset(vm.locations), flood)))

    @functools.cached_property
    def _queue(self) -> list[Entry]:
        """Every Entry in replay order: a change at its time with phase 0,
        and a send at its packet's arrival at the first DCR with phase 1, so
        changes go first at equal times. (time, phase, index) is unique, so
        the sort never compares two steps' data. A send carries where its
        user was and the ingress chosen there, so a user who moves while its
        packet is in flight does not reroute it. Its first hop's delay times
        its arrival, and routing reuses it."""
        users, position = self._users, self.topology.position
        ingresses = nearest_among(users, self.topology)
        hops = [distance(user, position(d)) for user, d in zip(users, ingresses)]
        queue = self._changes.copy()
        for time, j, p, vm, k in self._sends:
            user = users[p]
            hop = distance(user, position(vm.address.dc)) if vm.mode is _UNICAST else hops[p]
            queue.append((time + hop, 1, j, (user, ingresses[p], hop, vm, k)))
        queue.sort()
        return queue

    @functools.cached_property
    def _longest(self) -> list[float]:
        """By origin id - 1, its flood's longest delay: when it has reached every DCR."""
        return self.overlay._delays.max(axis=1).tolist()

    def _reached(self, entry: LogEntry, dcr: DcrId, index: float) -> bool:
        """The arrival rule: entry's flood has reached dcr for the packet of send
        `index`, arriving now, iff (its arrival, its change's index) < (now, index)."""
        emit, i, origin, _ = entry
        return (emit + self.overlay._delays.item(origin - 1, dcr - 1), i) < (self.now, index)

    def _read_table(self, dcr: DcrId, k: int, index: float) -> VmRegister:
        """VM k's entry in dcr's table as the packet of send `index`, arriving
        now, reads it: the notifications that have reached dcr (_reached).
        Those that reached every DCR before `now` are first folded into the
        settled register, in place, which is returned unless one still in
        flight has reached dcr, then a copy."""
        settled, flying = self._settled[k], []
        for entry in self._logs[k]:
            emit, _, origin, n = entry
            if emit + self._longest[origin - 1] < self.now:
                settled.apply(n)
            else:
                flying.append(entry)
        self._logs[k] = flying
        register = settled
        for entry in flying:
            if self._reached(entry, dcr, index):
                if register is settled:
                    register = register.copy()
                register.apply(entry[3])
        return register

    def _replay(self, stop: int) -> None:
        """Replay _queue[_next:stop], the one replay loop. If an entry
        raises, _next stays at it."""
        logs, settled, records, vms = self._logs, self._settled, self._records, self.vms
        append, read_table, topology = self._stream.append, self._read_table, self.topology
        positions = topology._pos  # type: ignore[attr-defined]
        done = self._next
        try:
            for self.now, phase, index, payload in itertools.islice(self._queue, done, stop):
                if not phase:
                    # A change sets its VM's hosts and logs its flood under its
                    # index, which breaks ties with deliveries at a DCR it reaches.
                    k, name, hosts, flood = payload  # flood: (kind, DCR ids, seq) or None
                    vm = vms[name] = records[k]
                    vm.locations = set(hosts)
                    if flood is not None:
                        n = Notification(flood[0], vm.address, flood[1], flood[2])
                        append(n)
                        logs[k].append((self.now, index, notification_origin(n), n))
                else:
                    # A packet: unicast goes straight to its VM's DC; anycast is
                    # tunnelled from its ingress to where the ingress's table says.
                    user, ingress, first_hop, vm, k = payload
                    if vm.mode is _UNICAST:
                        ingress, target = None, vm.address.dc
                        delays, direct = (first_hop,), first_hop
                    else:
                        # With no flood in flight, every table holds the settled register.
                        register = read_table(ingress, k, index) if logs[k] else settled[k]
                        target = lookup(register, vm.address, ingress, topology)
                        ip, tp = positions[ingress], positions[target]  # as distance() does
                        delays = (first_hop, hypot(ip.x - tp.x, ip.y - tp.y))
                        direct = hypot(user.x - tp.x, user.y - tp.y)
                    append(_new_tuple(Delivery, (index, user, ingress, target,
                                                 target if target in vm.locations else None,
                                                 delays, direct)))
                done += 1
        finally:
            self._next = done

    def step(self) -> bool:
        """Replay one lifecycle change or delivery; False when none is left."""
        if self._next == len(self._queue):
            return False
        self._replay(self._next + 1)
        return True

    def run_until(self, time: float) -> None:
        """Replay every change and delivery with timestamp <= time."""
        # Up to the first entry whose time is not <= time: for nan, the next.
        self._replay(bisect.bisect_left(self._queue, True, self._next,
                                        key=lambda entry: not entry[0] <= time))
        self.now = max(self.now, time)

    @property
    def tables(self) -> Mapping[DcrId, dict[AnycastAddress, VmRegister]]:
        """Every DCR's forwarding table at `now`, as a read-only snapshot: the
        merge of the notifications whose flood has reached it by `now`, as a
        register per address that holds any stamp."""
        out = {}
        for d in self.topology.ids():
            table = out[d] = {}
            for k, vm in enumerate(self._records):
                # As a packet arriving now would read it, after every change
                # up to now: no scenario index reaches infinity.
                register = self._read_table(d, k, math.inf).copy()
                if register != VmRegister():
                    table[vm.address] = register
        return MappingProxyType(out)

    def pending_floods(self) -> int:
        """(notification, DCR) arrivals still ahead of `now`."""
        ids = self.topology.ids()
        return sum(1 for log in self._logs for entry in log for d in ids
                   if not self._reached(entry, d, math.inf))

    def run(self) -> SimReport:
        self._replay(len(self._queue))
        return self.report()

    def report(self) -> SimReport:
        return SimReport(stream=list(self._stream), events=self._events,
                         overlay=overlay_metrics(self.overlay),
                         flood_duplicates=flood_duplicate_count(self.overlay))


def run_scenario(topology: Topology, overlay: Overlay,
                 events: list[ScenarioEvent]) -> SimReport:
    """One-shot run of a scenario to completion."""
    return Simulation(topology, overlay, events).run()
