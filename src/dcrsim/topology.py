"""Physical layout of the federation: router positions, the delay metric,
and address allocation for the VMs hosted behind each router.

Every data center is fronted by exactly one data-center router (DCR), so a
data center and its router share an id. Propagation delay between two points
is their Euclidean distance; the same metric is used for user-to-router,
router-to-router, and overlay link costs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError

DcrId = int


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ConfigError(f"non-finite coordinate ({self.x}, {self.y})")


def distance(a: Point, b: Point) -> float:
    """Propagation delay between two positions."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Topology:
    """Immutable set of DCRs with ids 1..N and distinct plane positions."""

    dcrs: tuple[tuple[DcrId, Point], ...]

    def __post_init__(self) -> None:
        dcrs = tuple(sorted(self.dcrs))
        object.__setattr__(self, "dcrs", dcrs)
        ids = [i for i, _ in dcrs]
        if len(ids) < 2:
            raise ConfigError("a topology needs at least 2 DCRs")
        if ids != list(range(1, len(ids) + 1)):
            raise ConfigError("DCR ids must be exactly 1..N with no gaps or duplicates")
        seen: dict[tuple[float, float], DcrId] = {}
        for i, p in dcrs:
            key = (p.x, p.y)
            if key in seen:
                raise ConfigError(f"DCR {i} and DCR {seen[key]} share position {key}")
            seen[key] = i
        object.__setattr__(self, "_pos", dict(dcrs))
        # The ids and their coordinates, for vectorised nearest-DCR scans.
        object.__setattr__(self, "_ids", np.array(ids, dtype=np.intp))
        object.__setattr__(self, "_xs", np.array([p.x for _, p in dcrs]))
        object.__setattr__(self, "_ys", np.array([p.y for _, p in dcrs]))

    @property
    def n(self) -> int:
        return len(self.dcrs)

    def ids(self) -> list[DcrId]:
        return [i for i, _ in self.dcrs]

    def position(self, dcr: DcrId) -> Point:
        try:
            return self._pos[dcr]  # type: ignore[attr-defined]
        except KeyError:
            raise ConfigError(f"unknown DCR id {dcr}") from None


def nearest_among(p: Point, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                  t: Topology) -> DcrId:
    """The DCR among ids (at xs, ys) nearest p, by the exact key
    (distance(p, position), id), so ties go to the lowest id.

    np.hypot shortlists the DCRs within a relative 1e-9 of the nearest (plus
    an absolute 1e-300, for subnormal distances). np.hypot and math.hypot may
    differ in the last ulp, so only the shortlist is ranked by the exact key,
    which always holds the exact winner.
    """
    d = np.hypot(xs - p.x, ys - p.y)
    close = ids[d <= d.min() * (1.0 + 1e-9) + 1e-300]
    return min(close.tolist(), key=lambda i: (distance(p, t.position(i)), i))


def nearest_dcr(p: Point, t: Topology) -> DcrId:
    """The DCR a client at p attaches to; distance ties go to the lowest id."""
    return nearest_among(p, t._ids, t._xs, t._ys, t)  # type: ignore[attr-defined]


def box_fits(x0: float, x1: float, y0: float, y1: float, hops: int = 1) -> bool:
    """True iff a path of `hops` straight hops between points of the box
    [x0, x1] x [y0, y1] cannot be infinitely long: no hop is longer than the
    box's diagonal, so `hops` diagonals bound the path."""
    return math.isfinite(hops * math.hypot(x1 - x0, y1 - y0))


@dataclass(frozen=True)
class AnycastAddress:
    """Address from the migratable/replicated block of the VM's birth DC.

    The subblock identifies the birth DCR; the host number is unique within
    that subblock for the lifetime of the plan (never reused).
    """

    subblock: DcrId
    host: int

    def __str__(self) -> str:
        return f"{self.subblock}:{self.host}"


@dataclass(frozen=True)
class UnicastAddress:
    """Conventional address pinned to one data center."""

    dc: DcrId
    host: int

    def __str__(self) -> str:
        return f"u{self.dc}:{self.host}"


@dataclass
class AddressPlan:
    """Per-DC allocation counters; anycast and unicast families are independent."""

    n: int
    _next_anycast: dict[DcrId, int] = field(default_factory=dict)
    _next_unicast: dict[DcrId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("address plan needs at least one DC")

    def _check(self, dc: DcrId) -> None:
        if not 1 <= dc <= self.n:
            raise ConfigError(f"unknown DC id {dc}")

    def allocate_anycast(self, dc: DcrId) -> AnycastAddress:
        self._check(dc)
        host = self._next_anycast.get(dc, 0)
        self._next_anycast[dc] = host + 1
        return AnycastAddress(subblock=dc, host=host)

    def allocate_unicast(self, dc: DcrId) -> UnicastAddress:
        self._check(dc)
        host = self._next_unicast.get(dc, 0)
        self._next_unicast[dc] = host + 1
        return UnicastAddress(dc=dc, host=host)


def generate_random_topology(seed: int, n: int, extent: float = 100.0) -> Topology:
    """n DCRs placed uniformly at random on [0, extent]^2, reproducibly.

    Positions that collide with an earlier draw are resampled so the result
    is always a valid topology.
    """
    if n < 2:
        raise ConfigError("a topology needs at least 2 DCRs")
    if not (math.isfinite(extent) and extent > 0):
        raise ConfigError(f"extent must be positive, got {extent}")
    rng = random.Random(seed)
    taken: set[tuple[float, float]] = set()
    dcrs = []
    for i in range(1, n + 1):
        while True:
            xy = (rng.uniform(0.0, extent), rng.uniform(0.0, extent))
            if xy not in taken:
                break
        taken.add(xy)
        dcrs.append((i, Point(*xy)))
    return Topology(tuple(dcrs))


def format_topology(t: Topology) -> str:
    """Text form: one `dcr <id> <x> <y>` line per router, sorted by id."""
    lines = [f"dcr {i} {p.x!r} {p.y!r}" for i, p in t.dcrs]
    return "\n".join(lines) + "\n"


def parse_topology(text: str) -> Topology:
    """Strict parser for the format written by format_topology.

    Blank lines and lines starting with `#` are ignored. Anything else must
    be a well-formed `dcr` line; duplicate ids are rejected, and so is a DCR
    whose distance to an earlier one overflows.
    """
    dcrs: list[tuple[DcrId, Point]] = []
    seen: set[DcrId] = set()
    box = [math.inf, -math.inf, math.inf, -math.inf]  # x0, x1, y0, y1 so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "dcr" or len(parts) != 4:
            raise ParseError(f"line {lineno}: expected `dcr <id> <x> <y>`, got {raw!r}")
        try:
            i = int(parts[1])
            x = float(parts[2])
            y = float(parts[3])
        except ValueError:
            raise ParseError(f"line {lineno}: bad number in {raw!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"line {lineno}: non-finite coordinate in {raw!r}")
        if i in seen:
            raise ParseError(f"line {lineno}: duplicate DCR id {i}")
        box = [min(box[0], x), max(box[1], x), min(box[2], y), max(box[3], y)]
        if not box_fits(*box):
            raise ParseError(f"line {lineno}: DCR {i} at ({x!r}, {y!r}) is too far "
                             "from the others: their distance overflows")
        seen.add(i)
        dcrs.append((i, Point(x, y)))
    return Topology(tuple(dcrs))


def load_topology(path: str) -> Topology:
    with open(path, "r", encoding="utf-8") as f:
        return parse_topology(f.read())


def save_topology(t: Topology, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_topology(t))
