"""Physical layout of the federation: router positions, the delay metric,
and the addresses of the VMs hosted behind each router.

Every data center is fronted by exactly one data-center router (DCR), so a
data center and its router share an id. Propagation delay between two points
is their Euclidean distance; the same metric is used for user-to-router,
router-to-router, and overlay link costs.
"""

from __future__ import annotations

import math
import random
import sys
from collections.abc import Callable
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


def by_distance(p: Point, t: Topology) -> Callable[[DcrId], tuple[float, DcrId]]:
    """The key that orders t's DCRs by distance from p, ties to the lowest id."""
    return lambda i: (distance(p, t.position(i)), i)


@dataclass(frozen=True)
class Topology:
    """Immutable set of DCRs with ids 1..N and distinct plane positions.

    box is the bounding box of the positions, as (x0, x1, y0, y1)."""

    dcrs: tuple[tuple[DcrId, Point], ...]
    box: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

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
        xs, ys = [p.x for _, p in dcrs], [p.y for _, p in dcrs]
        object.__setattr__(self, "box", (min(xs), max(xs), min(ys), max(ys)))
        # The coordinates, by id - 1, for vectorised nearest-DCR scans.
        object.__setattr__(self, "_xs", np.array(xs))
        object.__setattr__(self, "_ys", np.array(ys))

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


NEAREST_BLOCK = 128  # query points per numpy pass of nearest_among


def nearest_among(points: list[Point], t: Topology,
                  joined: list[DcrId] | None = None) -> list[DcrId]:
    """For each of points, the DCR nearest it by the exact key
    by_distance(point, t), so ties go to the lowest id. Any DCR of t may
    win, or, given joined, points[r] may pick only joined[:r + 1].

    Blocks of NEAREST_BLOCK points each take one numpy pass, which shortlists
    the DCRs whose squared distance is within a relative 1e-9 of the row's
    least (plus an absolute 1e-300, for squares that underflow). A square
    rounds by a few ulps, so only the shortlist is ranked by the exact key,
    and it always holds the exact winner. A square that overflows is inf, and
    still shortlists, since the test subtracts nothing; the shortlist is then
    masked to the allowed DCRs, as an all-inf row shortlists the others too.
    """
    ids = np.arange(1, t.n + 1) if joined is None else np.array(joined)
    xs, ys = t._xs[ids - 1], t._ys[ids - 1]  # type: ignore[attr-defined]
    qx, qy = np.array([p.x for p in points]), np.array([p.y for p in points])
    out: list[DcrId] = []
    for r0 in range(0, len(points), NEAREST_BLOCK):
        r1 = min(r0 + NEAREST_BLOCK, len(points))
        c = len(ids) if joined is None else r1  # the block's last row may pick c DCRs
        dx = (xs[None, :c] - qx[r0:r1, None]).astype(float, copy=False)
        dy = (ys[None, :c] - qy[r0:r1, None]).astype(float, copy=False)
        with np.errstate(over="ignore", under="ignore"):
            sq = np.square(dx, out=dx)
            sq += np.square(dy, out=dy)
            if joined is not None:
                later = np.arange(c) > np.arange(r0, r1)[:, None]  # joined after the row
                sq[later] = np.inf
            close = sq <= sq.min(axis=1, keepdims=True) * (1 + 1e-9) + 1e-300
        if joined is not None:
            close[later] = False
        rows, cols = np.nonzero(close)
        if len(rows) == r1 - r0:  # one DCR shortlisted on each row
            out += ids[cols].tolist()
            continue
        shortlists = np.split(ids[cols], np.searchsorted(rows, np.arange(1, r1 - r0)))
        for p, shortlist in zip(points[r0:r1], shortlists):
            out.append(min(shortlist.tolist(), key=by_distance(p, t)))
    return out


def box_reach(x0: float, x1: float, y0: float, y1: float, hops: int = 1) -> float:
    """A bound on the length of a path of `hops` straight hops between points
    of the box [x0, x1] x [y0, y1]: no hop is longer than the box's diagonal,
    so `hops` diagonals. inf if that sum overflows."""
    return hops * math.hypot(x1 - x0, y1 - y0)


@dataclass(frozen=True)
class AnycastAddress:
    """Address from the migratable/replicated block of the VM's birth DC.

    The subblock identifies the birth DCR; the host number is unique within
    that subblock for the whole run (never reused).
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


MAX_REDRAWS = 1000  # consecutive position redraws for one DCR


def generate_random_topology(seed: int, n: int, extent: float = 100.0) -> Topology:
    """n DCRs placed uniformly at random on [0, extent]^2, reproducibly.

    Positions that collide with an earlier draw are resampled so the result
    is always a valid topology. After MAX_REDRAWS collisions in a row for
    one DCR, the extent is taken to hold too few distinct points, and the
    call fails.
    """
    if n < 2:
        raise ConfigError("a topology needs at least 2 DCRs")
    if not 0 < extent <= sys.float_info.max:
        must = "positive" if extent <= 0 else "finite"
        raise ConfigError(f"extent must be {must}, got {extent}")
    rng = random.Random(seed)
    taken: set[tuple[float, float]] = set()
    dcrs = []
    for i in range(1, n + 1):
        for _ in range(MAX_REDRAWS + 1):
            xy = (rng.uniform(0.0, extent), rng.uniform(0.0, extent))
            if xy not in taken:
                break
        else:
            raise ConfigError(f"cannot place DCR {i} of {n}: {MAX_REDRAWS} redraws in a row "
                              f"hit taken positions, so extent {extent!r} is too small")
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
    for lineno, raw in enumerate(input_lines(text), start=1):
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
        if not math.isfinite(box_reach(*box)):
            raise ParseError(f"line {lineno}: DCR {i} at ({x!r}, {y!r}) is too far "
                             "from the others: their distance overflows")
        seen.add(i)
        dcrs.append((i, Point(x, y)))
    return Topology(tuple(dcrs))


def input_lines(text: str) -> list[str]:
    """An input text's lines, broken only at \\n, \\r\\n and \\r: a form feed, U+2028
    or another break of str.splitlines() is whitespace within a line, for str.split()."""
    if "\r" in text:  # this scan is fast, and replace() is slow even where nothing matches
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def read_input(path: str) -> str:
    """The text of an input file (topology, overlay or scenario), less a leading
    BOM. A file that is not UTF-8 is a ParseError naming it and its first bad byte."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        line = len(input_lines(data[:e.start].decode("utf-8")))
        raise ParseError(f"{path}: line {line}: byte {e.start} is not UTF-8") from None


def load_topology(path: str) -> Topology:
    return parse_topology(read_input(path))
