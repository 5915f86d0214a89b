"""Overlay networks over the DCRs and their quality metrics.

Three constructions, each extending the previous one:

  1. build_tree       greedy spanning tree rooted near the map center
  2. connect_leaves   chain the tree's leaves in angular order around the root
  3. add_wraparound   one extra east-west link between the map's extremes

Link cost equals the Euclidean distance between the two routers. Notification
floods travel along overlay links only, so the all-pairs shortest-path delays
of the overlay bound how stale remote forwarding tables can be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, OverlayError, ParseError
from .topology import DcrId, Point, Topology, distance, nearest_among, nearest_dcr

Edge = tuple[DcrId, DcrId]


def _key(a: DcrId, b: DcrId) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Overlay:
    """Undirected weighted graph over the DCR ids.

    parents and insertion_order describe the spanning-tree skeleton and are
    only populated by build_tree (and preserved by the later stages); parsed
    overlays leave them empty. Treat instances as immutable: the delay
    matrix is computed once per instance, on first use, and cached.
    """

    nodes: tuple[DcrId, ...]
    edges: dict[Edge, float]
    root: DcrId
    parents: dict[DcrId, DcrId] = field(default_factory=dict)
    insertion_order: tuple[DcrId, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        if self.root not in self.nodes:
            raise ConfigError(f"root {self.root} is not an overlay node")
        for (a, b), cost in self.edges.items():
            if a >= b:
                raise ConfigError(f"edge key ({a}, {b}) must be ordered a < b")
            if a not in self.nodes or b not in self.nodes:
                raise ConfigError(f"edge ({a}, {b}) references a missing node")
            if not (math.isfinite(cost) and cost > 0):
                raise ConfigError(f"edge ({a}, {b}) has non-positive cost {cost}")
        # No delay exceeds the total link cost, and a mean of delays sums
        # fewer than N^2 of them.
        total = sum(self.edges.values())
        if not math.isfinite(len(self.nodes) ** 2 * total):
            raise ConfigError(f"overlay link costs sum to {total!r}: the sums of "
                              f"delays over {len(self.nodes)} nodes overflow")

    def has_edge(self, a: DcrId, b: DcrId) -> bool:
        return _key(a, b) in self.edges

    @cached_property
    def _delays(self) -> np.ndarray:
        """Read-only all-pairs delay matrix, see _delay_matrix."""
        return _delay_matrix(self)


def _center_root(t: Topology) -> DcrId:
    xs = [p.x for _, p in t.dcrs]
    ys = [p.y for _, p in t.dcrs]
    center = Point((min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0)
    return nearest_dcr(center, t)


def build_tree(t: Topology, root: DcrId | None = None) -> Overlay:
    """Stage 1: greedy spanning tree.

    The root defaults to the DCR nearest the center of the bounding box of
    all positions (ties to the lowest id). The other DCRs join in increasing
    distance from the root (ties to the lowest id). A joining node j first
    finds the nearest node k already in the tree; if k is the root, or the
    indirect path j-k plus k to k's parent m is less than 25% worse than the
    direct link j-m, j attaches to k, otherwise j attaches to m.
    """
    if root is None:
        root = _center_root(t)
    else:
        t.position(root)  # raises ConfigError for unknown ids
    rp = t.position(root)
    pending = sorted((i for i in t.ids() if i != root),
                     key=lambda i: (distance(rp, t.position(i)), i))
    # The in-tree ids and their coordinates, in joining order.
    in_tree = np.empty(t.n, dtype=np.intp)
    xs, ys = np.empty(t.n), np.empty(t.n)
    in_tree[0], xs[0], ys[0] = root, rp.x, rp.y
    parents: dict[DcrId, DcrId] = {}
    edges: dict[Edge, float] = {}
    for size, j in enumerate(pending, start=1):
        jp = t.position(j)
        k = nearest_among(jp, in_tree[:size], xs[:size], ys[:size], t)
        attach = k
        if k != root:
            m = parents[k]
            direct = distance(jp, t.position(m))
            indirect = distance(jp, t.position(k)) + distance(t.position(k), t.position(m))
            if indirect >= 1.25 * direct:
                attach = m
        parents[j] = attach
        edges[_key(j, attach)] = distance(jp, t.position(attach))
        in_tree[size], xs[size], ys[size] = j, jp.x, jp.y
    return Overlay(nodes=tuple(t.ids()), edges=edges, root=root,
                   parents=parents, insertion_order=tuple(pending))


def leaf_set(o: Overlay) -> set[DcrId]:
    """Non-root nodes with no children in the spanning tree."""
    interior = set(o.parents.values())
    return {v for v in o.nodes if v != o.root and v not in interior}


def connect_leaves(o: Overlay, t: Topology) -> Overlay:
    """Stage 2: add chain links between leaves adjacent in angular order.

    Leaves are ordered by their polar angle around the root (ties to the
    lowest id) and consecutive leaves are linked, including the pair that
    wraps past the branch cut, except across the single widest angular gap,
    which is left open. Fewer than two leaves leaves the overlay unchanged.
    """
    leaves = sorted(leaf_set(o))
    if len(leaves) < 2:
        return o
    rp = t.position(o.root)

    def angle(v: DcrId) -> float:
        p = t.position(v)
        return math.atan2(p.y - rp.y, p.x - rp.x)

    ring = sorted(leaves, key=lambda v: (angle(v), v))
    gaps = []
    for i, a in enumerate(ring):
        b = ring[(i + 1) % len(ring)]
        gap = angle(b) - angle(a)
        if i == len(ring) - 1:
            gap += 2.0 * math.pi
        gaps.append(gap)
    skip = gaps.index(max(gaps))
    added: dict[Edge, float] = {}
    for i, a in enumerate(ring):
        if i == skip:
            continue
        b = ring[(i + 1) % len(ring)]
        key = _key(a, b)
        if key not in o.edges:
            added[key] = distance(t.position(a), t.position(b))
    return _extend(o, added)


def add_wraparound(o: Overlay, t: Topology) -> Overlay:
    """Stage 3: link the DCRs nearest the west and east edge midpoints.

    The midpoints are taken on the bounding box of all positions; nearest
    ties go to the lowest id. If both midpoints elect the same DCR or the
    link already exists, the overlay is returned unchanged.
    """
    xs = [p.x for _, p in t.dcrs]
    ys = [p.y for _, p in t.dcrs]
    mid_y = (min(ys) + max(ys)) / 2.0
    west = nearest_dcr(Point(min(xs), mid_y), t)
    east = nearest_dcr(Point(max(xs), mid_y), t)
    if west == east or o.has_edge(west, east):
        return o
    return _extend(o, {_key(west, east): distance(t.position(west), t.position(east))})


def _extend(o: Overlay, added: dict[Edge, float]) -> Overlay:
    """o plus the added links. If o's delay matrix is already computed, the
    new overlay's matrix starts from it (see _delay_matrix)."""
    new = replace(o, edges={**o.edges, **added})
    base = vars(o).get("_delays")
    if base is not None:
        object.__setattr__(new, "_warm", (base, {v for e in added for v in e}))
    return new


def build_overlay(t: Topology, alg: int, root: DcrId | None = None) -> Overlay:
    """Run construction stages 1..alg."""
    if alg not in (1, 2, 3):
        raise ConfigError(f"alg must be 1, 2 or 3, got {alg}")
    o = build_tree(t, root=root)
    if alg >= 2:
        o = connect_leaves(o, t)
    if alg >= 3:
        o = add_wraparound(o, t)
    return o


def _delay_matrix(o: Overlay) -> np.ndarray:
    """All-pairs flood delays, read-only: entry [s, w] is the delay from s to w.

    A visit to node w relaxes the delays from every source to w at once, from
    the rows of w's neighbours. Sweeps visit the nodes in hop order from the
    root, reversed then forward, skipping those whose neighbours have not
    improved since their last visit, until nothing improves. Each delay is
    then a sum of link costs added from the source outward; float addition is
    monotone and costs are positive, so it equals a single-source Dijkstra's
    bit for bit, whatever the visit order. Summing path segments in another
    order (Floyd-Warshall, min-plus squaring) would not.

    Warm start: connect_leaves and add_wraparound only add links, and when
    their input's matrix was already computed they hand it on. The sweeps
    then start from a copy of it, with only the added links' endpoints dirty.
    Every old entry is a sum, added from the source outward, along a path
    the new overlay also has, so the sweeps reach the same fixed point, bit
    for bit. The hand-off is dropped once this matrix is computed; until
    then, an extended overlay keeps its base's matrix alive.
    """
    warm = vars(o).pop("_warm", None)
    n = len(o.nodes)
    index = {v: i for i, v in enumerate(o.nodes)}
    nbrs: list[list[int]] = [[] for _ in o.nodes]
    costs: list[list[float]] = [[] for _ in o.nodes]
    for (a, b), cost in sorted(o.edges.items()):
        for u, w in ((index[a], index[b]), (index[b], index[a])):
            nbrs[u].append(w)
            costs[u].append(cost)

    def hop_order(start: int) -> list[int]:
        order, seen = [start], {start}
        for w in order:
            for u in nbrs[w]:
                if u not in seen:
                    seen.add(u)
                    order.append(u)
        return order

    order = hop_order(index[o.root])
    if len(order) < n:
        reached = set(hop_order(0))
        missing = [v for i, v in enumerate(o.nodes) if i not in reached]
        raise OverlayError(f"overlay is disconnected: no path from {o.nodes[0]} to {missing}")
    rows = [np.array(ns, dtype=np.intp) for ns in nbrs]
    cols = [np.array(cs)[:, None] for cs in costs]
    # dt[w, s] is the delay from s to w: one contiguous row per destination.
    if warm is None:
        dt = np.full((n, n), math.inf)
        np.fill_diagonal(dt, 0.0)
        dirty = [bool(ns) for ns in nbrs]  # a lone node has nothing to relax
    else:
        base, ends = warm
        dt = base.T.copy()
        dirty = [v in ends for v in o.nodes]
    improved = True
    while improved:
        improved = False
        for w in order[::-1] + order:
            if dirty[w]:
                dirty[w] = False
                cand = (dt[rows[w]] + cols[w]).min(axis=0)
                if (cand < dt[w]).any():
                    np.minimum(dt[w], cand, out=dt[w])
                    improved = True
                    for u in nbrs[w]:
                        dirty[u] = True
    mat = dt.T
    mat.flags.writeable = False
    return mat


def all_pairs_delay(o: Overlay) -> np.ndarray:
    """Shortest-path delay matrix, rows and columns in sorted node-id order:
    entry [i, j] is the delay from node i to node j. A fresh copy, so writing
    to it leaves the overlay's cached matrix alone."""
    return o._delays.copy()


@dataclass(frozen=True)
class OverlayMetrics:
    worst_delay: float
    avg_delay: float
    flooding_overhead: float


def overlay_metrics(o: Overlay) -> OverlayMetrics:
    """Worst and average delay over unordered node pairs, plus the total cost
    of one flood (every overlay link carries the notification once per
    direction that forwards it, i.e. the sum of all link costs)."""
    iu = np.triu_indices(len(o.nodes), k=1)
    vals = o._delays[iu]
    overhead = float(sum(o.edges.values()))
    return OverlayMetrics(worst_delay=float(vals.max()),
                          avg_delay=float(vals.mean()),
                          flooding_overhead=overhead)


def flood_schedule(o: Overlay, source: DcrId) -> dict[DcrId, float]:
    """Arrival time of a flood started at source, per DCR (source maps to 0)."""
    if source not in o.nodes:
        raise ConfigError(f"flood source {source} is not an overlay node")
    row = o._delays[o.nodes.index(source)]
    return dict(zip(o.nodes, row.tolist()))


def flood_duplicate_count(o: Overlay) -> int:
    """Duplicate receptions of one flooded notification.

    Every node forwards the first copy it receives on all its other links, so
    each of the E links carries the message at least once and every link that
    is not the recipient's first-arrival link produces a duplicate at each
    end it reaches redundantly: 2E transmissions minus the N-1 first arrivals
    minus the N-1 transmissions suppressed back toward the sender leaves
    2*(E - N + 1) duplicates for a connected overlay with N nodes.
    """
    return 2 * (len(o.edges) - len(o.nodes) + 1)


def format_overlay(o: Overlay) -> str:
    """Text form: `root <id>` then `edge <a> <b> <cost>` lines, a < b,
    lexicographically sorted, costs with 6 decimals."""
    lines = [f"root {o.root}"]
    for a, b in sorted(o.edges):
        lines.append(f"edge {a} {b} {o.edges[(a, b)]:.6f}")
    return "\n".join(lines) + "\n"


def parse_overlay(text: str) -> Overlay:
    """Strict parser for the format written by format_overlay."""
    root: DcrId | None = None
    edges: dict[Edge, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "root" and len(parts) == 2:
            if root is not None:
                raise ParseError(f"line {lineno}: second root line")
            try:
                root = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad root id in {raw!r}") from None
        elif parts[0] == "edge" and len(parts) == 4:
            try:
                a, b = int(parts[1]), int(parts[2])
                cost = float(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad edge in {raw!r}") from None
            if a == b:
                raise ParseError(f"line {lineno}: self-loop on {a}")
            key = _key(a, b)
            if key in edges:
                raise ParseError(f"line {lineno}: duplicate edge {a} {b}")
            edges[key] = cost
        else:
            raise ParseError(f"line {lineno}: expected root or edge line, got {raw!r}")
    if root is None:
        raise ParseError("missing root line")
    if not edges:
        raise ParseError("no edge lines: an overlay links at least 2 DCRs")
    nodes = {root}
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
    return Overlay(nodes=tuple(sorted(nodes)), edges=edges, root=root)


def load_overlay(path: str) -> Overlay:
    with open(path, "r", encoding="utf-8") as f:
        return parse_overlay(f.read())


def save_overlay(o: Overlay, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_overlay(o))
