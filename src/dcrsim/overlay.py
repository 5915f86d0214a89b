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

import itertools
import math
from collections.abc import Iterator
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

    parents describes the spanning-tree skeleton and is only populated by
    build_tree (and preserved by the later stages); parsed overlays leave it
    empty. The delay kernel starts from the skeleton's exact delays when it
    spans the overlay over its links. Treat instances as immutable: the delay
    matrix is computed once per instance, on first use, and cached.
    """

    nodes: tuple[DcrId, ...]
    edges: dict[Edge, float]
    root: DcrId
    parents: dict[DcrId, DcrId] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        nodes = set(self.nodes)
        if self.root not in nodes:
            raise ConfigError(f"root {self.root} is not an overlay node")
        for (a, b), cost in self.edges.items():
            if a >= b:
                raise ConfigError(f"edge key ({a}, {b}) must be ordered a < b")
            if a not in nodes or b not in nodes:
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
    x0, x1, y0, y1 = t.box
    return nearest_dcr(Point((x0 + x1) / 2.0, (y0 + y1) / 2.0), t)


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
    return Overlay(nodes=tuple(t.ids()), edges=edges, root=root, parents=parents)


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
    x0, x1, y0, y1 = t.box
    mid_y = (y0 + y1) / 2.0
    west = nearest_dcr(Point(x0, mid_y), t)
    east = nearest_dcr(Point(x1, mid_y), t)
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


def stages(t: Topology) -> Iterator[Overlay]:
    """Construction stages 1, 2 and 3 over t, each extending the last. Only
    the stage last yielded is held here, so a caller that reads each stage's
    metrics before taking the next keeps at most two delay matrices alive."""
    o = build_tree(t)
    yield o
    for extend in (connect_leaves, add_wraparound):
        o = extend(o, t)
        yield o


def build_overlay(t: Topology, alg: int) -> Overlay:
    """Construction stage alg, built from stages 1..alg."""
    if alg not in (1, 2, 3):
        raise ConfigError(f"alg must be 1, 2 or 3, got {alg}")
    return next(itertools.islice(stages(t), alg - 1, None))


def _delay_matrix(o: Overlay) -> np.ndarray:
    """All-pairs flood delays, read-only: entry [s, w] is the delay from s to w.

    Each delay is a sum of link costs added from the source outward, as a
    single-source Dijkstra adds them. A cold start takes the exact delays of
    a spanning tree of o's links (see _visit_tree), with the sources in its
    preorder so that each subtree's sources are one slice. Children first, a
    node's delays from its subtree are its child's plus the link; then
    parents first, its other delays are its parent's plus the link. Sweeps
    then relax the other links. A visit to node w relaxes the delays from
    every source to w at once, from the rows of the neighbours that improved
    since w's last visit (the others' cannot improve w's); sweeps visit the
    tree's preorder, reversed then forward, skipping nodes with no such
    neighbour, until nothing improves. Float addition is monotone and costs
    are positive, so the fixed point is Dijkstra's, bit for bit, whatever the
    visit order; summing path segments in another order (Floyd-Warshall,
    min-plus squaring) would not be. The tree delays are a fixed point over
    the tree's links, so only the other links start pending, and a tree
    takes no sweep.

    Warm start: connect_leaves and add_wraparound only add links, and when
    their input's matrix was already computed they hand it on. The sweeps
    then start from a copy of it, with only the added links' endpoints
    pending, from all their neighbours. Every old entry is such a sum along
    a path the new overlay also has, so the sweeps reach the same fixed
    point. The hand-off is dropped once this matrix is computed; until then,
    an extended overlay keeps its base's matrix alive.
    """
    warm = vars(o).pop("_warm", None)
    n = len(o.nodes)
    index = {v: i for i, v in enumerate(o.nodes)}
    # Per node: its neighbours, in id order, with their link costs.
    links: list[dict[int, float]] = [{} for _ in o.nodes]
    for (a, b), cost in sorted(o.edges.items()):
        links[index[a]][index[b]] = links[index[b]][index[a]] = cost
    order, parent = _visit_tree(o, index, links)
    if warm is None:
        # dt[w, pos[s]] is the delay from s to w; w's subtree is pos[w]:pos[w] + size[w].
        perm, size = np.argsort(order), [1] * n
        pos = perm.tolist()
        dt = np.empty((n, n))
        dt[order, range(n)] = 0.0
        rows = list(dt)
        for w in order[:0:-1]:
            p, sub = parent[w], slice(pos[w], pos[w] + size[w])
            np.add(rows[w][sub], links[w][p], out=rows[p][sub])
            size[p] += size[w]
        for w in order[1:]:
            p, end = parent[w], pos[w] + size[w]
            np.add(rows[p][:pos[w]], links[w][p], out=rows[w][:pos[w]])
            np.add(rows[p][end:], links[w][p], out=rows[w][end:])
        for row in rows:  # dt[w, s] is the delay from s to w
            row[:] = row[perm]
        pending = [{u: c for u, c in ls.items() if u != parent.get(w) and parent.get(u) != w}
                   for w, ls in enumerate(links)]
    else:
        base, ends = warm
        dt = base.T.copy()
        rows = list(dt)
        pending = [dict(ls) if v in ends else {} for v, ls in zip(o.nodes, links)]
    # pending[w]: the neighbours whose rows improved since w's last visit,
    # with their link costs; w's row is already no worse than the others'.
    cand, scratch = np.empty(n), np.empty(n)
    improved = any(pending)
    while improved:
        improved = False
        for w in order[::-1] + order:
            if pending[w]:
                (u, c), *others = pending[w].items()
                pending[w] = {}
                np.add(rows[u], c, out=cand)
                for u, c in others:
                    np.minimum(cand, np.add(rows[u], c, out=scratch), out=cand)
                row = rows[w]
                # No delay is -0.0 or nan: the bytes differ iff a candidate is less.
                np.minimum(row, cand, out=cand)
                if cand.tobytes() != row.tobytes():
                    row[...] = cand
                    improved = True
                    for u, c in links[w].items():
                        pending[u][w] = c
    mat = dt.T
    mat.flags.writeable = False
    return mat


def _visit_tree(o: Overlay, index: dict[DcrId, int],
                nbrs: list[dict[int, float]]) -> tuple[list[int], dict[int, int]]:
    """Node indices in depth-first preorder, children in id order, and each
    non-root node's parent index, of o's skeleton if it spans o over o's links,
    else of o's hop-BFS tree from the root. Raises OverlayError if o is
    disconnected."""

    def preorder(children: list[list[int]], start: int) -> list[int]:
        order, stack = [], [start]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(children[v]))
        return order

    def hop_tree(start: int) -> list[list[int]]:
        children: list[list[int]] = [[] for _ in nbrs]
        seen, frontier = {start}, [start]
        for w in frontier:
            for u in nbrs[w]:  # in id order, as the edges were sorted
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
                    children[w].append(u)
        return children

    # Each node has one parent and the root none, so no walk from the root repeats
    # a node; a skeleton with a cycle, a stray node or a link o lacks spans less.
    root = index[o.root]
    children: list[list[int]] = [[] for _ in nbrs]
    for child, p in sorted(o.parents.items()):
        if child != o.root and child in index and p in index and o.has_edge(child, p):
            children[index[p]].append(index[child])
    order = preorder(children, root)
    if len(order) < len(nbrs):
        order = preorder(children := hop_tree(root), root)
    if len(order) < len(nbrs):
        reached = set(preorder(hop_tree(0), 0))
        missing = [v for i, v in enumerate(o.nodes) if i not in reached]
        raise OverlayError(f"overlay is disconnected: no path from {o.nodes[0]} to {missing}")
    return order, {ch: p for p, chs in enumerate(children) for ch in chs}


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
