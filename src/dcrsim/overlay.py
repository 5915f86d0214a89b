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
import operator
import sys
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from .errors import ConfigError, OverlayError, ParseError
from .topology import (DcrId, Point, Topology, by_distance, distance, input_lines, nearest_among,
                       read_input)

Edge = tuple[DcrId, DcrId]


def _cost_fault(cost: float) -> str | None:
    """What rules a link cost out, if anything: it must be finite and positive."""
    if 0 < cost <= sys.float_info.max:
        return None
    return "non-positive" if cost <= 0 else "non-finite"


def _key(a: DcrId, b: DcrId) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Overlay:
    """Undirected weighted graph over the DCR ids.

    Treat instances as immutable: the delay matrix is computed once per
    instance, on first use, and cached.
    """

    nodes: tuple[DcrId, ...]
    edges: dict[Edge, float]
    root: DcrId
    total_cost: float = field(init=False, repr=False, compare=False)

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
            if fault := _cost_fault(cost):
                raise ConfigError(f"edge ({a}, {b}) has {fault} cost {cost}")
        # Added left to right, as simulator._mean adds. No delay exceeds the
        # total link cost, and a mean of delays sums fewer than N^2 of them.
        object.__setattr__(self, "total_cost", reduce(operator.add, self.edges.values(), 0.0))
        if not math.isfinite(len(self.nodes) ** 2 * self.total_cost):
            raise ConfigError(f"overlay link costs sum to {self.total_cost!r}: the sums of "
                              f"delays over {len(self.nodes)} nodes overflow")

    @cached_property
    def _delays(self) -> np.ndarray:
        """Read-only all-pairs delay matrix, see _delay_matrix."""
        return _delay_matrix(self)


def _midpoint(a: float, b: float) -> float:
    """(a + b) / 2, and finite where only the sum a + b overflows."""
    mid = (a + b) / 2.0
    return mid if math.isfinite(mid) else a / 2.0 + b / 2.0


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
        x0, x1, y0, y1 = t.box
        root = nearest_among([Point(_midpoint(x0, x1), _midpoint(y0, y1))], t)[0]
    # t.position raises ConfigError for an unknown root id.
    pending = sorted((i for i in t.ids() if i != root), key=by_distance(t.position(root), t))
    pos = t._pos  # type: ignore[attr-defined]
    points = [pos[j] for j in pending]
    # Each joiner's nearest node among those that joined before it.
    nearest = nearest_among(points, t, [root] + pending)
    parents: dict[DcrId, DcrId] = {}
    edges: dict[Edge, float] = {}
    for j, jp, k in zip(pending, points, nearest):
        kp = pos[k]
        attach, cost = k, distance(jp, kp)
        if k != root:
            m = parents[k]
            mp = pos[m]
            direct, indirect = distance(jp, mp), cost + distance(kp, mp)
            if indirect >= 1.25 * direct:
                attach, cost = m, direct
        parents[j] = attach
        edges[_key(j, attach)] = cost
    return Overlay(nodes=tuple(t.ids()), edges=edges, root=root)


def leaf_set(o: Overlay) -> set[DcrId]:
    """Non-root nodes with exactly one link: on a tree, the nodes with no children."""
    degree = Counter(v for e in o.edges for v in e)
    return {v for v in o.nodes if v != o.root and degree[v] == 1}


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
    angle = {v: math.atan2(p.y - rp.y, p.x - rp.x)
             for v, p in zip(leaves, map(t.position, leaves))}
    ring = sorted(leaves, key=lambda v: (angle[v], v))
    # Each leaf and its successor in the ring; the last pair wraps past the cut.
    pairs = list(zip(ring, ring[1:] + ring[:1]))
    gaps = [angle[b] - angle[a] for a, b in pairs]
    gaps[-1] += 2.0 * math.pi
    del pairs[gaps.index(max(gaps))]
    return _extend(o, t, pairs)


def add_wraparound(o: Overlay, t: Topology) -> Overlay:
    """Stage 3: link the DCRs nearest the west and east edge midpoints.

    The midpoints are taken on the bounding box of all positions; nearest
    ties go to the lowest id. If both midpoints elect the same DCR or the
    link already exists, the overlay is returned unchanged.
    """
    x0, x1, y0, y1 = t.box
    mid_y = _midpoint(y0, y1)
    west, east = nearest_among([Point(x0, mid_y), Point(x1, mid_y)], t)
    return o if west == east else _extend(o, t, [(west, east)])


def _extend(o: Overlay, t: Topology, pairs: list[Edge]) -> Overlay:
    """o plus a link for each of the pairs that o does not link yet, costing the
    distance between its two DCRs; o itself if there is none. If o's delay
    matrix is already computed, the new overlay's matrix starts from it, in its
    sweep order and from its neighbour lists (see _delay_matrix)."""
    added = {_key(a, b): distance(t.position(a), t.position(b))
             for a, b in pairs if _key(a, b) not in o.edges}
    if not added:
        return o
    new = replace(o, edges={**o.edges, **added})
    base = vars(o).get("_delays")
    if base is not None:
        object.__setattr__(new, "_warm", (base, o._order, o._links, added))
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
    o's minimum spanning tree (see _visit_tree), with the sources in its
    preorder so that each subtree's sources are one slice. Children first, a
    node's delays from its subtree are its child's plus the link; then
    parents first, its other delays are its parent's plus the link. The
    columns go back to id order a block of rows at a time. Sweeps then relax
    the other links. A visit to node w relaxes each link to a neighbour whose
    row improved since w's last visit (the others' cannot improve w's): one
    add of the link cost to that row, the delays from every source at once,
    and one minimum into w's row, in place. Sweeps visit the tree's
    preorder, reversed then forward, skipping nodes with no such link, until
    nothing improves; a row that changes pends all its links at their other
    ends. Float addition is monotone and costs are positive, so the fixed
    point is Dijkstra's, bit for bit, whatever the visit order; summing path
    segments in another order (Floyd-Warshall, min-plus squaring) would not
    be. The tree delays are a fixed point over the tree's links, so only the
    other links start pending, and a tree takes no sweep.

    Warm start: connect_leaves and add_wraparound only add links, and when
    their input's matrix was already computed they hand it on, with its
    sweep order and neighbour lists, so no tree is built and no link is
    listed again. The sweeps then start from a copy of the matrix, and of
    the lists with the added links, with only the added links pending, from
    both ends. The base matrix is its own overlay's fixed point, so no old
    link can improve a row until some row changes, and that change pends it.
    Every old entry is such a sum along a path the new overlay also has, so
    the sweeps reach the same fixed point. The hand-off is dropped once this
    matrix is computed; until then, an extended overlay keeps its base's
    matrix alive.
    """
    warm = vars(o).pop("_warm", None)
    n = len(o.nodes)
    index = {v: i for i, v in enumerate(o.nodes)}
    if warm is None:
        new, links = o.edges, [{} for _ in o.nodes]
    else:
        base, order, base_links, new = warm
        links = [dict(ls) for ls in base_links]
    # Per node: its neighbours with their link costs, each a 0-d array, which
    # numpy adds without converting a Python float. pending[w]: the neighbours
    # whose rows improved since w's last visit, with their link costs; w's
    # row is already no worse than the others'. Only new links start pending.
    pending: list[dict[int, np.ndarray]] = [{} for _ in o.nodes]
    for (a, b), cost in new.items():
        i, j = index[a], index[b]
        links[i][j] = links[j][i] = pending[i][j] = pending[j][i] = np.array(cost)
    # np.add takes a positional out a little faster than out=, aliased or
    # not. np.minimum's third positional argument is deprecated (numpy 2.4)
    # and takes a warning path, over twice the 0.4 us of out= per call on a
    # 400-long row, so its out stays a keyword.
    if warm is None:
        order, parent = _visit_tree(o, index)
        # dt[w, pos[s]] is the delay from s to w; w's subtree is pos[w]:pos[w] + size[w].
        perm, size = np.argsort(order), [1] * n
        pos = perm.tolist()
        dt = np.empty((n, n))
        dt[order, range(n)] = 0.0
        rows = list(dt)
        for w in order[:0:-1]:
            p, sub = parent[w], slice(pos[w], pos[w] + size[w])
            np.add(rows[w][sub], links[w][p], rows[p][sub])
            size[p] += size[w]
        for w in order[1:]:
            p, end = parent[w], pos[w] + size[w]
            np.add(rows[p][:pos[w]], links[w][p], rows[w][:pos[w]])
            np.add(rows[p][end:], links[w][p], rows[w][end:])
            del pending[w][p], pending[p][w]  # the tree delays are its links' fixed point
        for r in range(0, n, 64):  # dt[w, s] is the delay from s to w
            dt[r:r + 64] = dt[r:r + 64, perm]
    else:
        dt = base.T.copy()
        rows = list(dt)
    cand = np.empty(n)
    improved = any(pending)
    while improved:
        improved = False
        for w in order[::-1] + order:
            relax = pending[w]
            if relax:
                row = rows[w]
                # No delay is -0.0 or nan: the bytes change iff a candidate is less.
                before = row.tobytes()
                for u, c in relax.items():
                    np.add(rows[u], c, cand)
                    np.minimum(row, cand, out=row)
                relax.clear()
                if row.tobytes() != before:
                    improved = True
                    for u, c in links[w].items():
                        pending[u][w] = c
    object.__setattr__(o, "_order", order)
    object.__setattr__(o, "_links", links)
    mat = dt.T
    mat.flags.writeable = False
    return mat


def _spanning_tree(o: Overlay, index: dict[DcrId, int]) -> list[list[int]]:
    """By node index, its neighbour indices in o's minimum spanning tree:
    Kruskal's, taking links by cost, ties to the lower (a, b). Raises
    OverlayError if o is disconnected, the one test of that rule."""
    n = len(o.nodes)
    comp = list(range(n))  # union-find: a node's parent, or itself at the top

    def find(v: int) -> int:
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    tree: list[list[int]] = [[] for _ in o.nodes]
    unions = 0
    for _, i, j in sorted((c, index[a], index[b]) for (a, b), c in o.edges.items()):
        ri, rj = find(i), find(j)
        if ri != rj:
            comp[ri] = rj
            unions += 1
            tree[i].append(j)
            tree[j].append(i)
    if unions < n - 1:
        missing = [v for i, v in enumerate(o.nodes) if find(i) != find(0)]
        raise OverlayError(f"overlay is disconnected: no path from {o.nodes[0]} to {missing}")
    return tree


def _visit_tree(o: Overlay, index: dict[DcrId, int]) -> tuple[list[int], list[int]]:
    """Node indices in depth-first preorder from the root, children in id
    order, and each node's parent index (-1 for the root), of o's minimum
    spanning tree (see _spanning_tree)."""
    tree = _spanning_tree(o, index)
    order, parent, stack = [], [-1] * len(tree), [index[o.root]]
    for adjacent in tree:
        adjacent.sort(reverse=True)
    while stack:
        v = stack.pop()
        order.append(v)
        for u in tree[v]:
            if u != parent[v]:
                parent[u] = v
                stack.append(u)
    return order, parent


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
    """Worst and average delay over unordered node pairs, plus the sum of
    all link costs, which is what one flood sends only on a tree: a link off
    the origin's first-arrival tree carries the flood both ways."""
    vals = np.concatenate([row[i + 1:] for i, row in enumerate(o._delays)])
    return OverlayMetrics(worst_delay=float(vals.max()),
                          avg_delay=float(vals.mean()),
                          flooding_overhead=o.total_cost)


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
    lexicographically sorted, costs with 6 decimals. A cost under 5e-7, which
    those round to 0.000000, is written by repr, so that it parses back."""
    lines = [f"root {o.root}"]
    for (a, b), cost in sorted(o.edges.items()):
        text = f"{cost:.6f}"
        lines.append(f"edge {a} {b} {text if text != '0.000000' else repr(cost)}")
    return "\n".join(lines) + "\n"


def parse_overlay(text: str) -> Overlay:
    """Strict parser for the format written by format_overlay."""
    root: DcrId | None = None
    edges: dict[Edge, float] = {}
    for lineno, raw in enumerate(input_lines(text), start=1):
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
            if fault := _cost_fault(cost):
                raise ParseError(f"line {lineno}: edge {a} {b} has {fault} cost {parts[3]!r}")
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
    return parse_overlay(read_input(path))
