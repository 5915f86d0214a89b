"""Metamorphic invariants: exact symmetries of the whole pipeline.

Scaling every coordinate and every time by a power of two scales every
distance, every sum of distances and every arrival time exactly, and keeps
every comparison, so the overlay and the replay must come out the same, with
each length scaled. The records are compared field by field, not as CSV:
`%.6f` of 2^k * v need not be 2^k times `%.6f` of v.

Mirroring every coordinate in an axis keeps every difference's magnitude,
so every distance and every square bit for bit: only the leaves' angles are
rounded afresh.
"""

import math

import pytest

from dcrsim import (Delivery, EventKind, Point, Topology, build_overlay, leaf_set,
                    run_scenario)

import scenariogen
from oracles import summary


def scaled(gen, s):
    """gen's topology and events with every coordinate and time times s."""
    t = Topology(tuple((i, Point(p.x * s, p.y * s)) for i, p in gen.topology.dcrs))
    events = [ev._replace(time=ev.time * s, x=ev.x * s, y=ev.y * s)
              if ev.kind is EventKind.PLACE_USER else ev._replace(time=ev.time * s)
              for ev in gen.events]
    return t, events


def deliveries(report):
    return [x for x in report.stream if type(x) is Delivery]


# Far from where squared distances underflow (below about 1.5e-154), which
# nearest_among's absolute 1e-300 would treat apart, and from where they
# overflow (above about 1.34e154); between the two, a square scales exactly.
@pytest.mark.parametrize("k", [-3, 3, 10])
def test_scaling_by_a_power_of_two_scales_every_length_exactly(k):
    s = 2.0 ** k
    for seed in range(200):
        gen = scenariogen.generate(seed)
        t, events = scaled(gen, s)
        overlay = build_overlay(t, gen.alg)
        assert overlay.edges.keys() == gen.overlay.edges.keys(), seed
        for e, cost in gen.overlay.edges.items():
            assert overlay.edges[e] == cost * s, (seed, e)
        base = run_scenario(gen.topology, gen.overlay, gen.events)
        report = run_scenario(t, overlay, events)
        counts, base_counts = summary(report), summary(base)
        assert (counts["miss"], counts["session_breaks"]) == (
            base_counts["miss"], base_counts["session_breaks"]), seed
        pairs = list(zip(deliveries(base), deliveries(report), strict=True))
        for x, y in pairs:
            assert (y.send, y.ingress, y.target, y.delivered_at) == (
                x.send, x.ingress, x.target, x.delivered_at), (seed, x.send)
            assert y.delays == tuple(d * s for d in x.delays), (seed, x.send)
            assert y.direct == x.direct * s, (seed, x.send)
            if y.delivered_at is not None:
                assert sum(y.delays) >= y.direct, (seed, x.send)


def mirrored(gen, sx, sy):
    """gen's topology and events with every x times sx and every y times sy."""
    t = Topology(tuple((i, Point(p.x * sx, p.y * sy)) for i, p in gen.topology.dcrs))
    events = [ev._replace(x=ev.x * sx, y=ev.y * sy) if ev.kind is EventKind.PLACE_USER
              else ev for ev in gen.events]
    return t, events


def angles_apart(gen, margin=1e-9):
    """Whether the leaves' angles around the root, and the two widest gaps
    between them, differ by more than margin. Mirroring rounds each angle
    afresh, which could reorder leaves that are closer, or open the other
    of two widest gaps; distances keep their bits, so their ties break the
    same way."""
    root = gen.topology.position(gen.overlay.root)
    leaves = leaf_set(build_overlay(gen.topology, 1))
    angles = sorted(math.atan2(p.y - root.y, p.x - root.x)
                    for p in map(gen.topology.position, leaves))
    gaps = sorted(b - a for a, b in zip(angles, angles[1:] + [angles[0] + 2 * math.pi]))
    return min(gaps) > margin and (len(gaps) < 2 or gaps[-1] - gaps[-2] > margin)


@pytest.mark.parametrize("sx, sy", [(-1.0, 1.0), (1.0, -1.0)], ids=["x", "y"])
def test_mirroring_in_an_axis_changes_nothing(sx, sy):
    checked = 0
    for seed in range(200):
        gen = scenariogen.generate(seed)
        if not angles_apart(gen):
            continue
        checked += 1
        t, events = mirrored(gen, sx, sy)
        overlay = build_overlay(t, gen.alg)
        assert overlay.edges == gen.overlay.edges, seed
        base = run_scenario(gen.topology, gen.overlay, gen.events)
        report = run_scenario(t, overlay, events)
        pairs = list(zip(deliveries(base), deliveries(report), strict=True))
        for x, y in pairs:
            assert y == x._replace(user=Point(x.user.x * sx, x.user.y * sy)), seed
    assert checked > 150
