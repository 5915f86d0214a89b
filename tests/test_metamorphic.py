"""Metamorphic invariants: exact symmetries of the whole pipeline.

Scaling every coordinate and every time by a power of two scales every
distance, every sum of distances and every arrival time exactly, and keeps
every comparison, so the overlay and the replay must come out the same, with
each length scaled. The records are compared field by field, not as CSV:
`%.6f` of 2^k * v need not be 2^k times `%.6f` of v.
"""

import pytest

from dcrsim import Delivery, EventKind, Point, Topology, build_overlay, run_scenario

import scenariogen


def scaled(gen, s):
    """gen's topology and events with every coordinate and time times s."""
    t = Topology(tuple((i, Point(p.x * s, p.y * s)) for i, p in gen.topology.dcrs))
    events = [ev._replace(time=ev.time * s, x=ev.x * s, y=ev.y * s)
              if ev.kind is EventKind.PLACE_USER else ev._replace(time=ev.time * s)
              for ev in gen.events]
    return t, events


def deliveries(report):
    return [x for x in report.stream if type(x) is Delivery]


# Far from overflow and from subnormal distances, which nearest_among's
# absolute tolerance of 1e-300 would treat apart.
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
        assert (report.missed, report.session_breaks) == (base.missed, base.session_breaks)
        pairs = list(zip(deliveries(base), deliveries(report), strict=True))
        for (send, route), (send2, route2) in pairs:
            assert (send2, route2.ingress, route2.target, route2.delivered_at) == (
                send, route.ingress, route.target, route.delivered_at), (seed, send)
            assert route2.delays == tuple(d * s for d in route.delays), (seed, send)
            assert route2.direct == route.direct * s, (seed, send)
            if route2.delivered_at is not None:
                assert sum(route2.delays) >= route2.direct, (seed, send)
