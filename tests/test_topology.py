import math
import random
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcrsim import (AnycastAddress, ConfigError, ParseError, Point, ScenarioError,
                    Simulation, Topology, UnicastAddress, build_overlay, distance,
                    format_topology, generate_random_topology, nearest_dcr,
                    parse_scenario, parse_topology)
from dcrsim.overlay import build_tree
from dcrsim.topology import nearest_among

from oracles import scalar_build_tree, scalar_nearest_dcr

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def square() -> Topology:
    return Topology(((1, Point(0.0, 10.0)), (2, Point(10.0, 10.0)),
                     (3, Point(10.0, 0.0)), (4, Point(0.0, 0.0))))


def test_point_rejects_non_finite():
    with pytest.raises(ConfigError):
        Point(math.nan, 0.0)
    with pytest.raises(ConfigError):
        Point(0.0, math.inf)


def test_distance_known_values():
    assert distance(Point(0, 0), Point(3, 4)) == 5.0
    assert distance(Point(2, 2), Point(2, 2)) == 0.0


@given(coords, coords, coords, coords)
def test_distance_symmetric(ax, ay, bx, by):
    a, b = Point(ax, ay), Point(bx, by)
    assert distance(a, b) == distance(b, a)
    assert distance(a, b) >= 0.0


@given(coords, coords, coords, coords, coords, coords)
def test_distance_triangle_inequality(ax, ay, bx, by, cx, cy):
    a, b, c = Point(ax, ay), Point(bx, by), Point(cx, cy)
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


def test_topology_needs_two_dcrs():
    with pytest.raises(ConfigError):
        Topology(((1, Point(0, 0)),))


def test_topology_ids_must_be_dense():
    with pytest.raises(ConfigError):
        Topology(((1, Point(0, 0)), (3, Point(1, 1))))
    with pytest.raises(ConfigError):
        Topology(((0, Point(0, 0)), (1, Point(1, 1))))


def test_topology_rejects_shared_position():
    with pytest.raises(ConfigError):
        Topology(((1, Point(5, 5)), (2, Point(5, 5))))


def test_topology_position_unknown_id():
    with pytest.raises(ConfigError):
        square().position(9)


def test_nearest_dcr_picks_closest():
    assert nearest_dcr(Point(1, 1), square()) == 4
    assert nearest_dcr(Point(9, 9), square()) == 2


def test_nearest_dcr_tie_goes_to_lowest_id():
    # (5, 5) is equidistant from all four corners.
    assert nearest_dcr(Point(5.0, 5.0), square()) == 1


def test_address_plan_rejects_unknown_dc():
    # A VM is numbered only at a DC of the topology, in either address family.
    t = square()
    for text in ("0 create a 5 anycast-migrate\n", "0 create u 0 unicast\n"):
        with pytest.raises(ScenarioError, match="^line 1: unknown DCR id"):
            Simulation(t, build_overlay(t, 3), parse_scenario(text))


def test_address_str_forms():
    assert str(AnycastAddress(3, 7)) == "3:7"
    assert str(UnicastAddress(2, 0)) == "u2:0"


def test_generate_random_topology_is_reproducible():
    a = generate_random_topology(42, 9)
    b = generate_random_topology(42, 9)
    assert a == b
    assert a != generate_random_topology(43, 9)


def test_generate_random_topology_respects_extent():
    t = generate_random_topology(1, 30, extent=10.0)
    assert t.n == 30
    for _, p in t.dcrs:
        assert 0.0 <= p.x <= 10.0
        assert 0.0 <= p.y <= 10.0


def test_generate_random_topology_rejects_bad_args():
    with pytest.raises(ConfigError):
        generate_random_topology(0, 1)
    with pytest.raises(ConfigError):
        generate_random_topology(0, 5, extent=-1.0)


def test_generate_random_topology_refuses_extent_zero():
    with pytest.raises(ConfigError, match="extent must be positive"):
        generate_random_topology(1, 5, 0.0)


def test_topology_round_trips_through_text():
    t = generate_random_topology(7, 13)
    assert parse_topology(format_topology(t)) == t


def test_parse_topology_ignores_comments_and_blanks():
    t = parse_topology("# heading\n\ndcr 1 0 0\n  # indented comment\ndcr 2 1 1\n")
    assert t.n == 2


def test_parse_topology_reports_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_topology("dcr 1 0 0\nrouter 2 1 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_topology("dcr 1 0 0\ndcr 2 1 1\ndcr 2 4 4\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_topology("dcr one 0 0\n")


def test_parse_topology_rejects_extra_tokens():
    with pytest.raises(ParseError):
        parse_topology("dcr 1 0 0 9\n")


def test_nearest_dcr_equals_the_scalar_scan():
    t = generate_random_topology(8, 256)
    rng = random.Random(8)
    points = [Point(rng.uniform(-20, 120), rng.uniform(-20, 120)) for _ in range(2000)]
    points += [p for _, p in t.dcrs]  # distance 0 to one DCR
    for p in points:
        assert nearest_dcr(p, t) == scalar_nearest_dcr(p, t)


def test_nearest_dcr_ties_on_a_lattice_go_to_the_lowest_id():
    # Ids shuffled over a 6x6 integer lattice: a cell centre ties four DCRs,
    # an edge midpoint two.
    ids = list(range(1, 37))
    random.Random(1).shuffle(ids)
    t = Topology(tuple((ids[k], Point(float(k % 6), float(k // 6))) for k in range(36)))
    for i in range(11):
        for j in range(11):
            p = Point(i / 2.0, j / 2.0)
            assert nearest_dcr(p, t) == scalar_nearest_dcr(p, t)


@pytest.mark.parametrize("text, line", [
    ("dcr 1 0 0\ndcr 2 1.7e308 0\ndcr 3 -1.7e308 1\ndcr 4 5 5\n", 3),
    ("dcr 1 -1e308 0\n# far corner\ndcr 2 1e308 0\n", 3),
    ("dcr 1 0 1.7e308\ndcr 2 1.7e308 0\n", 2),
], ids=["x", "x-comment", "diagonal"])
def test_parse_topology_rejects_distances_that_overflow(text, line):
    with pytest.raises(ParseError, match=f"^line {line}: DCR .* distance overflows"):
        parse_topology(text)


def test_parse_topology_accepts_the_largest_finite_distances():
    t = parse_topology("dcr 1 0 0\ndcr 2 1e308 1e308\ndcr 3 0 1e308\n")
    assert all(math.isfinite(distance(p, q)) for _, p in t.dcrs for _, q in t.dcrs)


def test_nearest_among_does_not_overflow_at_the_largest_finite_distance():
    # The two DCRs are exactly the largest float apart, which parses. Ranking
    # DCR 2 as DCR 1's nearest must not scale that distance past the float range.
    top = 1.7976931348623157e308
    t = parse_topology(f"dcr 1 0.0 0.0\ndcr 2 0.0 {top!r}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Its square overflows to inf, which must still shortlist DCR 2.
        assert nearest_among([Point(0.0, 0.0)], t, [2]) == [2]
        assert nearest_dcr(Point(0.0, top), t) == 2


# Squares underflow below about 1.5e-154 and overflow above about 1.34e154.
@pytest.mark.parametrize("scale", [1e-320, 1e-160, 1e-150, 1.0, 1e154, 1e200, 8e307])
def test_nearest_rule_is_exact_at_every_scale(scale):
    # 1e-320 leaves about 2000 subnormal values per axis, so squares round to
    # a few ulps of the least subnormal, or to 0.
    # At 8e307 the overlay's link costs sum past the float range, so the
    # joins are also checked on nearest_among itself, in a random join order.
    rng = random.Random(7)
    for seed in range(40):
        t = generate_random_topology(seed, rng.randint(3, 40), scale)
        order = t.ids()
        rng.shuffle(order)
        joiners = [t.position(i) for i in order[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if scale < 1e300:
                assert build_tree(t) == scalar_build_tree(t), seed
            assert nearest_among(joiners, t, order) == [
                min(order[:r + 1], key=lambda i: (distance(p, t.position(i)), i))
                for r, p in enumerate(joiners)], seed
            points = [p for _, p in t.dcrs]
            points += [Point(rng.uniform(-0.2, 1.2) * scale, rng.uniform(-0.2, 1.2) * scale)
                       for _ in range(20)]
            points += [Point(p.x / 2 + q.x / 2, p.y / 2 + q.y / 2)  # between two DCRs
                       for p, q in zip(points, points[1:t.n])]
            for p in points:
                assert nearest_dcr(p, t) == scalar_nearest_dcr(p, t), (seed, p)


def test_nearest_among_shortlists_by_the_absolute_term_where_squares_underflow():
    # DCR 1 is nearer the origin than DCR 2, but its two squares round up and
    # DCR 2's one square rounds down, so its square is the larger, by more than
    # the relative 1e-9. Only the absolute 1e-300 keeps DCR 1 on the shortlist.
    near, far = Point(1.6e-162, 1.6e-162), Point(2.3e-162, 0.0)
    t = Topology(((1, near), (2, far)))
    assert distance(Point(0.0, 0.0), near) < distance(Point(0.0, 0.0), far)
    assert near.x * near.x + near.y * near.y > far.x * far.x
    assert nearest_dcr(Point(0.0, 0.0), t) == 1 == scalar_nearest_dcr(Point(0.0, 0.0), t)


def unbounded_random_topology(seed, n, extent):
    """generate_random_topology's draws with no bound on the redraws."""
    rng = random.Random(seed)
    taken, dcrs = set(), []
    for i in range(1, n + 1):
        while True:
            xy = (rng.uniform(0.0, extent), rng.uniform(0.0, extent))
            if xy not in taken:
                break
        taken.add(xy)
        dcrs.append((i, Point(*xy)))
    return Topology(tuple(dcrs))


@pytest.mark.parametrize("n, extent", [(4, 5e-324), (9, 1e-323), (50, 1e-320), (60, 100.0)])
def test_generate_random_topology_keeps_every_placement_that_finishes(n, extent):
    # 5e-324 is the least subnormal: [0, 5e-324] holds 2 values per axis,
    # [0, 1e-323] 3, so these extents are just big enough for n DCRs.
    for seed in range(20):
        assert generate_random_topology(seed, n, extent) == \
            unbounded_random_topology(seed, n, extent)


def test_generate_random_topology_fails_when_the_extent_has_too_few_points():
    with pytest.raises(ConfigError, match="cannot place DCR 5 of 5: 1000 redraws"):
        generate_random_topology(0, 5, extent=5e-324)
