import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcrsim.overlay
from dcrsim import (ConfigError, EventKind, Overlay, OverlayError, ParseError,
                    Point, ScenarioEvent, Simulation, Topology, VmMode, VmRegister,
                    add_wraparound, all_pairs_delay, build_overlay,
                    build_tree, connect_leaves, flood_duplicate_count,
                    format_overlay, generate_random_topology, leaf_set,
                    overlay_metrics, parse_overlay)
from dcrsim.topology import NEAREST_BLOCK

import scenariogen
from oracles import dijkstra_matrix, floyd_warshall, pair_delays, scalar_build_tree, summary


def square() -> Topology:
    return Topology(((1, Point(0.0, 10.0)), (2, Point(10.0, 10.0)),
                     (3, Point(10.0, 0.0)), (4, Point(0.0, 0.0))))


def line3() -> Topology:
    # Fixture: joining node sticks with its nearest neighbour because the
    # detour through it is under the 25% threshold.
    return Topology(((1, Point(0, 0)), (2, Point(10, 0)), (3, Point(18, 0))))


def kite3() -> Topology:
    # Fixture: the detour through the nearest neighbour costs 20 vs 12
    # direct, over the threshold, so the joiner rewires to the parent.
    return Topology(((1, Point(0, 0)), (2, Point(6, 8)), (3, Point(12, 0))))


def test_build_tree_keeps_nearest_when_detour_is_cheap():
    o = build_tree(line3(), root=1)
    assert o.root == 1
    assert o.edges == {(1, 2): 10.0, (2, 3): 8.0}


def test_build_tree_rewires_to_parent_when_detour_is_pricey():
    o = build_tree(kite3(), root=1)
    assert o.edges == {(1, 2): 10.0, (1, 3): 12.0}


def test_build_tree_rewires_to_parent_when_detour_is_exactly_25_percent_worse():
    # 1 joins last, next to 5, whose parent is 4: the detour 1-5-4 costs
    # 5 + 5 = 10, exactly 1.25 times the direct 8, so 1 attaches to 4.
    t = Topology(((1, Point(8, 5)), (2, Point(1, 3)), (3, Point(1, 0)), (4, Point(0, 5)),
                  (5, Point(4, 8))))
    o = build_tree(t, root=2)
    assert set(o.edges) == {(2, 4), (2, 3), (4, 5), (1, 4)}
    assert "edge 1 4 8.000000" in format_overlay(o).splitlines()
    assert build_overlay(t, 1) == o == scalar_build_tree(t)


def test_build_tree_default_root_is_nearest_bounding_box_center():
    # All four corners tie for the center of the square, lowest id wins.
    assert build_tree(square()).root == 1
    t = Topology(((1, Point(0, 0)), (2, Point(40, 1)), (3, Point(100, 0))))
    assert build_tree(t).root == 2


def test_build_tree_unknown_root():
    with pytest.raises(ConfigError):
        build_tree(square(), root=9)


def test_build_tree_is_spanning():
    for seed in range(5):
        t = generate_random_topology(seed, 9)
        o = build_tree(t)
        assert len(o.edges) == t.n - 1
        mat = all_pairs_delay(o)  # raises if disconnected
        assert mat.shape == (9, 9)


def test_leaf_set_square_star():
    o = build_tree(square())
    assert leaf_set(o) == {2, 3, 4}


def test_connect_leaves_square_omits_widest_gap():
    t = square()
    o = connect_leaves(build_tree(t), t)
    # Leaves 4, 3, 2 sit at -90, -45 and 0 degrees around root 1; the wrap
    # gap 2 -> 4 spans 270 degrees and stays open.
    assert set(o.edges) == {(1, 2), (1, 3), (1, 4), (3, 4), (2, 3)}
    assert (2, 4) not in o.edges


def test_connect_leaves_leaves_the_first_of_two_equal_widest_gaps_open():
    # Leaves 3, 1, 2 sit at -90, 45 and 180 degrees around root 4: the gaps
    # 3 -> 1 and 1 -> 2 both span 135 degrees, and the first stays open.
    t = Topology(((1, Point(8, 8)), (2, Point(2, 7)), (3, Point(7, 2)), (4, Point(7, 7))))
    tree = build_tree(t)
    assert tree.root == 4 and leaf_set(tree) == {1, 2, 3}
    o = build_overlay(t, 2)
    assert set(o.edges) - set(tree.edges) == {(1, 2), (2, 3)}


def test_connect_leaves_two_leaves_single_chain_edge():
    t = line3()
    o = connect_leaves(build_tree(t, root=2), t)
    assert set(o.edges) == {(1, 2), (2, 3), (1, 3)}


def test_connect_leaves_no_leaves_to_chain():
    # The root has one link too, but it is not a leaf.
    t = Topology(((1, Point(0, 0)), (2, Point(10, 0))))
    o = build_tree(t, root=1)
    assert leaf_set(o) == {2}
    assert connect_leaves(o, t) is o


def test_a_parsed_tree_has_the_built_tree_s_leaves_and_leaf_chain():
    for seed, n in ((3, 12), (4, 40), (5, 100)):
        t = generate_random_topology(seed, n)
        tree = build_overlay(t, 1)
        parsed = parse_overlay(format_overlay(tree))
        assert leaf_set(parsed) == leaf_set(tree)
        chain = set(connect_leaves(tree, t).edges) - set(tree.edges)
        assert set(connect_leaves(parsed, t).edges) - set(parsed.edges) == chain


def plus_topology() -> Topology:
    return Topology(((1, Point(0, 50)), (2, Point(100, 50)), (3, Point(50, 50)),
                     (4, Point(0, 100)), (5, Point(0, 0)), (6, Point(100, 100))))


def test_add_wraparound_links_east_west():
    t = plus_topology()
    o2 = connect_leaves(build_tree(t), t)
    o3 = add_wraparound(o2, t)
    assert set(o3.edges) - set(o2.edges) == {(1, 2)}
    assert o3.edges[(1, 2)] == 100.0


def test_add_wraparound_noop_when_edge_exists():
    t = square()
    o2 = connect_leaves(build_tree(t), t)
    # West midpoint elects DCR 1, east elects DCR 2, and 1-2 is a tree edge.
    assert add_wraparound(o2, t) is o2


def test_add_wraparound_noop_when_same_node():
    t = Topology(((1, Point(0, 0)), (2, Point(0, 10)), (3, Point(0, 20))))
    o = build_tree(t)
    assert add_wraparound(o, t) is o


def test_build_overlay_stages_nest():
    t = generate_random_topology(11, 14)
    o1, o2, o3 = (build_overlay(t, alg) for alg in (1, 2, 3))
    assert set(o1.edges) <= set(o2.edges) <= set(o3.edges)
    assert len(o3.edges) - len(o2.edges) in (0, 1)


def test_build_overlay_rejects_bad_alg():
    with pytest.raises(ConfigError):
        build_overlay(square(), 4)


def test_all_pairs_delay_square_hand_values():
    o = build_overlay(square(), 3)
    mat = all_pairs_delay(o)
    idx = {v: i for i, v in enumerate(o.nodes)}
    assert mat[idx[1], idx[2]] == pytest.approx(10.0)
    assert mat[idx[2], idx[4]] == pytest.approx(20.0)
    assert mat[idx[1], idx[3]] == pytest.approx(math.hypot(10, 10))
    assert np.allclose(mat, mat.T)
    assert np.allclose(np.diag(mat), 0.0)


def test_all_pairs_delay_matches_oracle_on_random_overlays():
    for seed in range(10):
        t = generate_random_topology(seed, 6 + seed)
        o = build_overlay(t, 1 + seed % 3)
        mat = all_pairs_delay(o)
        oracle = floyd_warshall(list(o.nodes), dict(o.edges))
        idx = {v: i for i, v in enumerate(o.nodes)}
        for a in o.nodes:
            for b in o.nodes:
                assert mat[idx[a], idx[b]] == pytest.approx(oracle[a][b], abs=1e-9)


def test_all_pairs_delay_rejects_disconnected():
    o = parse_overlay("root 1\nedge 1 2 5.0\nedge 3 4 5.0\n")
    with pytest.raises(OverlayError):
        all_pairs_delay(o)


def test_overlay_metrics_square():
    m = overlay_metrics(build_overlay(square(), 3))
    assert m.worst_delay == pytest.approx(20.0)
    assert m.avg_delay == pytest.approx((10 + math.hypot(10, 10) + 10 + 10 + 10 + 20) / 6)
    assert m.flooding_overhead == pytest.approx(40 + math.hypot(10, 10))


def test_overlay_metrics_match_oracle():
    t = generate_random_topology(21, 10)
    o = build_overlay(t, 2)
    m = overlay_metrics(o)
    delays = pair_delays(list(o.nodes), dict(o.edges))
    assert m.worst_delay == pytest.approx(max(delays), abs=1e-9)
    assert m.avg_delay == pytest.approx(sum(delays) / len(delays), abs=1e-9)


def test_flood_schedule_square():
    # A flood from DCR 2 reaches DCRs 1 to 4 after its delay matrix row's
    # delays, and a DCR holds it from the instant it arrives.
    t = square()
    o = build_overlay(t, 3)
    idx = {v: i for i, v in enumerate(o.nodes)}
    row = all_pairs_delay(o)[idx[2]]
    assert row[idx[2]] == 0.0
    assert row[idx[1]] == pytest.approx(10.0)
    assert row[idx[3]] == pytest.approx(10.0)
    assert row[idx[4]] == pytest.approx(20.0)
    events = [ScenarioEvent(0.0, EventKind.CREATE_VM, vm="v", dc=1,
                            mode=VmMode.ANYCAST_MIGRATABLE),
              ScenarioEvent(0.0, EventKind.MIGRATE_VM, vm="v", dc=2)]
    sim = Simulation(t, o, events)
    for now, reached in ((0.0, {2}), (9.5, {2}), (10.0, {1, 2, 3}), (19.5, {1, 2, 3}),
                         (20.0, {1, 2, 3, 4})):
        sim.run_until(now)
        addr = sim.vms["v"].address
        assert {d for d, table in sim.tables.items()
                if table.get(addr, VmRegister()).hosts() == frozenset({2})} == reached


def test_flood_duplicate_count():
    t = square()
    assert flood_duplicate_count(build_overlay(t, 1)) == 0  # tree: no duplicates
    assert flood_duplicate_count(build_overlay(t, 3)) == 4  # 5 edges, 4 nodes


def test_serialization_round_trip():
    o = build_overlay(generate_random_topology(5, 9), 3)
    p = parse_overlay(format_overlay(o))
    assert p.nodes == o.nodes
    assert p.root == o.root
    assert set(p.edges) == set(o.edges)
    for k, cost in p.edges.items():
        assert cost == pytest.approx(o.edges[k], abs=1e-6)


def test_format_overlay_is_sorted_and_stable():
    o = build_overlay(square(), 3)
    text = format_overlay(o)
    assert text == ("root 1\n"
                    "edge 1 2 10.000000\n"
                    "edge 1 3 14.142136\n"
                    "edge 1 4 10.000000\n"
                    "edge 2 3 10.000000\n"
                    "edge 3 4 10.000000\n")
    assert format_overlay(o) == text


def test_parse_overlay_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_overlay("edge 1 1 5.0\nroot 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_overlay("root 1\nedge 1 2 5.0\nedge 2 1 5.0\n")
    with pytest.raises(ParseError, match="root"):
        parse_overlay("edge 1 2 5.0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_overlay("root 1\nlink 1 2 5.0\n")
    with pytest.raises(ParseError, match="second root"):
        parse_overlay("root 1\nroot 2\n")
    with pytest.raises(ParseError, match="no edge lines"):
        parse_overlay("root 1\n# no links\n")


def test_overlay_validates_structure():
    with pytest.raises(ConfigError):
        Overlay(nodes=(1, 2), edges={(2, 1): 5.0}, root=1)
    with pytest.raises(ConfigError):
        Overlay(nodes=(1, 2), edges={(1, 3): 5.0}, root=1)
    with pytest.raises(ConfigError):
        Overlay(nodes=(1, 2), edges={(1, 2): -5.0}, root=1)
    with pytest.raises(ConfigError):
        Overlay(nodes=(1, 2), edges={}, root=3)


def test_overlay_refuses_a_self_loop_edge():
    with pytest.raises(ConfigError, match="must be ordered"):
        Overlay(nodes=(1, 2), edges={(1, 1): 5.0, (1, 2): 5.0}, root=1)


def test_overlay_refuses_a_zero_cost_edge():
    with pytest.raises(ConfigError, match="non-positive cost"):
        Overlay(nodes=(1, 2), edges={(1, 2): 0.0}, root=1)


@pytest.mark.parametrize("cost", [math.nan, math.inf])
def test_overlay_refuses_a_non_finite_cost_edge(cost):
    with pytest.raises(ConfigError, match=f"^edge \\(1, 2\\) has non-finite cost {cost}$"):
        Overlay(nodes=(1, 2), edges={(1, 2): cost}, root=1)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=20))
def test_stagewise_metrics_never_regress(seed, n):
    t = generate_random_topology(seed, n)
    m1 = overlay_metrics(build_overlay(t, 1))
    m2 = overlay_metrics(build_overlay(t, 2))
    m3 = overlay_metrics(build_overlay(t, 3))
    assert m1.worst_delay >= m2.worst_delay >= m3.worst_delay
    assert m1.avg_delay >= m2.avg_delay >= m3.avg_delay
    assert m1.flooding_overhead <= m2.flooding_overhead <= m3.flooding_overhead


def assert_same_as_dijkstra(o):
    """The delay matrix, which every flood reads, equals the scalar Dijkstra
    oracle exactly, not to a tolerance."""
    oracle = dijkstra_matrix(list(o.nodes), dict(o.edges))
    assert np.array_equal(all_pairs_delay(o), np.array(oracle))


def acceptance_overlays(criterion):
    """The overlays acceptance criteria C1 to C4 measure."""
    if criterion == "C1":
        for i in range(100):
            t = generate_random_topology(i, 8 + i % 25)
            yield from (build_overlay(t, alg) for alg in (1, 2, 3))
    elif criterion == "C2":
        for i in range(60):
            t = generate_random_topology(500 + i, 8 + i % 25)
            yield from (build_overlay(t, alg) for alg in (1, 2, 3))
    elif criterion == "C3":
        yield build_tree(line3(), root=1)
        yield build_tree(kite3(), root=1)
        yield connect_leaves(build_tree(square()), square())
        yield build_overlay(square(), 3)
        yield build_overlay(plus_topology(), 3)
    else:
        for i in range(50):
            yield build_overlay(generate_random_topology(2_000 + i, 5 + i % 16), 1 + i % 3)


@pytest.mark.parametrize("criterion", ("C1", "C2", "C3", "C4"))
def test_delays_equal_scalar_dijkstra_on_acceptance_overlays(criterion):
    for o in acceptance_overlays(criterion):
        assert_same_as_dijkstra(o)


def test_delays_equal_scalar_dijkstra_on_scenario_corpus():
    for seed in range(200):
        assert_same_as_dijkstra(scenariogen.generate(seed).overlay)


def test_delays_equal_scalar_dijkstra_after_a_file_round_trip():
    # Parsed costs are rounded to 6 decimals.
    for seed in range(5):
        t = generate_random_topology(seed, 40)
        for alg in (1, 2, 3):
            assert_same_as_dijkstra(parse_overlay(format_overlay(build_overlay(t, alg))))


@pytest.mark.parametrize("alg", (1, 2, 3))
def test_delays_equal_scalar_dijkstra_at_n_1000(alg):
    assert_same_as_dijkstra(build_overlay(generate_random_topology(1, 1000), alg))


def test_delay_matrix_is_computed_once_per_overlay(monkeypatch):
    kernel = dcrsim.overlay._delay_matrix
    calls = []

    def counted(o):
        calls.append(o)
        return kernel(o)

    monkeypatch.setattr(dcrsim.overlay, "_delay_matrix", counted)
    t = square()
    events = [ScenarioEvent(0.0, EventKind.PLACE_USER, user="u", x=1.0, y=1.0),
              ScenarioEvent(0.0, EventKind.CREATE_VM, vm="v", dc=1,
                            mode=VmMode.ANYCAST_MIGRATABLE)]
    for k, dc in enumerate((2, 3, 4, 1)):  # a flood from every DCR
        events += [ScenarioEvent(10.0 + 40 * k, EventKind.MIGRATE_VM, vm="v", dc=dc),
                   ScenarioEvent(15.0 + 40 * k, EventKind.SEND_PACKET, user="u", vm="v")]
    sim = Simulation(t, build_overlay(t, 3), events)
    assert calls == []  # set-up computes no delays
    first = sim.run()
    second = sim.report()
    assert summary(first)["notifications"] == 4
    assert first.to_csv() == second.to_csv()
    assert len(calls) == 1


def test_writing_to_all_pairs_delay_leaves_the_overlay_alone():
    o = build_overlay(square(), 3)
    before = overlay_metrics(o)
    mat = all_pairs_delay(o)
    mat[:] = 0.0
    assert overlay_metrics(o) == before
    assert all_pairs_delay(o)[1, 3] == 20.0


@pytest.mark.parametrize("root", (1, 3))
def test_disconnected_overlay_raises_from_every_reader(root):
    o = parse_overlay(f"root {root}\nedge 1 2 5.0\nedge 3 4 5.0\n")
    for read in (all_pairs_delay, overlay_metrics):
        with pytest.raises(OverlayError, match=r"no path from 1 to \[3, 4\]"):
            read(o)


@pytest.mark.parametrize("n, seeds", [(2, 50), (3, 50), (5, 50), (17, 50), (64, 20), (400, 3)])
def test_build_tree_equals_the_scalar_oracle(n, seeds):
    for seed in range(seeds):
        t = generate_random_topology(seed, n)
        # Overlay equality compares the nodes, the edges with their costs and
        # the root.
        assert build_tree(t) == scalar_build_tree(t)


def lattice(side: int, seed: int) -> Topology:
    """An integer lattice with its ids shuffled, so many in-tree nodes tie
    for nearest and the lowest id is not the first one scanned."""
    ids = list(range(1, side * side + 1))
    random.Random(seed).shuffle(ids)
    return Topology(tuple((ids[k], Point(float(k % side), float(k // side)))
                          for k in range(side * side)))


@pytest.mark.parametrize("seed", range(3))
def test_build_tree_equals_the_scalar_oracle_on_a_tie_heavy_lattice(seed):
    t = lattice(8, seed)
    assert build_tree(t) == scalar_build_tree(t)
    for root in t.ids():
        assert build_tree(t, root=root) == scalar_build_tree(t, root=root)


@pytest.mark.parametrize("joiners", (NEAREST_BLOCK, NEAREST_BLOCK + 1))
def test_build_tree_equals_the_scalar_oracle_across_a_block_boundary(joiners):
    # Every DCR but the root joins; the last of NEAREST_BLOCK + 1 joiners is
    # the first row of a second block.
    for seed in range(5):
        t = generate_random_topology(seed, joiners + 1)
        assert build_tree(t) == scalar_build_tree(t)
    # Int coordinates, with ties across the boundary.
    t = Topology(tuple((k + 1, Point(k % 11, k // 11)) for k in range(joiners + 1)))
    assert build_tree(t) == scalar_build_tree(t)


def staged(t, root=None):
    """The three stages built as `dcrsim compare` builds them: each stage's
    metrics are read before the next stage extends it."""
    o = build_tree(t, root=root)
    overlay_metrics(o)
    yield o
    for extend in (connect_leaves, add_wraparound):
        base, o = o, extend(o, t)
        # Whenever a stage adds links, its matrix starts from the base's.
        assert (o is base) or "_warm" in vars(o)
        overlay_metrics(o)
        yield o


def acceptance_topologies():
    """The topologies (with their roots) behind acceptance_overlays."""
    for i in range(100):
        yield generate_random_topology(i, 8 + i % 25), None
    for i in range(60):
        yield generate_random_topology(500 + i, 8 + i % 25), None
    yield from ((line3(), 1), (kite3(), 1), (square(), None), (plus_topology(), None))
    for i in range(50):
        yield generate_random_topology(2_000 + i, 5 + i % 16), None


def test_warm_started_delays_equal_scalar_dijkstra_on_acceptance_topologies():
    for t, root in acceptance_topologies():
        for o in staged(t, root):
            assert_same_as_dijkstra(o)


def test_warm_started_delays_equal_scalar_dijkstra_on_scenario_corpus():
    for seed in range(200):
        for o in staged(scenariogen.generate(seed).topology):
            assert_same_as_dijkstra(o)


def test_warm_started_delays_equal_scalar_dijkstra_at_n_1000():
    _, o2, o3 = staged(generate_random_topology(1, 1000))
    assert_same_as_dijkstra(o2)
    assert_same_as_dijkstra(o3)


def test_warm_start_leaves_the_base_matrix_alone():
    t = generate_random_topology(4, 60)
    o1 = build_tree(t)
    before = all_pairs_delay(o1)
    o2 = connect_leaves(o1, t)
    overlay_metrics(o2)
    assert "_warm" not in vars(o2)  # the hand-off is dropped once used
    assert not o2._delays.flags.writeable
    assert np.array_equal(o1._delays, before)
    assert not o1._delays.flags.writeable
    assert not np.array_equal(o2._delays, before)  # the leaf chain shortened some paths


@pytest.mark.parametrize("seed", range(4))
def test_one_base_hands_on_its_neighbour_lists_twice_unchanged(seed):
    # Stage 1 is extended twice, by stage 2's links and by stage 3's
    # wraparound alone; each warm start copies the base's neighbour lists.
    t = generate_random_topology(seed, 60)
    o1, o2, o3 = (build_overlay(t, alg) for alg in (1, 2, 3))
    overlay_metrics(o1)
    before = all_pairs_delay(o1)
    links = [{u: float(c) for u, c in ls.items()} for ls in o1._links]
    for pairs in (set(o2.edges) - set(o1.edges), set(o3.edges) - set(o2.edges)):
        o = dcrsim.overlay._extend(o1, t, sorted(pairs))
        assert "_warm" in vars(o) and len(o.edges) == len(o1.edges) + len(pairs)
        assert_same_as_dijkstra(o)
    assert np.array_equal(o1._delays, before)
    assert [{u: float(c) for u, c in ls.items()} for ls in o1._links] == links


def test_extending_an_uncomputed_overlay_starts_cold():
    t = generate_random_topology(5, 40)
    o2 = connect_leaves(build_tree(t), t)
    o3 = add_wraparound(o2, t)
    assert o3 is not o2
    assert "_warm" not in vars(o2) and "_warm" not in vars(o3)
    assert_same_as_dijkstra(o3)


def test_stages_build_one_tree_per_topology(monkeypatch):
    # Stage 1 starts cold from its tree; stages 2 and 3 start warm, in its order.
    visit_tree = dcrsim.overlay._visit_tree
    calls = []

    def counted(*args):
        calls.append(args)
        return visit_tree(*args)

    monkeypatch.setattr(dcrsim.overlay, "_visit_tree", counted)
    for seed in range(3):
        t = generate_random_topology(seed, 40)
        built = []
        for o in dcrsim.overlay.stages(t):  # as `dcrsim compare` reads them
            overlay_metrics(o)
            built.append(o)
        assert len({len(o.edges) for o in built}) == 3  # each stage added links
        assert len(calls) == seed + 1


@pytest.mark.parametrize("n", (40, 400))
def test_visit_order_changes_no_bits(n):
    # The sweeps visit the kernel's tree in preorder from the root, so each
    # root gives another visit order, and the delays keep every bit.
    t = generate_random_topology(9, n)
    overlays = [build_overlay(t, alg) for alg in (1, 2, 3)]
    wanted = [np.array(dijkstra_matrix(list(o.nodes), dict(o.edges))) for o in overlays]
    nodes = overlays[0].nodes
    for root in (overlays[0].root, nodes[0], nodes[n // 2], nodes[-1]):
        cold = [replace(o, root=root) for o in overlays]
        for o, oracle in zip(cold, wanted):
            assert np.array_equal(all_pairs_delay(o), oracle)
        o = cold[0]
        for full, oracle in zip(overlays[1:], wanted[1:]):  # warm-started from cold[0]
            o = dcrsim.overlay._extend(o, t, list(full.edges))
            assert "_warm" in vars(o)
            assert np.array_equal(all_pairs_delay(o), oracle)
