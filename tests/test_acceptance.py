"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Oracle computations here (shortest paths, nearest members) are independent
re-derivations, not calls back into the code under test.
"""

import functools
import math

import pytest

from dcrsim import (Point, Simulation, Topology, VmMode, VmRegister, build_overlay,
                    build_tree, connect_leaves, format_overlay,
                    generate_random_topology, load_scenario, load_topology,
                    overlay_metrics, run_scenario)
from dcrsim.cli import main

import scenariogen
from conftest import example_path, golden_path
from oracles import floyd_warshall, packet_records, summary

SCENARIOS = ("migration", "replication", "destruction", "stretch")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _square_report(name: str):
    t = load_topology(example_path("square.top"))
    events = load_scenario(example_path(f"{name}.scn"))
    return run_scenario(t, build_overlay(t, 3), events)


@functools.lru_cache(maxsize=1)
def _corpus():
    """200 generated scenarios, simulated once and shared by criteria 6/8.

    Each simulation is paused at last lifecycle event + worst overlay delay
    to record whether the tables had settled by then, then run to the end.
    """
    out = []
    for seed in range(200):
        gen = scenariogen.generate(seed)
        sim = Simulation(gen.topology, gen.overlay, gen.events)
        sim.run_until(gen.last_lifecycle + gen.worst_delay)
        settled_on_time = sim.pending_floods() == 0
        report = sim.run()
        out.append((gen, sim, settled_on_time, report))
    return out


def test_criterion_1_metrics_move_monotonically_with_stage():
    checked = 0
    for i in range(100):
        n = 8 + i % 25
        t = generate_random_topology(i, n)
        m1, m2, m3 = (overlay_metrics(build_overlay(t, alg)) for alg in (1, 2, 3))
        assert m1.worst_delay >= m2.worst_delay >= m3.worst_delay
        assert m1.avg_delay >= m2.avg_delay >= m3.avg_delay
        assert m1.flooding_overhead <= m2.flooding_overhead <= m3.flooding_overhead
        checked += 1
    print(f"\nACCEPTANCE C1 PASS: worst/avg delay non-increasing and overhead "
          f"non-decreasing across stages on {checked} topologies (N=8..32)")


def test_criterion_2_overhead_structure():
    ratios = []
    for i in range(60):
        t = generate_random_topology(500 + i, 8 + i % 25)
        o1, o2, o3 = (build_overlay(t, alg) for alg in (1, 2, 3))
        m1, m2, m3 = (overlay_metrics(o) for o in (o1, o2, o3))
        added = set(o3.edges) - set(o2.edges)
        assert len(added) <= 1
        assert m3.flooding_overhead - m2.flooding_overhead == pytest.approx(
            sum(o3.edges[k] for k in added), abs=1e-9)
        ratios.append(m2.flooding_overhead / m1.flooding_overhead)
    mean_ratio = sum(ratios) / len(ratios)
    note = ""
    if not 1.3 <= mean_ratio <= 4.0:
        note = " (WARN: mean leaf-chain overhead ratio outside the expected band)"
    print(f"\nACCEPTANCE C2 PASS: wraparound overhead delta equals the added "
          f"edge cost on 60 topologies; mean stage-2/stage-1 overhead ratio "
          f"{mean_ratio:.2f}{note}")


def test_criterion_3_hand_traced_fixtures():
    t = Topology(((1, Point(0, 0)), (2, Point(10, 0)), (3, Point(18, 0))))
    o = build_tree(t, root=1)
    assert o.edges == {(1, 2): 10.0, (2, 3): 8.0}

    t = Topology(((1, Point(0, 0)), (2, Point(6, 8)), (3, Point(12, 0))))
    o = build_tree(t, root=1)
    assert o.edges == {(1, 2): 10.0, (1, 3): 12.0}

    t = Topology(((1, Point(0.0, 10.0)), (2, Point(10.0, 10.0)),
                  (3, Point(10.0, 0.0)), (4, Point(0.0, 0.0))))
    o2 = connect_leaves(build_tree(t), t)
    assert set(o2.edges) == {(1, 2), (1, 3), (1, 4), (3, 4), (2, 3)}
    o3 = build_overlay(t, 3)
    assert set(o3.edges) == set(o2.edges)
    assert _read(golden_path("square.alg3.overlay")) == format_overlay(o3)

    plus = Topology(((1, Point(0, 50)), (2, Point(100, 50)), (3, Point(50, 50)),
                     (4, Point(0, 100)), (5, Point(0, 0)), (6, Point(100, 100))))
    o3 = build_overlay(plus, 3)
    assert (1, 2) in o3.edges and o3.edges[(1, 2)] == 100.0
    print("\nACCEPTANCE C3 PASS: hand-traced attach/rewire, leaf-chain and "
          "wraparound fixtures built exactly")


def test_criterion_4_delays_match_independent_oracle():
    from dcrsim import all_pairs_delay
    for i in range(50):
        t = generate_random_topology(2_000 + i, 5 + i % 16)
        o = build_overlay(t, 1 + i % 3)
        mat = all_pairs_delay(o)
        oracle = floyd_warshall(list(o.nodes), dict(o.edges))
        idx = {v: k for k, v in enumerate(o.nodes)}
        for a in o.nodes:
            for b in o.nodes:
                assert abs(mat[idx[a], idx[b]] - oracle[a][b]) <= 1e-9
    print("\nACCEPTANCE C4 PASS: all-pairs delays match the Floyd-Warshall "
          "oracle within 1e-9 on 50 overlays")


def test_criterion_5_golden_scenarios_reproduce_exactly():
    for name in SCENARIOS:
        report = _square_report(name)
        assert report.to_csv() == _read(golden_path(f"{name}.report.csv")), name
        trace = "\n".join(report.trace_lines) + "\n"
        assert trace == _read(golden_path(f"{name}.trace.txt")), name

    mig = _read(golden_path("migration.trace.txt"))
    assert "NOTIFY 0 MIGRATION 1:0 2" in mig  # migration carries the new DC
    rep = _read(golden_path("replication.trace.txt"))
    assert "NOTIFY 0 REPLICATION 2:0 2,3" in rep  # replication carries src,dst
    des = _read(golden_path("destruction.trace.txt"))
    assert "NOTIFY 1 DESTRUCTION 2:0 3" in des  # destruction carries the departed DC
    assert "NOTIFY 2 DESTRUCTION 2:0 2" in des

    destroyed = _square_report("destruction")
    p = packet_records(destroyed)[0]
    assert p.trace.delivered_at is None and p.target == 2  # subblock fallback
    for name in SCENARIOS:
        for p in packet_records(_square_report(name)):
            if p.reply is not None:
                assert not p.reply.tunneled  # replies go back directly
    print("\nACCEPTANCE C5 PASS: golden reports and traces byte-identical; "
          "notification contents and reply/fallback semantics as specified")


def _brute_nearest(ids, pos, point):
    return min(ids, key=lambda d: (math.hypot(pos[d].x - point.x,
                                              pos[d].y - point.y), d))


def test_criterion_6_random_scenarios_converge_and_route_to_nearest():
    probes = 0
    for gen, sim, settled_on_time, report in _corpus():
        assert settled_on_time, \
            f"seed {gen.seed} not quiescent at last lifecycle + worst delay"
        assert sim.pending_floods() == 0, f"seed {gen.seed} not quiescent at end"
        pos = {d: gen.topology.position(d) for d in gen.topology.ids()}
        for name, truth in gen.vms.items():
            vm = sim.vms[name]
            assert vm.locations == truth.locations, f"seed {gen.seed} vm {name}"
            if truth.mode is VmMode.UNICAST:
                continue
            for d in gen.topology.ids():
                got = sim.tables[d].get(vm.address, VmRegister()).hosts()
                assert got == frozenset(truth.locations), \
                    f"seed {gen.seed} vm {name} table at {d}"
        for p in packet_records(report):
            if p.time != gen.probe_time:
                continue
            probes += 1
            truth = gen.vms[p.vm]
            user = gen.users[p.user]
            if truth.mode is VmMode.UNICAST:
                assert p.ingress is None and p.target == truth.birth_dc
                assert (p.trace.delivered_at is not None) == bool(truth.locations)
                continue
            expected_ingress = _brute_nearest(gen.topology.ids(), pos, user)
            assert p.ingress == expected_ingress, f"seed {gen.seed}"
            if truth.locations:
                expected = _brute_nearest(sorted(truth.locations), pos,
                                          pos[expected_ingress])
                assert p.target == expected, f"seed {gen.seed} packet {p.index}"
                assert p.trace.delivered_at == expected
            else:
                assert p.trace.delivered_at is None
                assert p.target == truth.birth_dc, f"seed {gen.seed}"
    assert probes >= 200
    print(f"\nACCEPTANCE C6 PASS: 200 random scenarios quiesce by last "
          f"lifecycle + worst delay with all tables equal to ground truth; "
          f"{probes} settled probes hit the brute-force nearest replica")


def test_criterion_7_session_breaks():
    migration = _square_report("migration")
    replication = _square_report("replication")
    assert summary(migration)["session_breaks"] == 0
    assert summary(replication)["session_breaks"] == 1
    print("\nACCEPTANCE C7 PASS: migration keeps the session (0 breaks), "
          "replica switch breaks it exactly once")


def test_criterion_8_stretch_bounds():
    checked = 0
    for _, _, _, report in _corpus():
        for p in packet_records(report):
            if p.stretch is not None:
                assert p.stretch >= 1.0
                assert p.penalty >= 0.0
                checked += 1
    stretch_report = _square_report("stretch")
    assert all(p.stretch is not None and p.stretch < 1.2
               for p in packet_records(stretch_report))
    print(f"\nACCEPTANCE C8 PASS: stretch >= 1 on {checked} delivered packets; "
          f"committed stretch scenario stays under 1.2")


def test_criterion_9_byte_identical_determinism(capsys, tmp_path):
    assert main(["compare", "--seed", "7", "--count", "20"]) == 0
    first = capsys.readouterr().out
    assert main(["compare", "--seed", "7", "--count", "20"]) == 0
    second = capsys.readouterr().out
    assert first == second and first

    for name in SCENARIOS:
        a, b = (_square_report(name).to_csv() for _ in range(2))
        assert a == b == _read(golden_path(f"{name}.report.csv"))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for out in (out1, out2):
            code = main(["run", example_path("square.top"),
                         example_path(f"{name}.scn"), "--alg", "3",
                         "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()
    print("\nACCEPTANCE C9 PASS: repeated compare and scenario runs are "
          "byte-identical")
