import contextlib
import io
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcrsim.cli
from dcrsim import (ParseError, ScenarioError, Simulation, build_overlay,
                    generate_random_topology, load_scenario, load_topology, overlay_metrics,
                    parse_overlay, parse_scenario, parse_topology)
from dcrsim.cli import main

from conftest import example_path, golden_path


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_topology_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "t.top"
    code, _, err = run_cli(["gen-topology", "--seed", "3", "--n", "8",
                            "--out", str(out)], capsys)
    assert code == 0 and err == ""
    t = parse_topology(out.read_text())
    assert t.n == 8


def test_gen_topology_stdout_and_determinism(capsys):
    code, first, _ = run_cli(["gen-topology", "--seed", "5"], capsys)
    assert code == 0
    code, second, _ = run_cli(["gen-topology", "--seed", "5"], capsys)
    assert first == second
    assert parse_topology(first).n == 11


def test_gen_topology_usage_error(capsys):
    code, _, err = run_cli(["gen-topology", "--n", "1"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_build_overlay_round_trip(tmp_path, capsys):
    top = tmp_path / "t.top"
    ovl = tmp_path / "o.ovl"
    assert run_cli(["gen-topology", "--seed", "2", "--n", "9",
                    "--out", str(top)], capsys)[0] == 0
    code, _, _ = run_cli(["build-overlay", str(top), "--alg", "2",
                          "--out", str(ovl)], capsys)
    assert code == 0
    o = parse_overlay(ovl.read_text())
    assert len(o.nodes) == 9


def test_build_overlay_rejects_bad_alg(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build-overlay", "x.top", "--alg", "7"])
    assert exc.value.code != 0


def test_build_overlay_missing_file(capsys):
    code, _, err = run_cli(["build-overlay", "/nonexistent.top"], capsys)
    assert code == 2
    assert "error:" in err


def test_eval_overlay_line_format(tmp_path, capsys):
    ovl = tmp_path / "o.ovl"
    run_cli(["build-overlay", example_path("square.top"), "--alg", "3",
             "--out", str(ovl)], capsys)
    code, out, _ = run_cli(["eval-overlay", str(ovl)], capsys)
    assert code == 0
    assert out == "worst=20.00 avg=12.36 overhead=54.14\n"


def test_eval_overlay_two_node_path(tmp_path, capsys):
    ovl = tmp_path / "o.ovl"
    ovl.write_text("root 1\nedge 1 2 10.0\nedge 2 3 8.0\n")
    _, out, _ = run_cli(["eval-overlay", str(ovl)], capsys)
    assert out == "worst=18.00 avg=12.00 overhead=18.00\n"


def test_eval_overlay_single_edge(tmp_path, capsys):
    ovl = tmp_path / "o.ovl"
    ovl.write_text("root 1\nedge 1 2 7.0\n")
    _, out, _ = run_cli(["eval-overlay", str(ovl)], capsys)
    assert out == "worst=7.00 avg=7.00 overhead=7.00\n"


def test_eval_overlay_disconnected(tmp_path, capsys):
    ovl = tmp_path / "o.ovl"
    ovl.write_text("root 1\nedge 1 2 5.0\nedge 3 4 5.0\n")
    code, _, err = run_cli(["eval-overlay", str(ovl)], capsys)
    assert code == 2
    assert "disconnected" in err


def test_eval_overlay_without_edges_fails_at_parse_time(tmp_path, capsys):
    ovl = tmp_path / "o.ovl"
    ovl.write_text("root 1\n")
    code, out, err = run_cli(["eval-overlay", str(ovl)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: no edge lines")
    assert "Traceback" not in err


def test_compare_csv_shape(capsys):
    code, out, _ = run_cli(["compare", "--seed", "1", "--count", "4",
                            "--n", "6..8"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "topology,seed,n,alg,worst_delay,avg_delay,flooding_overhead"
    assert len(lines) == 1 + 4 * 3 + 3
    assert lines[1].startswith("t0,1,6,1,")
    assert lines[4].startswith("t1,2,7,1,")
    assert lines[-3].startswith("mean,,,1,")
    assert lines[-1].startswith("mean,,,3,")


def test_compare_is_deterministic(capsys):
    args = ["compare", "--seed", "7", "--count", "5", "--n", "5..9"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_compare_rows_match_each_overlay_built_from_scratch(capsys):
    code, out, _ = run_cli(["compare", "--seed", "3", "--count", "4",
                            "--n", "4..40"], capsys)
    assert code == 0
    rows = out.splitlines()[1:13]
    for i in range(4):
        t = generate_random_topology(3 + i, 4 + i)
        for alg in (1, 2, 3):
            m = overlay_metrics(build_overlay(t, alg))
            assert rows[3 * i + alg - 1] == (
                f"t{i},{3 + i},{4 + i},{alg},{m.worst_delay:.6f},"
                f"{m.avg_delay:.6f},{m.flooding_overhead:.6f}")


def test_compare_builds_each_tree_once(monkeypatch, capsys):
    trees = []
    build_tree = dcrsim.overlay.build_tree

    def counted(t):
        trees.append(t)
        return build_tree(t)

    monkeypatch.setattr(dcrsim.overlay, "build_tree", counted)
    code, _, _ = run_cli(["compare", "--seed", "1", "--count", "3", "--n", "9"], capsys)
    assert code == 0
    assert len(trees) == 3


def test_compare_rejects_bad_n_spec(capsys):
    code, _, err = run_cli(["compare", "--n", "9..3"], capsys)
    assert code == 2 and "error:" in err
    code, _, err = run_cli(["compare", "--n", "lots"], capsys)
    assert code == 2 and "error:" in err
    code, _, err = run_cli(["compare", "--count", "0"], capsys)
    assert code == 2 and "error:" in err


def test_compare_accepts_n_from_2_and_refuses_n_from_1(capsys):
    code, out, _ = run_cli(["compare", "--seed", "1", "--count", "2", "--n", "2..3"], capsys)
    assert code == 0
    assert [row.split(",")[2] for row in out.splitlines()[1:7]] == ["2"] * 3 + ["3"] * 3
    code, _, err = run_cli(["compare", "--n", "1..3"], capsys)
    assert code == 2 and "bad --n range" in err


def test_compare_accepts_count_1(capsys):
    code, out, _ = run_cli(["compare", "--seed", "1", "--count", "1", "--n", "5"], capsys)
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["t0"] * 3 + ["mean"] * 3


def test_compare_reproduces_the_golden_csv_at_n_400(capsys):
    # The benchmark's `compare` job; the golden was written before the tree
    # scan was vectorised and the stage delay matrices were warm-started.
    code, out, _ = run_cli(["compare", "--seed", "1", "--count", "3", "--n", "400"], capsys)
    assert code == 0
    with open(golden_path("compare.seed1.n400.csv"), encoding="utf-8") as f:
        assert out == f.read()


def test_run_writes_report_and_trace(tmp_path, capsys):
    rep = tmp_path / "r.csv"
    trc = tmp_path / "r.trace"
    code, _, _ = run_cli(["run", example_path("square.top"),
                          example_path("migration.scn"), "--alg", "3",
                          "--out", str(rep), "--trace", str(trc)], capsys)
    assert code == 0
    report = rep.read_text()
    assert report.splitlines()[0].startswith("packet,time,")
    assert "# summary:" in report
    trace = trc.read_text()
    assert "NOTIFY 0 MIGRATION 1:0 2" in trace
    assert trace.count("PKT ") == 2


def test_run_formats_pkt_lines_only_for_a_trace(tmp_path, capsys):
    # Without --trace the walk renders no trace, and the run writes none.
    t = load_topology(example_path("square.top"))
    events = load_scenario(example_path("stretch.scn"))
    report = Simulation(t, build_overlay(t, 3), events).run()
    csv, text = report.render(trace=False)
    assert text is None
    argv = ["run", example_path("square.top"), example_path("stretch.scn"),
            "--out", str(tmp_path / "r.csv")]
    assert run_cli(argv, capsys)[0] == 0
    assert (tmp_path / "r.csv").read_text() == csv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv"]
    # With it, the trace holds one PKT line per CSV row, and the CSV is the same.
    assert run_cli(argv + ["--trace", str(tmp_path / "r.trace")], capsys)[0] == 0
    assert (tmp_path / "r.csv").read_text() == csv
    written = (tmp_path / "r.trace").read_text()
    assert written == report.render(trace=True)[1]
    packets = len(csv.splitlines()) - 2
    assert packets > 0
    assert sum(line.startswith("PKT ") for line in written.splitlines()) == packets


def test_run_accepts_prebuilt_overlay(tmp_path, capsys):
    ovl = tmp_path / "o.ovl"
    code, _, _ = run_cli(["build-overlay", example_path("square.top"),
                          "--alg", "3", "--out", str(ovl)], capsys)
    assert code == 0
    code_alg, via_alg, _ = run_cli(["run", example_path("square.top"),
                                    example_path("migration.scn"),
                                    "--alg", "3"], capsys)
    code_file, via_file, _ = run_cli(["run", example_path("square.top"),
                                      example_path("migration.scn"),
                                      "--overlay", str(ovl)], capsys)
    assert code_alg == 0 and code_file == 0
    assert via_alg.startswith("packet,time,user,vm,session,")
    assert via_alg == via_file


@pytest.mark.parametrize("extent", ("0.001", "1e9"))
def test_run_accepts_every_built_overlay_file(extent, tmp_path, capsys):
    top, ovl, scn = tmp_path / "t.top", tmp_path / "o.ovl", tmp_path / "s.scn"
    run_cli(["gen-topology", "--seed", "2", "--n", "30", "--extent", extent,
             "--out", str(top)], capsys)
    run_cli(["build-overlay", str(top), "--out", str(ovl)], capsys)
    scn.write_text("0 user u 0 0\n0 create v 1 anycast-migrate\n1 migrate v 2\n"
                   "2 send u v\n")
    code, out, err = run_cli(["run", str(top), str(scn), "--overlay", str(ovl)], capsys)
    assert code == 0 and err == ""
    assert "# summary: packets=1" in out


def test_run_rejects_overlay_costs_that_disagree_with_the_map(tmp_path, capsys):
    # The square's alg-3 overlay with every link cost set to 0.001: floods
    # would outrun packets that travel the real distances.
    ovl = tmp_path / "o.ovl"
    ovl.write_text("root 1\nedge 1 2 0.001\nedge 1 3 0.001\nedge 1 4 0.001\n"
                   "edge 2 3 0.001\nedge 3 4 0.001\n")
    code, out, err = run_cli(["run", example_path("square.top"),
                              example_path("migration.scn"), "--overlay", str(ovl)],
                             capsys)
    assert code == 2 and out == ""
    assert err == "error: overlay edge 1 2 costs 0.001, but DCRs 1 and 2 are 10.0 apart\n"


def test_run_overlay_and_alg_are_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["run", "t.top", "s.scn", "--overlay", "o.ovl", "--alg", "2"])
    assert exc.value.code != 0


def test_run_bad_scenario_exits_nonzero(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("0 send nobody nothing\n")
    code, _, err = run_cli(["run", example_path("square.top"), str(scn)], capsys)
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("user_line", ["{} user u1 1 1", "0 user u1 {} 1", "0 user u1 1 {}"],
                         ids=["time", "x", "y"])
def test_non_finite_scenario_numbers_fail_at_parse_time(user_line, value, tmp_path, capsys):
    text = f"0 create vm1 1 anycast-migrate\n{user_line.format(value)}\n1 send u1 vm1\n"
    with pytest.raises(ParseError, match="line 2: non-finite"):
        parse_scenario(text)
    scn = tmp_path / "bad.scn"
    scn.write_text(text)
    code, out, err = run_cli(["run", example_path("square.top"), str(scn)], capsys)
    assert code == 2
    assert "line 2: non-finite" in err
    assert out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("dcr_line", ["dcr 2 {} 1", "dcr 2 1 {}"], ids=["x", "y"])
def test_non_finite_topology_coordinates_fail_at_parse_time(dcr_line, value, tmp_path,
                                                            capsys):
    text = f"dcr 1 0 0\n{dcr_line.format(value)}\ndcr 3 5 5\n"
    with pytest.raises(ParseError, match="line 2: non-finite coordinate"):
        parse_topology(text)
    top = tmp_path / "bad.top"
    top.write_text(text)
    code, out, err = run_cli(["build-overlay", str(top), "--alg", "1"], capsys)
    assert code == 2
    assert "line 2: non-finite coordinate" in err
    assert out == ""


def test_user_whose_distance_overflows_fails_before_running(tmp_path, capsys):
    text = "0 create vm1 1 anycast-migrate\n0 user u1 1.7e308 1.7e308\n1 send u1 vm1\n"
    t = load_topology(example_path("square.top"))
    with pytest.raises(ScenarioError, match="^line 2: user u1 .* distance overflows"):
        Simulation(t, build_overlay(t, 3), parse_scenario(text))
    scn = tmp_path / "far.scn"
    scn.write_text(text)
    code, out, err = run_cli(["run", example_path("square.top"), str(scn)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: line 2: user u1 ")


def test_packet_whose_delay_sum_overflows_fails_before_running(tmp_path, capsys):
    # Each hop is finite, but user to DCR 1 and on to DCR 2 is not.
    top = tmp_path / "wide.top"
    top.write_text("dcr 1 0 0\ndcr 2 1.7e308 0\n")
    scn = tmp_path / "far.scn"
    scn.write_text("0 user u1 8.5e307 0\n0 create vm1 2 anycast-migrate\n1 send u1 vm1\n")
    code, out, err = run_cli(["run", str(top), str(scn)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "overflow" in err
    # Over a narrow map, the user line itself is named.
    text = "0 create vm1 1 anycast-migrate\n0 user u1 9e307 0\n1 send u1 vm1\n"
    t = load_topology(example_path("square.top"))
    with pytest.raises(ScenarioError, match="^line 2: user u1 .* distance overflows"):
        Simulation(t, build_overlay(t, 3), parse_scenario(text))


def test_overlay_whose_delay_sums_overflow_fails(tmp_path, capsys):
    corners = "dcr 1 0 0\ndcr 2 1e308 0\ndcr 3 0 1e308\ndcr 4 1e308 1e308\ndcr 5 5e307 5e307\n"
    top = tmp_path / "square.top"
    top.write_text(corners)
    code, out, err = run_cli(["build-overlay", str(top), "--alg", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: overlay link costs sum to inf")
    # The alg-1 overlay of that map, as a build used to write it.
    cost = f"{math.hypot(5e307, 5e307):.6f}"
    ovl = tmp_path / "square.ovl"
    ovl.write_text("root 5\n" + "".join(f"edge {i} 5 {cost}\n" for i in range(1, 5)))
    code, out, err = run_cli(["eval-overlay", str(ovl)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: overlay link costs sum to inf")


@pytest.mark.parametrize("alg", [1, 2, 3])
def test_build_overlay_at_the_largest_finite_distance_exits_2_without_a_warning(
        alg, tmp_path, capsys):
    # The box's diagonal is exactly the largest float, so the map parses, and
    # building its tree scans for a nearest DCR that far away.
    top = tmp_path / "tall.top"
    top.write_text("dcr 1 0.0 0.0\ndcr 2 0.0 1.7976931348623157e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["build-overlay", str(top), "--alg", str(alg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: overlay link costs sum to 1.7976931348623157e+308")


# Three DCRs 1 apart on a line at 1e308 from the origin, along x then along
# y, where the sum of the box's two edges overflows though their midpoint
# does not. Alg 3's wraparound takes the midpoint of the y edges.
@pytest.mark.parametrize("dcrs, alg, overlay", [
    ("dcr 1 1e308 0\ndcr 2 1e308 1\ndcr 3 1e308 2\n", 1,
     "root 2\nedge 1 2 1.000000\nedge 2 3 1.000000\n"),
    ("dcr 1 0 1e308\ndcr 2 1 1e308\ndcr 3 2 1e308\n", 3,
     "root 2\nedge 1 2 1.000000\nedge 1 3 2.000000\nedge 2 3 1.000000\n"),
], ids=["x", "y"])
def test_build_overlay_far_from_the_origin(dcrs, alg, overlay, tmp_path, capsys):
    top = tmp_path / "far.top"
    top.write_text(dcrs)
    assert run_cli(["build-overlay", str(top), "--alg", str(alg)], capsys) == (0, overlay, "")


@pytest.mark.parametrize("seed", ["0", "1", "98765"])
def test_run_bytes_do_not_depend_on_the_hash_seed(seed, tmp_path):
    trace = tmp_path / "replication.trace"
    src = os.path.dirname(os.path.dirname(dcrsim.cli.__file__))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "dcrsim", "run", example_path("square.top"),
                           example_path("replication.scn"), "--alg", "3", "--trace", str(trace)],
                          env=env, capture_output=True, check=True)
    with open(golden_path("replication.report.csv"), "rb") as f:
        assert proc.stdout == f.read()
    with open(golden_path("replication.trace.txt"), "rb") as f:
        assert trace.read_bytes() == f.read()


def test_send_whose_arrival_time_overflows_fails_before_running(tmp_path, capsys):
    scn = tmp_path / "late.scn"
    scn.write_text("0 user u1 1e306 0\n0 create vm1 2 anycast-migrate\n"
                   "1.797e308 migrate vm1 3\n1.797e308 send u1 vm1\n")
    code, out, err = run_cli(["run", example_path("square.top"), str(scn)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: line 4: send at 1.797e+308 ")
    # Near the map, the same times round to the largest finite float.
    top = 1.7976931348623157e308
    scn.write_text(f"0 user u1 5 5\n0 create vm1 2 anycast-migrate\n"
                   f"{top!r} migrate vm1 3\n{top!r} send u1 vm1\n")
    code, out, err = run_cli(["run", example_path("square.top"), str(scn)], capsys)
    assert code == 0 and err == ""
    assert "delivered=1 miss=0" in out


def test_flood_whose_arrival_times_overflow_fails_before_running(tmp_path, capsys):
    # The link costs 1e300, more than half an ulp of the largest float.
    top = tmp_path / "wide.top"
    top.write_text("dcr 1 0 0\ndcr 2 1e300 0\n")
    scn = tmp_path / "late.scn"
    scn.write_text("0 create vm1 1 anycast-migrate\n1.7976931348623157e308 migrate vm1 2\n")
    code, out, err = run_cli(["run", str(top), str(scn)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: line 2: migrate at 1.7976931348623157e+308 ")
    # A unicast change floods nothing, so it may come that late.
    scn.write_text("0 create vm1 1 unicast\n1.7976931348623157e308 destroy vm1 1\n")
    code, out, err = run_cli(["run", str(top), str(scn)], capsys)
    assert code == 0 and err == ""


def test_topology_whose_distances_overflow_fails_at_parse_time(tmp_path, capsys):
    top = tmp_path / "wide.top"
    top.write_text("dcr 1 0 0\ndcr 2 1.7e308 0\ndcr 3 -1.7e308 1\ndcr 4 5 5\n")
    code, out, err = run_cli(["build-overlay", str(top), "--alg", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: line 3: DCR 3 ")


def test_negative_scenario_time_fails_at_parse_time(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("0 create vm1 1 anycast-migrate\n-1 user u1 0 0\n")
    code, out, err = run_cli(["run", example_path("square.top"), str(scn)], capsys)
    assert code == 2
    assert "line 2: negative time" in err
    assert out == ""


@pytest.mark.parametrize("text, line", [
    ("0 create x 99 unicast\n", 1),
    ("0 create vm1 1 anycast-migrate\n1 migrate vm1 99\n", 2),
    ("0 create vm1 1 anycast-replicate\n1 replicate vm1 99 2\n", 2),
    ("0 create vm1 1 anycast-replicate\n1 replicate vm1 1 99\n", 2),
    ("0 create vm1 1 anycast-migrate\n1 destroy vm1 99\n", 2),
], ids=["create", "migrate", "replicate-src", "replicate-dst", "destroy"])
def test_unknown_dc_ids_name_their_line(text, line, tmp_path, capsys):
    t = load_topology(example_path("square.top"))
    with pytest.raises(ScenarioError, match=f"^line {line}: unknown DCR id 99$"):
        Simulation(t, build_overlay(t, 3), parse_scenario(text))
    scn = tmp_path / "bad.scn"
    scn.write_text(text)
    code, out, err = run_cli(["run", example_path("square.top"), str(scn)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: line {line}: unknown DCR id 99\n"


# Scenario lines over the square's DCRs 1..4, with DC ids 0 and 99 unknown.
_TIMES = st.one_of(st.integers(0, 20), st.floats(0, 50))
_VMS = st.sampled_from(["vm0", "vm1", "vm2"])
_USERS = st.sampled_from(["u0", "u1"])
_DCS = st.sampled_from([0, 1, 2, 3, 4, 99])
_COORDS = st.floats(-50, 150)
_MODES = st.sampled_from(["unicast", "anycast-migrate", "anycast-replicate"])
_SCENARIO_LINES = st.one_of(
    st.builds("{} create {} {} {}".format, _TIMES, _VMS, _DCS, _MODES),
    st.builds("{} migrate {} {}".format, _TIMES, _VMS, _DCS),
    st.builds("{} replicate {} {} {}".format, _TIMES, _VMS, _DCS, _DCS),
    st.builds("{} destroy {} {}".format, _TIMES, _VMS, _DCS),
    st.builds("{} user {} {} {}".format, _TIMES, _USERS, _COORDS, _COORDS),
    st.builds("{} send {} {}".format, _TIMES, _USERS, _VMS),
    st.builds("{} send {} {} session {}".format, _TIMES, _USERS, _VMS,
              st.sampled_from(["s0", "s1"])),
)
# Users and VMs set up at time 0, so that more of the lines after them run.
_SETUP_LINES = st.lists(st.one_of(
    st.builds("0 user {} {} {}".format, _USERS, _COORDS, _COORDS),
    st.builds("0 create {} {} {}".format, _VMS, _DCS, _MODES)), max_size=5)


@settings(max_examples=200)
@given(st.builds(operator.add, _SETUP_LINES, st.lists(_SCENARIO_LINES, max_size=10)))
def test_run_ends_in_a_report_or_a_line_numbered_error(lines):
    with tempfile.TemporaryDirectory() as tmp:
        scn = os.path.join(tmp, "s.scn")
        with open(scn, "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in lines))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", example_path("square.top"), scn,
                         "--trace", os.path.join(tmp, "s.trace")])
    assert code in (0, 2)
    if code == 2:
        assert re.match(r"error: line \d+: ", err.getvalue()), err.getvalue()


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def test_run_rejects_an_alg_outside_1_to_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", example_path("square.top"), example_path("migration.scn"),
              "--alg", "4"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_compare_over_a_range_defaults_to_ten_topologies(capsys):
    code, out, _ = run_cli(["compare", "--n", "5..9"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + 3 * 10 + 3


def test_gen_topology_with_too_few_points_in_its_extent_exits_2(capsys):
    # [0, 5e-324]^2 holds 4 distinct points, so a fifth DCR has nowhere to go.
    code, out, err = run_cli(["gen-topology", "--n", "5", "--extent", "5e-324"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot place DCR 5 of 5")
