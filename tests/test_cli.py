import contextlib
import gc
import io
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import types
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcrsim.cli
from dcrsim import (ParseError, ScenarioError, Simulation, build_overlay,
                    generate_random_topology, load_overlay, load_scenario, load_topology,
                    overlay_metrics, parse_overlay, parse_scenario, parse_topology)
from dcrsim.cli import main

from conftest import example_path, golden_path


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_star_import_binds_exactly_the_public_names():
    # A name left in __all__ after its function is gone fails the star import.
    namespace = {}
    exec("from dcrsim import *", namespace)
    public = {name for name, value in vars(dcrsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(dcrsim.__all__) == sorted(public)
    assert set(namespace) - {"__builtins__"} == public


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


@pytest.mark.parametrize("text", [
    "dcr 1 0 0\ndcr 2 3e-7 0\ndcr 3 0 5\n",
    "dcr 1 0 0\ndcr 2 5e-324 0\ndcr 3 0 5e-324\n",  # one subnormal step
], ids=["3e-7", "5e-324"])
def test_build_overlay_writes_costs_under_5e_7_that_parse_back(text, tmp_path, capsys):
    # Six decimals round such a cost to 0.000000, which parse_overlay rejects.
    top, ovl = tmp_path / "t.top", tmp_path / "o.ovl"
    top.write_text(text)
    assert run_cli(["build-overlay", str(top), "--out", str(ovl)], capsys) == (0, "", "")
    tiny = build_overlay(parse_topology(text), 3).edges[(1, 2)]
    assert 0 < tiny < 5e-7
    assert parse_overlay(ovl.read_text()).edges[(1, 2)] == tiny  # bit for bit
    assert run_cli(["eval-overlay", str(ovl)], capsys)[::2] == (0, "")
    code, _, err = run_cli(["run", str(top), example_path("migration.scn"),
                            "--overlay", str(ovl)], capsys)
    assert (code, err) == (0, "")


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


@pytest.mark.parametrize("cost, fault", [("nan", "non-finite"), ("inf", "non-finite"),
                                         ("-10", "non-positive")])
def test_bad_overlay_cost_fails_at_parse_time_with_its_line(cost, fault, tmp_path, capsys):
    ovl, top, scn = tmp_path / "o.ovl", tmp_path / "t.top", tmp_path / "s.scn"
    ovl.write_text(f"root 1\nedge 1 2 {cost}\nedge 1 3 10\n")
    top.write_text("dcr 1 0 0\ndcr 2 10 0\ndcr 3 0 10\n")
    scn.write_text("0 user u 0 0\n")
    for args in (["eval-overlay", str(ovl)], ["run", str(top), str(scn), "--overlay", str(ovl)]):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err == f"error: line 2: edge 1 2 has {fault} cost {cost!r}\n"


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


def test_compare_means_stay_finite_where_their_sums_overflow(capsys):
    # Every row is finite, but 60 rows of worst delays near 5e306 sum past
    # the largest float.
    code, out, _ = run_cli(["compare", "--extent", "5e306", "--count", "60", "--n", "3"],
                           capsys)
    assert code == 0
    rows = [[float(v) for v in row.split(",")[4:]] for row in out.splitlines()[1:]]
    for alg in (1, 2, 3):
        column = rows[alg - 1:-3:3]
        for c, mean in enumerate(rows[-4 + alg]):
            values = [row[c] for row in column]
            assert math.isfinite(mean) and min(values) <= mean <= max(values)


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


@pytest.mark.parametrize("out", [None, "r.csv"], ids=["stdout", "out"])
def test_run_writes_no_report_when_the_trace_cannot_be_opened(out, tmp_path, capsys):
    trace = tmp_path / "missing" / "r.trace"
    argv = ["run", example_path("square.top"), example_path("migration.scn"),
            "--trace", str(trace)] + ([] if out is None else ["--out", str(tmp_path / out)])
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and str(trace) in err
    assert list(tmp_path.iterdir()) == []  # no report, no temporary file


def test_run_keeps_the_old_report_when_the_trace_cannot_be_opened(tmp_path, capsys):
    keep = tmp_path / "keep.csv"
    keep.write_text("old\n")
    argv = ["run", example_path("square.top"), example_path("migration.scn"),
            "--out", str(keep), "--trace", str(tmp_path / "missing" / "x")]
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing' / 'x'}'\n"
    assert keep.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv"]


def test_a_write_that_fails_part_way_changes_no_output(tmp_path, capsys):
    # The trace's lone surrogate cannot be encoded, after the report is written.
    report, trace = tmp_path / "r.csv", tmp_path / "r.trace"
    report.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        dcrsim.cli._write(("new\n", str(report)), ("\ud800", str(trace)), ("out\n", None))
    assert report.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv"]
    assert capsys.readouterr().out == ""


def test_outputs_get_the_modes_open_gives_them(tmp_path):
    old = tmp_path / "old.csv"
    old.write_text("old\n")
    old.chmod(0o604)
    mask = os.umask(0o027)
    try:
        with open(tmp_path / "by_open", "w"):
            pass
        dcrsim.cli._write(("a\n", str(tmp_path / "new.csv")), ("b\n", str(old)))
    finally:
        os.umask(mask)
    mode = os.stat(tmp_path / "by_open").st_mode
    assert mode & 0o777 == 0o640
    assert os.stat(tmp_path / "new.csv").st_mode == mode
    assert os.stat(old).st_mode & 0o777 == 0o604 and old.read_text() == "b\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["by_open", "new.csv", "old.csv"]


def test_outputs_write_through_links_and_refuse_a_directory(tmp_path, capsys):
    # A link keeps pointing at its file, which gets the text; a path that is
    # not a regular file is opened itself, so a directory fails as open fails.
    (tmp_path / "r.csv").write_text("old\n")
    (tmp_path / "link").symlink_to("r.csv")
    dcrsim.cli._write(("new\n", str(tmp_path / "link")))
    assert (tmp_path / "link").is_symlink() and (tmp_path / "r.csv").read_text() == "new\n"
    argv = ["gen-topology", "--n", "3", "--out", str(tmp_path)]
    assert run_cli(argv, capsys) == (2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "r.csv"]


def test_run_refuses_one_file_for_the_report_and_the_trace(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text("kept\n")
    code, out, err = run_cli(["run", example_path("square.top"), example_path("migration.scn"),
                              "--out", str(path), "--trace", str(tmp_path / "." / "r.txt")],
                             capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --out and --trace name the same file: {tmp_path / '.' / 'r.txt'}\n"
    assert path.read_text() == "kept\n"


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


# A bad value in each field of the test's three lines that can hold one:
# the field, the value, and the compiler's error, which names the line.
VALUE_FAULTS = (
    [("time", "-1", "line 2: event time must be >= 0, got -1.0")]
    + [("time", v, f"line 2: event time must be finite, got {v}") for v in ("nan", "inf", "-inf")]
    + [("x", v, f"line 2: user u1 at ({v}, 1.0): coordinates must be finite")
       for v in ("nan", "inf", "-inf")]
    + [("y", v, f"line 2: user u1 at (1.0, {v}): coordinates must be finite")
       for v in ("nan", "inf", "-inf")]
    + [(field, name, f"line {line}: bad identifier {name!r}")
       for field, line in (("vm", 1), ("user", 2), ("session", 3)) for name in ("a,b", 'a"b')])


@pytest.mark.parametrize("field, value, fault", VALUE_FAULTS,
                         ids=[f"{field}-{value}" for field, value, _ in VALUE_FAULTS])
def test_bad_scenario_values_fail_before_anything_runs(field, value, fault, tmp_path, capsys):
    word = {"vm": "vm1", "time": "0", "user": "u1", "x": "1", "y": "1", "session": "s1",
            field: value}
    text = (f"0 create {word['vm']} 1 anycast-migrate\n"
            f"{word['time']} user {word['user']} {word['x']} {word['y']}\n"
            f"1 send {word['user']} {word['vm']} session {word['session']}\n")
    # The parser reads every value; checking them is the compiler's part.
    assert len(parse_scenario(text)) == 3
    scn, report, trace = tmp_path / "bad.scn", tmp_path / "r.csv", tmp_path / "r.trace"
    scn.write_text(text)
    code, out, err = run_cli(["run", example_path("square.top"), str(scn),
                              "--out", str(report), "--trace", str(trace)], capsys)
    assert (code, out, err) == (2, "", f"error: {fault}\n")
    assert not report.exists() and not trace.exists()


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


# A byte that is not UTF-8 in each kind of input file: the file's name and
# bytes, the command that reads it ("{}" is its path), and the bad byte's
# line and offset. A byte-order mark counts in the offset.
NOT_UTF8 = [
    ("bad.top", b"dcr 1 0 0\ndcr 2 1 \xff\n", ["run", "{}", example_path("migration.scn")],
     2, 18),
    ("bom.top", b"\xef\xbb\xbfdcr 1 0 0\ndcr 2 1 \xff\n",
     ["run", "{}", example_path("migration.scn")], 2, 21),
    ("bad.ovl", b"root 1\nedge 1 2 \xff\n", ["eval-overlay", "{}"], 2, 16),
    ("bad.scn", b"0 user u1 1 1\n0 create \xe9vm 1 unicast\n",
     ["run", example_path("square.top"), "{}"], 2, 23),
    ("cr.scn", b"0 user u1 1 1\r0 create \xe9vm 1 unicast\r",
     ["run", example_path("square.top"), "{}"], 2, 23),
]


@pytest.mark.parametrize("name, data, args, line, byte", NOT_UTF8,
                         ids=["topology", "topology-bom", "overlay", "scenario", "scenario-cr"])
def test_input_files_that_are_not_utf8_exit_2_naming_the_byte(name, data, args, line, byte,
                                                              tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = run_cli([str(path) if a == "{}" else a for a in args], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {path}: line {line}: byte {byte} is not UTF-8\n"


@pytest.mark.parametrize("path, load", [
    (example_path("square.top"), load_topology),
    (golden_path("square.alg3.overlay"), load_overlay),
    (example_path("migration.scn"), load_scenario),
], ids=["topology", "overlay", "scenario"])
def test_input_files_read_alike_after_a_byte_order_mark(path, load, tmp_path):
    # The scenario's first line is a comment, which the mark used to turn
    # into `line 1: bad time '\ufeff#'`.
    with open(path, "rb") as f:
        data = f.read()
    bom = tmp_path / os.path.basename(path)
    bom.write_bytes(b"\xef\xbb\xbf" + data)
    assert load(str(bom)) == load(path)


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


@pytest.mark.parametrize("subcommand", (["gen-topology", "--n", "3"],
                                        ["compare", "--n", "3", "--count", "1"]),
                         ids=("gen-topology", "compare"))
def test_a_negative_infinite_or_nan_extent_reaches_the_extent_check(subcommand, capsys):
    for value, fault in (("-inf", "positive, got -inf"), ("-nan", "finite, got nan")):
        # --ext is argparse's abbreviation of --extent.
        for option in ("--extent", "--ext"):
            code, out, err = run_cli(subcommand + [option, value], capsys)
            assert (code, out, err) == (2, "", f"error: extent must be {fault}\n")
    # Other options keep argparse's own reading.
    with pytest.raises(SystemExit) as exc:
        main(subcommand + ["--seed", "-inf"])
    assert exc.value.code == 2
    assert "argument --seed: expected one argument" in capsys.readouterr().err


# Each command of the no-cycle check: its words, with {top}, {scn}, {ovl} and
# {tmp} to fill in, and its exit code. {tmp}/ghost.scn sends to an unknown VM.
_NO_CYCLE_COMMANDS = {
    "gen-topology": (["gen-topology", "--n", "30", "--out", "{tmp}/t.top"], 0),
    "build-overlay": (["build-overlay", "{top}", "--out", "{tmp}/o.overlay"], 0),
    "eval-overlay": (["eval-overlay", "{ovl}"], 0),
    "run-trace": (["run", "{top}", "{scn}", "--alg", "3", "--trace", "{tmp}/r.trace"], 0),
    "run-overlay": (["run", "{top}", "{scn}", "--overlay", "{ovl}"], 0),
    "compare": (["compare", "--n", "30..40"], 0),
    "unknown-vm": (["run", "{top}", "{tmp}/ghost.scn"], 2),
    "missing-scenario": (["run", "{top}", "{tmp}/absent.scn"], 2),
    "extent-inf": (["gen-topology", "--extent", "-inf"], 2),
    "compare-n-x": (["compare", "--n", "x"], 2),
}


@pytest.mark.parametrize("name", list(_NO_CYCLE_COMMANDS))
def test_a_command_leaves_no_reference_cycles(name, tmp_path, capsys):
    # main runs each handler with the cyclic GC off, so a cycle a command
    # made would live until the process ends.
    words, code = _NO_CYCLE_COMMANDS[name]
    (tmp_path / "ghost.scn").write_text("0 user u1 1 1\n1 send u1 ghost\n", encoding="utf-8")
    paths = dict(top=example_path("square.top"), scn=example_path("migration.scn"),
                 ovl=golden_path("square.alg3.overlay"), tmp=tmp_path)
    argv = [w.format(**paths) for w in words]
    gc.collect()  # earlier tests' garbage does not count
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert main(argv) == code
        capsys.readouterr()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", (True, False), ids=("enabled", "disabled"))
@pytest.mark.parametrize("outcome", ("exit 0", "exit 2", "raises"))
def test_main_runs_its_handler_with_the_gc_off_and_restores_it(enabled, outcome,
                                                               monkeypatch, capsys):
    seen = []

    def generate(*args):
        seen.append(gc.isenabled())
        if outcome == "raises":
            raise RuntimeError("not a package error")
        return generate_random_topology(*args)

    monkeypatch.setattr(dcrsim.cli, "generate_random_topology", generate)
    argv = ["gen-topology", "--n", "3"] + (["--extent", "-1"] if outcome == "exit 2" else [])
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "raises":
            with pytest.raises(RuntimeError, match="not a package error"):
                main(argv)
        else:
            assert main(argv) == int(outcome[-1])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    assert after is enabled
