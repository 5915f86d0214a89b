"""Output checks for the benchmark workloads.

Each check raises `CheckFailed` naming the first thing that is wrong, and
otherwise returns the model outputs it verified, so they can be printed
next to the output digest.
"""

from __future__ import annotations

import os

from gen import PROBE_USER, Inputs

RUN_HEADER = ("packet,time,user,vm,session,ingress,target,result,"
              "total_delay,tunneled,stretch,penalty,reply_delay,reply_tunneled")
COMPARE_HEADER = "topology,seed,n,alg,worst_delay,avg_delay,flooding_overhead"


class CheckFailed(Exception):
    """An output broke a check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _summary(line: str) -> dict[str, float]:
    _require(line.startswith("# summary:"), "report does not end in a summary line")
    out = {}
    for item in line[len("# summary:"):].split():
        key, _, value = item.partition("=")
        out[key] = float(value)
    return out


def check_run(csv_text: str, trace_text: str, inputs: Inputs,
              library: tuple[str, str]) -> dict[str, float]:
    """Check one `dcrsim run --trace` output against what the generator
    knows and against the same run made through library calls."""
    lines = csv_text.splitlines()
    _require(bool(lines) and lines[0] == RUN_HEADER, "bad report header")
    summary = _summary(lines[-1])
    rows = [line.split(",") for line in lines[1:-1]]
    _require(all(len(r) == 14 for r in rows), "report row with a wrong column count")
    _require(len(rows) == inputs.sends, f"{len(rows)} report rows for {inputs.sends} sends")
    _require([r[0] for r in rows] == [str(i) for i in range(len(rows))],
             "packet indexes are not 0..rows-1")
    miss = sum(r[7] == "MISS" for r in rows)
    _require(summary["packets"] == len(rows) and summary["miss"] == miss
             and summary["delivered"] == len(rows) - miss,
             "summary counts disagree with the rows")
    _require(summary["notifications"] == inputs.notifications,
             f"{summary['notifications']:g} notifications for "
             f"{inputs.notifications} lifecycle events")
    for r in rows:
        if r[7] != "MISS" and r[9] == "1":
            _require(float(r[10]) >= 1.0, f"packet {r[0]} has stretch {r[10]} < 1")

    settled = inputs.last_lifecycle + summary["overlay_worst"] + 1.0
    _require(inputs.probe_time >= settled, "probes were sent before every flood settled")
    probes = [r for r in rows if r[2] == PROBE_USER]
    _require(len(probes) == len(inputs.hosts), "a probe is missing from the report")
    for r in probes:
        hosts = inputs.hosts[r[3]]
        _require(r[7] != "MISS" and int(r[7]) in hosts,
                 f"probe to {r[3]} ended at {r[7]}, hosts are {sorted(hosts)}")

    trace = trace_text.splitlines()
    notify = sum(line.startswith("NOTIFY ") for line in trace)
    pkt = sum(line.startswith("PKT ") for line in trace)
    _require(notify + pkt == len(trace), "trace has a line that is neither NOTIFY nor PKT")
    _require(notify == inputs.notifications and pkt == len(rows),
             "trace line counts disagree with the report")
    _require((csv_text, trace_text) == library,
             "command-line output differs from the library-call output")
    return {"miss": miss, "session_breaks": int(summary["session_breaks"]),
            "notifications": int(summary["notifications"]),
            "mean_stretch": summary["mean_stretch"]}


def check_compare(csv_text: str, count: int, library: str) -> dict[str, float]:
    """Check one `dcrsim compare` output: per topology, later stages never
    worsen delay nor cheapen flooding, and the mean rows are the means."""
    lines = csv_text.splitlines()
    _require(bool(lines) and lines[0] == COMPARE_HEADER, "bad compare header")
    _require(len(lines) == 1 + 3 * count + 3, f"{len(lines)} compare lines for count {count}")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == 7 for r in rows), "compare row with a wrong column count")
    values = [[float(v) for v in r[4:]] for r in rows]
    for i in range(count):
        block = rows[3 * i:3 * i + 3]
        _require([r[0] for r in block] == [f"t{i}"] * 3
                 and [r[3] for r in block] == ["1", "2", "3"],
                 f"rows of topology t{i} are out of order")
        (w1, a1, o1), (w2, a2, o2), (w3, a3, o3) = values[3 * i:3 * i + 3]
        _require(w1 >= w2 >= w3, f"t{i}: worst delay grows with the stage")
        _require(a1 >= a2 >= a3, f"t{i}: average delay grows with the stage")
        _require(o1 <= o2 <= o3, f"t{i}: flooding overhead shrinks with the stage")
    for alg in (1, 2, 3):
        mean = rows[3 * count + alg - 1]
        _require(mean[0] == "mean" and mean[3] == str(alg), "mean rows are out of order")
        per = [values[3 * i + alg - 1] for i in range(count)]
        for k in range(3):
            # Each printed value is rounded by at most 5e-7.
            want = sum(p[k] for p in per) / count
            _require(abs(values[3 * count + alg - 1][k] - want) <= 1.5e-6,
                     f"mean row of alg {alg} is not the mean of its rows")
    _require(csv_text == library, "command-line output differs from the library-call output")
    w, a, o = values[3 * count + 2]
    return {"alg3_mean_worst": w, "alg3_mean_avg": a, "alg3_mean_overhead": o}


# Known answers: the four-DCR square of the golden tests, replayed through
# the command line, and the `compare` example of the README.
SQUARE_TOPOLOGY = "dcr 1 0.0 10.0\ndcr 2 10.0 10.0\ndcr 3 10.0 0.0\ndcr 4 0.0 0.0\n"
SQUARE_SCENARIO = """\
0 user u1 1 1
0 create vm2 2 anycast-replicate
1 send u1 vm2 session s1
20 replicate vm2 2 3
40 send u1 vm2 session s1
41 send u1 vm2 session s2
"""
SQUARE_REPORT = """\
packet,time,user,vm,session,ingress,target,result,total_delay,tunneled,stretch,penalty,reply_delay,reply_tunneled
0,1.000000,u1,vm2,s1,4,2,2,15.556349,1,1.222222,2.828427,12.727922,0
1,40.000000,u1,vm2,s1,4,3,3,11.414214,1,1.260489,2.358828,9.055385,0
2,41.000000,u1,vm2,s2,4,3,3,11.414214,1,1.260489,2.358828,9.055385,0
# summary: packets=3 delivered=3 miss=0 session_breaks=1 notifications=1 duplicate_notifications=4 tunnel_header_bytes=60 mean_delay=12.794925 max_delay=15.556349 mean_stretch=1.247733 max_stretch=1.260489 mean_penalty=2.515361 max_penalty=2.828427 overlay_worst=20.000000 overlay_avg=12.357023 overlay_overhead=54.142136
"""
SQUARE_TRACE = """\
PKT 1.000000 (1.000000,1.000000)->dcr4:1.414214 dcr4->dcr2:14.142136 delay=15.556349 tunneled=1 result=dcr2
NOTIFY 0 REPLICATION 2:0 2,3
PKT 40.000000 (1.000000,1.000000)->dcr4:1.414214 dcr4->dcr3:10.000000 delay=11.414214 tunneled=1 result=dcr3
PKT 41.000000 (1.000000,1.000000)->dcr4:1.414214 dcr4->dcr3:10.000000 delay=11.414214 tunneled=1 result=dcr3
"""
COMPARE_ARGS = ["compare", "--seed", "7", "--count", "3", "--n", "6..8"]
COMPARE_REPORT = """\
topology,seed,n,alg,worst_delay,avg_delay,flooding_overhead
t0,7,6,1,81.540064,53.991017,137.826289
t0,7,6,2,81.347660,45.791398,260.863084
t0,7,6,3,81.347660,45.311067,311.162893
t1,8,7,1,129.451139,67.115413,173.797730
t1,8,7,2,129.451139,64.035373,338.143994
t1,8,7,3,128.174128,63.852943,438.504145
t2,9,8,1,146.665466,69.910912,197.957030
t2,9,8,2,112.647364,60.187752,310.604394
t2,9,8,3,112.647364,59.813624,380.493513
mean,,,1,119.218890,63.672447,169.860350
mean,,,2,107.815388,56.671508,303.203824
mean,,,3,107.389717,56.325878,376.720184
"""


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


class KnownAnswers:
    """Command lines whose outputs are known, and the check of those outputs."""

    def __init__(self, workdir: str) -> None:
        top, scn = os.path.join(workdir, "square.top"), os.path.join(workdir, "square.scn")
        write_text(top, SQUARE_TOPOLOGY)
        write_text(scn, SQUARE_SCENARIO)
        self._report = os.path.join(workdir, "square.csv")
        self._trace = os.path.join(workdir, "square.trace")
        self._compare = os.path.join(workdir, "known-compare.csv")
        self.commands = [
            ["run", top, scn, "--alg", "3", "--out", self._report, "--trace", self._trace],
            COMPARE_ARGS + ["--out", self._compare],
        ]

    def check(self) -> None:
        _require(read_text(self._report) == SQUARE_REPORT and read_text(self._trace) == SQUARE_TRACE,
                 "square run differs from its known report and trace")
        _require(read_text(self._compare) == COMPARE_REPORT,
                 "compare differs from its known output")
