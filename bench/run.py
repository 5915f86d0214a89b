#!/usr/bin/env python3
"""Seeded benchmark of dcrsim.

    python3 bench/run.py --workload churn|traffic|compare --seed N \\
        --seconds S --trace 0|1

Run from the root of a dcrsim checkout; the package is imported from its
`src/`. One run is one single-threaded process: it builds the workload's
inputs from the seed, then runs whole jobs back to back for --seconds (a
closed loop with one caller), times the workload's set-up before each job, and
checks every output. Every reported time is calibrated by a fixed reference
loop timed around each job (see Calibration in README.md). Scratch files live
under `.bench_tmp/` in the checkout and are removed at the end.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 untraced and traced jobs alternate and the metrics are the
per-layer ones of the traced jobs. The lines before it give the output digest
with the model outputs it checked, the sample counts and quartiles, and, when
traced, the attribution of the traced job time to layers. See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import heapq
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SECONDS = 0.25  # timed set-ups before each job, at least one
MIN_JOBS = 3
# Nominal duration of reference() at the reference machine speed. Reported
# times are calibrated seconds: measured seconds times REFERENCE_S over the
# reference time measured around the same job.
REFERENCE_S = 0.125
REFERENCE_ITERATIONS = 120_000


def import_dcrsim():
    """Import dcrsim from this checkout's sources, never from elsewhere."""
    pkg = SRC / "dcrsim"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no dcrsim sources under {pkg}; run from a dcrsim checkout")
    sys.path.insert(0, str(SRC))
    import dcrsim
    if Path(dcrsim.__file__).resolve().parent != pkg:
        sys.exit(f"error: imported dcrsim from {dcrsim.__file__}, not from {pkg}")
    import dcrsim.cli
    return dcrsim


class Workload:
    """One closed-loop job: the known-answer command lines, then the
    workload's own command line, all through `dcrsim.cli.main`."""

    argv: list[str]
    items: int  # inputs one job processes, for inputs_per_s

    def __init__(self, dcrsim, workdir: str) -> None:
        self.dcrsim = dcrsim
        self.known = checks.KnownAnswers(workdir)

    def job(self) -> int:
        codes = [self.dcrsim.cli.main(argv) for argv in self.known.commands + [self.argv]]
        return max(codes)


class RunWorkload(Workload):
    """`dcrsim run --trace` over a generated topology and scenario."""

    def __init__(self, dcrsim, spec: gen.RunSpec, seed: int, workdir: str) -> None:
        super().__init__(dcrsim, workdir)
        self.inputs = gen.generate(spec, seed)
        self.top = os.path.join(workdir, "bench.top")
        self.scn = os.path.join(workdir, "bench.scn")
        self.csv = os.path.join(workdir, "report.csv")
        self.trace = os.path.join(workdir, "report.trace")
        checks.write_text(self.top, self.inputs.topology_text)
        checks.write_text(self.scn, self.inputs.scenario_text)
        self.argv = ["run", self.top, self.scn, "--alg", "3",
                     "--out", self.csv, "--trace", self.trace]
        self.items = self.inputs.lines

    def setup(self) -> None:
        """From the files on disk to a constructed Simulation."""
        d = self.dcrsim
        t = d.load_topology(self.top)
        events = d.load_scenario(self.scn)
        d.Simulation(t, d.build_overlay(t, 3), events)

    def output(self) -> str:
        return checks.read_text(self.csv) + checks.read_text(self.trace)

    def check(self) -> dict[str, float]:
        d = self.dcrsim
        t = d.load_topology(self.top)
        report = d.run_scenario(t, d.build_overlay(t, 3), d.load_scenario(self.scn))
        trace = "\n".join(report.trace_lines) + "\n" if report.trace_lines else ""
        return checks.check_run(checks.read_text(self.csv), checks.read_text(self.trace),
                                self.inputs, (report.to_csv(), trace))


class CompareWorkload(Workload):
    """`dcrsim compare` over seeded random topologies."""

    COUNT = 3
    N = 400
    EXTENT = 100.0

    def __init__(self, dcrsim, seed: int, workdir: str) -> None:
        super().__init__(dcrsim, workdir)
        self.seed = seed
        self.csv = os.path.join(workdir, "compare.csv")
        self.items = 3 * self.COUNT

    @property
    def argv(self) -> list[str]:
        return ["compare", "--seed", str(self.seed), "--count", str(self.COUNT),
                "--n", str(self.N), "--extent", repr(self.EXTENT), "--out", self.csv]

    def _topologies(self):
        return [self.dcrsim.generate_random_topology(self.seed + i, self.N, self.EXTENT)
                for i in range(self.COUNT)]

    def setup(self) -> None:
        """Topology generation plus overlay construction, no metrics."""
        for t in self._topologies():
            for alg in (1, 2, 3):
                self.dcrsim.build_overlay(t, alg)

    def output(self) -> str:
        return checks.read_text(self.csv)

    def check(self) -> dict[str, float]:
        d = self.dcrsim
        rows = [checks.COMPARE_HEADER]
        sums = {alg: [0.0, 0.0, 0.0] for alg in (1, 2, 3)}
        for i, t in enumerate(self._topologies()):
            for alg in (1, 2, 3):
                m = d.overlay_metrics(d.build_overlay(t, alg))
                vals = (m.worst_delay, m.avg_delay, m.flooding_overhead)
                rows.append(f"t{i},{self.seed + i},{self.N},{alg},"
                            + ",".join(f"{v:.6f}" for v in vals))
                sums[alg] = [s + v for s, v in zip(sums[alg], vals)]
        for alg in (1, 2, 3):
            rows.append(f"mean,,,{alg}," + ",".join(f"{s / self.COUNT:.6f}" for s in sums[alg]))
        return checks.check_compare(self.output(), self.COUNT, "\n".join(rows) + "\n")


WORKLOADS = {
    "churn": (lambda d, seed, wd: RunWorkload(d, gen.CHURN, seed, wd), "protocol.apply_s"),
    "traffic": (lambda d, seed, wd: RunWorkload(d, gen.TRAFFIC, seed, wd), "topology.nearest_dcr_s"),
    "compare": (lambda d, seed, wd: CompareWorkload(d, seed, wd), "overlay.all_pairs_s"),
}

# Span name -> per-layer metric holding its self time. Together with
# `bench.unattributed_s` these add up to `bench.traced_job_s`.
SELF_METRICS = {
    "topology.generate": "topology.generate_s",
    "topology.parse": "topology.parse_s",
    "topology.nearest_dcr": "topology.nearest_dcr_s",
    "overlay.build_tree": "overlay.build_tree_s",
    "overlay.connect_leaves": "overlay.connect_leaves_s",
    "overlay.add_wraparound": "overlay.add_wraparound_s",
    "overlay.metrics": "overlay.metrics_s",
    "overlay.all_pairs": "overlay.all_pairs_s",
    "overlay.flood_schedule": "overlay.flood_schedule_s",
    "protocol.apply": "protocol.apply_s",
    "protocol.route": "protocol.route_s",
    "protocol.lookup": "protocol.lookup_s",
    "protocol.format_trace": "protocol.format_trace_s",
    "simulator.parse_scenario": "simulator.parse_scenario_s",
    "simulator.init": "simulator.init_s",
    "simulator.step": "simulator.step_self_s",
    "simulator.lifecycle": "simulator.lifecycle_s",
    "simulator.session": "simulator.session_s",
    "simulator.report": "simulator.report_s",
    "simulator.csv": "simulator.csv_s",
    "cli.main": "cli.self_s",
}
CALL_METRICS = {
    "topology.nearest_dcr": "topology.nearest_dcr_calls",
    "overlay.metrics": "overlay.metrics_calls",
    "overlay.flood_schedule": "overlay.flood_schedule_calls",
    "protocol.apply": "protocol.apply_calls",
    "protocol.route": "protocol.route_calls",
    "protocol.format_trace": "protocol.format_trace_calls",
    "simulator.step": "simulator.heap_events",
}


def reference() -> float:
    """Fixed pure-Python work that does not touch dcrsim: heap, dict and float
    operations like the simulator's. Timed around every job, it follows the
    speed of the machine, which drifts with the load of other tenants."""
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        x = (i * 7919) % 10007 / 10007.0
        heapq.heappush(heap, (x, i))
        table[i % 1021] = math.hypot(x, i & 255)
        if len(heap) > 128:
            acc += heapq.heappop(heap)[0]
    return acc + len(table)


def _timed(fn) -> float:
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _quartiles(values: list[float]) -> dict[str, float]:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q[0], "median": q[1], "q3": q[2], "max": max(values)}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(items: int, jobs: list[float], setups: list[float]) -> dict:
    job = statistics.median(jobs)
    return {
        "job_s": _metric(job, "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "inputs_per_s": _metric(items / job, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(total: spans.Summary, jobs: int, traced: list[float],
                  untraced: list[float], absent: list[str]) -> tuple[dict, dict]:
    """Per-job per-layer metrics of the traced jobs, and the attribution of
    the mean traced job time to span self times."""
    per_job = {}
    for span, name in SELF_METRICS.items():
        per_job[name] = _metric(total.self_s.get(span, 0.0) / jobs, "s")
    for span, name in CALL_METRICS.items():
        per_job[name] = _metric(total.calls.get(span, 0) / jobs, "count")
    applies = total.calls.get("protocol.apply", 0)
    per_job["protocol.reads_per_write"] = _metric(
        total.calls.get("protocol.lookup", 0) / applies if applies else 0.0, "ratio")
    per_job["protocol.route_p50_us"] = _metric(spans.percentile(total.route_us, 50), "us")
    per_job["protocol.route_p99_us"] = _metric(spans.percentile(total.route_us, 99), "us")
    loop = total.incl_s.get("simulator.run", 0.0) - total.incl_s.get("simulator.report", 0.0)
    per_job["simulator.loop_s"] = _metric(loop / jobs, "s")
    for kind in ("lifecycle", "apply", "deliver", "other"):
        per_job[f"simulator.step_{kind}_calls"] = _metric(
            total.step_calls.get(kind, 0) / jobs, "count")
        per_job[f"simulator.step_{kind}_s"] = _metric(total.step_s.get(kind, 0.0) / jobs, "s")
    traced_job = statistics.fmean(traced)
    untraced_job = statistics.fmean(untraced)
    attributed = {name: per_job[name]["value"] for name in SELF_METRICS.values()}
    unattributed = traced_job - sum(attributed.values())
    per_job["bench.traced_job_s"] = _metric(traced_job, "s")
    per_job["bench.untraced_job_s"] = _metric(untraced_job, "s")
    per_job["bench.trace_overhead_s"] = _metric(traced_job - untraced_job, "s")
    per_job["bench.unattributed_s"] = _metric(unattributed, "s")
    per_job["bench.absent_wraps"] = _metric(len(absent), "count")
    attributed["bench.unattributed_s"] = unattributed
    return per_job, attributed


def measure(dcrsim, workload: str, seed: int, seconds: float, trace: bool,
            workdir: str) -> dict:
    make, predicted_hot = WORKLOADS[workload]
    w = make(dcrsim, seed, workdir)
    tracer = spans.Tracer()
    total = spans.Summary()
    raw: dict[str, list[float]] = {"reference_s": [], "setup_s": [], "job_s": [],
                                   "traced_job_s": []}
    cal: dict[str, list[float]] = {"setup_s": [], "job_s": [], "traced_job_s": []}
    attempted = failed = 0
    digest = None
    checked: dict[str, float] = {}
    before = _timed(reference)
    raw["reference_s"].append(before)
    deadline = time.perf_counter() + seconds
    while True:
        # Set-ups are spread over the whole run like the jobs, and both are
        # calibrated by the reference times measured around them.
        setups = [_timed(w.setup)]
        setup_end = time.perf_counter() + SETUP_SECONDS
        while time.perf_counter() < setup_end:
            setups.append(_timed(w.setup))
        tracing = trace and len(cal["job_s"]) > len(cal["traced_job_s"])
        attempted += 1
        if tracing:
            tracer.install()
        gc.collect()
        t0 = time.perf_counter()
        try:
            code = w.job()
        except Exception:  # a job that raises is counted as failed below
            code = None
            traceback.print_exc()
        finally:
            wall = time.perf_counter() - t0
            if tracing:
                tracer.uninstall()
        after = _timed(reference)
        scale = REFERENCE_S / statistics.fmean((before, after))
        before = after
        kind = "traced_job_s" if tracing else "job_s"
        raw["reference_s"].append(after)
        raw["setup_s"] += setups
        raw[kind].append(wall)
        cal["setup_s"] += [t * scale for t in setups]
        cal[kind].append(wall * scale)
        if tracing:
            total.add(tracer.summarize().scaled(scale))
        try:
            if code != 0:
                raise checks.CheckFailed(f"job ended with {code!r} instead of exit code 0")
            w.known.check()
            sha = hashlib.sha256(w.output().encode("utf-8")).hexdigest()
            if digest is None:
                checked = w.check()
                digest = sha
            elif sha != digest:
                raise checks.CheckFailed("output differs from the first job's")
        except Exception:  # any failure of one job is counted, and the loop goes on
            failed += 1
            traceback.print_exc()
        # Traced runs stop after a traced job, so both kinds are sampled.
        enough = (len(cal["traced_job_s"]) == len(cal["job_s"]) if trace
                  else len(cal["job_s"]) >= MIN_JOBS)
        if enough and time.perf_counter() >= deadline:
            break

    print(json.dumps({"workload": workload, "seed": seed, "digest": digest,
                      "checked": checked}))
    print(json.dumps({"samples": {
        "measured": {k: _quartiles(v) for k, v in raw.items() if v},
        "calibrated": {k: _quartiles(v) for k, v in cal.items() if v}}}))

    if trace:
        metrics, attributed = layer_metrics(total, len(cal["traced_job_s"]),
                                            cal["traced_job_s"], cal["job_s"],
                                            tracer.absent)
        hot = max((k for k in attributed if k != "bench.unattributed_s"),
                  key=attributed.get)
        print(json.dumps({"attribution_s": attributed, "absent": tracer.absent}))
        print(json.dumps({"hot_layer": {"predicted": predicted_hot, "measured": hot,
                                        "confirmed": hot == predicted_hot}}))
    else:
        metrics = end_to_end_metrics(w.items, cal["job_s"], cal["setup_s"])
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    dcrsim = import_dcrsim()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            result = measure(dcrsim, args.workload, args.seed, args.seconds,
                             bool(args.trace), workdir)
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
