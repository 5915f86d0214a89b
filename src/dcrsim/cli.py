"""Command-line front end.

Subcommands cover the whole pipeline: generate a topology, build an overlay
over it, evaluate overlay metrics, compare the three constructions across a
batch of random topologies, and run a scenario. All output is deterministic
for fixed arguments.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, OverlayError, ParseError, ScenarioError
from .overlay import build_overlay, format_overlay, load_overlay, overlay_metrics, stages
from .simulator import Simulation, load_scenario
from .topology import format_topology, generate_random_topology, load_topology


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def cmd_gen_topology(args: argparse.Namespace) -> int:
    t = generate_random_topology(args.seed, args.n, args.extent)
    _write(format_topology(t), args.out)
    return 0


def cmd_build_overlay(args: argparse.Namespace) -> int:
    t = load_topology(args.topology)
    o = build_overlay(t, args.alg)
    _write(format_overlay(o), args.out)
    return 0


def cmd_eval_overlay(args: argparse.Namespace) -> int:
    o = load_overlay(args.overlay)
    m = overlay_metrics(o)
    print(f"worst={m.worst_delay:.2f} avg={m.avg_delay:.2f} "
          f"overhead={m.flooding_overhead:.2f}")
    return 0


def _parse_n_spec(spec: str) -> tuple[int, int]:
    try:
        if ".." in spec:
            lo_s, hi_s = spec.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(spec)
    except ValueError:
        raise ConfigError(f"--n must be an integer or LO..HI, got {spec!r}") from None
    if lo < 2 or hi < lo:
        raise ConfigError(f"bad --n range {spec!r}")
    return lo, hi


def cmd_compare(args: argparse.Namespace) -> int:
    lo, hi = _parse_n_spec(args.n)
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    rows = ["topology,seed,n,alg,worst_delay,avg_delay,flooding_overhead"]
    sums = {alg: [0.0, 0.0, 0.0] for alg in (1, 2, 3)}
    for i in range(args.count):
        seed = args.seed + i
        n = lo + i % (hi - lo + 1)
        t = generate_random_topology(seed, n, args.extent)
        # Each stage's delay matrix starts from the last stage's.
        for alg, o in enumerate(stages(t), start=1):
            m = overlay_metrics(o)
            values = (m.worst_delay, m.avg_delay, m.flooding_overhead)
            rows.append(f"t{i},{seed},{n},{alg}," + ",".join(f"{v:.6f}" for v in values))
            sums[alg] = [s + v for s, v in zip(sums[alg], values)]
    for alg in (1, 2, 3):
        rows.append(f"mean,,,{alg}," + ",".join(f"{s / args.count:.6f}" for s in sums[alg]))
    _write("\n".join(rows) + "\n", args.out)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    t = load_topology(args.topology)
    events = load_scenario(args.scenario)
    if args.overlay is not None:
        o = load_overlay(args.overlay)
    else:
        o = build_overlay(t, args.alg)
    csv, trace = Simulation(t, o, events).run().render(trace=args.trace is not None)
    _write(csv, args.out)
    if trace is not None:
        _write(trace, args.trace)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcrsim",
        description="Anycast VM mobility simulator over federated data centers.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-topology", help="generate a random topology file")
    p.set_defaults(handler=cmd_gen_topology)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=11)
    p.add_argument("--extent", type=float, default=100.0)
    p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("build-overlay", help="build an overlay over a topology")
    p.set_defaults(handler=cmd_build_overlay)
    p.add_argument("topology", help="topology file")
    p.add_argument("--alg", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("eval-overlay", help="print worst/avg delay and overhead")
    p.set_defaults(handler=cmd_eval_overlay)
    p.add_argument("overlay", help="overlay file")

    p = sub.add_parser("compare",
                       help="metrics of all three constructions over random topologies")
    p.set_defaults(handler=cmd_compare)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--n", default="16", help="DCR count, fixed (K) or cycling (LO..HI)")
    p.add_argument("--extent", type=float, default=100.0)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")

    p = sub.add_parser("run", help="run a scenario and write the packet report")
    p.set_defaults(handler=cmd_run)
    p.add_argument("topology", help="topology file")
    p.add_argument("scenario", help="scenario file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--overlay", default=None, help="overlay file to use")
    group.add_argument("--alg", type=int, choices=(1, 2, 3), default=3,
                       help="construction to build when no overlay file is given")
    p.add_argument("--out", default=None, help="report CSV (default stdout)")
    p.add_argument("--trace", default=None, help="also write the NOTIFY/PKT log here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ParseError, OverlayError, ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
