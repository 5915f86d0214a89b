"""Command-line front end.

Subcommands cover the whole pipeline: generate a topology, build an overlay
over it, evaluate overlay metrics, compare the three constructions across a
batch of random topologies, and run a scenario. All output is deterministic
for fixed arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import stat
import sys
import tempfile
from typing import IO

from .errors import ConfigError, OverlayError, ParseError, ScenarioError
from .overlay import build_overlay, format_overlay, load_overlay, overlay_metrics, stages
from .simulator import Simulation, _mean, load_scenario
from .topology import format_topology, generate_random_topology, load_topology


# A command's outputs, as (text, path) pairs; a None path is stdout.
Outputs = list[tuple[str, str | None]]


def _stage(path: str) -> tuple[IO[str], str, str | None]:
    """An open file for path's text, its name, and the path it replaces: a
    new temporary file beside path, with the mode open(path, "w") leaves
    path with. A path that exists but is not a writable regular file, such
    as /dev/null, or whose directory takes no new file, is opened itself,
    and replaces nothing; so is a path whose last part is empty, . or ..,
    which realpath would drop."""
    if os.path.basename(path) in ("", ".", ".."):
        return open(path, "w", encoding="utf-8"), path, None
    try:
        st = os.stat(path)
    except FileNotFoundError:
        mask = os.umask(0)
        os.umask(mask)
        mode = 0o666 & ~mask
    else:
        if not stat.S_ISREG(st.st_mode) or not os.access(path, os.W_OK):
            return open(path, "w", encoding="utf-8"), path, None
        mode = stat.S_IMODE(st.st_mode)
    target = os.path.realpath(path)
    try:
        fd, name = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", suffix=".tmp",
                                    dir=os.path.dirname(target))
    except PermissionError:  # a directory that takes no new file, where open may still write
        return open(path, "w", encoding="utf-8"), path, None
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None  # names path, not the temporary file
    os.fchmod(fd, mode)
    return open(fd, "w", encoding="utf-8"), name, target


def _names_stdout(path: str) -> bool:
    """Whether path names the file open as stdout, as /dev/stdout does: staging
    that file would replace it under stdout, which a shell redirect may share."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def _write(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path) to its path, or to stdout where it is None or
    names stdout's own file.

    Every path is staged (see _stage) before any text is written, and the
    temporary files replace their paths only once every text is written to
    them, so an output that fails leaves every path as it was and its
    temporary file removed. Stdout is written last, in output order."""
    outputs = tuple((text, None if path is None or _names_stdout(path) else path)
                    for text, path in outputs)
    files = [(text, path) for text, path in outputs if path is not None]
    staged: list[tuple[IO[str], str, str | None]] = []
    try:
        for _, path in files:
            staged.append(_stage(path))
        for (f, _, _), (text, _) in zip(staged, files):
            f.write(text)
            f.close()
        for _, name, target in staged:
            if target is not None:
                os.replace(name, target)
    except BaseException:
        for f, name, target in staged:
            f.close()
            if target is not None:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(name)
        raise
    for text, path in outputs:
        if path is None:
            sys.stdout.write(text)


def cmd_gen_topology(args: argparse.Namespace) -> Outputs:
    t = generate_random_topology(args.seed, args.n, args.extent)
    return [(format_topology(t), args.out)]


def cmd_build_overlay(args: argparse.Namespace) -> Outputs:
    t = load_topology(args.topology)
    o = build_overlay(t, args.alg)
    return [(format_overlay(o), args.out)]


def cmd_eval_overlay(args: argparse.Namespace) -> Outputs:
    o = load_overlay(args.overlay)
    m = overlay_metrics(o)
    return [(f"worst={m.worst_delay:.2f} avg={m.avg_delay:.2f} "
             f"overhead={m.flooding_overhead:.2f}\n", None)]


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


def cmd_compare(args: argparse.Namespace) -> Outputs:
    lo, hi = _parse_n_spec(args.n)
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    rows = ["topology,seed,n,alg,worst_delay,avg_delay,flooding_overhead"]
    columns: dict[int, list[tuple[float, float, float]]] = {alg: [] for alg in (1, 2, 3)}
    for i in range(args.count):
        seed = args.seed + i
        n = lo + i % (hi - lo + 1)
        t = generate_random_topology(seed, n, args.extent)
        # Each stage's delay matrix starts from the last stage's.
        for alg, o in enumerate(stages(t), start=1):
            m = overlay_metrics(o)
            values = (m.worst_delay, m.avg_delay, m.flooding_overhead)
            rows.append(f"t{i},{seed},{n},{alg}," + ",".join(f"{v:.6f}" for v in values))
            columns[alg].append(values)
    for alg in (1, 2, 3):
        means = [_mean(c) for c in zip(*columns[alg])]
        rows.append(f"mean,,,{alg}," + ",".join(f"{m:.6f}" for m in means))
    return [("\n".join(rows) + "\n", args.out)]


def cmd_run(args: argparse.Namespace) -> Outputs:
    # Two open files on one path would overwrite each other's bytes.
    if args.out is not None and args.trace is not None and (
            os.path.realpath(args.out) == os.path.realpath(args.trace)):
        raise ConfigError(f"--out and --trace name the same file: {args.trace}")
    t = load_topology(args.topology)
    events = load_scenario(args.scenario)
    if args.overlay is not None:
        o = load_overlay(args.overlay)
    else:
        o = build_overlay(t, args.alg)
    csv, trace = Simulation(t, o, events).run().render(trace=args.trace is not None)
    return [(csv, args.out)] + ([] if trace is None else [(trace, args.trace)])


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


_PARSER = build_parser()


def _join_extent(words: list[str]) -> list[str]:
    """words with each `--extent V` before any `--`, or an abbreviation such as
    `--ext V`, joined by `=`: argparse takes a V such as -inf for an option,
    and fails before the extent check can say what is wrong with it."""
    words = list(words)
    end = words.index("--") if "--" in words else len(words)
    for i in range(end - 2, -1, -1):
        if len(words[i]) > 2 and "--extent".startswith(words[i]):
            words[i:i + 2] = [words[i] + "=" + words[i + 1]]
    return words


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(_join_extent(sys.argv[1:] if argv is None else argv))
    # A command makes no reference cycles (tests/test_cli.py), so the cyclic GC finds none.
    enabled = gc.isenabled()
    gc.disable()
    try:
        _write(*args.handler(args))
    except (ConfigError, ParseError, OverlayError, ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
