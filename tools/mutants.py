"""Mutation check: the tier-1 tests must fail on each of a list of mutants.

Each mutant is one exact text replacement in one file of `src/`. For each,
the repository's working tree is copied to a temporary directory, the
replacement is applied there, and tier-1 runs in the copy under the
derandomized `ci` hypothesis profile, stopping at its first failure. A
mutant that tier-1 survives is a rule that no test pins.

Before anything runs, every replacement's text must occur exactly once in
its file, or the script fails: a refactor that rewrites a mutated line
cannot drop its mutant silently (`tests/test_mutants.py` checks the same
in tier-1). The equivalent mutants, which no input can
tell from the original, are checked that way too, and listed with their
reasons, but not run. Tier-1 first runs once on an unmutated copy and
must pass there, so that a failure that has nothing to do with a mutant
(a test already broken, or one that breaks only in the copy) cannot count
as a kill.

    python tools/mutants.py

Exits 0 when tier-1 passes on the unmutated copy and fails on every mutant,
1 when a mutant survives, and 2 when a replacement's text does not occur
exactly once, tier-1 fails on the unmutated copy, or tier-1 cannot run.
Uses the standard library only; it costs up to one tier-1 run per mutant,
plus one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str   # must occur exactly once in the file
    new: str
    why: str   # what it breaks, or why nothing can tell it apart


# Tier-1 must fail on each of these.
MUTANTS = (
    Mutant("fold-tie", "src/dcrsim/simulator.py",
           "if emit + self._longest[origin - 1] < self.now:",
           "if emit + self._longest[origin - 1] <= self.now:",
           "folds a flood whose last arrival ties with a packet, which must not see it"),
    Mutant("detour-tie", "src/dcrsim/overlay.py",
           "if indirect >= 1.25 * direct:",
           "if indirect > 1.25 * direct:",
           "keeps the nearest tree node when the detour is exactly 25% worse"),
    Mutant("widest-gap-tie", "src/dcrsim/overlay.py",
           "del pairs[gaps.index(max(gaps))]",
           "del pairs[len(gaps) - 1 - gaps[::-1].index(max(gaps))]",
           "leaves the last of two equal widest leaf gaps open, not the first"),
    Mutant("leaf-root", "src/dcrsim/overlay.py",
           "v != o.root and degree[v] == 1",
           "degree[v] == 1",
           "counts a root with one link as a leaf, so connect_leaves chains it to "
           "the tree's leaves"),
    Mutant("wrap-gap", "src/dcrsim/overlay.py",
           "gaps[-1] += 2.0 * math.pi",
           "gaps[-1] += 0.0",
           "measures the ring's closing gap without its full turn, so it is negative "
           "and never left open, even where it is the widest"),
    Mutant("midpoint-overflow", "src/dcrsim/overlay.py",
           "return mid if math.isfinite(mid) else a / 2.0 + b / 2.0",
           "return mid",
           "takes the box's midpoint as (a + b) / 2, which is inf where a + b overflows"),
    Mutant("subnormal-slack", "src/dcrsim/topology.py",
           "* (1 + 1e-9) + 1e-300",
           "* (1 + 1e-9)",
           "drops the nearest winner from the shortlist where squares underflow, as the "
           "rounding of a subnormal square exceeds the relative 1e-9"),
    Mutant("send-phase", "src/dcrsim/simulator.py",
           "queue.append((time + hop, 1, j,",
           "queue.append((time + hop, 0, j,",
           "lets a send that arrives when a change happens go first, by scenario index, "
           "where changes must go before sends at equal times"),
    Mutant("unicast-first-hop", "src/dcrsim/simulator.py",
           "hop = distance(user, position(vm.address.dc)) if vm.mode is _UNICAST "
           "else hops[p]",
           "hop = hops[p]",
           "times a unicast packet's arrival by its user's hop to the nearest DCR, "
           "not to the DC its address names, which it goes straight to"),
    Mutant("settled-fast-path", "src/dcrsim/simulator.py",
           "register = read_table(ingress, k, index) if logs[k] else settled[k]",
           "register = settled[k]",
           "delivers against the settled register even while the VM has floods in "
           "flight, so a packet never sees a flood that has reached its ingress"),
    Mutant("session-mode", "src/dcrsim/simulator.py",
           "pin != at and modes[ev.vm] is _REPLICATED",
           "pin != at",
           "breaks a session whenever another DC answers it, so a migrated session "
           "breaks on the move, which it must survive"),
    Mutant("session-repin", "src/dcrsim/simulator.py",
           "pins[session] = at",
           "pins.setdefault(session, at)",
           "keeps a session pinned where it was first answered, so a send to a "
           "replicated VM at the DC a migrated VM of its session moved to breaks it"),
    Mutant("run-until-tie", "src/dcrsim/simulator.py",
           "key=lambda entry: not entry[0] <= time",
           "key=lambda entry: not entry[0] < time",
           "stops run_until before the entries at exactly its time, which it must replay"),
    Mutant("mean-sum-order", "src/dcrsim/simulator.py",
           "functools.reduce(operator.add, values, 0.0)",
           "sum(values)",
           "sums a printed mean with sum(), which is compensated from Python 3.12 on, "
           "so the summary's means print apart on 3.11 and 3.12"),
    Mutant("overhead-sum-order", "src/dcrsim/overlay.py",
           "reduce(operator.add, self.edges.values(), 0.0)",
           "sum(self.edges.values())",
           "totals an overlay's link costs with sum(), which is compensated from Python "
           "3.12 on, so flooding_overhead prints apart on 3.11 and 3.12"),
    Mutant("gc-on", "src/dcrsim/cli.py",
           "gc.disable()",
           "pass",
           "runs every command's handler with the cyclic GC on, which walks what the "
           "run keeps alive and finds nothing to collect"),
    Mutant("gc-restore", "src/dcrsim/cli.py",
           "gc.enable()",
           "pass",
           "leaves the cyclic GC off after main returns, for a caller in the same "
           "process that had it on"),
    Mutant("nearest-tie", "src/dcrsim/topology.py",
           "(distance(p, t.position(i)), i)",
           "(distance(p, t.position(i)), -i)",
           "breaks distance ties to the highest id, not the lowest, wherever DCRs are "
           "ranked by distance: a packet's host, a user's DCR, a tree's join order"),
    Mutant("tiny-cost", "src/dcrsim/overlay.py",
           "text if text != '0.000000' else repr(cost)",
           "text",
           "writes a link cost under 5e-7 as 0.000000, which parse_overlay rejects"),
    Mutant("extend-skip", "src/dcrsim/overlay.py",
           "for a, b in pairs if _key(a, b) not in o.edges}",
           "for a, b in pairs}",
           "adds again a link the overlay already has, so an extension that adds "
           "nothing returns a new overlay"),
    Mutant("name-quote", "src/dcrsim/simulator.py",
           """or "," in text or '"' in text:""",
           """or "," in text:""",
           "lets a name hold a quote, which opens a quoted CSV field that runs on past "
           "its row's next commas"),
    Mutant("outputs-first", "src/dcrsim/cli.py",
           "_write((csv, args.out), (trace, args.trace))",
           "_write((csv, args.out)); _write((trace, args.trace))",
           "writes the whole report before the trace path is opened, so a trace that "
           "cannot be opened leaves a report behind, and exits 2"),
    Mutant("replace-as-written", "src/dcrsim/cli.py",
           "        for (f, _, _), (text, _) in zip(staged, files):\n"
           "            f.write(text)\n"
           "            f.close()\n"
           "        for _, name, target in staged:\n",
           "        for (f, name, target), (text, _) in zip(staged, files):\n"
           "            f.write(text)\n"
           "            f.close()\n",
           "replaces each output file as soon as its text is written, so a later "
           "output that fails part-way leaves the earlier ones replaced"),
    Mutant("links-copy", "src/dcrsim/overlay.py",
           "links = [dict(ls) for ls in base_links]",
           "links = base_links",
           "adds a warm start's new links to its base's neighbour lists, so a second "
           "extension of the same base relaxes over links it does not have"),
    Mutant("union-count", "src/dcrsim/overlay.py",
           "if unions < n - 1:",
           "if False:",
           "skips the connectivity test, so a disconnected overlay gets a delay matrix "
           "of unset rows instead of an OverlayError"),
)

# Equivalent to the original, so not run.
EQUIVALENT = (
    Mutant("arrival-rule", "src/dcrsim/simulator.py",
           "< (self.now, index)",
           "<= (self.now, index)",
           "a change's scenario index is compared with a send's or with infinity, "
           "so the two pairs are never equal"),
    Mutant("migration-seq", "src/dcrsim/protocol.py",
           "self.migration[0] >= n.seq",
           "self.migration[0] > n.seq",
           "each notification has its own seq, so an equal seq is the same "
           "migration, applied again to the same value"),
)

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
# A mutated copy lacks its mutant's text by design, so the tier-1 test that
# every text occurs once runs on the unmutated copy only.
TEXTS_TEST = "tests/test_mutants.py::test_every_mutant_text_occurs_once"
NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    "*.egg-info", "build", ".bench_tmp")


def misplaced(mutants: tuple[Mutant, ...]) -> list[str]:
    """A line per mutant whose text does not occur exactly once."""
    out = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            out.append(f"{m.name}: {m.old!r} occurs {count} times in {m.path}, not once")
    return out


def run(tmp: Path, m: Mutant | None) -> subprocess.CompletedProcess:
    """Tier-1 on a copy of the tree, with m applied unless m is None."""
    tree = tmp / (m.name if m else "unmutated")
    shutil.copytree(ROOT, tree, ignore=NOT_COPIED)
    if m:
        target = tree / m.path
        target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new),
                          encoding="utf-8")
    env = dict(os.environ, HYPOTHESIS_PROFILE="ci", PYTHONPATH=str(tree / "src"))
    try:
        args = TIER1 + (["--deselect", TEXTS_TEST] if m else [])
        return subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True)
    finally:
        shutil.rmtree(tree)


def main() -> int:
    problems = misplaced(MUTANTS + EQUIVALENT)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    for m in EQUIVALENT:
        print(f"equivalent  {m.name}: {m.why}")
    survived = errors = 0
    with tempfile.TemporaryDirectory(prefix="dcrsim-mutants-") as tmp:
        proc = run(Path(tmp), None)
        if proc.returncode != 0:
            print(f"tier-1 exited {proc.returncode} on the unmutated copy", file=sys.stderr)
            print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
            return 2
        print("passed      unmutated copy")
        for m in MUTANTS:
            proc = run(Path(tmp), m)
            lines = proc.stdout.splitlines()
            if proc.returncode == 0:
                survived += 1
                print(f"SURVIVED    {m.name}: {m.why}")
            elif proc.returncode == 1:
                failed = next((line for line in lines if line.startswith(("FAILED", "ERROR"))),
                              lines[-1] if lines else "")
                print(f"killed      {m.name}: {failed}")
            else:
                errors += 1
                print(f"ERROR       {m.name}: tier-1 exited {proc.returncode}")
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
