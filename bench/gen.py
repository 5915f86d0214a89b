"""Seeded inputs for the `churn` and `traffic` workloads.

Everything is drawn from `random.Random(seed)`, so one seed always gives the
same topology and scenario bytes. The generator keeps its own record of where
every VM lives, so each scenario is legal by construction: only migratable
VMs migrate, replicas go only to data centers that do not host one yet, and
only a live replica of a VM with at least two is destroyed. Every VM stays
alive to the end.

Times and coordinates are written with `repr`, which round-trips exactly.
`dcrsim.format_scenario` is not used: it writes `%g`, six significant digits,
so a time of 1234.567 comes back as 1234.57.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

EXTENT = 100.0
PROBE_USER = "probe"


@dataclass(frozen=True)
class RunSpec:
    """Size of one generated `dcrsim run` input."""

    n: int                   # DCRs
    vms: int                 # anycast VMs, all created at time 0
    replicated_frac: float   # share of VMs that are anycast-replicate
    lifecycles: int          # migrate / replicate / destroy events
    lifecycle_gap: float     # mean time between lifecycle events
    packets: int             # sends before the trailing probes
    users: int
    session_frac: float      # share of sends that belong to a session
    flood_window: float | None  # send right after a lifecycle event, within this delay


# Flood writes dominate: every lifecycle event floods N table writes, and each
# send chases the VM that just changed while floods are still in flight (the
# overlay's worst delay is about 150 here, so a share of the sends race them).
CHURN = RunSpec(n=128, vms=300, replicated_frac=0.3, lifecycles=1500,
                lifecycle_gap=1.0, packets=1500, users=50, session_frac=0.5,
                flood_window=300.0)

# The per-packet path dominates: few floods, many sends spread over time.
TRAFFIC = RunSpec(n=256, vms=100, replicated_frac=0.3, lifecycles=60,
                  lifecycle_gap=25.0, packets=10000, users=400,
                  session_frac=0.5, flood_window=None)


@dataclass(frozen=True)
class Inputs:
    """Generated files plus what the generator knows about their outcome."""

    topology_text: str
    scenario_text: str
    lines: int                  # event lines in the scenario
    sends: int                  # send lines, probes included
    notifications: int          # lifecycle lines that flood a notification
    last_lifecycle: float
    probe_time: float
    hosts: dict[str, frozenset[int]]   # VM -> DCs hosting it after the last event


def _topology(rng: random.Random, n: int) -> str:
    """`dcr` lines for n distinct uniform positions on the square."""
    taken: set[tuple[float, float]] = set()
    out = []
    for i in range(1, n + 1):
        xy = (rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT))
        while xy in taken:
            xy = (rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT))
        taken.add(xy)
        out.append(f"dcr {i} {xy[0]!r} {xy[1]!r}\n")
    return "".join(out)


def generate(spec: RunSpec, seed: int) -> Inputs:
    rng = random.Random(seed)
    topology_text = _topology(rng, spec.n)
    ids = list(range(1, spec.n + 1))
    lines: list[tuple[float, str]] = []

    users = [f"u{k}" for k in range(spec.users)]
    for u in users + [PROBE_USER]:
        x, y = rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT)
        lines.append((0.0, f"user {u} {x!r} {y!r}"))

    hosts: dict[str, set[int]] = {}
    replicated: set[str] = set()
    n_replicated = round(spec.vms * spec.replicated_frac)
    for k in range(spec.vms):
        vm = f"vm{k}"
        dc = rng.choice(ids)
        mode = "anycast-replicate" if k < n_replicated else "anycast-migrate"
        if k < n_replicated:
            replicated.add(vm)
        hosts[vm] = {dc}
        lines.append((0.0, f"create {vm} {dc} {mode}"))
    vms = sorted(hosts)

    def send(time: float, vm: str) -> None:
        user = rng.choice(users)
        tail = ""
        if rng.random() < spec.session_frac:
            tail = f" session s{user}x{vm}"
        lines.append((time, f"send {user} {vm}{tail}"))

    time = 0.0
    changed: list[tuple[float, str]] = []
    for _ in range(spec.lifecycles):
        time += rng.uniform(0.5, 1.5) * spec.lifecycle_gap
        vm = rng.choice(vms)
        locs = hosts[vm]
        if vm not in replicated:
            dc = rng.choice([d for d in ids if d not in locs])
            lines.append((time, f"migrate {vm} {dc}"))
            hosts[vm] = {dc}
        elif len(locs) >= 2 and rng.random() < 0.5:
            dc = rng.choice(sorted(locs))
            lines.append((time, f"destroy {vm} {dc}"))
            locs.discard(dc)
        else:
            src = rng.choice(sorted(locs))
            dst = rng.choice([d for d in ids if d not in locs])
            lines.append((time, f"replicate {vm} {src} {dst}"))
            locs.add(dst)
        changed.append((time, vm))
    last_lifecycle = time

    if spec.flood_window is not None:
        for k in range(spec.packets):
            at, vm = changed[k % len(changed)]
            send(at + rng.uniform(0.0, spec.flood_window), vm)
    else:
        for _ in range(spec.packets):
            send(rng.uniform(0.0, last_lifecycle), rng.choice(vms))

    # No overlay path is longer than N-1 links of at most the square's
    # diagonal, so every flood has settled by the probe time.
    probe_time = last_lifecycle + (spec.n - 1) * EXTENT * math.sqrt(2.0) + 1.0
    for vm in vms:
        lines.append((probe_time, f"send {PROBE_USER} {vm}"))

    lines.sort(key=lambda tl: tl[0])
    scenario_text = "".join(f"{t!r} {body}\n" for t, body in lines)
    return Inputs(topology_text=topology_text, scenario_text=scenario_text,
                  lines=len(lines),
                  sends=spec.packets + len(vms),
                  notifications=spec.lifecycles,
                  last_lifecycle=last_lifecycle, probe_time=probe_time,
                  hosts={vm: frozenset(locs) for vm, locs in hosts.items()})
