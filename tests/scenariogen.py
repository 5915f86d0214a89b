"""Random scenario generator with an independent ground-truth track.

The generator builds a lifecycle script while keeping its own record of where
every VM should end up; the acceptance suite replays the script through the
simulator and checks router tables and late probe packets against this
record. The bookkeeping here deliberately duplicates (in much simpler form)
what the engine does, so it can catch the engine drifting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from dcrsim import (EventKind, Overlay, Point, ScenarioEvent, Topology, VmMode,
                    build_overlay, generate_random_topology, overlay_metrics)


@dataclass
class TruthVm:
    name: str
    mode: VmMode
    birth_dc: int
    locations: set[int] = field(default_factory=set)


@dataclass
class GeneratedScenario:
    seed: int
    topology: Topology
    alg: int  # the construction that built overlay
    overlay: Overlay
    events: list[ScenarioEvent]
    vms: dict[str, TruthVm]
    users: dict[str, Point]
    last_lifecycle: float
    worst_delay: float
    probe_time: float


def generate(seed: int) -> GeneratedScenario:
    rng = random.Random(seed)
    n = 4 + seed % 9
    topology = generate_random_topology(10_000 + seed, n)
    alg = 1 + seed % 3
    overlay = build_overlay(topology, alg)
    ids = topology.ids()
    events: list[ScenarioEvent] = []
    users: dict[str, Point] = {}
    vms: dict[str, TruthVm] = {}

    for u in range(1 + rng.randrange(3)):
        uid = f"u{u}"
        pos = Point(rng.uniform(0, 100), rng.uniform(0, 100))
        users[uid] = pos
        events.append(ScenarioEvent(0.0, EventKind.PLACE_USER, user=uid,
                                    x=pos.x, y=pos.y))

    modes = [VmMode.ANYCAST_MIGRATABLE, VmMode.ANYCAST_REPLICATED, VmMode.UNICAST]
    for v in range(1 + rng.randrange(3)):
        name = f"vm{v}"
        mode = modes[rng.randrange(3) if v else rng.randrange(2)]
        dc = rng.choice(ids)
        vms[name] = TruthVm(name=name, mode=mode, birth_dc=dc, locations={dc})
        events.append(ScenarioEvent(0.0, EventKind.CREATE_VM, vm=name, dc=dc,
                                    mode=mode))

    time = 0.0
    for _ in range(5 + rng.randrange(10)):
        time += rng.uniform(1.0, 15.0)
        candidates = [v for v in vms.values()
                      if v.locations and v.mode is not VmMode.UNICAST]
        if not candidates:
            break
        vm = rng.choice(candidates)
        if vm.mode is VmMode.ANYCAST_MIGRATABLE:
            if rng.random() < 0.15:
                dc = next(iter(vm.locations))
                events.append(ScenarioEvent(time, EventKind.DESTROY_VM_AT,
                                            vm=vm.name, dc=dc))
                vm.locations.clear()
            else:
                dc = rng.choice(ids)
                events.append(ScenarioEvent(time, EventKind.MIGRATE_VM,
                                            vm=vm.name, dc=dc))
                vm.locations = {dc}
        else:
            free = sorted(set(ids) - vm.locations)
            may_grow = bool(free)
            grow = may_grow and (len(vm.locations) == 1 or rng.random() < 0.6)
            if grow:
                src = rng.choice(sorted(vm.locations))
                dst = rng.choice(free)
                events.append(ScenarioEvent(time, EventKind.REPLICATE_VM,
                                            vm=vm.name, src_dc=src, dst_dc=dst))
                vm.locations.add(dst)
            else:
                dc = rng.choice(sorted(vm.locations))
                events.append(ScenarioEvent(time, EventKind.DESTROY_VM_AT,
                                            vm=vm.name, dc=dc))
                vm.locations.discard(dc)
        # Each send, probes too, joins its user's session with its VM. The
        # name draws nothing from rng, so the rest of the corpus is as before.
        if users and rng.random() < 0.5:
            send_time = time + rng.uniform(0.1, 0.9)
            uid, name = rng.choice(sorted(users)), rng.choice(sorted(vms))
            events.append(ScenarioEvent(send_time, EventKind.SEND_PACKET, user=uid,
                                        vm=name, session=f"s-{uid}-{name}"))

    lifecycle_kinds = (EventKind.CREATE_VM, EventKind.MIGRATE_VM,
                       EventKind.REPLICATE_VM, EventKind.DESTROY_VM_AT)
    last_lifecycle = max(e.time for e in events if e.kind in lifecycle_kinds)
    worst = overlay_metrics(overlay).worst_delay
    probe_time = max(e.time for e in events) + worst + 1.0
    for uid in sorted(users):
        for name in sorted(vms):
            events.append(ScenarioEvent(probe_time, EventKind.SEND_PACKET,
                                        user=uid, vm=name, session=f"s-{uid}-{name}"))
    return GeneratedScenario(seed=seed, topology=topology, alg=alg, overlay=overlay,
                             events=events, vms=vms, users=users,
                             last_lifecycle=last_lifecycle, worst_delay=worst,
                             probe_time=probe_time)
