"""Simulator for anycast-addressed VM migration and replication across
federated data centers, with overlay-flooded forwarding-table updates."""

from .errors import (ConfigError, ModeConflict, OverlayError, ParseError,
                     ScenarioError)
from .overlay import (Overlay, OverlayMetrics, add_wraparound, all_pairs_delay,
                      build_overlay, build_tree, connect_leaves,
                      flood_duplicate_count, format_overlay,
                      leaf_set, load_overlay, overlay_metrics, parse_overlay)
from .protocol import (Notification, NotificationKind, Route, VmMode, VmRecord,
                       VmRegister, lookup, notification_origin, route_user_packet)
from .simulator import (Delivery, EventKind, ScenarioEvent, SimReport, Simulation,
                        format_scenario, load_scenario, parse_scenario, run_scenario)
from .topology import (AnycastAddress, DcrId, Point, Topology, UnicastAddress,
                       distance, format_topology, generate_random_topology,
                       load_topology, nearest_dcr, parse_topology)

__version__ = "0.1.0"

__all__ = [
    "AnycastAddress", "ConfigError", "DcrId", "Delivery", "EventKind",
    "ModeConflict", "Notification", "NotificationKind",
    "Overlay", "OverlayError", "OverlayMetrics",
    "ParseError", "Point", "Route", "ScenarioError", "ScenarioEvent",
    "SimReport", "Simulation", "Topology", "UnicastAddress", "VmMode",
    "VmRecord", "VmRegister", "add_wraparound", "all_pairs_delay",
    "build_overlay", "build_tree", "connect_leaves", "distance",
    "flood_duplicate_count", "format_overlay", "format_scenario", "format_topology",
    "generate_random_topology", "leaf_set", "load_overlay",
    "load_scenario",
    "load_topology", "lookup", "nearest_dcr",
    "notification_origin", "overlay_metrics", "parse_overlay", "parse_scenario",
    "parse_topology", "route_user_packet", "run_scenario",
]
