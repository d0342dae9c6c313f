"""Deterministic discrete-event network emulator."""

from .engine import EventEngine
from .link import Link
from .scenario import Scenario, load_scenario, parse_scenario, run_scenario
from .topology import NetworkSim

__all__ = [
    "EventEngine",
    "Link",
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "run_scenario",
    "NetworkSim",
]
