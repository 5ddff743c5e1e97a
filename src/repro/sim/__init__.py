"""Simulation layer: platform config, trace engines (serial and
event-driven concurrent), server model, aging."""

from .config import PlatformConfig, TABLE3_PLATFORM
from .engine import QueueingStats, SimulationReport, run_trace
from .events import EventLoop, EventType
from .concurrent import run_trace_concurrent
from .server import ServerModel
from .lifetime import (
    AgingConfig,
    AgingResult,
    LifetimeSimulator,
    simulate_lifetime,
    lifetime_ratio,
)

__all__ = [
    "PlatformConfig",
    "TABLE3_PLATFORM",
    "QueueingStats",
    "SimulationReport",
    "run_trace",
    "EventLoop",
    "EventType",
    "run_trace_concurrent",
    "ServerModel",
    "AgingConfig",
    "AgingResult",
    "LifetimeSimulator",
    "simulate_lifetime",
    "lifetime_ratio",
]
