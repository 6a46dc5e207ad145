"""Discrete-event simulation kernel used by every model in the library."""

from .core import NO_KEY, SimulationError, Simulator, Timer
from .parallel import ParallelRunResult, run_shards
from .process import (
    Delay, Interrupted, Latch, Process, Signal, all_of, spawn,
)
from .resources import Grant, Resource, Store
from .trains import CellTrain

__all__ = [
    "Simulator", "SimulationError", "Timer", "NO_KEY",
    "run_shards", "ParallelRunResult",
    "Delay", "Signal", "Latch", "Process", "Interrupted", "spawn", "all_of",
    "Resource", "Grant", "Store", "CellTrain",
]
