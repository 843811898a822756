"""Cycle simulation: cache models, measurement noise, and the cost executor."""

from repro.simulate.cache import (
    ELEMENT_BYTES,
    effective_load_latency,
    icache_entry_penalty,
)
from repro.simulate.executor import (
    ENTRY_OVERHEAD,
    SWP_SETUP,
    CostModel,
    LoopAnalysis,
    LoopCost,
    reset_shared_cost_models,
    shared_cost_model,
)
from repro.simulate.noise import DEFAULT_NOISE, NOISELESS, NoiseModel

__all__ = [
    "CostModel",
    "DEFAULT_NOISE",
    "ELEMENT_BYTES",
    "ENTRY_OVERHEAD",
    "LoopAnalysis",
    "LoopCost",
    "NOISELESS",
    "NoiseModel",
    "SWP_SETUP",
    "effective_load_latency",
    "icache_entry_penalty",
    "reset_shared_cost_models",
    "shared_cost_model",
]
