"""Simulated heterogeneous platform: specs, device cache, cost and memory models."""

from repro.hardware.cache import CACHE_POLICIES, CacheStats, DeviceCache
from repro.hardware.costmodel import (
    FLOAT_BYTES,
    ModelCosting,
    batch_time,
    model_costing,
    t_compute,
    t_replace,
    t_sample,
    t_transfer,
)
from repro.hardware.memory import (
    MemoryBreakdown,
    gamma_cache,
    gamma_model,
    gamma_runtime,
)
from repro.hardware.specs import (
    PLATFORMS,
    DeviceSpec,
    HostSpec,
    LinkSpec,
    Platform,
    get_platform,
)

__all__ = [
    "CACHE_POLICIES",
    "CacheStats",
    "DeviceCache",
    "FLOAT_BYTES",
    "ModelCosting",
    "model_costing",
    "batch_time",
    "t_compute",
    "t_replace",
    "t_sample",
    "t_transfer",
    "MemoryBreakdown",
    "gamma_model",
    "gamma_cache",
    "gamma_runtime",
    "PLATFORMS",
    "HostSpec",
    "DeviceSpec",
    "LinkSpec",
    "Platform",
    "get_platform",
]
