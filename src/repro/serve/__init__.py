"""Declarative serving API: :class:`EngineConfig` + :class:`Engine`.

The public entry point to the serving stack::

    from repro.serve import Engine, EngineConfig

    config = EngineConfig(backend="hypercuts", shards=4,
                          cache_entries=4096)
    with Engine.open(config, ruleset) as engine:
        report = engine.classify(trace)          # EngineReport
        for chunk in engine.stream(segments):    # streamed ingestion
            consume(chunk.match)

:class:`~repro.engine.pipeline.ClassificationPipeline` remains available
as the internal executor underneath (``engine.pipeline``); new code
should configure serving through this module.  See ``docs/engine.md``.
"""

from ..engine.faults import FaultPlan, FaultSpec
from ..engine.report import EngineReport, latency_percentiles
from ..engine.supervision import FAULT_POLICIES, FaultReport, SupervisionPolicy
from .config import EngineConfig
from .ingest import (
    DEFAULT_SEGMENT_PACKETS,
    ON_MALFORMED,
    QuarantineLog,
    iter_trace_file,
    iter_trace_segments,
)
from .session import ChunkResult, Engine
from .tenancy import MultiTenantEngine, TenantReport, TenantSpec

__all__ = [
    "EngineConfig",
    "DEFAULT_SEGMENT_PACKETS",
    "ON_MALFORMED",
    "QuarantineLog",
    "iter_trace_file",
    "iter_trace_segments",
    "EngineReport",
    "latency_percentiles",
    "ChunkResult",
    "Engine",
    "MultiTenantEngine",
    "TenantSpec",
    "TenantReport",
    "FaultPlan",
    "FaultSpec",
    "FaultReport",
    "SupervisionPolicy",
    "FAULT_POLICIES",
]
