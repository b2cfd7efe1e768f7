"""Unified classifier engine: one protocol, a backend registry, and a
sharded streaming pipeline.

::

    from repro.engine import build_backend, ClassificationPipeline

    clf = build_backend("accelerator", ruleset, algorithm="hypercuts")
    result = ClassificationPipeline(clf, shards=4).run(trace)
    print(result.throughput_pps, result.mean_occupancy())

See ``docs/engine.md`` for the architecture overview.
"""

from .backends import AcceleratorClassifier, DecisionTreeClassifier
from .faults import FaultPlan, FaultSpec
from .flowcache import (
    HIT_OCCUPANCY_CYCLES,
    CachedClassifier,
    FlowCache,
    FlowCacheStats,
)
from .pipeline import DEFAULT_CHUNK_SIZE, ClassificationPipeline
from .protocol import (
    BatchStats,
    Classifier,
    ClassifierBase,
    batch_stats_of,
    warm_batch_state,
)
from .registry import (
    BackendSpec,
    available_backends,
    backend_spec,
    build_backend,
    register_backend,
    registered_aliases,
)
from .report import ChunkStats, EngineReport
from .supervision import (
    FAULT_POLICIES,
    FaultReport,
    SupervisionPolicy,
    Supervisor,
)
from .updates import (
    RebuildUpdatable,
    RuleUpdate,
    ScheduledUpdate,
    UpdatableClassifier,
    UpdateResult,
    build_updatable_backend,
    insert_op,
    remove_op,
)

__all__ = [
    "RebuildUpdatable",
    "RuleUpdate",
    "ScheduledUpdate",
    "UpdatableClassifier",
    "UpdateResult",
    "build_updatable_backend",
    "insert_op",
    "remove_op",
    "AcceleratorClassifier",
    "DecisionTreeClassifier",
    "HIT_OCCUPANCY_CYCLES",
    "CachedClassifier",
    "FlowCache",
    "FlowCacheStats",
    "DEFAULT_CHUNK_SIZE",
    "ChunkStats",
    "ClassificationPipeline",
    "EngineReport",
    "BatchStats",
    "Classifier",
    "ClassifierBase",
    "batch_stats_of",
    "warm_batch_state",
    "BackendSpec",
    "available_backends",
    "backend_spec",
    "build_backend",
    "register_backend",
    "registered_aliases",
    "FaultPlan",
    "FaultSpec",
    "FAULT_POLICIES",
    "FaultReport",
    "SupervisionPolicy",
    "Supervisor",
]
