"""repro — reproduction of "Energy Efficient Packet Classification
Hardware Accelerator" (Kennedy, Wang & Liu, IPDPS 2008).

Public API quick tour::

    from repro import (
        RuleSet, PacketTrace, generate_ruleset, generate_trace,
        build_hicuts, build_hypercuts,
    )
    from repro.hw import build_memory_image, Accelerator
    from repro.energy import Sa1100Model, asic_model, fpga_model

    rules = generate_ruleset("acl1", 1000, seed=1)
    trace = generate_trace(rules, 100_000, seed=2)
    tree = build_hypercuts(rules, binth=30, spfac=4, hw_mode=True)
    image = build_memory_image(tree, speed=1)
    result = Accelerator(image).run_trace(trace)
    print(result.throughput_pps(226e6))

Paper to package: ``core`` (rules, packets, geometry), ``classbench``
(workloads), ``algorithms`` (Sections 2-3's trees and the baselines),
``hw`` (Section 4's accelerator), ``energy`` (Tables 3-7's power models),
``experiments`` (the tables), and ``engine`` / ``serve`` / ``stages``
(serving them).
"""

from .core import PacketTrace, Rule, RuleSet
from .classbench import generate_ruleset, generate_trace, generate_zipf_trace
from .algorithms import (
    DecisionTree,
    LinearSearchClassifier,
    OpCounter,
    RFCClassifier,
    TupleSpaceClassifier,
    build_hicuts,
    build_hypercuts,
)
from .engine import (
    CachedClassifier,
    ClassificationPipeline,
    available_backends,
    build_backend,
)
from .serve import (
    ChunkResult,
    Engine,
    EngineConfig,
    EngineReport,
    MultiTenantEngine,
    TenantReport,
    TenantSpec,
)

__version__ = "1.2.0"

__all__ = [
    "PacketTrace",
    "Rule",
    "RuleSet",
    "generate_ruleset",
    "generate_trace",
    "generate_zipf_trace",
    "DecisionTree",
    "LinearSearchClassifier",
    "OpCounter",
    "RFCClassifier",
    "TupleSpaceClassifier",
    "build_hicuts",
    "build_hypercuts",
    "CachedClassifier",
    "ClassificationPipeline",
    "available_backends",
    "build_backend",
    "ChunkResult",
    "Engine",
    "MultiTenantEngine",
    "TenantSpec",
    "TenantReport",
    "EngineConfig",
    "EngineReport",
    "__version__",
]
