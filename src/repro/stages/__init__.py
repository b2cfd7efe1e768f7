"""Declarative line-card RX stage graphs over the serving engine.

::

    from repro.stages import StageGraph, default_graph

    graph = default_graph({"backend": "hypercuts", "shards": 2})
    with StageGraph(graph, ruleset) as lc:
        report = lc.run(trace)          # EngineReport with .stages
    for stage in report.stages:
        print(stage.name, stage.packets_in, stage.dropped, stage.energy_j)

See ``docs/linecard.md`` for the spec schema, the stage reference and
the energy/fault semantics.
"""

from .graph import StageGraph, StageReport
from .spec import STAGE_KINDS, StageGraphSpec, StageSpec, default_graph

__all__ = [
    "STAGE_KINDS",
    "StageGraph",
    "StageGraphSpec",
    "StageReport",
    "StageSpec",
    "default_graph",
]
