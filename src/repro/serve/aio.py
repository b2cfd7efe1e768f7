"""`AsyncEngine` — the serving session for event-loop embedders.

The blocking :class:`~repro.serve.Engine` serves on whichever thread
calls it; what an ``asyncio`` application needs is a facade that never
blocks the event loop while driving it.  ``AsyncEngine`` is exactly
that — a thin bridge, not a second serving path::

    from repro.serve import AsyncEngine

    async with AsyncEngine.open(config, ruleset) as engine:
        report = await engine.classify(trace)
        async for chunk in engine.stream(segments):
            await publish(chunk.match)

Every call delegates to the wrapped blocking engine on a worker thread
(``asyncio.to_thread``); :meth:`stream` pulls one chunk per thread hop
— the hop runs the session generator's pull-classify-yield step, so the
source is pulled only when the consumer asks — results are
bit-identical by construction, and breaking out of the ``async for``
closes the blocking generator (there is no session thread to tear
down).
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Iterable

from ..core.packet import PacketTrace
from ..core.ruleset import RuleSet
from ..engine.report import EngineReport
from .config import EngineConfig
from .session import ChunkResult, Engine


class AsyncEngine:
    """Event-loop adapter over a blocking :class:`Engine` session.

    Construct with an existing engine or through :meth:`open`; usable
    as an async context manager.  The wrapped engine stays available as
    :attr:`engine` for synchronous call sites sharing the session.
    """

    def __init__(self, engine: Engine) -> None:
        self._engine = engine

    @classmethod
    def open(
        cls, config: EngineConfig, ruleset: RuleSet, **backend_params
    ) -> "AsyncEngine":
        """Build the configured classifier and wrap the session.

        Construction is synchronous (it happens before any event loop
        work is in flight); serving calls are what must not block.
        """
        return cls(Engine.open(config, ruleset, **backend_params))

    # ------------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        return self._engine

    @property
    def config(self) -> EngineConfig:
        return self._engine.config

    @property
    def classifier(self):
        return self._engine.classifier

    # ------------------------------------------------------------------
    async def classify(
        self, trace: PacketTrace, updates=None, faults=None
    ) -> EngineReport:
        """`Engine.classify`, off the event loop."""
        return await asyncio.to_thread(
            self._engine.classify, trace, updates, faults
        )

    async def classify_stream(
        self, segments, updates=None, **stream_kwargs
    ) -> EngineReport:
        """`Engine.classify_stream`, off the event loop."""
        return await asyncio.to_thread(
            lambda: self._engine.classify_stream(
                segments, updates, **stream_kwargs
            )
        )

    async def stream(
        self,
        segments: Iterable[PacketTrace] | PacketTrace,
        updates=None,
        **stream_kwargs,
    ) -> AsyncIterator[ChunkResult]:
        """``async for chunk in engine.stream(...)``.

        One chunk is pulled, classified and returned per worker-thread
        hop, so the event loop stays responsive.  Closing the async
        iterator early (``break``, ``aclose``) closes the blocking
        generator.
        """
        it = self._engine.stream(segments, updates, **stream_kwargs)
        sentinel = object()
        try:
            while True:
                chunk = await asyncio.to_thread(next, it, sentinel)
                if chunk is sentinel:
                    return
                yield chunk
        finally:
            await asyncio.to_thread(it.close)

    async def close(self) -> None:
        await asyncio.to_thread(self._engine.close)

    async def __aenter__(self) -> "AsyncEngine":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
