"""The ``auto`` tier's break-even: does forking this run pay?

A :class:`ForkBreakEven` holds what one
:class:`~repro.engine.pipeline.ClassificationPipeline` measured *on
itself* — no constant to tune, no knob:

* ``inline_ns`` — a packet served in place, in wall-clock ns;
* ``fork_fixed_s`` / ``fork_ns`` — a forked dispatch on workers
  already held (forking them is paid once): the wall seconds beyond
  its busiest worker — arena load, pipes, wake-ups — and that worker's
  own wall ns/packet, times the workers it ran on.

Each side is the median of its latest :data:`WINDOW` samples (runs
that declined a fork; dispatches over held workers) and only once that
window is full — one run is not a measurement: the first forked
dispatch touches every fresh arena page, the first run back inline
meets the cold cache the workers kept warm.  Until then ``inline_ns``
is the forked workers' CPU time per packet, which a forked run may
only ever lower: sharding never makes a packet cheaper, and letting
the (dearer) worker figure overwrite a measured one would make a fork
justify itself.

``n`` packets fork iff ``fork_fixed_s + n * fork_ns / workers <
n * inline_ns``; unmeasured, the answer is "fork", as it always was.
The forked side is sampled only by runs that fork anyway: a pipeline
kept inline stays inline until a run large enough to amortise the
fixed cost comes along.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from statistics import median

#: Runs each side's medians are taken over.
WINDOW = 5


@dataclass
class ForkBreakEven:
    inline_ns: float | None = None
    fork_fixed_s: float | None = None
    fork_ns: float | None = None
    #: ns/packet of the latest declined forks; ``(fixed_s, ns)`` of the
    #: latest held-worker dispatches.
    inlines: deque = field(default_factory=lambda: deque(maxlen=WINDOW))
    recent: deque = field(default_factory=lambda: deque(maxlen=WINDOW))

    def verdict(self, packets: int, workers: int) -> tuple[bool, str]:
        """``(fork?, why)`` for a run of ``packets`` over ``workers``."""
        if self.inline_ns is None or self.fork_ns is None:
            return True, "cost unmeasured"
        inline_s = packets * self.inline_ns * 1e-9
        forked_s = self.fork_fixed_s + packets * self.fork_ns * 1e-9 / workers
        return forked_s < inline_s, (
            f"inline {inline_s * 1e3:.2f} ms ({self.inline_ns:.0f} ns/packet) "
            f"vs forked {forked_s * 1e3:.2f} ms "
            f"({self.fork_fixed_s * 1e3:.2f} ms + {self.fork_ns:.0f} ns/packet "
            f"over {workers} workers)"
        )

    def saw_inline(self, packets: int, elapsed_s: float) -> None:
        """A run of ``packets`` that declined a fork took ``elapsed_s``."""
        self.inlines.append(elapsed_s / packets * 1e9)
        if len(self.inlines) == WINDOW:
            self.inline_ns = median(self.inlines)

    def saw_forked(
        self, packets: int, cpu_s: float, busy_s: list[float],
        wall_s: float, held: bool,
    ) -> None:
        """A forked dispatch of ``packets`` took ``wall_s``; its workers
        reported ``cpu_s`` CPU seconds in all and ``busy_s`` wall
        seconds each; ``held`` says they were alive before it."""
        cpu_ns = cpu_s / packets * 1e9
        if self.inline_ns is None or cpu_ns < self.inline_ns:
            self.inline_ns = cpu_ns
        if not held:
            return
        workers, slowest = len(busy_s), max(busy_s)
        self.recent.append(
            (wall_s - slowest, slowest * workers / packets * 1e9)
        )
        if len(self.recent) == WINDOW:
            self.fork_fixed_s = median(f for f, _ in self.recent)
            self.fork_ns = median(ns for _, ns in self.recent)
