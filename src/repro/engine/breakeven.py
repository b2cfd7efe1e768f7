"""The ``auto`` tier's break-even: does forking this run pay?

A :class:`ForkBreakEven` holds what one
:class:`~repro.engine.pipeline.ClassificationPipeline` measured *on
itself* — no constant to tune, no knob:

* ``inline_ns`` — a packet served in place: the wall clock of the
  latest inline run.  A forked run sets it when nothing else has, and
  otherwise only lowers it, to its workers' CPU time per packet:
  sharding never makes a packet cheaper, and letting the (dearer)
  worker figure overwrite it would make a fork justify itself.
* ``fork_fixed_s`` / ``fork_ns`` — of the latest forked dispatch on
  workers already held (forking them is paid once): the wall seconds
  beyond its busiest worker — arena load, pipes, wake-ups — and that
  worker's own wall ns/packet, times the workers it ran on.

``n`` packets fork iff ``fork_fixed_s + n * fork_ns / workers <
n * inline_ns``; until both sides are measured the answer is "fork",
as before there was a measurement.  A sample that said "stay inline"
is not believed for ever (one noisy dispatch must not keep a pipeline
inline for life): after ``trust`` inline runs in a row the answer is
"fork" once more; a re-measure that still says inline doubles
``trust``, one that says fork resets it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ForkBreakEven:
    inline_ns: float | None = None
    fork_fixed_s: float | None = None
    fork_ns: float | None = None
    #: Inline runs since the forked side was last measured, and how
    #: many of them the sample is trusted for.
    age: int = 0
    trust: int = 1

    def verdict(self, packets: int, workers: int) -> tuple[bool, str]:
        """``(fork?, why)`` for a run of ``packets`` over ``workers``."""
        if self.inline_ns is None or self.fork_ns is None:
            return True, "cost unmeasured"
        if self.age >= self.trust:
            return True, f"re-measuring a fork cost {self.age} inline runs old"
        inline_s = packets * self.inline_ns * 1e-9
        forked_s = self.fork_fixed_s + packets * self.fork_ns * 1e-9 / workers
        return forked_s < inline_s, (
            f"inline {inline_s * 1e3:.2f} ms ({self.inline_ns:.0f} ns/packet) "
            f"vs forked {forked_s * 1e3:.2f} ms "
            f"({self.fork_fixed_s * 1e3:.2f} ms + {self.fork_ns:.0f} ns/packet "
            f"over {workers} workers)"
        )

    def saw_inline(self, packets: int, elapsed_s: float) -> None:
        """An inline run of ``packets`` took ``elapsed_s``."""
        self.inline_ns = elapsed_s / packets * 1e9
        self.age += 1

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
        stale = self.age >= self.trust
        self.fork_fixed_s = wall_s - slowest
        self.fork_ns = slowest * workers / packets * 1e9
        self.age = 0
        if stale:  # a re-measure: does the fresh sample still say inline?
            declined = not self.verdict(packets, workers)[0]
            self.trust = 2 * self.trust if declined else 1
