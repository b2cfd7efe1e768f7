"""Control-plane energy model for rule updates.

Section 4 of the paper puts ruleset maintenance on the control plane:
it mutates its copy of the search structure and re-syncs the
accelerator's memory through the shared write interface.  The choice it
motivates — HiCuts/HyperCuts over RFC *because* they admit incremental
updates — is an energy argument as much as a latency one: the
alternative to an incremental update is rebuilding the structure from
scratch and rewriting the whole memory image.

:class:`UpdateCostModel` prices both paths with the machinery the rest
of the library already uses:

* control-plane compute — :class:`~repro.algorithms.opcount.OpCounter`
  tallies (the incremental updater and the builders both bill into one)
  costed on the SA-1100 operating point via
  :class:`~repro.energy.sa1100.Sa1100Model`, exactly like the paper's
  Table 3 build-energy numbers;
* device re-sync — memory words rewritten through the accelerator's
  write port, at the companion SRAM's per-access energy
  (:data:`~repro.energy.flowcache.SRAM_ACCESS_ENERGY_J`).

``retire_energy_j`` prices what an update costs the *data* plane's flow
cache, so the walks it saves by not flushing are reported net.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algorithms.opcount import OpCounter
from .flowcache import SRAM_ACCESS_ENERGY_J
from .sa1100 import Sa1100Model


def _as_counter(ops) -> OpCounter:
    """Accept an :class:`OpCounter` or a plain counts dict."""
    if isinstance(ops, OpCounter):
        return ops
    counter = OpCounter()
    for category, count in dict(ops).items():
        counter.add(category, count)
    return counter


def ops_delta(after, before) -> OpCounter:
    """The operations billed between two counter snapshots."""
    after, before = _as_counter(after), _as_counter(before)
    delta = OpCounter()
    for category, count in after.counts.items():
        delta.add(category, count - before.counts.get(category, 0))
    return delta


@dataclass
class UpdateCostModel:
    """Energy prices for the two control-plane maintenance strategies."""

    model: Sa1100Model = field(default_factory=Sa1100Model)
    #: Joules per memory word rewritten into the device (re-sync).
    sync_energy_per_word_j: float = SRAM_ACCESS_ENERGY_J

    # -- compute ------------------------------------------------------
    def control_plane_energy_j(self, ops) -> float:
        """Raw Joules of control-plane compute for the counted ops."""
        return self.model.build_energy_j(_as_counter(ops))

    # -- device re-sync ------------------------------------------------
    def resync_energy_j(self, words_written: int) -> float:
        """Joules to rewrite ``words_written`` device memory words."""
        return words_written * self.sync_energy_per_word_j

    # -- data-plane cost of an update -----------------------------------
    def retire_energy_j(self, entries: int) -> float:
        """Joules of one batch's flow-cache retirement scan: each of
        the cache's ``entries`` slots is read once to test its header
        and cached match against the batch
        (:meth:`repro.engine.flowcache.FlowCache.retire`).  Dropping
        the whole cache instead scans nothing but sends every surviving
        flow's next packet down the backend walk; the saving of
        retirement is those avoided walks
        (:class:`~repro.energy.flowcache.CacheEnergyModel`) net of this.
        """
        return entries * SRAM_ACCESS_ENERGY_J

    # -- the comparison the paper's Section 4 implies ------------------
    def update_energy_j(self, update_ops, words_written: int = 0) -> float:
        """One incremental update (compute + partial re-sync)."""
        return (
            self.control_plane_energy_j(update_ops)
            + self.resync_energy_j(words_written)
        )

    def rebuild_energy_j(self, build_ops, image_words: int = 0) -> float:
        """A from-scratch rebuild (full build + full image rewrite)."""
        return (
            self.control_plane_energy_j(build_ops)
            + self.resync_energy_j(image_words)
        )
