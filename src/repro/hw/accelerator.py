"""The hardware accelerator: Figure 4's datapath + Figure 5's FSM.

Two simulators share the :class:`~repro.hw.layout.MemoryImage`:

* :class:`AcceleratorFSM` — a cycle-accurate functional simulator.  It
  sees *only the encoded memory words* (every routing/compare decision is
  made from decoded bits, exercising the full encode path), models the
  Start/Ready handshake, Reg A (register-resident root), Reg B (incoming
  packet), Reg C (packet under comparison), the single 4800-bit read port
  (one word per cycle) and the 30 parallel rule comparators.  Slow —
  used for validation and the Figure-5 trace printer.
* :class:`Accelerator` — the vectorised model used by the experiment
  harness and the engine.  Per-packet *occupancy* (= memory words
  fetched, the paper's "memory accesses") is computed analytically from
  the batch tree traversal and the leaf placements, reproducing eqs
  (5)/(7):

      occupancy = x + (pos + z)//30 + 1

  with ``x`` the internal nodes after the root, ``pos`` the leaf's start
  slot and ``z`` the matching rule's index in the leaf.  On the native
  kernel the walk computes it (``_flat_walk.c``, handed the placement
  tables): the loop iteration that finishes a packet counts its fetches,
  where the Figure 5 FSM makes them.  The NumPy formula over
  ``batch_lookup`` is the portable walk's path and that count's oracle
  (``tests/test_native.py``).  The native walk also checks each
  header's field widths as it walks, so serving hands it raw headers
  and builds no :class:`~repro.core.packet.PacketTrace`.  Steady-state
  throughput is ``f / mean(occupancy)`` because the root-index
  computation of the next packet overlaps the current leaf search
  (Section 4: the overlap "reduc[es] the worst case number of clock
  cycles by 1", so a worst case of 2 sustains one packet per cycle).

Tests assert the two simulators agree packet-for-packet and that both
match the linear-search oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms import native
from ..core.errors import SimulationError
from ..core.packet import PacketTrace, header_matrix
from ..core.rules import FIVE_TUPLE
from .encoding import (
    RULES_PER_WORD,
    ChildEntry,
    DecodedNode,
    decode_internal_node,
    decode_rule,
    unpack_leaf_word,
)
from .layout import MemoryImage

#: Header field widths of the 5-tuple, used for the 8-MSB extraction.
_WIDTHS = FIVE_TUPLE.widths


def header_msb8(header) -> tuple[int, ...]:
    """The 8 most significant bits of each of the 5 dimensions (Section 3)."""
    return tuple(
        (int(v) >> (w - 8)) if w > 8 else int(v)
        for v, w in zip(header, _WIDTHS)
    )


# ---------------------------------------------------------------------------
# Vectorised model
# ---------------------------------------------------------------------------
@dataclass
class AcceleratorRun:
    """Per-packet results of a trace run.

    ``occupancy`` is the number of cycles the packet holds the memory port
    (= its memory accesses, with a 1-cycle floor); ``latency`` adds the
    root-index cycle that pipelining hides from throughput.
    """

    match: np.ndarray
    occupancy: np.ndarray
    internal_fetches: np.ndarray
    leaf_words: np.ndarray

    @property
    def n_packets(self) -> int:
        return len(self.match)

    @property
    def latency(self) -> np.ndarray:
        return self.occupancy + 1

    def mean_occupancy(self) -> float:
        return float(self.occupancy.mean()) if self.occupancy.size else 0.0

    def worst_latency(self) -> int:
        return int(self.latency.max()) if self.occupancy.size else 0

    def throughput_pps(self, freq_hz: float) -> float:
        """Steady-state packets/second at clock ``freq_hz``."""
        mo = self.mean_occupancy()
        return freq_hz / mo if mo else 0.0

    def memory_accesses(self) -> np.ndarray:
        """Words fetched per packet (Table 8's hardware metric)."""
        return self.internal_fetches + self.leaf_words


class Accelerator:
    """Vectorised trace-level model of the accelerator."""

    def __init__(self, image: MemoryImage) -> None:
        self.image = image
        self.tree = image.tree
        # Compile the flat traversal kernel up front: every run_trace
        # batch-walks the tree, and forked pipeline shards inherit the
        # compiled buffers copy-on-write instead of each recompiling.
        self.tree.flat
        n_nodes = len(self.tree.nodes)
        # Dense per-node placement arrays: the native walk's cycle count
        # reads them, and the portable formula gathers from them.
        self._pos = np.zeros(n_nodes, dtype=np.int64)
        self._nrules = np.zeros(n_nodes, dtype=np.int64)
        for nid, p in image.placements.items():
            if p.is_leaf:
                self._pos[nid] = p.pos
                self._nrules[nid] = p.n_rules
        schema = self.tree.schema
        self._max_value = np.array(
            [schema.max_value(d) for d in range(schema.ndim)], np.uint32
        )
        self._placement = native.place(
            self._pos, self._nrules, RULES_PER_WORD, self._max_value
        )

    def run_trace(self, trace: PacketTrace) -> AcceleratorRun:
        """Every packet's match and memory-port cycles, split into
        internal fetches and leaf words (the record Tables 2-8 read)."""
        return AcceleratorRun(*self._walk(trace.headers, (None,) * 4))

    def match_occupancy(
        self, headers, match=None, occupancy=None, tally=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``run_trace``'s ``match`` and ``occupancy`` of an ``(n, ndim)``
        header array: what serving reads, without the split the native
        walk then never writes.  Each is written into the array given
        for it (fresh ones otherwise), and ``tally`` (two ``int64``
        cells), when given, gets the packets that matched and their
        cycles added.  A header outside its field widths is a
        :class:`~repro.core.errors.PacketFormatError`, as for a trace."""
        return self._walk(headers, (match, occupancy), tally)

    @property
    def miss_walk(self):
        """The native walk this accelerator serves with, for a flow
        cache's one-call miss serve: ``FlatTree.miss_walk`` under the
        leaf placement."""
        return self.tree.flat.miss_walk(self._placement)

    def _walk(self, headers, out, tally=None) -> tuple[np.ndarray, ...]:
        """Fill ``out = (match, occupancy[, internal_fetches,
        leaf_words])`` (``None``: a fresh array) from the native walk,
        which checks the widths and counts the cycles as it finishes
        each packet, or else from :meth:`_run_portable` over a checked
        :class:`PacketTrace`, whose tallies are reductions."""
        headers = header_matrix(headers, self.tree.schema)
        n = headers.shape[0]  # the C loop writes every cell it is handed
        out = tuple(np.empty(n, np.int64) if a is None else a for a in out)
        flat = self.tree.flat
        if flat.walk_cycles(headers, self._placement, out[0], out[1:], tally):
            return out
        run = self._run_portable(PacketTrace(headers, self.tree.schema))
        for dst, src in zip(out, (run.match, run.occupancy,
                                  run.internal_fetches, run.leaf_words)):
            dst[:] = src
        if tally is not None:
            tally += (np.count_nonzero(run.match >= 0), run.occupancy.sum())
        return out

    def _run_portable(self, trace: PacketTrace) -> AcceleratorRun:
        """Eqs (5)/(7) in NumPy over ``batch_lookup``'s statistics: the
        portable walk's path and the native cycle count's oracle."""
        bl = self.tree.batch_lookup(trace)
        x = np.maximum(bl.internal_nodes.astype(np.int64) - 1, 0)
        has_leaf = bl.leaf_id >= 0
        leaf_ids = np.where(has_leaf, bl.leaf_id, 0)
        n_rules = self._nrules[leaf_ids]
        z = np.where(bl.match_pos >= 0, bl.match_pos, np.maximum(n_rules - 1, 0))
        words = np.where(
            has_leaf & (n_rules > 0),
            (self._pos[leaf_ids] + z) // RULES_PER_WORD + 1,
            0,
        )
        occupancy = np.maximum(x + words, 1).astype(np.int64)
        return AcceleratorRun(
            match=bl.match,
            occupancy=occupancy,
            internal_fetches=x,
            leaf_words=words.astype(np.int64),
        )

    def classify(self, header) -> int:
        """Single-packet convenience wrapper."""
        trace = PacketTrace(
            np.asarray([list(header)], dtype=np.uint32), self.tree.schema
        )
        return int(self.run_trace(trace).match[0])


# ---------------------------------------------------------------------------
# Cycle-accurate FSM
# ---------------------------------------------------------------------------
@dataclass
class FsmPacketRecord:
    """Completion record for one packet processed by the FSM."""

    index: int
    latch_cycle: int
    done_cycle: int
    match: int
    accesses: int  # memory words fetched
    occupancy: int  # datapath cycles (fetches + the dead-end decide cycle)


@dataclass
class FsmTraceEvent:
    """One line of the Figure-5 execution trace."""

    cycle: int
    state: str
    detail: str


@dataclass
class _Active:
    """The packet currently owning the datapath."""

    index: int
    header: tuple[int, ...]
    entry: ChildEntry  # next child entry to follow (pos = start slot)
    latch_cycle: int
    accesses: int = 0
    cycles: int = 0


class AcceleratorFSM:
    """Cycle-accurate simulator driven purely by the encoded memory words."""

    def __init__(self, image: MemoryImage, record_trace: bool = False) -> None:
        self.image = image
        self.memory = image.memory
        self.record_trace = record_trace
        self.events: list[FsmTraceEvent] = []
        self._node_cache: dict[int, DecodedNode] = {}
        self._leaf_cache: dict[int, list] = {}
        # Reset: one cycle moves the root word into Reg A (Figure 5).
        self.cycle = 1
        self.reg_a = self._decode_node(0)
        self._emit(1, "LOAD_ROOT", "word 0 -> Reg A")

    # -- functional caches (do not affect cycle accounting) -------------
    def _decode_node(self, addr: int) -> DecodedNode:
        if addr not in self._node_cache:
            self._node_cache[addr] = decode_internal_node(self.memory.read(addr))
        return self._node_cache[addr]

    def _decode_leaf_word(self, addr: int) -> list:
        if addr not in self._leaf_cache:
            self._leaf_cache[addr] = [
                decode_rule(s) for s in unpack_leaf_word(self.memory.read(addr))
            ]
        return self._leaf_cache[addr]

    def _emit(self, cycle: int, state: str, detail: str) -> None:
        if self.record_trace:
            self.events.append(FsmTraceEvent(cycle, state, detail))

    # ------------------------------------------------------------------
    def run(self, trace: PacketTrace) -> list[FsmPacketRecord]:
        """Classify a whole trace with back-to-back input (Start always
        asserted while packets remain), returning per-packet records."""
        headers = [tuple(int(v) for v in row) for row in trace.headers]
        n = len(headers)
        records: list[FsmPacketRecord | None] = [None] * n
        next_pkt = 0
        reg_b: _Active | None = None
        active: _Active | None = None
        ready = True

        def try_latch() -> None:
            """Sample Start: move the next packet into Reg B and compute
            its root child entry with Reg A (combinational)."""
            nonlocal reg_b, next_pkt, ready
            if ready and reg_b is None and next_pkt < n:
                hdr = headers[next_pkt]
                idx_val = self.reg_a.child_index(header_msb8(hdr))
                entry = self.reg_a.entries[idx_val]
                reg_b = _Active(next_pkt, hdr, entry, latch_cycle=self.cycle)
                self._emit(self.cycle, "LATCH", f"pkt {next_pkt} -> Reg B")
                next_pkt += 1
                ready = False

        guard = 0
        while next_pkt < n or reg_b is not None or active is not None:
            guard += 1
            if guard > 1_000_000 + 64 * n:
                raise SimulationError("FSM did not terminate")
            self.cycle += 1
            try_latch()

            if active is None:
                if reg_b is not None:
                    # Dispatch from idle: this cycle is the latch/index
                    # cycle; the first memory fetch happens next cycle.
                    active, reg_b, ready = reg_b, None, True
                    self._emit(self.cycle, "DISPATCH", f"pkt {active.index}")
                else:
                    self._emit(self.cycle, "IDLE", "waiting for Start")
                continue

            # ---- one memory-port cycle for the active packet ----------
            active.cycles += 1
            entry = active.entry

            if entry.is_empty:
                # Dead end straight out of the root entry (computed at
                # latch time): no rules in this sub-region; the decide
                # cycle completes without a fetch.
                self._emit(self.cycle, "NO_MATCH", f"pkt {active.index}")
                records[active.index] = self._finish(active, -1)
                active, reg_b, ready = reg_b, None, True
                continue

            if not entry.is_leaf:
                node = self._decode_node(entry.addr)
                active.accesses += 1
                self._emit(
                    self.cycle, "TRAVERSE",
                    f"pkt {active.index} internal@{entry.addr}",
                )
                nxt = node.entries[node.child_index(header_msb8(active.header))]
                if nxt.is_empty:
                    # The child index is combinational: an empty entry is
                    # detected in the same cycle as the node fetch.
                    self._emit(self.cycle, "NO_MATCH", f"pkt {active.index}")
                    records[active.index] = self._finish(active, -1)
                    active, reg_b, ready = reg_b, None, True
                    continue
                active.entry = nxt
                continue

            # Leaf word fetch + 30 parallel comparators.  Reg B frees up
            # (Reg B -> Reg C) so Ready rises and Start is monitored
            # during the compare (Figure 5).
            active.accesses += 1
            ready = True
            try_latch()
            word_rules = self._decode_leaf_word(entry.addr)
            self._emit(
                self.cycle, "COMPARE",
                f"pkt {active.index} leaf@{entry.addr}+{entry.pos}",
            )
            outcome = self._compare_word(word_rules, entry.pos, active.header)
            if outcome == "continue":
                active.entry = ChildEntry(is_leaf=True, addr=entry.addr + 1, pos=0)
                continue
            match = -1 if outcome == "nomatch" else int(outcome)
            self._emit(self.cycle, "MATCH", f"pkt {active.index} -> {match}")
            records[active.index] = self._finish(active, match)
            active, reg_b, ready = reg_b, None, True

        self._emit(self.cycle, "DRAIN", "all packets classified")
        out = [r for r in records if r is not None]
        if len(out) != n:
            raise SimulationError("FSM lost packets")
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def _compare_word(word_rules, start: int, header):
        """One pass of the 30 parallel comparators over a fetched word.

        Returns a matching rule id, ``"nomatch"`` (end-of-leaf hit) or
        ``"continue"`` (leaf extends into the next word).
        """
        for slot in range(start, RULES_PER_WORD):
            r = word_rules[slot]
            if r.valid and r.matches(header):
                return r.rule_id
            if r.end_of_leaf:
                return "nomatch"
        return "continue"

    def _finish(self, active: _Active, match: int) -> FsmPacketRecord:
        return FsmPacketRecord(
            index=active.index,
            latch_cycle=active.latch_cycle,
            done_cycle=self.cycle,
            match=match,
            accesses=active.accesses,
            occupancy=active.cycles,
        )


def figure5_trace(image: MemoryImage, trace: PacketTrace) -> list[FsmTraceEvent]:
    """Run the FSM with event recording — a textual version of Figure 5's
    flow for documentation and the architecture example."""
    fsm = AcceleratorFSM(image, record_trace=True)
    fsm.run(trace)
    return fsm.events
