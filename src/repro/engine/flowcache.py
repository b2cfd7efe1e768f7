"""Exact-match flow-cache front-end for any engine backend.

The paper's introduction assumes the classic serving deployment: a flow
cache absorbs the hot traffic and the general classifier only sees cache
misses — that split is where the energy argument lives.

* :class:`FlowCache` — a fixed-size, set-associative exact-match table.
  Full headers are FNV-hashed into one of ``entries // ways`` sets of
  ``ways`` (header, result) entries, LRU-ish replacement driven by a
  monotonic use stamp.  Headers are compared as *packed flow keys*
  (:func:`pack_flow_keys`: the ``uint32`` columns packed pairwise into
  ``ceil(ndim / 2)`` ``uint64`` words, column 0 most significant, so
  word order is row order for any schema).  A batch is
  :meth:`FlowCache.lookup` (probe, and group the misses), the backend
  and :meth:`FlowCache.commit` (scatter the backend's answers, fill);
  for a backend whose miss classification is one native ``FlatTree``
  walk it is one call, :meth:`FlowCache.serve`: the batch split over
  set-owning threads, each probing, walking and filling its own sets
  (the same tables and counters at any thread count).  Where
  :mod:`~repro.algorithms.native` loaded, ``probe``, ``lookup`` and
  ``serve`` are one C entry (``lookup`` and ``probe`` without the walk)
  and ``commit`` another; NumPy serves otherwise (the oracle):
  bit-identical tables, counters and results, no per-packet Python
  either way.  The C side is bound once: the cache's pointer table is
  built when its tables are (re)allocated and kept, so a call hands
  over its batch and the clock.
* :class:`CachedClassifier` — wraps any
  :class:`~repro.engine.protocol.Classifier` behind the same protocol,
  so it composes with the registry, the pipeline and the CLI like a bare
  backend, bit-identical to it by construction: the cache only stores
  results the backend produced, keyed by the *full* header.

Batch semantics: a batch is probed once against the cache's state at
batch start; the misses are grouped in the order of each distinct
header's last occurrence (which fixes the fill order, the victims and
every counter: the flows seen last are the ones a crowded set keeps),
classified once per distinct header (one ``batch_stats_of`` call) and
filled back.
Duplicate misses in a batch coalesce into one backend lookup and count
as hits.  A zero-entry cache bypasses entirely (every packet a backend
miss, no coalescing).

Sharding: each forked pipeline worker serves a copy-on-write snapshot,
so a sharded run keeps one private, warm cache per shard; per-chunk
counts travel back through :class:`~repro.engine.protocol.BatchStats`.

Rule updates retire, they do not flush:
:meth:`CachedClassifier.apply_updates` delegates, then
:meth:`FlowCache.retire` kills exactly the entries the batch could have
changed (one C pass over the slots, ``fc_retire``, where the native
library loaded), so every other flow keeps hitting and no result is ever
stale.
Only an event that says nothing about *what* changed
(:meth:`CachedClassifier.invalidate_cache`) drops the whole cache, in
O(1), through the epoch tag.  A mutation made outside ``run()`` moves
``update_epoch``, which makes the pipeline re-fork its held workers from
the updated state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..algorithms import native
from ..core.errors import BuildError, ConfigError
from ..core.updates import OP_INSERT, OP_REMOVE
from .protocol import (
    BatchOut,
    BatchStats,
    Classifier,
    ClassifierBase,
    batch_out,
    batch_stats_of,
    models_occupancy,
    tallied,
)
from .updates import require_updatable

#: Memory-port cycles charged to a cache-hit lookup when the wrapped
#: backend models per-packet occupancy: one set-wide probe, the same
#: single-cycle cost the accelerator pays for one memory word.
HIT_OCCUPANCY_CYCLES = 1

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

# Explicitly little-endian, so viewing two 32-bit halves as one 64-bit
# word means the same number on any host.
_KEY_HALF = np.dtype("<u4")
_KEY_WORD = np.dtype("<u8")


def pack_flow_keys(headers: np.ndarray) -> np.ndarray:
    """Pack ``(n, ndim)`` ``uint32`` headers into ``(ceil(ndim / 2), n)``
    ``uint64`` key words.

    Columns pair up high-half first (column 0 is the top of word 0; an
    odd last column is the top of the last word over a zero low half),
    so comparing the words in order compares the rows in order.
    """
    n, ndim = headers.shape
    halves = np.zeros(((ndim + 1) // 2, n, 2), _KEY_HALF)
    for d in range(ndim):
        halves[d // 2, :, 1 - d % 2] = headers[:, d]
    return halves.view(_KEY_WORD)[..., 0]


#: Below this many keys the lexsort alone beats grouping by hash;
#: both roads return the same arrays, so not a tunable.
_HASH_GROUP_MIN = 512


def flow_hash(headers: np.ndarray) -> np.ndarray:
    """The one flow hash, per ``(n, ndim)`` header row: FNV-1a over the
    ``uint32`` columns, the high bits folded into the low ones.  The
    cache's set index is it modulo the set count; the line card's
    prefilter memo and hash queue use it too (``_flow_cache.c``'s
    ``fnv`` is the C side)."""
    h = np.full(headers.shape[0], _FNV_OFFSET, np.uint64)
    for d in range(headers.shape[1]):
        h = (h ^ headers[:, d].astype(np.uint64)) * _FNV_PRIME
    return h ^ h >> np.uint64(33)


def _by_last_sighting(
    position: np.ndarray, boundary: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dedupe_flow_keys`' ``(first, inverse)`` from keys sorted
    into groups, each group in arrival order: ``position`` holds the
    sorted keys' batch positions, ``boundary`` marks each group's first
    element.  Groups rank by their last position, and a group's first
    position is its first element's."""
    last = np.ones_like(boundary)
    last[:-1] = boundary[1:]
    order = np.argsort(position[last])
    rank = np.empty(order.size, np.intp)
    rank[order] = np.arange(order.size)
    inverse = np.empty(position.size, np.intp)
    inverse[position] = rank[np.cumsum(boundary) - 1]
    return position[boundary][order], inverse


def _lexsort_dedupe(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dedupe_flow_keys` by one stable ``lexsort`` of every key."""
    n = words.shape[1]
    order = np.lexsort(words[::-1])  # lexsort's last key is the primary
    ranked = np.take(words, order, axis=1)
    boundary = np.ones(n, bool)
    boundary[1:] = ranked[0, 1:] != ranked[0, :-1]
    for word in ranked[1:]:  # a few whole-row ORs beat an axis-0 reduce
        boundary[1:] |= word[1:] != word[:-1]
    return _by_last_sighting(order, boundary)


def dedupe_flow_keys(
    words: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct columns of a packed key matrix, in the order of each
    one's last occurrence: ``(first, inverse)``, each distinct key's
    first position and each key's rank among them.  ``x`` holds the
    keys' :func:`flow_hash` values.

    Equal keys are grouped by hash: one *value* sort of (``x``'s high
    bits, position in the low bits) lays each group out in arrival
    order, so its head is its first occurrence and its tail its last.
    Every key is then compared with its group's head; a batch where two
    different keys share those bits — or one too small to repay
    hashing — takes a stable ``lexsort`` over all keys instead, so the
    result never depends on ``x``.
    """
    n = words.shape[1]
    if n >= _HASH_GROUP_MIN:
        low = np.uint64((1 << (n - 1).bit_length()) - 1)
        tagged = (x & ~low) | np.arange(n, dtype=np.uint64)
        tagged.sort()
        boundary = np.ones(n, bool)
        boundary[1:] = (tagged[1:] ^ tagged[:-1]) > low
        first, inverse = _by_last_sighting((tagged & low).astype(np.intp), boundary)
        head_of = first[inverse]
        if all(np.array_equal(word[head_of], word) for word in words):
            return first, inverse
    return _lexsort_dedupe(words)


@dataclass
class FlowCacheStats:
    """Running counters of one :class:`FlowCache`.

    ``hits`` counts packets served without a backend lookup (coalesced
    in-batch duplicates included), ``misses`` backend lookups issued
    (``hits + misses == lookups``).  ``evictions`` counts live entries a
    fill overwrote, ``reclamations`` dead slots it re-used (once, however
    often they died).  ``invalidations``
    counts update batches (:meth:`FlowCache.retire`) and whole-cache
    flushes (:meth:`FlowCache.advance_epoch`); ``retired`` the live
    entries ``retire`` killed.  Every counter depends only on the cache
    contents and the batches, never on timing or on who served them.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    reclamations: int = 0
    invalidations: int = 0
    retired: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class FlowCache:
    """Fixed-size set-associative exact-match cache over full headers.

    ``entries == 0`` disables the cache (every lookup is a miss).  The
    tables are allocated on the first probe, when the header width is
    known, so any :class:`~repro.core.rules.FieldSchema` works.  An
    entry is live while the epoch it was filled under is current.
    """

    def __init__(self, entries: int = 4096, ways: int = 4) -> None:
        if entries < 0:
            raise ConfigError(f"cache entries must be >= 0, got {entries}")
        if entries:
            if ways < 1:
                raise ConfigError(f"cache ways must be >= 1, got {ways}")
            if entries % ways:
                raise ConfigError(
                    f"cache entries ({entries}) must be a multiple of "
                    f"ways ({ways})"
                )
        self.entries = int(entries)
        self.ways = int(ways)
        self.n_sets = self.entries // self.ways if entries else 0
        self.stats = FlowCacheStats()
        self._tick = np.int64(1)
        #: Current cache epoch: entries are served only while the epoch
        #: they were filled under is current, so the whole cache drops in
        #: O(1) (:meth:`advance_epoch`); :meth:`retire` tags single
        #: entries ``-1``.
        self.epoch = np.int64(0)
        #: Header width the tables were allocated for (0 = not yet).
        self._ndim = 0
        #: The key table, set-major: a set's keys are one run of
        #: ``ways * words`` words, the lines one probe reads.
        self._keyw: np.ndarray | None = None  # (sets, ways, words) uint64
        self._result: np.ndarray | None = None  # (sets, ways) int64
        self._stamp: np.ndarray | None = None  # (sets, ways) int64 last use
        self._epoch: np.ndarray | None = None  # (sets, ways) int64 fill tag
        #: Fill tick per slot; 0 = never filled (``_tick`` starts at 1),
        #: which tells a reclamation from a first fill.
        self._filled: np.ndarray | None = None  # (sets, ways) int64
        #: Distinct misses of the last native lookup or serve, the size
        #: the next one's grouping table starts at and the work a serve
        #: splits by (its result never depends on it).
        self._distinct = 0
        #: The native calls' pointer table over these tables, bound on
        #: the first native call after they are (re)allocated and then
        #: kept: each call writes only the epoch and the clock into it
        #: (``native._bound``).
        self._native = None

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.entries > 0

    def _ensure_tables(self, ndim: int) -> None:
        """Allocate on first use (or on a header-width change): the key
        words of a ``ndim``-column header plus the per-slot metadata."""
        if self._ndim != ndim:
            self._ndim = ndim
            self._keyw = np.zeros(
                (self.n_sets, self.ways, (ndim + 1) // 2), _KEY_WORD
            )
            self._result = np.full((self.n_sets, self.ways), -1, np.int64)
            self._stamp = np.zeros((self.n_sets, self.ways), np.int64)
            self._epoch = np.full((self.n_sets, self.ways), -1, np.int64)
            self._filled = np.zeros((self.n_sets, self.ways), np.int64)

    def _live(self, idx, way: int | None = None) -> np.ndarray:
        """Entries filled under the current epoch over ``table[idx]`` — or,
        given ``way``, over the sets ``idx`` of that one way (a column
        view then a 1-D gather, cheaper than ``table[idx, way]``)."""
        epoch = self._epoch if way is None else self._epoch[:, way]
        return epoch[idx] == self.epoch

    def _set_index(self, x: np.ndarray) -> np.ndarray:
        """The sets of the headers whose :func:`flow_hash` is ``x``."""
        return (x % np.uint64(self.n_sets)).astype(np.int64)

    def _prepare(self, headers: np.ndarray) -> np.ndarray:
        """``headers`` as C-contiguous ``uint32``, the tables allocated."""
        headers = np.ascontiguousarray(headers, dtype=np.uint32)
        self._ensure_tables(headers.shape[1])
        return headers

    # ------------------------------------------------------------------
    def probe(self, headers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Look every header up against the current cache state.

        Returns ``(hit, result)``: a boolean hit mask and the cached
        first-match rule id where hit (-1 elsewhere).  Hit entries get
        their LRU stamp refreshed, later batch positions counting as
        fresher.  On a disabled (zero-entry) cache every probe misses.
        """
        if not self.enabled or not headers.shape[0]:
            n = headers.shape[0]
            return np.zeros(n, bool), np.full(n, -1, np.int64)
        headers = self._prepare(headers)
        match = np.empty(headers.shape[0], np.int64)
        found = self._native_serve(headers, None, match, group=False)
        if found is None:
            return self._probe(pack_flow_keys(headers),
                               self._set_index(flow_hash(headers)))
        hit = np.ones(len(match), bool)
        hit[found[1]] = False
        return hit, match

    def lookup(self, headers: np.ndarray, match=None, occupancy=None,
               tally=None):
        """:meth:`probe` a batch on an enabled cache and group its misses:
        ``(match, misses, rank, uniq, sets)``, each header's cached result
        (-1: a miss), the positions that missed, each miss's rank among
        the distinct missed headers, those in the order of each one's
        last miss and their set indices.  Natively one pass that groups a
        miss by its probe's FNV value; in NumPy :func:`dedupe_flow_keys`
        after, over the same :func:`flow_hash` values.

        ``match`` is written in place when given.  ``occupancy``, when
        given, gets :data:`HIT_OCCUPANCY_CYCLES` in every cell in the
        same pass (:meth:`commit` writes a miss's), and ``tally`` (two
        ``int64`` cells) gets the hits' matched count and cycles added.
        """
        headers = self._prepare(headers)
        out = np.empty(len(headers), np.int64) if match is None else match
        found = self._native_serve(headers, None, out, occupancy, tally)
        if found is not None:
            return out, *found[1:]
        words, x = pack_flow_keys(headers), flow_hash(headers)
        s = self._set_index(x)
        hit, result = self._probe(words, s)
        if match is None:
            match = result
        else:
            match[:] = result
        misses = np.flatnonzero(~hit)
        if occupancy is not None:
            occupancy[:] = HIT_OCCUPANCY_CYCLES
        if tally is not None:
            hits = 0 if occupancy is None else len(hit) - len(misses)
            tally += (np.count_nonzero(result >= 0),
                      hits * HIT_OCCUPANCY_CYCLES)
        first, rank = dedupe_flow_keys(np.take(words, misses, axis=1), x[misses])
        return match, misses, rank, headers[misses[first]], s[misses[first]]

    def serve(self, headers: np.ndarray, walk, match, occupancy=None,
              tally=None) -> int | None:
        """:meth:`lookup`, the backend and :meth:`commit` in one native
        call (:func:`~repro.algorithms.native.serve`), for a backend
        whose miss classification is one native walk, ``walk = (tables,
        placement)``: the batch split over set owners by the distinct
        misses of the last one, each probing its packets in arrival
        order, then grouping, walking and filling its own sets.
        ``match``, ``occupancy`` and ``tally`` are written,
        and the tables, the eviction counters and the clock left, as
        the three calls leave them, an error included.  Returns the
        distinct misses; ``None`` (nothing done) where the library did
        not load or the walk's header width is not the batch's (the
        three calls raise their own error)."""
        headers = self._prepare(headers)
        if walk[0].ndim != headers.shape[1]:
            return None
        found = self._native_serve(headers, walk, match, occupancy, tally)
        if found is None:
            return None
        counts = found[0]
        self.stats.evictions += int(counts[2])
        self.stats.reclamations += int(counts[3])
        self._tick += np.int64(counts[1] > 0)
        return int(counts[1])

    def _native_serve(self, headers, walk, match, occupancy=None, tally=None,
                      group: bool = True):
        """:func:`~repro.algorithms.native.serve` over this cache:
        ``(counts, misses, rank, uniq, sets)``, the arrays cut to the
        call's misses and distinct misses (without ``group`` the probe
        alone, the last three ``None``).  The clock moves past the probe
        and a grouping's size is kept, an error included (then raised);
        ``None`` (nothing done) where the library did not load."""
        n, ndim = headers.shape
        counts = np.zeros(5, np.int64)
        missed = (np.empty(n, np.int64), *((
            np.empty(n, np.int64), np.empty((n, ndim), np.uint32),
            np.empty(n, np.int64)) if group else (None,) * 3))
        code = native.serve(self, walk, headers, counts, match, missed,
                            occupancy, HIT_OCCUPANCY_CYCLES, tally)
        if code is None:
            return None
        self._tick += np.int64(n)
        m, distinct = counts[:2]
        if group:
            self._distinct = int(distinct)
        native.check(code, headers, walk and walk[1])
        return counts, *(a if a is None else a[:size] for a, size in
                         zip(missed, (m, m, distinct, distinct)))

    def _probe(self, words: np.ndarray, s: np.ndarray):
        """:meth:`probe` over the batch's packed keys and set indices."""
        n = s.shape[0]
        hit = np.zeros(n, bool)
        way = np.zeros(n, np.intp)  # ways passed before the first match
        for w in range(self.ways):
            eq = self._live(s, way=w)
            for column, word in zip(self._keyw[:, w].T, words):
                eq &= column[s] == word
            hit |= eq
            way += ~hit
        pos = np.nonzero(hit)[0]
        slot = s[pos], way[pos]
        result = np.full(n, -1, np.int64)
        result[pos] = self._result[slot]
        self._stamp[slot] = self._tick + pos
        self._tick += np.int64(n)
        return hit, result

    def commit(self, uniq, sets, results, cycles=None, misses=None,
               rank=None, match=None, occupancy=None, tally=None) -> None:
        """Serve one :meth:`lookup`'s misses, then fill its distinct keys.

        ``results`` (and ``cycles``, the occupancy) are the backend's
        answers for the ``uniq`` rows.  Given the lookup's ``misses``
        and ``rank``, each miss gets its rank's result in ``match`` and,
        given ``occupancy``, its rank's cycles there (in place; the
        lookup wrote the hits'), and ``tally`` (two ``int64`` cells)
        gets the misses' matched count and cycles added.  Then the rows
        go in, in order, into ``sets`` (``None``: their own).
        """
        if occupancy is not None and cycles is None:
            raise BuildError("flow cache: occupancy without the misses' "
                             "cycles")
        results = np.ascontiguousarray(results, dtype=np.int64)
        if cycles is not None:
            cycles = np.ascontiguousarray(cycles, dtype=np.int64)
        done = native.commit(self, uniq, sets, results, cycles, misses, rank,
                             match, occupancy, tally)
        if done is not None:
            evictions, reclamations = done
            self.stats.evictions += evictions
            self.stats.reclamations += reclamations
            self._tick += np.int64(1)
            return
        if misses is not None:
            served = results[rank]
            match[misses] = served
            cost = 0
            if occupancy is not None:
                occupancy[misses] = cost = cycles[rank]
            if tally is not None:
                tally += (np.count_nonzero(served >= 0), np.sum(cost))
        s = self._set_index(flow_hash(uniq)) if sets is None else sets
        self._fill(pack_flow_keys(uniq), s, results)

    def fill(self, headers: np.ndarray, results: np.ndarray) -> None:
        """Insert (header -> result) pairs, LRU-evicting within sets.

        ``headers`` rows should be distinct (the caller deduplicates
        misses).  When more distinct headers land in one set than it
        has ways, the later ones wrap onto the same victim slots —
        last writer wins, exactly what a small cache under thrash does.
        """
        if not self.enabled or not headers.shape[0]:
            return
        self.commit(self._prepare(headers), None, results)

    def _fill(self, words: np.ndarray, s: np.ndarray, results: np.ndarray):
        """:meth:`commit`'s fill over packed keys and set indices."""
        n = s.shape[0]
        # One stable sort of the set index (radix while it fits 16 bits)
        # groups each set's inserts in arrival order.
        radix = s.astype(np.uint16) if self.n_sets <= 1 << 16 else s
        by_set = np.argsort(radix, kind="stable")
        ranked = s[by_set]
        boundary = np.ones(n, bool)
        boundary[1:] = ranked[1:] != ranked[:-1]
        starts = np.flatnonzero(boundary)
        group = np.cumsum(boundary) - 1
        rank = np.arange(n) - starts[group]
        # Ways of each touched set ordered oldest-first; invalid ways and
        # stale-epoch leftovers are preferred victims.
        touched = ranked[starts]
        age = np.where(self._live(touched), self._stamp[touched], np.int64(-1))
        order = np.argsort(age, axis=1, kind="stable")
        ranked_way = order[group, rank % self.ways]
        # Overwriting a live entry is an eviction, re-using a dead slot a
        # reclamation; a wrap insert (rank >= ways) displaces a live fill.
        pre_live = self._live((ranked, ranked_way))
        pre_filled = self._filled[ranked, ranked_way] > 0
        first_claim = rank < self.ways
        self.stats.evictions += int((pre_live | ~first_claim).sum())
        self.stats.reclamations += int(
            (first_claim & pre_filled & ~pre_live).sum()
        )
        way = np.empty(n, np.intp)
        way[by_set] = ranked_way  # back to arrival order: last writer wins
        self._keyw[s, way] = words.T
        self._result[s, way] = results
        self._stamp[s, way] = self._tick  # fresher than this batch's hits
        self._epoch[s, way] = self.epoch
        self._filled[s, way] = self._tick
        self._tick += np.int64(1)

    def advance_epoch(self) -> None:
        """O(1) whole-cache invalidation, for a ruleset change nobody
        described (an out-of-band mutation; an update batch goes through
        :meth:`retire`): older entries stop matching at once
        and their slots are reclaimed as new fills land."""
        self.epoch += np.int64(1)
        self.stats.invalidations += 1

    def retire(self, batch, inserted_ids) -> None:
        """Kill the entries one applied update batch could have changed
        (counted in ``stats.retired``).

        ``batch`` is the :class:`~repro.core.updates.RuleUpdate` ops the
        backend just applied and ``inserted_ids`` the stable ids its
        inserts took, in batch order.  An entry caching first match
        ``c`` is retired when ``c`` is a removed id, or when an inserted
        rule with an id below ``c`` (any id when ``c == -1``) covers the
        entry's header: a superset of the entries whose answer changed,
        since a header's new first match is the lowest live id covering
        it.  Over-retiring only costs a backend walk, so ops need no
        ordering (a re-removed insert or a dead id just widens the set).
        A retired slot is tagged epoch ``-1``, which no cache epoch
        equals: a preferred victim whose refill is a reclamation.
        """
        self.stats.invalidations += 1
        if not self._ndim or not self.n_sets:
            return
        removed = np.array(
            sorted({op.rule_id for op in batch if op.op == OP_REMOVE}), np.int64
        )
        bounds = np.array(
            [op.rule.ranges for op in batch if op.op == OP_INSERT], np.int64
        ).reshape(-1, self._ndim, 2)  # (inserts, ndim, lo/hi)
        ids = np.asarray(inserted_ids, dtype=np.int64)
        retired = native.retire(self, removed, bounds, ids)
        if retired is None:
            retired = self._retire_portable(removed, bounds, ids)
        self.stats.retired += retired

    def _retire_portable(self, removed, bounds, ids) -> int:
        """:meth:`retire`'s NumPy pass, the oracle of ``fc_retire``: the
        number of entries it tagged."""
        live = self._live(...)
        doomed = live & np.isin(self._result, removed)
        if bounds.size:
            # Only an entry below some inserted rule's priority can be
            # pre-empted; inserts append, so in practice the no-matches.
            s, way = np.nonzero(
                live & ((self._result < 0) | (self._result > ids.min()))
            )
            cached = self._result[s, way][:, None]
            header = self._headers(s, way)[:, None, :]
            covered = (
                (header >= bounds[..., 0]) & (header <= bounds[..., 1])
            ).all(axis=2)
            hit = (covered & ((cached < 0) | (cached > ids))).any(axis=1)
            doomed[s[hit], way[hit]] = True
        self._epoch[doomed] = -1
        return int(doomed.sum())

    def _headers(self, s: np.ndarray, way: np.ndarray) -> np.ndarray:
        """The ``(n, ndim)`` headers stored in slots ``(s, way)``:
        :func:`pack_flow_keys` undone (each little-endian word's halves
        swapped back into column order)."""
        n, words = len(s), self._keyw.shape[2]
        halves = self._keyw[s, way].view(_KEY_HALF).reshape(n, words, 2)
        columns = halves[..., ::-1].reshape(n, 2 * words)
        return columns[:, : self._ndim].astype(np.int64)

    # ------------------------------------------------------------------
    def occupancy_fraction(self) -> float:
        """Fraction of cache slots holding a live entry."""
        if not self._ndim or not self.entries:
            return 0.0
        return float(self._live(...).mean())

    def memory_bytes(self, ndim: int = 5) -> int:
        """Modelled footprint: key + result + stamp + epoch + valid.  The
        key is the *modelled* ``4 * ndim``-byte header a hardware table
        would store, independent of how this host lays its key words
        out."""
        if self._ndim:
            ndim = self._ndim
        return self.entries * (4 * ndim + 8 + 8 + 8 + 1)


class CachedClassifier(ClassifierBase):
    """A flow cache in front of any engine backend, same protocol.

    The wrapped backend remains the source of truth: every result the
    cache serves was produced by the backend for that exact header, so
    the cached classifier is bit-identical to the bare one on any trace
    — the conformance suite asserts it across the whole registry.
    """

    def __init__(
        self, classifier: Classifier, entries: int = 4096, ways: int = 4
    ) -> None:
        self.classifier = classifier
        self.cache = FlowCache(entries, ways=ways)
        inner = getattr(classifier, "backend_name", type(classifier).__name__)
        self.backend_name = f"{inner}+cache"
        schema = getattr(classifier, "schema", None)
        if schema is not None:
            self.schema = schema

    @property
    def models_occupancy(self) -> bool:
        """The wrapped backend's: a hit then costs
        :data:`HIT_OCCUPANCY_CYCLES`."""
        return models_occupancy(self.classifier)

    # ------------------------------------------------------------------
    def clone(self) -> "CachedClassifier":
        """A new wrapper around the *same* backend with a private, cold
        cache — the per-shard cache layout of in-process shards."""
        return CachedClassifier(
            self.classifier, entries=self.cache.entries, ways=self.cache.ways
        )

    # ------------------------------------------------------------------
    def classify_batch(self, headers: np.ndarray) -> np.ndarray:
        return self.batch_stats(headers).match

    def batch_stats(
        self, headers: np.ndarray, out: BatchOut | None = None
    ) -> BatchStats:
        """Look the batch up, classify each distinct miss once through
        the backend's own ``batch_stats`` (a match-only walk on tree
        backends, the occupancy walk on the accelerator), then commit:
        scatter its answers to the misses and fill them.  The results
        go into ``out`` (fresh arrays when ``None``): the lookup writes
        every hit's and the commit every miss's, each adding the
        tallies of what it wrote.

        A backend whose miss classification is one native ``FlatTree``
        walk says so through its ``miss_walk`` (``(tables, placement)``
        or ``None``, read on every call: a patch re-binds the tables);
        its batch is then all three steps in one native call
        (:meth:`FlowCache.serve`), with the same results, tables and
        counters."""
        headers = np.ascontiguousarray(headers, dtype=np.uint32)
        n = headers.shape[0]
        cache = self.cache
        out = out or batch_out(n, self.models_occupancy)
        if n == 0 or not cache.enabled:
            inner = batch_stats_of(self.classifier, headers, out)
            return replace(inner, cache_hits=0, cache_misses=n,
                           cache_evictions=0)
        evictions_before = cache.stats.evictions
        match, occupancy, tally = out
        walk = getattr(self.classifier, "miss_walk", None)
        n_backend = None if walk is None else cache.serve(
            headers, walk, match, occupancy, tally
        )
        if n_backend is None:
            _, misses, rank, uniq, sets = cache.lookup(
                headers, match, occupancy, tally
            )
            n_backend = uniq.shape[0]
            if n_backend:
                inner = batch_stats_of(self.classifier, uniq)
                cache.commit(uniq, sets, inner.match, inner.occupancy,
                             misses, rank, match, occupancy, tally)
        hits = n - n_backend
        cache.stats.lookups += n
        cache.stats.hits += hits
        cache.stats.misses += n_backend
        return tallied(
            out, cache_hits=hits, cache_misses=n_backend,
            cache_evictions=cache.stats.evictions - evictions_before,
        )

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        ndim = getattr(getattr(self, "schema", None), "ndim", 5)
        return self.classifier.memory_bytes() + self.cache.memory_bytes(ndim)

    def memory_accesses_per_lookup(self) -> int:
        """Worst case: one set-wide probe plus the backend's worst case."""
        probe = 1 if self.cache.enabled else 0
        return probe + self.classifier.memory_accesses_per_lookup()

    # -- rule-update hooks (incremental backends) ----------------------
    #: This wrapper only *delegates* updates: ``is_updatable`` recurses
    #: into the wrapped classifier instead of trusting the method below.
    _delegates_updates = True

    @property
    def update_epoch(self) -> int:
        """The wrapped classifier's ruleset version (0 if not updatable)."""
        return getattr(self.classifier, "update_epoch", 0)

    def apply_updates(self, batch):
        """Delegate the batch, then retire the cache entries it could
        have changed (:meth:`FlowCache.retire`); every other entry keeps
        serving hits across the update.
        """
        batch = tuple(batch)
        require_updatable(self.classifier)
        out = self.classifier.apply_updates(batch)
        self.cache.retire(batch, out.inserted_ids)
        return out

    def invalidate_cache(self) -> None:
        """Drop the whole cache after an out-of-band ruleset mutation
        (O(1): nothing says which entries it touched)."""
        self.cache.advance_epoch()
