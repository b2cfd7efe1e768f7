"""The native walk and the cached serve split over threads: every output
is the one-thread one.

The walk (``flat_walk``) splits a call into one contiguous packet slice
per job; the cached serve (``fc_serve``) splits a batch over set owners,
each probing, walking and filling its own sets.  Every
threaded call counts its jobs by one rule and runs them through one
split (``_flat_walk.c``'s ``split_count`` / ``split_run``), its threads
created and joined inside the call.  ``threads`` forces a count the rule
would not pick on inputs this small, so each case runs at k = 2, 3 and 4
against k = 1 and the NumPy oracle (the serve also against the three
calls it replaces: lookup, the backend, commit).  Also here: a header
outside its field widths is a ``PacketFormatError`` on both kernels, no
thread outlives a call (a split trace text parse included), a forked
shard owner walks on one thread, and a library whose ``pthread_create``
refuses every other call gives the one-thread outputs, tables, counters
and errors at every k (the walk, the cached serve and the parse).
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import subprocess
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro import PacketTrace, RuleSet, generate_ruleset
from repro.algorithms import IncrementalClassifier, build_hypercuts, native
from repro.core.errors import BuildError, PacketFormatError
from repro.core.rules import DEMO_SCHEMA, FIVE_TUPLE, FieldSchema, Rule
from repro.core.rules import make_demo_ruleset
from repro.core.updates import insert_op, remove_op
from repro.engine import CachedClassifier, ClassificationPipeline
from repro.engine.backends import AcceleratorClassifier, DecisionTreeClassifier
from repro.engine.flowcache import flow_hash, pack_flow_keys
from repro.engine.protocol import ClassifierBase, batch_out
from repro.hw import Accelerator
from repro.hw.encoding import RULES_PER_WORD

from tests import test_native, test_trace_parse
from tests.conftest import FIELDS, random_headers

THREADS = (2, 3, 4)


def _forced(monkeypatch, k: int) -> None:
    """Every native walk and cached serve of the test runs on ``k``
    threads, whatever its size."""
    monkeypatch.setattr(native, "walk", functools.partial(native.walk, threads=k))
    monkeypatch.setattr(native, "serve", functools.partial(native.serve, threads=k))


def _walk_all(acc: Accelerator, headers, k: int) -> tuple:
    """The six ``BatchLookup`` fields and the three cycle arrays of one
    native walk on ``k`` threads."""
    n = headers.shape[0]
    match = np.empty(n, np.int64)
    stats = tuple(np.empty(n, np.int32) for _ in range(5))
    cycles = tuple(np.empty(n, np.int64) for _ in range(3))
    assert native.walk(acc.tree.flat._native, headers, match, stats,
                       acc._placement, cycles, threads=k) == k
    return (match, *stats, *cycles)


class TestWalk:
    @pytest.mark.parametrize("n", [0, 1, 3, 2000])
    def test_every_field_and_cycle_array_equals_one_thread_and_numpy(
        self, native_kernel, monkeypatch, hw_image_small, acl_small_trace, n
    ):
        acc = Accelerator(hw_image_small)
        trace = acl_small_trace.subset(n)
        want = _walk_all(acc, trace.headers, 1)
        for k in THREADS:
            got = _walk_all(acc, trace.headers, k)
            for a, b in zip(want, got):
                assert a.dtype == b.dtype and np.array_equal(a, b), k
        with monkeypatch.context() as patch:
            patch.setattr(native, "_kernel", native._Kernel(reason="oracle"))
            lookup = acc.tree.flat.batch_lookup(trace)
            run = acc._run_portable(trace)
        oracle = (*(getattr(lookup, f) for f in FIELDS), run.occupancy,
                  run.internal_fetches, run.leaf_words)
        for a, b in zip(oracle, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_a_software_tree_splits_the_same(
        self, native_kernel, acl_small, acl_small_trace
    ):
        flat = build_hypercuts(acl_small, binth=8, spfac=2, hw_mode=False).flat
        want = flat.batch_lookup(acl_small_trace)
        for k in THREADS:
            with pytest.MonkeyPatch.context() as patch:
                _forced(patch, k)
                got = flat.batch_lookup(acl_small_trace)
            for name in FIELDS:
                assert np.array_equal(getattr(want, name), getattr(got, name))

    @pytest.mark.parametrize("k", [1, *THREADS])
    def test_a_wide_header_anywhere_is_the_error(
        self, native_kernel, hw_image_small, acl_small_trace, k
    ):
        """A header past its field width fails the call wherever it is,
        before or after a corrupt leaf, as when ``PacketTrace`` checked
        every header before the walk."""
        acc = Accelerator(hw_image_small)
        flat = acc.tree.flat
        leaf_of = flat.batch_lookup(acl_small_trace).leaf_id
        leafed = np.flatnonzero(leaf_of >= 0)
        for bad_leaf_at, wide_at in ((leafed[-1], 0), (leafed[0], -1)):
            headers = acl_small_trace.headers.copy()
            headers[wide_at, 4] = 256  # the protocol field is 8 bits wide
            leaf = leaf_of[bad_leaf_at]
            saved = flat.leaf_len[leaf]
            flat.leaf_len[leaf] = 1 << 40  # runs past the leaf table
            try:
                with pytest.raises(PacketFormatError, match="field 4 exceeds"):
                    _walk_all(acc, headers, k)
            finally:
                flat.leaf_len[leaf] = saved

    @pytest.mark.parametrize("k", [1, *THREADS])
    def test_the_first_failing_packet_names_the_error(
        self, native_kernel, hw_image_small, acl_small_trace, k
    ):
        """Slices fail apart; the lowest failing slice's code is the
        call's, which is the first failing packet's, as on one thread.
        One leaf runs past its table (a range error), every pointer to
        another is turned back to the root (a step-guard error): the one
        a packet meets first names the error."""
        acc = Accelerator(hw_image_small)
        flat = acc.tree.flat
        leaf_of = flat.batch_lookup(acl_small_trace).leaf_id
        early, late = leaf_of[leaf_of >= 0][[0, -1]]
        assert early != late
        # 500 packets that end in `early`, then 500 that end in `late`:
        # at every k > 1 the first slice meets only the first leaf's
        # error and the last slice only the second's.
        ends_in = [acl_small_trace.headers[leaf_of == leaf] for leaf in (early, late)]
        headers = np.concatenate([rows[np.arange(500) % len(rows)]
                                  for rows in ends_in])
        for ranged, looped, error in ((early, late, "left its tables"),
                                      (late, early, "did not terminate")):
            saved = flat.leaf_len.copy(), flat.children.copy()
            flat.leaf_len[ranged] = 1 << 40
            flat.children[flat.children == looped] = 0  # back to the root
            try:
                with pytest.raises(BuildError, match=error):
                    _walk_all(acc, headers, k)
            finally:
                flat.leaf_len[:], flat.children[:] = saved


class TestCorruptTablesAtEveryK(test_native.TestCorruptTables):
    """Every corrupt table and placement is the same error on k threads."""

    @pytest.fixture(autouse=True, params=THREADS)
    def threads(self, request, monkeypatch):
        _forced(monkeypatch, request.param)
        return request.param


class TestHeaderWidths:
    @pytest.mark.parametrize("kernel", ["native", "portable"])
    def test_an_over_width_header_is_a_packet_format_error(
        self, acl_small, acl_small_trace, monkeypatch, kernel
    ):
        """The accelerator backend takes raw headers: the native walk
        checks each field against its width as it walks, the portable
        path builds a ``PacketTrace``; both refuse the same header."""
        clf = AcceleratorClassifier(acl_small)
        if kernel == "native" and native.status()["kernel"] != "native":
            pytest.skip(f"native kernel unavailable: {native.status()['reason']}")
        if kernel == "portable":
            monkeypatch.setattr(native, "_kernel", native._Kernel(reason="off"))
        headers = acl_small_trace.headers.copy()
        headers[-1, 4] = 256
        with pytest.raises(PacketFormatError, match="field 4 exceeds"):
            clf.batch_stats(headers)
        with pytest.raises(PacketFormatError, match="field 4 exceeds"):
            PacketTrace(headers, FIVE_TUPLE)
        with pytest.raises(PacketFormatError, match="does not match schema"):
            clf.batch_stats(headers[:, :4])
        headers[-1, 4] = 255  # the widest legal value
        assert np.array_equal(clf.batch_stats(headers).match,
                              clf.classify_trace(PacketTrace(headers, FIVE_TUPLE)))


# ---------------------------------------------------------------------------
# The cached serve: one native call, its batch split over set owners
# ---------------------------------------------------------------------------
#: Every way a cached batch is served: the three calls the one call
#: replaces (``lookup``, the backend, ``commit``), the one call on each
#: forced owner count, and the NumPy oracle.
PATHS = ("three", *[1, *THREADS], "numpy")

_TABLES = ("_keyw", "_result", "_stamp", "_epoch", "_filled")


def _on_path(path, fn):
    """``fn()`` served the ``path`` way."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "numpy":
            patch.setattr(native, "_kernel", native._Kernel(reason="oracle"))
        elif path == "three":
            patch.setattr(native, "serve", lambda *args, **kwargs: None)
        else:
            _forced(patch, path)
        return fn()


def _state(clf: CachedClassifier, path) -> tuple:
    """The cache's five tables, clock and counters, and, off the NumPy
    path (which groups without it), the size its next grouping starts
    at."""
    cache = clf.cache
    tables = [getattr(cache, name) for name in _TABLES]
    state = (*(t if t is None else t.tobytes() for t in tables),
             int(cache._tick), int(cache.epoch), replace(cache.stats))
    return state if path == "numpy" else (*state, cache._distinct)


def _served(clf: CachedClassifier, headers) -> list:
    out = batch_out(len(headers), clf.models_occupancy)
    stats = clf.batch_stats(headers, out)
    return [None if a is None else a.tolist() for a in out] + [
        stats.cache_hits, stats.cache_misses, stats.cache_evictions]


def _same_everywhere(twins: dict, step) -> list:
    """Apply ``step(clf)`` on every path's twin; what each returned and
    its state must be the three calls' (the NumPy oracle's state without
    the grouping size).  Returns the three calls' answer."""
    said = {path: _on_path(path, lambda: step(clf))
            for path, clf in twins.items()}
    want = said["three"]
    for path, clf in twins.items():
        assert said[path] == want, path
        ref = _state(twins["three"], path)
        assert _state(clf, path) == ref, path
    return want


def _twins(make, entries: int, ways: int) -> dict:
    return {path: CachedClassifier(make(path), entries=entries, ways=ways)
            for path in PATHS}


def _crowded(n_sets: int, n: int, seed: int, schema=FIVE_TUPLE, at: int = 0):
    """``n`` distinct headers that all land in set ``at``."""
    rows = random_headers(schema, 64 * n * max(n_sets, 1), seed=seed)
    rows = np.unique(rows[flow_hash(rows) % np.uint64(n_sets) == at], axis=0)
    assert len(rows) >= n
    return rows[:n]


def _three_columns() -> RuleSet:
    """A 3-field schema (8, 8 and 16 bits) with 40 random boxes and a
    catch-all."""
    schema = FieldSchema(names=("a", "b", "c"), widths=(8, 8, 16))
    rng = np.random.default_rng(3)
    rules = [Rule(ranges=tuple(
        tuple(int(v) for v in sorted(rng.integers(0, 2**w, size=2)))
        for w in schema.widths)) for _ in range(40)]
    rules.append(Rule(ranges=tuple((0, 2**w - 1) for w in schema.widths)))
    return RuleSet(rules, schema, "three-columns")


@functools.cache
def _acl1_100() -> AcceleratorClassifier:
    return AcceleratorClassifier(generate_ruleset("acl1", 100, seed=7))


def walk_threads() -> int:
    """Threads one native walk of 65,536 new headers (four ``MIN_SLICE``)
    runs on in this process, as the call reports it."""
    headers = random_headers(FIVE_TUPLE, 1 << 16, seed=9)
    return native.walk(_acl1_100().tree.flat._native, headers,
                       np.empty(len(headers), np.int64))


def _owners_of(batches) -> list[list[int]]:
    """The counts (misses, distinct, evictions, reclamations, owners) of
    each of ``batches`` served in turn through one cached accelerator
    (8,192 x 4), as its native serves report them."""
    clf = CachedClassifier(_acl1_100(), entries=8192, ways=4)
    said, real = [], native.serve

    def serve(cache, walk, headers, counts, *args, **kwargs):
        code = real(cache, walk, headers, counts, *args, **kwargs)
        said.append(counts.tolist())
        return code

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "serve", serve)
        for headers in batches:
            clf.batch_stats(headers)
    assert len(said) == len(batches)
    return said


def spill_owners() -> int:
    """Owners of a spill-sized batch (65,536 new headers, all misses)
    served after one like it, whose 65,536 distinct misses the split
    sizes it by: ``min(thread_ceiling(), 65536 // MIN_OWNED)``."""
    first, then = _owners_of([random_headers(FIVE_TUPLE, 1 << 16, seed=s)
                              for s in (8, 9)])
    assert first[1] == then[0] == then[1] == 1 << 16
    return then[4]


def hit_owners() -> int:
    """Owners of a 65,536-packet batch of hits (512 flows) served after
    another: 1 on every host, since the last batch left nothing to
    walk."""
    flows = random_headers(FIVE_TUPLE, 512, seed=9)
    headers = flows[np.random.default_rng(9).integers(0, 512, 1 << 16)]
    *_, then = _owners_of([headers] * 3)
    assert then[0] == 0
    return then[4]


def _ledger_text(n: int) -> bytes:
    """``n`` lines of ClassBench trace text as the ledger writes it."""
    rows = random_headers(FIVE_TUPLE, n, seed=4).tolist()
    return b"".join(b"%d\t%d\t%d\t%d\t%d\t-1\n" % tuple(r) for r in rows)


def _parse(text: bytes, threads: int | None = None) -> int:
    """Parse ``text`` in one native call; returns the threads it ran on."""
    n = text.count(b"\n")
    buf = np.zeros(len(text) + native.TEXT_PAD, np.uint8)
    buf[:len(text)] = np.frombuffer(text, np.uint8)
    used = np.zeros(4, np.int64)
    assert native.parse_text(buf, 0, len(text), n, np.empty((n, 5), np.uint32),
                             0, used, np.zeros(5, np.uint32), threads=threads)
    assert used[2] == n
    return int(used[3])


def parse_threads() -> int:
    """Threads one 16,384-line trace text parse runs on: what the parse's
    rule (``min(thread_ceiling(), lines // MIN_LINES)``) gives that many
    lines in this process."""
    return _parse(_ledger_text(16384))


class TestCachedServe:
    """One native call (``fc_serve``) serves a cached batch for a backend
    whose miss classification is one ``FlatTree`` walk: at every owner
    count, ``match``, ``occupancy``, the tally, the batch's counts, the
    five tables, ``FlowCacheStats``, the clock and ``_distinct`` are the
    three calls', and all but ``_distinct`` the NumPy oracle's."""

    #: (entries, ways): sets not divisible by k (7, 13, 5), one set (fewer
    #: than k), 1-, 4- and 8-way sets, and one roomy cache.
    GEOMETRIES = [(28, 4), (4, 4), (13, 1), (40, 8), (1024, 4)]

    @staticmethod
    def _batches(headers, n_sets: int, ways: int, seed: int):
        """One packet; a trace slice with repeats; the same again (its
        flows now cached); new headers only; one crowded set, repeated
        out of order."""
        crowded = _crowded(n_sets, 3 * ways + 2, seed, DEMO_SCHEMA
                           if headers.shape[1] == 5 and headers.max() < 256
                           else FIVE_TUPLE)
        fresh = random_headers(FIVE_TUPLE, 300, seed=seed + 1)
        order = np.random.default_rng(seed).integers(0, len(crowded), 200)
        return [headers[:1], headers[:600], headers[:600], fresh,
                crowded[order], headers[300:900]]

    @pytest.mark.parametrize("entries,ways", GEOMETRIES)
    def test_an_accelerator_serves_the_same_on_every_path(
        self, native_kernel, acl_small, acl_small_trace, entries, ways
    ):
        clf = AcceleratorClassifier(acl_small)
        twins = _twins(lambda path: clf, entries, ways)
        box = Rule(ranges=((0, 2**31),) + ((0, 2**32 - 1),)
                   + ((0, 2**16 - 1),) * 2 + ((0, 255),))
        n_sets = entries // ways
        for i, batch in enumerate(self._batches(
                acl_small_trace.headers, n_sets, ways, seed=entries)):
            _same_everywhere(twins, lambda clf: _served(clf, batch))
            if i == 2:
                _same_everywhere(twins, lambda clf: clf.invalidate_cache())
            if i == 3:
                _same_everywhere(twins, lambda clf: clf.cache.retire(
                    [remove_op(5), insert_op(box)], [150]))

    def test_the_batch_shapes_read_as_they_say(
        self, native_kernel, acl_small, acl_small_trace
    ):
        """On the roomy cache: a repeated batch all hits, new headers all
        miss, and a crowded set evicts."""
        clf = CachedClassifier(AcceleratorClassifier(acl_small),
                               entries=1024, ways=4)
        headers = acl_small_trace.headers[:600]
        clf.batch_stats(headers[:40])
        again = clf.batch_stats(headers[:40])
        assert again.cache_misses == 0 and again.cache_hits == 40
        fresh = random_headers(FIVE_TUPLE, 300, seed=11)
        assert clf.batch_stats(fresh).cache_misses == len(np.unique(fresh, axis=0))
        crowded = _crowded(256, 14, seed=1)
        assert clf.batch_stats(crowded).cache_evictions >= 14 - 4

    @pytest.mark.parametrize("entries,ways", [(28, 4), (4, 4), (40, 8)])
    def test_a_software_tree_serves_the_same_on_every_path(
        self, native_kernel, acl_small, acl_small_trace, entries, ways
    ):
        clf = DecisionTreeClassifier(acl_small, algorithm="hypercuts",
                                     binth=8, spfac=2)
        assert clf.miss_walk is not None and clf.miss_walk[1] is None
        twins = _twins(lambda path: clf, entries, ways)
        for batch in self._batches(acl_small_trace.headers, entries // ways,
                                   ways, seed=3):
            _same_everywhere(twins, lambda clf: _served(clf, batch))

    def test_a_three_column_schema_serves_the_same_on_every_path(
        self, native_kernel
    ):
        rules = _three_columns()
        clf = DecisionTreeClassifier(rules, algorithm="hypercuts", binth=4)
        twins = _twins(lambda path: clf, 28, 4)
        headers = random_headers(rules.schema, 400, seed=5)
        crowded = _crowded(7, 20, seed=6, schema=rules.schema)
        for batch in (headers[:1], headers, headers[:300],
                      crowded[np.arange(90) % 20], headers[::-1]):
            _same_everywhere(twins, lambda clf: _served(clf, batch))

    def test_the_incremental_backend_serves_the_same_after_an_update(
        self, native_kernel, acl_small, acl_small_trace
    ):
        twins = _twins(lambda path: IncrementalClassifier(
            acl_small, algorithm="hypercuts", binth=8, hw_mode=False), 28, 4)
        headers = acl_small_trace.headers
        _same_everywhere(twins, lambda clf: _served(clf, headers[:700]))
        box = Rule(ranges=((0, 2**32 - 1),) * 2 + ((0, 2**16 - 1),) * 2
                   + ((0, 255),))
        batch = [remove_op(3), insert_op(box), remove_op(40)]
        _same_everywhere(twins, lambda clf: clf.apply_updates(batch)
                         .inserted_ids)
        for clf in twins.values():   # the patch is bound before the serve
            assert clf.classifier.miss_walk is not None
        for rows in (headers[:700], headers[500:]):
            _same_everywhere(twins, lambda clf: _served(clf, rows))

    @pytest.mark.parametrize("k", [1, *THREADS])
    def test_an_empty_batch_moves_nothing(self, native_kernel, acl_small, k):
        clf = CachedClassifier(AcceleratorClassifier(acl_small), entries=28)
        cache = clf.cache
        cache._prepare(np.empty((0, 5), np.uint32))
        before = _state(clf, k)
        counts = np.zeros(5, np.int64)
        match, occupancy, tally = batch_out(0, True)
        assert native.serve(cache, clf.classifier.miss_walk,
                            np.empty((0, 5), np.uint32), counts, match,
                            occupancy, 1, tally, threads=k) == 0
        assert counts.tolist() == [0, 0, 0, 0, k]
        assert _state(clf, k) == before

    @pytest.mark.parametrize("entries,ways", [(28, 4), (40, 8)])
    @pytest.mark.parametrize("at", ["first", "last"])
    def test_a_batch_in_one_owners_sets_serves_the_same(
        self, native_kernel, acl_small, acl_small_trace, entries, ways, at
    ):
        """Every packet lands in the first set (the caller's owner) or
        the last (the last owner's): the other owners get no packet."""
        clf = AcceleratorClassifier(acl_small)
        twins = _twins(lambda path: clf, entries, ways)
        n_sets = entries // ways
        crowded = _crowded(n_sets, 3 * ways + 2, seed=entries,
                           at=0 if at == "first" else n_sets - 1)
        order = np.random.default_rng(entries).integers(0, len(crowded), 300)
        for batch in (crowded[order], crowded[order[::-1]], crowded[:ways]):
            _same_everywhere(twins, lambda clf: _served(clf, batch))

    def test_an_all_hit_batch_serves_the_same(
        self, native_kernel, acl_small, acl_small_trace
    ):
        clf = AcceleratorClassifier(acl_small)
        twins = _twins(lambda path: clf, 8192, 4)
        headers = acl_small_trace.headers[:900]
        _same_everywhere(twins, lambda clf: _served(clf, headers))
        for batch in (headers, headers[::-1]):
            served = _same_everywhere(twins, lambda clf: _served(clf, batch))
            assert served[-2:] == [0, 0]   # no miss, no eviction

    def test_a_slot_hit_in_both_halves_keeps_the_last_stamp(
        self, native_kernel, acl_small, acl_small_trace
    ):
        """A cached header seen in the first and the second half of the
        batch, among misses of every set: its slot's stamp is the clock
        before the batch plus its last position."""
        clf = AcceleratorClassifier(acl_small)
        twins = _twins(lambda path: clf, 1024, 4)
        twice = acl_small_trace.headers[:1]
        _same_everywhere(twins, lambda clf: _served(clf, twice))
        fresh = random_headers(FIVE_TUPLE, 600, seed=12)
        batch = np.concatenate([fresh[:300], twice, fresh[300:], twice,
                                fresh[:3]])
        last = len(batch) - 4
        ticks = {path: int(clf.cache._tick) for path, clf in twins.items()}
        _same_everywhere(twins, lambda clf: _served(clf, batch))
        key = pack_flow_keys(twice)[:, 0]
        for path, clf in twins.items():
            cache = clf.cache
            s = int(flow_hash(twice)[0] % np.uint64(cache.n_sets))
            (way,) = np.flatnonzero((cache._keyw[s] == key).all(axis=1))
            assert cache._stamp[s, way] == ticks[path] + last, path

    def test_a_batch_takes_the_serves_rule(self, native_kernel, monkeypatch):
        """Owners are ``min(ceiling, distinct // MIN_OWNED)``, the distinct
        misses being the cache's last batch's (1 when it had none): a
        ceiling of 4 here, 1 under ``taskset -c 0`` and in a forked shard
        owner."""
        monkeypatch.setattr(native, "host_cpus", lambda: 4)
        least = native.MIN_OWNED
        for distinct, k in ((least - 1, 1), (2 * least, 2), (3 * least + 5, 3),
                            (8 * least, 4)):
            fresh = random_headers(FIVE_TUPLE, distinct, seed=distinct)
            first, then = _owners_of([fresh, fresh[::-1]])
            assert first[1] == distinct and then[4] == k, distinct
        assert hit_owners() == 1


class TestCachedServeErrors:
    """A batch that fails its walk through the cache fails as the three
    calls do, at every owner count: the same exception and message, and
    the tables, counters, clock and outputs the three calls leave."""

    @staticmethod
    def _fails_the_same(twins: dict, headers, error, match: str) -> None:
        said = {}

        def step(clf):
            out = batch_out(len(headers), clf.models_occupancy)
            with pytest.raises(error, match=match) as caught:
                clf.batch_stats(headers, out)
            return [str(caught.value)] + [a.tolist() for a in out if a is not None]

        for path, clf in twins.items():
            if path != "numpy":
                said[path] = _on_path(path, lambda: step(clf))
        for path in said:
            assert said[path] == said["three"], path
            assert _state(twins[path], path) == _state(twins["three"], path)

    @staticmethod
    def _warm(clf_of, headers, entries=64):
        """Twins on the native paths, each cache warm with ``headers``."""
        twins = {path: CachedClassifier(clf_of(path), entries=entries)
                 for path in PATHS if path != "numpy"}
        for path, clf in twins.items():
            _on_path(path, lambda: clf.batch_stats(headers))
        return twins

    def test_a_wide_header_among_hits_and_misses(
        self, native_kernel, acl_small, acl_small_trace
    ):
        clf = AcceleratorClassifier(acl_small)
        headers = acl_small_trace.headers
        for wide_at in (0, 150, 399):
            twins = self._warm(lambda path: clf, headers[:200])
            batch = headers[100:500].copy()   # half hits, half misses
            batch[wide_at, 4] = 256   # the protocol field is 8 bits wide
            self._fails_the_same(twins, batch, PacketFormatError,
                                 "trace field 4 exceeds field width")

    @pytest.mark.parametrize("ranged_first", [True, False])
    def test_the_failing_miss_last_seen_first_names_the_error(
        self, native_kernel, acl_small, acl_small_trace, ranged_first
    ):
        """One leaf runs past its table (a range error), every pointer to
        another is turned back to the root (a step-guard error): the
        failing distinct miss whose last miss comes first names the
        error, whichever owner holds it."""
        clf = AcceleratorClassifier(acl_small)
        flat = clf.tree.flat
        headers = acl_small_trace.headers
        leaf_of = flat.batch_lookup(acl_small_trace).leaf_id
        early, late = leaf_of[leaf_of >= 0][[0, -1]]
        ends_in = {leaf: headers[leaf_of == leaf] for leaf in (early, late)}
        ranged, looped = (early, late) if ranged_first else (late, early)
        a, b = ends_in[ranged][:40], ends_in[looped][:40]
        # Every `a` header is seen again after every `b` one, except
        # the last `b`, which is seen last of all.
        batch = np.concatenate([b[:-1], a, b[:-1], b[-1:], headers[:200]])
        twins = self._warm(lambda path: clf, headers[:200])
        saved = flat.leaf_len.copy(), flat.children.copy()
        flat.leaf_len[ranged] = 1 << 40
        flat.children[flat.children == looped] = 0
        try:
            self._fails_the_same(twins, batch, BuildError, "left its tables")
        finally:
            flat.leaf_len[:], flat.children[:] = saved

    @pytest.mark.parametrize("ranged_first", [True, False])
    def test_the_failing_miss_last_seen_first_in_the_second_owner(
        self, native_kernel, acl_small, acl_small_trace, ranged_first
    ):
        """Two leaves fail, one (a range error) for headers of the upper
        half of the sets only, the second owner's at k = 2, the other (a
        step-guard error) for the lower half's: the one whose failing
        distinct miss was last seen first names the error, in either
        owner."""
        clf = AcceleratorClassifier(acl_small)
        flat = clf.tree.flat
        headers = acl_small_trace.headers
        leaf_of = flat.batch_lookup(acl_small_trace).leaf_id
        upper = flow_hash(headers) % np.uint64(16) >= 8   # 64 entries, 4 ways
        counts = np.bincount(leaf_of[leaf_of >= 0], minlength=flat.n_nodes)
        ranged, looped = np.argsort(counts)[-2:]
        a = headers[(leaf_of == ranged) & upper][:20]
        b = headers[(leaf_of == looped) & ~upper][:20]
        assert len(a) and len(b)
        first, second = (a, b) if ranged_first else (b, a)
        # `first` is seen again after `second` but the last `second` header.
        batch = np.concatenate([second[:-1], first, second[:-1], second[-1:],
                                headers[:200]])
        twins = self._warm(lambda path: clf, headers[:200])
        saved = flat.leaf_len.copy(), flat.children.copy()
        flat.leaf_len[ranged] = 1 << 40
        flat.children[flat.children == looped] = 0
        try:
            self._fails_the_same(twins, batch, BuildError, "left its tables"
                                 if ranged_first else "did not terminate")
        finally:
            flat.leaf_len[:], flat.children[:] = saved

    def test_one_corrupt_leaf_among_good_misses(
        self, native_kernel, acl_small, acl_small_trace
    ):
        """Only the misses that end in one leaf fail: the owners whose
        walks succeeded fill nothing either."""
        clf = AcceleratorClassifier(acl_small)
        flat = clf.tree.flat
        headers = acl_small_trace.headers
        leaf_of = flat.batch_lookup(acl_small_trace).leaf_id
        leaf = np.bincount(leaf_of[leaf_of >= 0]).argmax()
        twins = self._warm(lambda path: clf, headers[:200])
        good = headers[100:900][leaf_of[100:900] != leaf]
        batch = np.concatenate([good, headers[leaf_of == leaf][:1], good])
        saved = flat.leaf_len[leaf]
        flat.leaf_len[leaf] = 1 << 40
        try:
            self._fails_the_same(twins, batch, BuildError, "left its tables")
        finally:
            flat.leaf_len[leaf] = saved

    #: Every corrupt-table case of ``test_native.TestCorruptTables``:
    #: (tree, buffer, cell, value, message).
    CORRUPT_TABLES = [
        ("grid", "children", "all", 0, "did not terminate"),
        ("grid", "children", "past", None, "left its tables"),
        ("grid", "leaf_len", "leaf", 1 << 40, "left its tables"),
        ("grid", "leaf_base", "leaf", -3, "left its tables"),
        ("grid", "child_len", "internal", 0, "left its tables"),
        ("grid", "child_base", "internal", 1 << 40, "left its tables"),
        ("grid", "ax_stride", "axis", 1 << 20, "left its tables"),
        ("grid", "ax_dim", "axis", 9, "left its tables"),
        ("software", "push_len", "pushed", 1 << 40, "left its tables"),
        ("software", "push_base", "pushed", -1, "left its tables"),
        ("software", "ax_span", "axis", 0, "left its tables"),
    ]

    @pytest.mark.parametrize("tree,buffer,cell,value,message", CORRUPT_TABLES)
    def test_a_corrupt_table(
        self, native_kernel, acl_small, acl_small_trace, tree, buffer, cell,
        value, message
    ):
        if tree == "grid":
            clf = AcceleratorClassifier(acl_small)
            headers = acl_small_trace.headers
        else:
            demo = RuleSet(make_demo_ruleset(), DEMO_SCHEMA, "table1")
            clf = DecisionTreeClassifier(demo, algorithm="hypercuts",
                                         binth=2, spfac=4)
            headers = random_headers(DEMO_SCHEMA, 500, seed=5)
        flat = clf.tree.flat
        assert tree == "grid" or (flat.has_pushed and not flat.pow2)
        twins = self._warm(lambda path: clf, headers[:200])
        root = test_native._first_internal(flat)
        index = {
            "all": slice(None), "past": flat.children >= 0,
            "leaf": flat.kind == 1, "internal": root, "axis": (0, root),
            "pushed": flat.push_len > 0,
        }[cell]
        if value is None:
            value = flat.n_nodes + 7
        saved = getattr(flat, buffer).copy()
        test_native._corrupt(flat, buffer, index, value)
        try:
            self._fails_the_same(twins, headers, BuildError, message)
        finally:
            getattr(flat, buffer)[:] = saved

    @pytest.mark.parametrize(
        "corrupt", sorted(test_native.TestCorruptTables.CORRUPT_PLACEMENTS))
    def test_a_corrupt_placement(
        self, native_kernel, acl_small, acl_small_trace, corrupt
    ):
        clf = AcceleratorClassifier(acl_small)
        acc = clf.accelerator
        headers = acl_small_trace.headers
        twins = self._warm(lambda path: clf, headers[:200])
        saved = acc._placement
        acc._placement = native.place(
            *test_native.TestCorruptTables.CORRUPT_PLACEMENTS[corrupt](
                acc._pos, acc._nrules, RULES_PER_WORD, acc._max_value))
        try:
            self._fails_the_same(twins, headers, BuildError, "left its tables")
        finally:
            acc._placement = saved


class _ThreadsSeen(ClassifierBase):
    """Every header maps to the threads a 65,536-packet native walk of
    the serving process runs on."""

    schema = FIVE_TUPLE

    def classify_batch(self, headers):
        return np.full(len(headers), walk_threads(), np.int64)

    def memory_bytes(self) -> int:
        return 0

    def memory_accesses_per_lookup(self) -> int:
        return 1


def _tasks() -> int:
    return len(os.listdir("/proc/self/task"))


class TestThreadsEndWithTheCall:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no /proc/self/task on this platform")
    def test_no_thread_outlives_a_call(
        self, native_kernel, hw_image_small, acl_small_trace
    ):
        acc = Accelerator(hw_image_small)
        before = threading.active_count(), _tasks()
        for k in THREADS:
            _walk_all(acc, acl_small_trace.headers, k)
            assert (threading.active_count(), _tasks()) == before

    def test_a_forked_run_after_a_threaded_one_is_bit_identical(
        self, native_kernel, monkeypatch, acl_small, acl_small_trace
    ):
        """Threads end with the call that made them, so a process that
        split its walk forks as one that never did."""
        clf = AcceleratorClassifier(acl_small)
        with monkeypatch.context() as patch:
            _forced(patch, 2)
            inline = ClassificationPipeline(clf, chunk_size=500).run(
                acl_small_trace)
        with ClassificationPipeline(
            clf, chunk_size=500, shards=2, shard_mode="processes"
        ) as pipeline:
            forked = pipeline.run(acl_small_trace)
            assert pipeline.plan(acl_small_trace.n_packets).forks
        assert np.array_equal(inline.match, forked.match)
        assert np.array_equal(inline.occupancy, forked.occupancy)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no /proc/self/task on this platform")
    def test_no_thread_outlives_a_split_cached_serve(
        self, native_kernel, acl_small, acl_small_trace
    ):
        clf = CachedClassifier(AcceleratorClassifier(acl_small), entries=64)
        before = threading.active_count(), _tasks()
        for k in THREADS:
            counts = np.zeros(5, np.int64)
            headers = clf.cache._prepare(acl_small_trace.headers)
            match, occupancy, tally = batch_out(len(headers), True)
            assert native.serve(clf.cache, clf.classifier.miss_walk, headers,
                                counts, match, occupancy, 1, tally,
                                threads=k) == 0
            assert counts[4] == k
            assert (threading.active_count(), _tasks()) == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no /proc/self/task on this platform")
    def test_no_thread_outlives_a_split_parse(self, native_kernel):
        text = _ledger_text(4096)
        before = threading.active_count(), _tasks()
        for k in THREADS:
            assert _parse(text, threads=k) == k
            assert (threading.active_count(), _tasks()) == before

    def test_many_calls_of_more_jobs_than_cpus_all_end(
        self, native_kernel, acl_small, hw_image_small, acl_small_trace
    ):
        """Eight jobs a call, more than this host's CPUs: 100 walks,
        cached serves and parses in a row, on a daemon thread given a
        minute, each the one-thread answer (a lost wake-up at the split's
        barrier would hang one)."""
        acc, clf = Accelerator(hw_image_small), AcceleratorClassifier(acl_small)
        headers, text = acl_small_trace.headers, _ledger_text(512)

        def serve(k):
            cache = CachedClassifier(clf, entries=64).cache
            counts = np.zeros(5, np.int64)
            match, occupancy, tally = batch_out(len(headers), True)
            assert native.serve(cache, clf.miss_walk, cache._prepare(headers),
                                counts, match, occupancy, 1, tally,
                                threads=k) == 0
            return match.tolist(), occupancy.tolist(), counts.tolist()[:4]

        def answers(k):
            return ([a.tolist() for a in _walk_all(acc, headers, k)],
                    serve(k), _parse(text, threads=k))

        want = (*answers(1)[:2], 8)
        same = []
        runner = threading.Thread(target=lambda: same.extend(
            answers(8) == want for _ in range(100)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive() and same == [True] * 100

    def test_a_16k_line_parse_takes_the_rule(self, native_kernel):
        assert parse_threads() == min(native.thread_ceiling(),
                                      16384 // native.MIN_LINES)

    def test_a_forked_run_after_a_split_serve_is_bit_identical(
        self, native_kernel, acl_small, acl_small_trace
    ):
        """A process that served its cache on k owners forks as one that
        served it on one: the same cache state, the same forked run."""
        acc = AcceleratorClassifier(acl_small)
        runs = []
        for k in (1, 3):
            clf = CachedClassifier(acc, entries=64)
            with pytest.MonkeyPatch.context() as patch:
                _forced(patch, k)
                clf.batch_stats(acl_small_trace.headers[:900])
            with ClassificationPipeline(
                clf, chunk_size=500, shards=2, shard_mode="processes"
            ) as pipeline:
                report = pipeline.run(acl_small_trace)
                assert pipeline.plan(acl_small_trace.n_packets).forks
            runs.append((report.match, report.occupancy, report.cache_hits,
                         report.cache_misses, report.cache_evictions))
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_a_walk_takes_the_rule(self, native_kernel):
        assert walk_threads() == min(native.thread_ceiling(),
                                     (1 << 16) // native.MIN_SLICE)

    def test_a_forked_shard_owner_serves_on_one_thread(
        self, native_kernel, monkeypatch
    ):
        monkeypatch.setattr(native, "host_cpus", lambda: 4)
        clf = _ThreadsSeen()
        trace = PacketTrace(random_headers(FIVE_TUPLE, 1000, seed=2), FIVE_TUPLE)
        inline = ClassificationPipeline(clf, chunk_size=250).run(trace)
        assert set(inline.match.tolist()) == {4}
        with ClassificationPipeline(
            clf, chunk_size=250, shards=2, shard_mode="processes"
        ) as pipeline:
            forked = pipeline.run(trace)
            assert pipeline.plan(trace.n_packets).forks
        assert set(forked.match.tolist()) == {1}


# ---------------------------------------------------------------------------
# A thread that cannot start: one thread fewer, the same outputs
# ---------------------------------------------------------------------------
#: Appended to the library's source and linked with
#: ``-Wl,--wrap=pthread_create``: a ``pthread_create`` that refuses every
#: other call with ``EAGAIN``, counting its refusals in ``refused``.
_REFUSING = b"""
#line 1 "refusing_create.c"
#include <errno.h>
int __real_pthread_create(pthread_t *, const pthread_attr_t *,
                          void *(*)(void *), void *);
int refused;
static int calls;

int __wrap_pthread_create(pthread_t *id, const pthread_attr_t *attr,
                          void *(*start)(void *), void *arg)
{
    if (calls++ % 2 == 0)
        return refused++, EAGAIN;
    return __real_pthread_create(id, attr, start, arg);
}
"""


@pytest.fixture(scope="module")
def refusing_build(tmp_path_factory):
    """``(fn, lib)`` of the library built with the refusing
    ``pthread_create``, loaded through ``native._open``."""
    status = native.status()
    if status["kernel"] != "native":
        pytest.skip(f"native kernel unavailable: {status['reason']}")
    path = tmp_path_factory.mktemp("refusing") / "flat_walk-refusing.so"
    subprocess.run(
        [shutil.which("cc") or shutil.which("gcc"), *native.FLAGS,
         "-Wl,--wrap=pthread_create", "-x", "c", "-o", str(path), "-"],
        input=native.source() + _REFUSING, check=True, capture_output=True,
        timeout=native.BUILD_TIMEOUT_S,
    )
    os.chmod(path, 0o755)
    return native._open(str(path))


class _RefusedStarts:
    """Every native call of the suite it is mixed into runs on the
    refusing build."""

    @pytest.fixture(autouse=True)
    def refusing(self, refusing_build, monkeypatch):
        fn, lib = refusing_build
        monkeypatch.setattr(native, "_kernel", native._Kernel(fn=fn, lib=lib))
        return ctypes.c_int.in_dll(lib, "refused")


class TestRefusedStarts(_RefusedStarts):
    def test_every_other_create_is_refused(
        self, refusing, hw_image_small, acl_small_trace
    ):
        """k = 2, 3 and 4 ask for six threads, and three are refused."""
        before = refusing.value
        acc = Accelerator(hw_image_small)
        for k in THREADS:
            _walk_all(acc, acl_small_trace.headers, k)
        assert refusing.value - before == 3


class TestWalkWhenAThreadCannotStart(_RefusedStarts, TestWalk):
    pass


class TestCachedServeWhenAThreadCannotStart(_RefusedStarts, TestCachedServe):
    pass


class TestCachedServeErrorsWhenAThreadCannotStart(
    _RefusedStarts, TestCachedServeErrors
):
    pass


class TestSplitParseWhenAThreadCannotStart(
    _RefusedStarts, test_trace_parse.TestSplitParse
):
    pass


class TestThreadsEndWhenAThreadCannotStart(
    _RefusedStarts, TestThreadsEndWithTheCall
):
    pass


#: ``TestSplitParse`` asks for it by name.
no_fallback = test_trace_parse.no_fallback
