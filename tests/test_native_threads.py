"""The native walk split over threads: every output is the one-thread one.

The walk (``flat_walk``) splits a call into one contiguous packet slice
per thread, each thread created and joined inside the call.  ``threads``
forces a count the rule (:func:`~repro.algorithms.native.threads_for`)
would not pick on inputs this small, so each case runs at k = 2, 3 and 4
against k = 1 and the NumPy oracle.  Also here: a header outside its
field widths is a ``PacketFormatError`` on both kernels, no thread
outlives a call, and a forked shard owner walks on one thread.
"""

from __future__ import annotations

import functools
import os
import threading

import numpy as np
import pytest

from repro import PacketTrace
from repro.algorithms import build_hypercuts, native
from repro.core.errors import BuildError, PacketFormatError
from repro.core.rules import FIVE_TUPLE
from repro.engine import ClassificationPipeline
from repro.engine.backends import AcceleratorClassifier
from repro.engine.protocol import ClassifierBase
from repro.hw import Accelerator

from tests import test_native
from tests.conftest import FIELDS, random_headers

THREADS = (2, 3, 4)


def _forced(monkeypatch, k: int) -> None:
    """Every native walk of the test runs on ``k`` threads, whatever its
    size."""
    monkeypatch.setattr(native, "walk", functools.partial(native.walk, threads=k))


def _walk_all(acc: Accelerator, headers, k: int) -> tuple:
    """The six ``BatchLookup`` fields and the three cycle arrays of one
    native walk on ``k`` threads."""
    n = headers.shape[0]
    match = np.empty(n, np.int64)
    stats = tuple(np.empty(n, np.int32) for _ in range(5))
    cycles = tuple(np.empty(n, np.int64) for _ in range(3))
    assert native.walk(acc.tree.flat._native, headers, match, stats,
                       acc._placement, cycles, threads=k)
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


class _ThreadsSeen(ClassifierBase):
    """Every header maps to the threads a million-packet native walk of
    the serving process would split into."""

    schema = FIVE_TUPLE

    def classify_batch(self, headers):
        return np.full(len(headers), native.threads_for(1 << 20), np.int64)

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

    def test_a_forked_shard_owner_serves_on_one_thread(self, monkeypatch):
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
