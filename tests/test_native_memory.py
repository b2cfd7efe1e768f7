"""The flow cache's native calls out of memory: on a library whose
``malloc`` and ``calloc`` fail at a chosen call, every allocation of
``fc_serve`` (with the walk at k = 1-4, and without it: the lookup route
and ``FlowCache.probe``) and of ``fc_commit`` fails in turn.

Each failure is ``MemoryError("native flow cache: out of memory")``, and
the cache moves through the same states whichever route served the
batch and whichever allocation failed: an allocation made before the
probe leaves the tables untouched, and any later one (the grouping's
table, the fill's scratch, the commit's) leaves every hit stamped and
nothing filled; the clock moves past the probe either way, as
``FlowCache.serve`` moves it.
"""

from __future__ import annotations

import ctypes
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import native
from repro.core.rules import FIVE_TUPLE
from repro.engine import CachedClassifier
from repro.engine.backends import AcceleratorClassifier
from repro.engine.flowcache import FlowCache

from tests.conftest import random_headers
from tests.test_native_threads import THREADS, _TABLES, _on_path, wrapped_build

#: Appended to the library's source and linked with
#: ``-Wl,--wrap=malloc,--wrap=calloc``: the ``fail_at``-th call counted in
#: ``calls`` returns NULL (``fail_at`` 0: none does).
_FAILING = b"""
#line 1 "failing_malloc.c"
void *__real_malloc(size_t);
void *__real_calloc(size_t, size_t);
long fail_at, calls;

static int fails(void)
{
    return __atomic_add_fetch(&calls, 1, __ATOMIC_RELAXED) == fail_at;
}

void *__wrap_malloc(size_t size)
{
    return fails() ? NULL : __real_malloc(size);
}

void *__wrap_calloc(size_t n, size_t size)
{
    return fails() ? NULL : __real_calloc(n, size);
}
"""

OUT_OF_MEMORY = "native flow cache: out of memory"


@pytest.fixture(scope="module")
def failing_build(tmp_path_factory):
    return wrapped_build(tmp_path_factory, "failing", "malloc,--wrap=calloc",
                         _FAILING)


@pytest.fixture
def failing(failing_build, monkeypatch):
    """Every native call of the test runs on the failing build; its
    ``(fail_at, calls)`` counters."""
    fn, lib = failing_build
    monkeypatch.setattr(native, "_kernel", native._Kernel(fn=fn, lib=lib))
    return tuple(ctypes.c_long.in_dll(lib, name)
                 for name in ("fail_at", "calls"))


def _state(cache: FlowCache, out=()) -> tuple:
    return (*(getattr(cache, name).tobytes() for name in _TABLES),
            int(cache._tick), replace(cache.stats), *(a.tolist() for a in out))


def _states_failing_each_call(failing, route, clf_of, warm, batch) -> list:
    """The state a batch served the ``route`` way (``_on_path``: the
    three calls, or a forced owner count) leaves when its n-th allocation
    fails, for n = 1, 2, ... up to the last allocation it makes, each one
    listed once, in order of n."""
    fail_at, calls = failing
    states = []
    for n in range(1, 100):
        clf = clf_of()
        out = (np.full(len(batch), -7, np.int64),
               np.full(len(batch), -7, np.int64), np.zeros(2, np.int64))

        def serve():
            clf.batch_stats(warm)
            calls.value, fail_at.value = 0, n
            try:
                clf.batch_stats(batch, out)
            finally:
                fail_at.value = 0

        try:
            _on_path(route, serve)
        except MemoryError as caught:
            assert str(caught) == OUT_OF_MEMORY
        else:
            assert calls.value < n, "an allocation failed unseen"
            return states
        state = _state(clf.cache, out)
        if not states or states[-1] != state:
            states.append(state)
    raise AssertionError("a batch that allocates without end")


class TestOutOfMemory:
    def test_every_route_fails_through_the_same_states(
        self, failing, acl_small, acl_small_trace
    ):
        """A warm cache, then a batch of hits among 1,500 distinct misses:
        the grouping's table (2^10 slots first) grows twice mid-batch."""
        backend = AcceleratorClassifier(acl_small)
        warm = acl_small_trace.headers[:200]
        fresh = random_headers(FIVE_TUPLE, 1500, seed=4)
        batch = np.concatenate([fresh[:700], warm, fresh[700:], warm[::-1]])

        def clf_of():
            return CachedClassifier(backend, entries=1024, ways=4)

        said = {route: _states_failing_each_call(failing, route, clf_of,
                                                 warm, batch)
                for route in ("three", 1, *THREADS)}
        untouched, stamped = said["three"]
        assert untouched[:5] != stamped[:5]
        for route, states in said.items():
            assert states == said["three"], route

    def test_a_probe_out_of_memory_moves_only_the_clock(self, failing):
        fail_at, calls = failing
        cache = FlowCache(4096)
        headers = random_headers(FIVE_TUPLE, 300, seed=3)
        cache.fill(headers[:100], np.arange(100, dtype=np.int64))
        before = _state(cache)
        calls.value, fail_at.value = 0, 1
        try:
            with pytest.raises(MemoryError, match=OUT_OF_MEMORY):
                cache.probe(headers)
        finally:
            fail_at.value = 0
        assert calls.value == 1
        tick = before[len(_TABLES)]
        assert _state(cache) == (*before[:len(_TABLES)], tick + 300,
                                   *before[len(_TABLES) + 1:])
        hit, _ = cache.probe(headers)   # and the cache serves on
        assert hit[:100].all() and not hit[100:].any()

    def test_a_fill_out_of_memory_fills_nothing(self, failing):
        fail_at, calls = failing
        cache = FlowCache(64)
        headers = random_headers(FIVE_TUPLE, 50, seed=3)
        cache.fill(headers[:10], np.arange(10, dtype=np.int64))
        before = _state(cache)
        calls.value, fail_at.value = 0, 1
        try:
            with pytest.raises(MemoryError, match=OUT_OF_MEMORY):
                cache.fill(headers[10:], np.arange(40, dtype=np.int64))
        finally:
            fail_at.value = 0
        assert calls.value == 1
        assert _state(cache) == before
