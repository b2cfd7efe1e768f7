"""The native library: build, load, fall back, refuse bad tables.

``repro.algorithms.native`` builds ``_flat_walk.c``, ``_flow_cache.c``
and ``_prefilter.c`` with the compiler that is here and loads them once
per process; every way that can fail must leave the portable NumPy
walk, cache and prefilter serving, with the reason recorded and nothing
raised.  The flow-cache kernels must serve every cache geometry as NumPy
does and see no table of the wrong kind, nor may the prefilter's.  The C loop itself must turn what NumPy reported as an
``IndexError`` (a corrupt table) into a :class:`BuildError`, not a
fault.  Identity of the two kernels on real trees is asserted where the
trees are (``test_flat_tree.py``, ``test_match_walk.py``,
``test_flat_patch.py``); the property test at the end draws small random
ones — the first slice of the differential fuzzer (ROADMAP item 6).
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PacketTrace, RuleSet
from repro.core.rules import DEMO_SCHEMA, FIVE_TUPLE
from repro.algorithms import (
    FlatTree,
    IncrementalClassifier,
    build_hypercuts,
    native,
)
from repro.core.errors import BuildError
from repro.engine import CachedClassifier, FlowCache
from repro.engine.flowcache import flow_hash
from repro.core.rules import Rule, make_demo_ruleset
from repro.hw import Accelerator, build_memory_image
from repro.hw.encoding import RULES_PER_WORD
from repro.serve import Engine, EngineConfig

from tests.conftest import FIELDS, random_headers


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """Forget what this process loaded and point the cache at an empty
    directory: the next ``native.status()`` builds from scratch."""
    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "repro-native"


def _fail_compiles(monkeypatch, error) -> None:
    """``cc --version`` still answers; every compile raises ``error``."""
    run = subprocess.run

    def fake(cmd, **kwargs):
        if "--version" in cmd:
            return run(cmd, **kwargs)
        raise error

    monkeypatch.setattr(native.subprocess, "run", fake)


# ---------------------------------------------------------------------------
# Build and load
# ---------------------------------------------------------------------------
class TestBuildAndLoad:
    def test_builds_into_the_user_cache_and_reports_it(
        self, native_kernel, fresh_load
    ):
        status = native.status()
        assert status["kernel"] == "native" and status["reason"] is None
        assert status["compiler"]  # the version line, part of the key
        built = os.listdir(fresh_load)
        assert built == [os.path.basename(status["path"])]  # no temp left
        assert status["path"].startswith(str(fresh_load))

    def test_a_cached_library_is_loaded_not_rebuilt(
        self, native_kernel, fresh_load, monkeypatch
    ):
        path = native.status()["path"]
        stamp = os.stat(path).st_mtime_ns
        monkeypatch.setattr(native, "_kernel", None)
        _fail_compiles(monkeypatch, AssertionError("rebuilt a cached library"))
        assert native.status()["path"] == path
        assert os.stat(path).st_mtime_ns == stamp

    def test_the_source_is_package_data(self):
        """Found the way an installed package finds it (setup.py ships
        ``*.c`` as ``package_data`` of ``repro.algorithms``), not by a
        path relative to the checkout; every file is one part of the one
        translation unit the compile key hashes."""
        code = native.source()
        for name in native.SOURCES:
            found = resources.files("repro.algorithms").joinpath(name)
            assert found.is_file()
            assert b'#line 1 "%s"\n' % name.encode() + found.read_bytes() in code
        assert b"int flat_walk(" in code and b" fc_lookup(" in code

    def test_two_processes_building_at_once_both_load(
        self, native_kernel, fresh_load
    ):
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:  # spawn: nothing loaded is inherited
            found = pool.map(_status_in_a_fresh_process, [str(fresh_load)] * 2)
        assert [s["kernel"] for s in found] == ["native", "native"]
        assert len({s["path"] for s in found}) == 1
        assert os.listdir(fresh_load) == [os.path.basename(found[0]["path"])]


def _status_in_a_fresh_process(cache: str) -> dict:
    os.environ["XDG_CACHE_HOME"] = os.path.dirname(cache)
    return native.status()


# ---------------------------------------------------------------------------
# Every failure leaves the portable walk, with its reason
# ---------------------------------------------------------------------------
class TestFallback:
    def test_no_compiler(self, fresh_load, monkeypatch):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        status = native.status()
        assert status["kernel"] == "portable"
        assert "no C compiler" in status["reason"]
        assert status["compiler"] is None and status["path"] is None

    @pytest.mark.parametrize("error,said", [
        (subprocess.CalledProcessError(1, "cc", stderr=b"x.c:1: error: no"),
         "non-zero exit status 1. x.c:1: error: no"),
        (subprocess.TimeoutExpired("cc", native.BUILD_TIMEOUT_S), "timed out"),
    ], ids=["non-zero-exit", "timeout"])
    def test_compiler_fails(
        self, native_kernel, fresh_load, monkeypatch, error, said
    ):
        monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(fresh_load))
        _fail_compiles(monkeypatch, error)
        status = native.status()
        assert status["kernel"] == "portable"
        assert said in status["reason"]  # the compiler's own words
        assert status["compiler"]  # it did answer --version
        assert os.listdir(fresh_load) == []  # the temp file is gone

    def test_unwritable_cache_falls_to_the_temp_dir_then_to_portable(
        self, native_kernel, fresh_load, monkeypatch, tmp_path
    ):
        fresh_load.parent.mkdir()
        fresh_load.write_text("a file where the cache directory should be")
        monkeypatch.setattr(
            native.tempfile, "gettempdir", lambda: str(tmp_path / "tmp")
        )
        (tmp_path / "tmp").mkdir()
        status = native.status()
        assert status["kernel"] == "native"
        assert status["path"].startswith(str(tmp_path / "tmp"))
        # ... and with the temp dir no better, the portable walk.
        monkeypatch.setattr(native, "_kernel", None)
        monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(fresh_load))
        status = native.status()
        assert status["kernel"] == "portable"
        assert str(fresh_load) in status["reason"]

    def test_a_truncated_cached_library_is_rebuilt_once(
        self, native_kernel, fresh_load
    ):
        # What a killed writer without the temp-name + ``os.replace``
        # step would have left: the head of the file, under the final
        # name (same key in every directory), never loaded by anyone.
        path = fresh_load / os.path.basename(native_kernel.path)
        fresh_load.mkdir(parents=True)
        with open(native_kernel.path, "rb") as fh:
            path.write_bytes(fh.read(48))
        assert native.status() == {
            "kernel": "native", "reason": None, "path": str(path),
            "compiler": native_kernel.compiler,
        }
        assert path.stat().st_size == os.path.getsize(native_kernel.path)

    def test_a_library_others_could_write_is_not_loaded(
        self, native_kernel, fresh_load, monkeypatch
    ):
        path = native.status()["path"]
        os.chmod(path, 0o777)  # as found in a shared temp directory
        monkeypatch.setattr(native, "_kernel", None)
        assert native.status()["path"] == path  # rebuilt in place, ours
        assert os.stat(path).st_mode & 0o022 == 0

    def test_a_library_that_stays_unloadable_is_portable(
        self, native_kernel, fresh_load, monkeypatch
    ):
        monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(fresh_load))
        monkeypatch.setattr(  # "builds" an empty file: dlopen refuses it
            native, "_compile", lambda cc, code, path: open(path, "wb").close()
        )
        fresh_load.mkdir(parents=True)
        status = native.status()
        assert status["kernel"] == "portable"
        assert "flat_walk-" in status["reason"]

    def test_engine_serves_the_oracle_after_a_failed_build(
        self, fresh_load, monkeypatch, acl_small, acl_small_trace,
        acl_small_oracle,
    ):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        config = EngineConfig(backend="hypercuts", cache_entries=512)
        with Engine.open(config, acl_small) as engine:
            assert native.status()["kernel"] == "portable"
            report = engine.classify(acl_small_trace)
        assert np.array_equal(report.match, acl_small_oracle)


# ---------------------------------------------------------------------------
# The C loop refuses what NumPy refused
# ---------------------------------------------------------------------------
def _corrupt(flat, buffer, index, value):
    """Overwrite one cell in place: the pointer table stays valid."""
    getattr(flat, buffer)[index] = value


def _first_internal(flat) -> int:
    return int(np.flatnonzero(flat.kind != 1)[0])


class TestCorruptTables:
    @pytest.fixture
    def software_flat(self):
        ruleset = RuleSet(make_demo_ruleset(), DEMO_SCHEMA, "table1")
        tree = build_hypercuts(ruleset, binth=2, spfac=4, hw_mode=False)
        flat = FlatTree(tree)
        assert flat.has_pushed and not flat.pow2
        return flat, PacketTrace(random_headers(DEMO_SCHEMA, 500, seed=5),
                                 DEMO_SCHEMA)

    def test_a_cyclic_children_table_hits_the_step_guard(
        self, native_kernel, hw_tree_small, acl_small_trace
    ):
        flat = FlatTree(hw_tree_small)
        flat.children[:] = 0  # every child of the root is the root
        with pytest.raises(BuildError, match="did not terminate"):
            flat.batch_lookup(acl_small_trace)
        with pytest.raises(BuildError, match="did not terminate"):
            flat.batch_match(acl_small_trace.headers)

    def test_a_child_id_past_the_last_node(
        self, native_kernel, hw_tree_small, acl_small_trace
    ):
        flat = FlatTree(hw_tree_small)
        flat.children[flat.children >= 0] = flat.n_nodes + 7
        with pytest.raises(BuildError, match="left its tables"):
            flat.batch_lookup(acl_small_trace)

    @pytest.mark.parametrize("buffer,cell,value", [
        ("leaf_len", "leaf", 1 << 40),      # list runs past the leaf table
        ("leaf_base", "leaf", -3),
        ("child_len", "internal", 0),       # slot outside the node's row
        ("child_base", "internal", 1 << 40),
        ("ax_stride", "axis", 1 << 20),     # slot computed out of the row
        ("ax_dim", "axis", 9),              # a header field that is not there
    ])
    def test_grid_tables(
        self, native_kernel, hw_tree_small, acl_small_trace, buffer, cell, value
    ):
        flat = FlatTree(hw_tree_small)
        root = _first_internal(flat)
        index = {
            "leaf": flat.kind == 1, "internal": root, "axis": (0, root),
        }[cell]
        _corrupt(flat, buffer, index, value)
        with pytest.raises(BuildError, match="left its tables"):
            flat.batch_lookup(acl_small_trace)

    @pytest.mark.parametrize("buffer,value", [
        ("push_len", 1 << 40), ("push_base", -1), ("ax_span", 0),
    ])
    def test_software_tables(self, native_kernel, software_flat, buffer, value):
        flat, trace = software_flat
        if buffer == "ax_span":
            index = (0, _first_internal(flat))
        else:
            index = flat.push_len > 0
        _corrupt(flat, buffer, index, value)
        with pytest.raises(BuildError, match="left its tables"):
            flat.batch_lookup(trace)

    def test_an_array_of_the_wrong_kind_is_refused_before_the_call(
        self, native_kernel, hw_tree_small, acl_small_trace
    ):
        flat = FlatTree(hw_tree_small)
        n = acl_small_trace.n_packets
        with pytest.raises(BuildError, match="match is not a C-contiguous int64"):
            native.walk(flat._native, acl_small_trace.headers,
                        np.zeros(n, dtype=np.int32))
        with pytest.raises(BuildError, match="headers is not"):
            native.walk(flat._native, acl_small_trace.headers[:, :4].copy(),
                        np.zeros(n, dtype=np.int64))
        flat.children = flat.children.astype(np.int64)
        with pytest.raises(BuildError, match="children is not"):
            native.bind(flat)
        pos = np.zeros(flat.n_nodes, dtype=np.int32)
        with pytest.raises(BuildError, match="pos is not"):
            native.place(pos, pos.astype(np.int64), RULES_PER_WORD)

    #: Placements an accelerator's cycle count must refuse, each made from
    #: the valid ``(pos, n_rules, rules per word)``.
    CORRUPT_PLACEMENTS = {
        "leaf id past the table": lambda pos, nr, w: (pos[:1], nr[:1], w),
        "negative pos": lambda pos, nr, w: (np.where(nr > 0, -1, pos), nr, w),
        "pos past its word": lambda pos, nr, w: (np.where(nr > 0, w, pos), nr, w),
        "rule count past int32": lambda pos, nr, w: (pos, nr << 40, w),
        "no slots per word": lambda pos, nr, w: (pos, nr, 0),
    }

    @pytest.mark.parametrize("corrupt", sorted(CORRUPT_PLACEMENTS))
    def test_placement_tables(
        self, native_kernel, hw_image_small, acl_small_trace, corrupt
    ):
        acc = Accelerator(hw_image_small)
        acc._placement = native.place(*self.CORRUPT_PLACEMENTS[corrupt](
            acc._pos, acc._nrules, RULES_PER_WORD
        ))
        with pytest.raises(BuildError, match="left its tables"):
            acc.run_trace(acl_small_trace)
        with pytest.raises(BuildError, match="left its tables"):
            acc.match_occupancy(acl_small_trace)


# ---------------------------------------------------------------------------
# The flow-cache kernels: every geometry, and no bad table reaches C
# ---------------------------------------------------------------------------
class _ColumnSum:
    """A backend for any header width: result = column sum mod 11, -1."""

    backend_name = "column-sum"

    def classify_batch(self, headers):
        return headers.astype(np.int64).sum(axis=1) % 11 - 1

    def memory_bytes(self) -> int:
        return 0

    def memory_accesses_per_lookup(self) -> int:
        return 1


def _cache_state(cache: FlowCache) -> tuple:
    return (
        *(getattr(cache, name).tobytes() for name in
          ("_keyw", "_result", "_stamp", "_epoch", "_filled")),
        int(cache._tick), cache.stats,
    )


class TestCacheGeometries:
    @pytest.mark.parametrize("entries,ways,ndim", [
        (8, 8, 5),                  # ways == entries: one set
        (512, 512, 2),              # ...with far more ways than 64
        (64, 1, 4),                 # one way
        (4 * 70_000, 4, 5),         # 70,000 sets: the modulo index
        (2 * (1 << 17), 2, 3),      # 131,072 sets: the mask index
        *((384, 4, ndim) for ndim in range(1, 7)),  # odd and even widths
    ])
    def test_native_serves_what_numpy_serves(
        self, native_kernel, monkeypatch, entries, ways, ndim
    ):
        rng = np.random.default_rng(entries + ways + ndim)
        size = min(entries, 4096)  # a few thousand flows reach every set
        flows = rng.integers(0, 1 << 32, (3 * size // 2 + 7, ndim),
                             dtype=np.uint32)
        flows[::5, 0] = 7  # rows that share their first word
        twins = [CachedClassifier(_ColumnSum(), entries=entries, ways=ways)
                 for _ in range(2)]
        for step in range(6):
            batch = flows[rng.integers(0, len(flows), 2 * size + 50)]
            served = []
            for clf, portable in zip(twins, (False, True)):
                with monkeypatch.context() as patch:
                    if portable:
                        patch.setattr(native, "_kernel",
                                      native._Kernel(reason="oracle side"))
                    out = clf.batch_stats(batch)
                    served.append((out.match.tolist(), out.cache_hits,
                                   out.cache_misses, out.cache_evictions))
                    if step == 3:
                        clf.invalidate_cache()
            assert served[0] == served[1]
            assert _cache_state(twins[0].cache) == _cache_state(twins[1].cache)
        stats = twins[0].cache.stats
        assert stats.hits and (stats.evictions or entries > size)

    @pytest.fixture
    def warm(self):
        """A cache holding 200 flows, and one lookup of a batch half of
        them, half new (and every row twice)."""
        cache = FlowCache(64, ways=4)
        flows = random_headers(FIVE_TUPLE, 300, seed=3)
        cache.fill(flows[:200], np.arange(200, dtype=np.int64))
        headers = np.tile(flows[100:300], (2, 1))
        return cache, headers, native.lookup(cache, headers)

    #: ``FlowCache`` tables a C loop must never see, each made from the
    #: valid one: wrong dtype, wrong shape, not C-contiguous.
    CORRUPT_TABLES = {
        "_keyw": lambda t: t.view(np.int64),
        "_result": lambda t: t.astype(np.int32),
        "_stamp": lambda t: t[:-1],
        "_epoch": lambda t: np.asfortranarray(t),
        "_filled": lambda t: t.reshape(t.shape[::-1]),
    }

    @pytest.mark.parametrize("table", sorted(CORRUPT_TABLES))
    def test_a_table_of_the_wrong_kind_is_refused_before_the_call(
        self, native_kernel, warm, table
    ):
        cache, headers, (_, _, _, uniq, sets) = warm
        setattr(cache, table, self.CORRUPT_TABLES[table](getattr(cache, table)))
        with pytest.raises(BuildError, match=f"{table} is not a C-contiguous"):
            native.lookup(cache, headers)
        with pytest.raises(BuildError, match=f"{table} is not a C-contiguous"):
            native.commit(cache, uniq, sets, np.zeros(len(uniq), np.int64))

    def test_an_input_of_the_wrong_kind_is_refused_before_the_call(
        self, native_kernel, warm
    ):
        cache, headers, (match, misses, rank, uniq, sets) = warm
        nd = len(uniq)
        results = np.zeros(nd, np.int64)
        # int64, another width, strided
        for bad in (headers.astype(np.int64), headers[:, :4].copy(),
                    headers[::2]):
            with pytest.raises(BuildError, match="headers is not"):
                native.lookup(cache, bad)
        commits = {  # name in the message -> the commit's arguments
            "uniq": (uniq.astype(np.int64), sets, results),
            "uniq ": (uniq[:, :3].copy(), sets, results),
            "sets": (uniq, sets.astype(np.int32), results),
            "results": (uniq, sets, results[:-1]),  # not one per row
            "results ": (uniq, sets, np.zeros(nd, np.int32)),
            "cycles": (uniq, sets, results, results[:-1]),
            "misses": (uniq, sets, results, None, misses[::2], rank, match),
            "rank": (uniq, sets, results, None, misses, rank[1:], match),
            "rank ": (uniq, sets, results, None, misses, None, match),
            "match": (uniq, sets, results, None, misses, rank,
                      match.astype(np.int32)),
            "match ": (uniq, sets, results, None, misses, rank, None),
        }
        for name, args in commits.items():
            with pytest.raises(BuildError, match=f"{name.strip()} is not"):
                native.commit(cache, *args)

    def test_a_zero_entry_cache_is_refused_before_the_call(
        self, native_kernel
    ):
        # No set to index: the C loops would read past the tables.
        cache, headers = FlowCache(0), random_headers(FIVE_TUPLE, 10, seed=1)
        with pytest.raises(BuildError, match="zero-entry"):
            cache.lookup(headers)
        with pytest.raises(BuildError, match="zero-entry"):
            cache.commit(headers, None, np.zeros(10, np.int64))

    @pytest.mark.parametrize("where,bad", [
        ("sets", -1), ("sets", 16),  # 64 entries / 4 ways: sets 0..15
        ("misses", -1), ("misses", 400),  # 400 headers
        ("rank", -1), ("rank", "distinct"),
    ])
    def test_an_index_outside_its_table_writes_nothing(
        self, native_kernel, warm, where, bad
    ):
        cache, _, (match, misses, rank, uniq, sets) = warm
        arrays = {"sets": sets.copy(), "misses": misses.copy(),
                  "rank": rank.copy()}
        arrays[where][-1] = len(uniq) if bad == "distinct" else bad
        cycles = np.ones(len(uniq), np.int64)
        before, served = _cache_state(cache), match.copy()
        with pytest.raises(BuildError, match="outside its table"):
            native.commit(cache, uniq, arrays["sets"],
                          np.zeros(len(uniq), np.int64), cycles,
                          arrays["misses"], arrays["rank"], match)
        assert _cache_state(cache) == before
        assert np.array_equal(match, served)


class TestPrefilterRefusals:
    """The prefilter's C calls (``pf_hash``, ``pf_probe``, ``pf_insert``)
    see no array of the wrong kind, and a probe writes nothing when it
    is handed fewer rows or hashes than outputs."""

    @pytest.fixture
    def memo(self):
        """64 rows holding ten flows and their verdicts, -1 to 8."""
        slots = np.zeros((64, 6), np.uint32)
        rows = random_headers(FIVE_TUPLE, 10, seed=2)
        h, verdicts = flow_hash(rows), np.arange(-1, 9, dtype=np.int64)
        assert native.memo_insert(slots, rows, h, verdicts, 0)
        return slots, rows, h, verdicts

    def test_the_hash_refuses_an_input_of_the_wrong_kind(self, native_kernel):
        rows = random_headers(FIVE_TUPLE, 20, seed=1)
        out = np.empty(20, np.uint64)
        calls = {  # the message (padded to a distinct key) -> arguments
            "rows is not": (rows.astype(np.int64), out),
            "rows is not ": (rows[:10].copy(), out),  # fewer rows than out
            "rows is not  ": (np.asfortranarray(rows), out),
            "out is not": (rows, out.astype(np.int64)),
            "out is not ": (rows, np.empty(40, np.uint64)[::2]),
        }
        for name, args in calls.items():
            with pytest.raises(BuildError, match=name.strip()):
                native.flow_hash(*args)

    def test_the_probe_refuses_an_input_of_the_wrong_kind(
        self, native_kernel, memo
    ):
        slots, rows, h, verdicts = memo
        out = np.full(10, 7, np.int64)
        calls = {
            "slots is not": (slots.view(np.int32), rows, h, out),
            "slots is not ": (np.asfortranarray(slots), rows, h, out),
            "not a power of two": (slots[:48].copy(), rows, h, out),
            "rows is not": (slots, rows.astype(np.int64), h, out),
            "rows is not ": (slots, rows[:-1], h, out),  # shorter than out
            "rows is not  ": (slots, np.asfortranarray(rows), h, out),
            "h is not": (slots, rows, h.astype(np.int64), out),
            "h is not ": (slots, rows, np.repeat(h, 2)[::2], out),
            "h is not  ": (slots, rows, h[:-1], out),  # shorter than out
            "out is not": (slots, rows, h, out.astype(np.int32)),
        }
        for name, args in calls.items():
            with pytest.raises(BuildError, match=name.strip()):
                native.memo_probe(*args)
        assert out.tolist() == [7] * 10  # nothing written
        assert native.memo_probe(slots, rows, h, out).size == 0
        assert out.tolist() == verdicts.tolist()

    def test_a_table_whose_width_is_not_ndim_plus_one_is_refused(
        self, native_kernel, memo
    ):
        slots, rows, h, verdicts = memo
        before = slots.copy()
        for table in (slots[:, :5].copy(), np.zeros((64, 7), np.uint32)):
            with pytest.raises(BuildError, match="slots is not"):
                native.memo_probe(table, rows, h, np.empty(10, np.int64))
            with pytest.raises(BuildError, match="slots is not"):
                native.memo_insert(table, rows, h, verdicts, 0)
        # Rows one column narrower than the table are refused the same way.
        narrow = np.ascontiguousarray(rows[:, :4])
        with pytest.raises(BuildError, match="slots is not"):
            native.memo_probe(slots, narrow, h, np.empty(10, np.int64))
        assert np.array_equal(slots, before)

    def test_a_memo_with_no_empty_slot_is_an_error_not_a_hang(
        self, native_kernel, memo
    ):
        _, rows, h, _ = memo
        full = np.ones((64, 6), np.uint32)  # no probe of a new flow ends
        with pytest.raises(BuildError, match="no empty slot"):
            native.memo_probe(full, rows, h, np.empty(10, np.int64))

    def test_the_insert_refuses_an_input_of_the_wrong_kind(
        self, native_kernel, memo
    ):
        slots, rows, h, verdicts = memo
        new = rows + np.uint32(1)
        new_h = flow_hash(new)
        before = slots.copy()
        calls = {
            "rows is not": (slots, new.astype(np.int64), new_h, verdicts, 10),
            "rows is not ": (slots, np.asfortranarray(new), new_h, verdicts,
                             10),
            "h is not": (slots, new, new_h.astype(np.int64), verdicts, 10),
            "h is not ": (slots, new, np.repeat(new_h, 2)[::2], verdicts, 10),
            "verdicts is not": (slots, new, new_h, verdicts[1:], 10),
            "slots is not": (np.asfortranarray(slots), new, new_h, verdicts,
                             10),
            "past half": (slots, new, new_h, verdicts, 23),  # 33 of 64
            "past half ": (slots, new, new_h, verdicts, -1),
            "below -1": (slots, new, new_h, verdicts - 1, 10),
            "past the uint32 tag": (slots, new, new_h, verdicts + 2**32, 10),
        }
        for name, args in calls.items():
            with pytest.raises(BuildError, match=name.strip()):
                native.memo_insert(*args)
        assert np.array_equal(slots, before)


# ---------------------------------------------------------------------------
# Property: native == portable == reference (first slice of ROADMAP item 6)
# ---------------------------------------------------------------------------
_field = st.integers(0, 255)
_range = st.tuples(_field, _field).map(lambda p: (min(p), max(p)))
_rule = st.tuples(*[_range] * DEMO_SCHEMA.ndim).map(lambda r: Rule(ranges=r))
_update = st.one_of(_rule, st.integers(0, 1 << 16))  # insert | remove by index

#: ``AcceleratorRun``'s per-packet arrays.
_RUN_FIELDS = ("match", "occupancy", "internal_fetches", "leaf_words")


def _widen(value: int, width: int, low: int) -> int:
    """A drawn 8-bit value as the top bits of a ``width``-bit field (the
    grid an accelerator tree cuts), ``low`` filling the bits below."""
    shift = width - 8
    return (value << shift) | (low & ((1 << shift) - 1))


def _widen_rule(rule: Rule) -> Rule:
    """A drawn rule as one the accelerator can encode: IP ranges become
    the aligned prefix block of their size, the protocol exact or any."""
    (sip, dip, sport, dport, (plo, phi)) = rule.ranges
    prefixes = []
    for lo, hi in (sip, dip):
        size = 1 << ((hi - lo + 1).bit_length() - 1)
        lo &= -size
        prefixes.append((lo, lo + size - 1))
    proto = (0, 255) if phi - plo >= 128 else (plo, plo)
    return Rule(ranges=tuple(
        (_widen(lo, w, 0), _widen(hi, w, -1))
        for (lo, hi), w in zip(
            (*prefixes, sport, dport, proto), FIVE_TUPLE.widths
        )
    ))


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
@given(
    rules=st.lists(_rule, min_size=3, max_size=10),
    algorithm=st.sampled_from(["hicuts", "hypercuts"]),
    hw_mode=st.booleans(),
    binth=st.sampled_from([3, 5]),
    headers=st.lists(st.tuples(*[_field] * DEMO_SCHEMA.ndim),
                     min_size=1, max_size=48),
    updates=st.lists(_update, max_size=4),
    schema=st.sampled_from([DEMO_SCHEMA, FIVE_TUPLE]),
)
def test_native_portable_and_reference_agree(
    rules, algorithm, hw_mode, binth, headers, updates, schema
):
    """Small random rulesets x (hw_mode, software) x headers, then a few
    inserts / removes through ``FlatTree.patch``: six fields and dtypes
    of both kernels against the reference after every step.  Drawn on
    8-bit fields, or widened into the 5-tuple; there a grid tree is also
    placed at speed 0 and 1, and ``Accelerator.run_trace`` on the native
    walk (which counts the cycles in the C loop) must equal it on the
    portable one (the NumPy formula) — on the trace and on no packets;
    removals leave leaves with no rules.  (Written without fixtures:
    hypothesis re-runs the body per example.)"""
    if schema is FIVE_TUPLE:
        rules = [_widen_rule(r) for r in rules]
        updates = [_widen_rule(u) if isinstance(u, Rule) else u for u in updates]
        headers = [
            tuple(_widen(v, w, v * 0x9E3779B9) for v, w in zip(h, schema.widths))
            for h in headers
        ]
    inc = IncrementalClassifier(
        RuleSet(rules, schema, "drawn"), algorithm=algorithm,
        binth=binth, spfac=2, hw_mode=hw_mode,  # a small cut search
    )
    # Packets that land on rule corners as well as the drawn ones.
    corners = [tuple(lo for lo, _ in r.ranges) for r in rules[:8]]
    trace = PacketTrace(np.asarray(headers + corners, dtype=np.uint32), schema)
    tree = inc.tree
    placed = hw_mode and schema is FIVE_TUPLE
    loaded = native._load()
    for step in [None, *updates]:
        if isinstance(step, Rule):
            inc.insert(step)
        elif step is not None and inc.n_live_rules:
            live = np.flatnonzero(inc._live)
            inc.remove(int(live[step % live.size]))
        flat = tree.flat  # compiles, or patches in the update
        ref = tree.batch_lookup_reference(trace)
        accelerators = [
            Accelerator(build_memory_image(tree, speed=speed))
            for speed in ((0, 1) if placed else ())
        ]
        runs = []
        try:
            for kernel in (loaded, native._Kernel(reason="property test")):
                native._kernel = kernel
                got = flat.batch_lookup(trace)
                for name in FIELDS:
                    a, b = getattr(ref, name), getattr(got, name)
                    assert a.dtype == b.dtype, (name, kernel.fn)
                    assert np.array_equal(a, b), (name, kernel.fn)
                assert np.array_equal(flat.batch_match(trace.headers), ref.match)
                runs.append([
                    acc.run_trace(t)
                    for acc in accelerators for t in (trace, trace.subset(0))
                ])
                for acc, run in zip(accelerators, runs[-1][::2]):
                    match, occupancy = acc.match_occupancy(trace)
                    assert np.array_equal(match, run.match)
                    assert np.array_equal(occupancy, run.occupancy)
        finally:
            native._kernel = loaded
        for on_native, portable in zip(*runs):
            for name in _RUN_FIELDS:
                a, b = getattr(portable, name), getattr(on_native, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
