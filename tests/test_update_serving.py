"""Differential update-conformance harness for the live-update serving
path.

Replays seeded, randomly generated interleaved update/classify schedules
through the sharded :class:`~repro.engine.ClassificationPipeline` and
requires exact agreement with a linear-search oracle *rebuilt from
scratch at every epoch*: the oracle applies the same chunk-boundary
epoch semantics the pipeline documents (a batch takes effect at the
first chunk whose start is at or after its packet offset), classifies
each chunk against the live rules of that epoch, and maps the rebuilt
oracle's compacted ids back to stable ids.  Coverage spans the
incremental backend across 1/2/4 shards x flow cache on/off, plus the
rebuild adapters for linear and tuple-space — every combination must
match the oracle bit for bit.

A property-based layer (Hypothesis) fuzzes raw update batches —
duplicate inserts, removals of absent ids, empty batches, binth
overflow — asserting no crash and oracle agreement, with shrunk
counterexamples pinned as named regression tests.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PacketTrace, generate_ruleset, generate_trace
from repro.algorithms import LinearSearchClassifier
from repro.algorithms.incremental import IncrementalClassifier
from repro.classbench import generate_update_stream
from repro.core.errors import ConfigError
from repro.core.rules import Rule
from repro.core.ruleset import RuleSet
from repro.core.updates import OP_INSERT, ScheduledUpdate, insert_op, remove_op
from repro.engine import (
    CachedClassifier,
    ClassificationPipeline,
    RebuildUpdatable,
    build_backend,
    build_updatable_backend,
)
from repro.engine.updates import is_updatable

CHUNK = 256


# ---------------------------------------------------------------------------
# The per-epoch oracle
# ---------------------------------------------------------------------------
class OracleStore:
    """Stable-id control-plane replica driving a from-scratch oracle."""

    def __init__(self, ruleset: RuleSet) -> None:
        self.schema = ruleset.schema
        self.rules = list(ruleset.rules)
        self.live = [True] * len(self.rules)

    def apply(self, batch) -> None:
        for op in batch:
            if op.op == OP_INSERT:
                self.rules.append(op.rule)
                self.live.append(True)
            elif 0 <= op.rule_id < len(self.rules) and self.live[op.rule_id]:
                self.live[op.rule_id] = False

    def classify(self, headers: np.ndarray) -> np.ndarray:
        """First-match stable ids via a freshly built linear search."""
        live_rules = [r for r, ok in zip(self.rules, self.live) if ok]
        stable = np.asarray(
            [i for i, ok in enumerate(self.live) if ok], dtype=np.int64
        )
        out = np.full(headers.shape[0], -1, dtype=np.int64)
        if not live_rules:
            return out
        sub = RuleSet(live_rules, self.schema, "oracle-epoch")
        compact = LinearSearchClassifier(sub).classify_batch(headers)
        hit = compact >= 0
        out[hit] = stable[compact[hit]]
        return out


def replay_oracle(ruleset, trace, schedule, chunk_size=CHUNK) -> np.ndarray:
    """Expected trace-order matches under chunk-boundary epoch semantics."""
    store = OracleStore(ruleset)
    n = trace.n_packets
    bounds = [
        (s, min(s + chunk_size, n)) for s in range(0, n, chunk_size)
    ]
    starts = [b[0] for b in bounds]
    sched = sorted(schedule, key=lambda u: u.at_packet)
    out = np.full(n, -1, dtype=np.int64)
    idx = 0
    for i, (s, e) in enumerate(bounds):
        while idx < len(sched) and bisect_left(starts, sched[idx].at_packet) <= i:
            store.apply(sched[idx].batch)
            idx += 1
        out[s:e] = store.classify(trace.headers[s:e])
    while idx < len(sched):
        store.apply(sched[idx].batch)
        idx += 1
    return out


# ---------------------------------------------------------------------------
# Shared workload
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_rs():
    return generate_ruleset("acl1", 300, seed=71)


@pytest.fixture(scope="module")
def serve_trace(serve_rs):
    return generate_trace(serve_rs, 4096, seed=72, background_fraction=0.15)


@pytest.fixture(scope="module")
def serve_schedule(serve_rs, serve_trace):
    return generate_update_stream(
        serve_rs, 48, serve_trace.n_packets,
        insert_fraction=0.55, batch_size=6, seed=73,
    )


@pytest.fixture(scope="module")
def serve_want(serve_rs, serve_trace, serve_schedule):
    return replay_oracle(serve_rs, serve_trace, serve_schedule)


# ---------------------------------------------------------------------------
# The differential matrix: incremental x shards x cache
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("cache_entries", [0, 256])
def test_incremental_matrix_agrees_with_per_epoch_oracle(
    serve_rs, serve_trace, serve_schedule, serve_want, shards, cache_entries,
):
    clf = build_updatable_backend(
        "incremental", serve_rs, algorithm="hicuts", binth=30, spfac=4,
    )
    if cache_entries:
        clf = CachedClassifier(clf, entries=cache_entries, ways=4)
    with ClassificationPipeline(
        clf, chunk_size=CHUNK, shards=shards
    ) as pipeline:
        res = pipeline.run(serve_trace, updates=serve_schedule)
    assert np.array_equal(res.match, serve_want)
    assert res.update_batches == len(serve_schedule)
    assert res.final_epoch == len(serve_schedule)
    # Epochs are monotone along the trace and land on the final version.
    epochs = [c.epoch for c in res.chunks]
    assert epochs == sorted(epochs)
    assert epochs[0] == 0 or res.chunks[0].updates_applied > 0
    applied_ops = sum(c.updates_applied for c in res.chunks)
    assert applied_ops <= res.update_ops


@pytest.mark.parametrize("backend", ["linear", "tuple_space"])
def test_rebuild_adapters_agree_with_per_epoch_oracle(
    serve_rs, serve_trace, serve_schedule, serve_want, backend
):
    clf = build_updatable_backend(backend, serve_rs)
    assert isinstance(clf, RebuildUpdatable)
    res = ClassificationPipeline(clf, chunk_size=CHUNK).run(
        serve_trace, updates=serve_schedule
    )
    assert np.array_equal(res.match, serve_want)


def test_hypercuts_incremental_agrees(serve_rs, serve_trace, serve_schedule,
                                      serve_want):
    clf = build_updatable_backend(
        "incremental", serve_rs, algorithm="hypercuts", binth=30,
    )
    res = ClassificationPipeline(clf, chunk_size=CHUNK, shards=2).run(
        serve_trace, updates=serve_schedule
    )
    assert np.array_equal(res.match, serve_want)


# ---------------------------------------------------------------------------
# Epoch semantics and serving-path mechanics
# ---------------------------------------------------------------------------
def test_updates_on_non_updatable_backend_rejected(serve_rs, serve_trace):
    clf = build_backend("rfc", serve_rs)
    pipeline = ClassificationPipeline(clf, chunk_size=CHUNK)
    with pytest.raises(ConfigError):
        pipeline.run(
            serve_trace, updates=[ScheduledUpdate(0, (remove_op(1),))]
        )
    assert not is_updatable(clf)


def test_cached_non_updatable_backend_rejected_up_front(serve_rs,
                                                       serve_trace):
    """A flow cache around a non-updatable backend must be rejected at
    run() time with ConfigError — not die mid-run in a worker because
    the wrapper's delegating apply_updates looks callable."""
    cached = CachedClassifier(build_backend("linear", serve_rs), entries=64)
    assert not is_updatable(cached)
    pipeline = ClassificationPipeline(cached, chunk_size=CHUNK)
    with pytest.raises(ConfigError):
        pipeline.run(
            serve_trace, updates=[ScheduledUpdate(0, (remove_op(1),))]
        )
    with pytest.raises(ConfigError):
        cached.apply_updates((remove_op(1),))
    # The cached *updatable* composition stays updatable.
    assert is_updatable(CachedClassifier(
        build_updatable_backend("linear", serve_rs), entries=64
    ))
    # And without an update stream, a cached non-updatable backend
    # reports no epochs at all (None, not a phantom 0).
    res = pipeline.run(serve_trace)
    assert res.final_epoch is None
    assert all(c.epoch is None for c in res.chunks)


def test_trailing_and_empty_batches(serve_rs, serve_trace):
    """Batches past the trace end apply after it; empty batches only
    advance the epoch."""
    clf = build_updatable_backend("incremental", serve_rs, binth=30)
    bare = build_backend("incremental", serve_rs, binth=30)
    schedule = [
        ScheduledUpdate(serve_trace.n_packets + 10, (remove_op(0),)),
        ScheduledUpdate(100, ()),
    ]
    res = ClassificationPipeline(clf, chunk_size=CHUNK).run(
        serve_trace, updates=schedule
    )
    # No in-trace mutation: matches equal the never-updated classifier's.
    assert np.array_equal(res.match, bare.classify_trace(serve_trace))
    assert res.final_epoch == 2
    assert clf.update_epoch == 2  # trailing batch applied after the run
    assert not clf._live[0]  # rule 0 is gone post-run


def test_workers_refork_after_an_update_run(serve_rs, serve_trace):
    """Forked workers are a snapshot of one epoch: an update run is
    served in-process and closes them, the next update-free run forks
    new ones from the updated classifier; a sequential pipeline is the
    reference."""
    extra = list(generate_ruleset("acl1", 6, seed=74).rules)
    u1 = [ScheduledUpdate(512, (insert_op(extra[0]), remove_op(3)))]
    u3 = [ScheduledUpdate(40, (remove_op(10),)),
          ScheduledUpdate(4000, (insert_op(extra[1]),))]

    par = build_updatable_backend("incremental", serve_rs, binth=30)
    seq = build_updatable_backend("incremental", serve_rs, binth=30)
    sequence = (u1, None, u3, None)
    runs, alive, pids = [], [], []
    with ClassificationPipeline(par, chunk_size=CHUNK, shards=4) as pipeline:
        if not pipeline._fork_available():  # pragma: no cover
            pytest.skip("fork multiprocessing unavailable")
        for updates in sequence:
            runs.append(pipeline.run(serve_trace, updates=updates))
            alive.append(pipeline.workers_alive)
            if pipeline.workers_alive:
                pids.append({p.pid for p in pipeline._workers.procs})
    assert alive == [False, True, False, True]
    assert pids[0].isdisjoint(pids[1])
    forked = runs[1].n_shards
    assert [r.n_shards for r in runs] == [1, forked, 1, forked]
    assert [r.worker_cpu_s > 0 for r in runs] == [False, True, False, True]
    ref_pipe = ClassificationPipeline(seq, chunk_size=CHUNK)
    refs = [ref_pipe.run(serve_trace, updates=u) for u in sequence]
    for got, want in zip(runs, refs):
        assert np.array_equal(got.match, want.match)
        assert got.final_epoch == want.final_epoch
    assert np.array_equal(
        par.classify_trace(serve_trace), seq.classify_trace(serve_trace)
    )


# ---------------------------------------------------------------------------
# Updates retire cache entries; they do not flush the cache
# ---------------------------------------------------------------------------
RETIRE_CHUNK = 128


def _catch_all(rs) -> Rule:
    return Rule(ranges=tuple(
        (0, rs.schema.max_value(d)) for d in range(rs.schema.ndim)
    ))


def _retire_case(seed: int):
    """A flow-recurrent trace (a third of the flows match nothing) and
    a random schedule drawn from every shape `FlowCache.retire` has to
    get right."""
    rng = np.random.default_rng(seed)
    rs = generate_ruleset("acl1", 60, seed=81)
    flows = generate_trace(
        rs, 300, seed=seed, background_fraction=0.3
    ).headers
    trace = PacketTrace(flows[rng.integers(0, len(flows), 4096)], rs.schema)
    derived = list(generate_ruleset("acl1", 12, seed=82).rules)
    catch_all = _catch_all(rs)
    unseen = np.setdiff1d(np.arange(256), flows[:, 4])[0]  # protocol no flow has
    nowhere = Rule(ranges=catch_all.ranges[:4] + ((unseen, unseen),))
    born = len(rs)  # ids handed out so far, as the classifiers count them

    def insert(rule):
        nonlocal born
        born += 1
        return insert_op(rule)

    wild = None  # id of the catch-all kind 1 inserted last
    schedule = []
    for at in np.sort(rng.choice(np.arange(1, 4096), size=16, replace=False)):
        ops = []
        for kind in rng.integers(0, 7, size=rng.integers(0, 6)):
            if kind == 0:
                ops.append(insert(derived[rng.integers(len(derived))]))
            elif kind == 1:  # covers every cached no-match; one at a
                # time (a pile of them would overflow every leaf)
                if wild is not None:
                    ops.append(remove_op(wild))
                ops.append(insert(catch_all))
                wild = born - 1
            elif kind == 2:  # covers no cached flow
                ops.append(insert(nowhere))
            elif kind == 3:  # born and gone inside one batch
                ops += [insert(catch_all), remove_op(born - 1)]
            elif kind == 4:  # live, dead or not yet born
                ops.append(remove_op(int(rng.integers(born + 3))))
            elif kind == 5:  # the second removal is skipped
                ops += [remove_op(int(rng.integers(len(rs))))] * 2
            else:  # an earlier insert (maybe the catch-all) goes again
                ops.append(remove_op(int(rng.integers(len(rs), born + 1))))
        schedule.append(ScheduledUpdate(int(at), tuple(ops)))
    return rs, trace, schedule


def _retire_backend(kind: str, rs):
    if kind == "rebuild":
        return build_updatable_backend("linear", rs)
    return build_updatable_backend(
        "incremental", rs, algorithm="hicuts", binth=16, spfac=4
    )


@pytest.mark.parametrize("seed", [91, 92, 93])
@pytest.mark.parametrize("kind,shards,shard_mode", [
    ("incremental", 1, "auto"),      # inline
    ("incremental", 2, "threads"),   # the shard clones retire too
    ("rebuild", 1, "auto"),          # RebuildUpdatable behind a cache
])
def test_cached_serving_retires_instead_of_flushing(
    seed, kind, shards, shard_mode
):
    """After every batch of a random schedule, cached == bare == the
    from-scratch oracle — while most of the cache survives each batch."""
    rs, trace, schedule = _retire_case(seed)
    want = replay_oracle(rs, trace, schedule, RETIRE_CHUNK)
    bare = ClassificationPipeline(
        _retire_backend(kind, rs), chunk_size=RETIRE_CHUNK
    ).run(trace, updates=schedule)
    assert np.array_equal(bare.match, want)

    cached = CachedClassifier(_retire_backend(kind, rs), entries=1024, ways=4)
    with ClassificationPipeline(
        cached, chunk_size=RETIRE_CHUNK, shards=shards, shard_mode=shard_mode
    ) as pipeline:
        res = pipeline.run(trace, updates=schedule)
        caches = [c.cache for c in pipeline._shard_clones] or [cached.cache]
    assert res.n_shards == shards
    assert np.array_equal(res.match, want)
    assert cached.update_epoch == len(schedule)
    n_flows = len(np.unique(trace.headers, axis=0))
    for cache in caches:
        stats = cache.stats
        assert stats.invalidations == len(schedule)  # one event per batch
        # Every backend walk is accounted for — a flow's first sight, a
        # retired entry or an evicted one; a whole-cache flush would add
        # one walk per surviving flow per batch.
        assert stats.retired > 0
        assert stats.misses <= n_flows + stats.retired + stats.evictions


def _catch_all_reaches_warm_clones(shards, short_packets, at_packet):
    """Warm every in-process shard clone on the full trace, insert a
    catch-all rule at ``at_packet`` of a run over the first
    ``short_packets`` packets, then serve the full trace again: every
    clone must have retired what the insert pre-empts."""
    rs, trace, _ = _retire_case(94)
    cached = CachedClassifier(_retire_backend("incremental", rs), entries=1024)
    with ClassificationPipeline(
        cached, chunk_size=RETIRE_CHUNK, shards=shards, shard_mode="threads"
    ) as pipeline:
        before = pipeline.run(trace).match
        assert (before < 0).any()
        update = ScheduledUpdate(at_packet, (insert_op(_catch_all(rs)),))
        pipeline.run(trace.subset(short_packets), updates=[update])
        after = pipeline.run(trace).match
    assert (after[before < 0] == len(rs)).all()
    assert np.array_equal(after[before >= 0], before[before >= 0])


def test_idle_thread_clones_retire_too():
    """A run too short to use every shard clone still has to retire the
    idle clones' entries: they serve again in the next long run."""
    # 2 chunks on 4 shards: clones 2 and 3 sit the short run out.
    _catch_all_reaches_warm_clones(4, 2 * RETIRE_CHUNK, RETIRE_CHUNK)


@pytest.mark.parametrize("n_packets", [RETIRE_CHUNK, 4 * RETIRE_CHUNK])
def test_batch_past_the_last_chunk_retires_the_shard_clones(n_packets):
    """A batch scheduled at or after the last chunk's start applies once
    the trace is served; the warm shard clones must retire with it, also
    when the run itself is a single chunk on the classifier's own cache."""
    _catch_all_reaches_warm_clones(2, n_packets, n_packets)


def test_update_stream_generator_is_seeded_and_well_formed(serve_rs):
    a = generate_update_stream(serve_rs, 40, 10_000, seed=5)
    b = generate_update_stream(serve_rs, 40, 10_000, seed=5)
    assert a == b
    c = generate_update_stream(serve_rs, 40, 10_000, seed=6)
    assert a != c
    ops = [op for upd in a for op in upd.batch]
    assert len(ops) == 40
    assert all(0 < upd.at_packet < 10_000 for upd in a)
    # Offsets never collapse to 0 (the pre-update epoch must be
    # observable), even when the trace is shorter than the batch count.
    tiny = generate_update_stream(serve_rs, 24, 3, batch_size=4, seed=7)
    assert all(1 <= upd.at_packet <= 2 for upd in tiny)
    # Generated removals always name an id live at that stream point.
    store = OracleStore(serve_rs)
    for upd in a:
        for op in upd.batch:
            if op.op != OP_INSERT:
                assert store.live[op.rule_id]
            store.apply((op,))
    # Inserted rules validate against the schema (prefix/exact fields).
    for op in ops:
        if op.op == OP_INSERT:
            op.rule.validate(serve_rs.schema)


# ---------------------------------------------------------------------------
# Property-based fuzzing of raw update batches
# ---------------------------------------------------------------------------
def _fuzz_base() -> IncrementalClassifier:
    rs = generate_ruleset("acl1", 60, seed=81)
    return IncrementalClassifier(rs, algorithm="hicuts", binth=8, spfac=4)


@pytest.fixture(scope="module")
def fuzz_pool():
    """Candidate rules for fuzz inserts, including a full wildcard and a
    very narrow rule (binth-overflow fuel when inserted repeatedly)."""
    pool = list(generate_ruleset("acl1", 12, seed=82).rules)
    pool.append(Rule.from_5tuple((0, 0), (0, 0), (0, 65535), (0, 65535), (0, 0)))
    pool.append(Rule.from_5tuple(
        (0x0A0A0A0A, 32), (0x14141414, 32), (80, 80), (443, 443), (6, 1)
    ))
    return pool


@pytest.fixture(scope="module")
def fuzz_trace():
    rs = generate_ruleset("acl1", 60, seed=81)
    return generate_trace(rs, 600, seed=83, background_fraction=0.25)


def _check_against_oracle(inc: IncrementalClassifier, trace) -> None:
    store = OracleStore(inc._ruleset)
    # Reconstruct the oracle's view from the classifier's own state so
    # the comparison is pure output equivalence.
    store.rules = list(inc._ruleset.rules)
    store.live = list(bool(x) for x in inc._live)
    want = store.classify(trace.headers)
    got = inc.classify_trace(trace)
    assert np.array_equal(got, want)


ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 13)),
        st.tuples(st.just("remove"), st.integers(0, 90)),
    ),
    max_size=12,
)
batches_strategy = st.lists(ops_strategy, max_size=5)


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(batches=batches_strategy)
def test_fuzz_update_batches_no_crash_and_oracle_agreement(
    batches, fuzz_pool, fuzz_trace
):
    inc = _fuzz_base()
    epoch = 0
    for raw in batches:
        batch = tuple(
            insert_op(fuzz_pool[arg]) if kind == "insert" else remove_op(arg)
            for kind, arg in raw
        )
        res = inc.apply_updates(batch)
        epoch += 1
        assert res.epoch == epoch
        assert res.applied + res.skipped == len(batch)
    _check_against_oracle(inc, fuzz_trace)


# -- pinned (previously shrunk) counterexample shapes ----------------------
def test_pinned_duplicate_insert_then_double_remove(fuzz_pool, fuzz_trace):
    """Insert the same rule twice, remove both copies, remove one again
    (now absent) — the second removal must be skipped, not fatal."""
    inc = _fuzz_base()
    rule = fuzz_pool[-1]
    res = inc.apply_updates((insert_op(rule), insert_op(rule)))
    a, b = res.inserted_ids
    res = inc.apply_updates((remove_op(a), remove_op(b), remove_op(a)))
    assert res.removed == 2 and res.skipped == 1
    _check_against_oracle(inc, fuzz_trace)


def test_pinned_remove_absent_and_empty_batches(fuzz_trace):
    """Removals of never-alive ids and empty batches advance the epoch
    without mutating anything."""
    inc = _fuzz_base()
    before = inc.classify_trace(fuzz_trace)
    res = inc.apply_updates((remove_op(10_000),))
    assert res.skipped == 1 and res.epoch == 1
    res = inc.apply_updates(())
    assert res.epoch == 2 and res.applied == 0
    assert np.array_equal(inc.classify_trace(fuzz_trace), before)


def test_pinned_insert_then_remove_same_id_in_one_batch(fuzz_pool,
                                                        fuzz_trace):
    """Ops apply in batch order: a rule inserted earlier in the same
    batch is removable later in it, and a remove-before-insert of a
    future id is skipped."""
    inc = _fuzz_base()
    future_id = len(inc._ruleset)  # not live yet at the remove below
    res = inc.apply_updates((
        remove_op(future_id),          # skipped: id not yet born
        insert_op(fuzz_pool[0]),       # becomes future_id
        remove_op(future_id),          # applies: the rule just inserted
        remove_op(future_id),          # skipped: already removed
        insert_op(fuzz_pool[1]),
    ))
    assert (res.inserted, res.removed, res.skipped) == (2, 1, 2)
    assert not inc._live[future_id]
    assert inc._live[future_id + 1]
    _check_against_oracle(inc, fuzz_trace)


def test_pinned_binth_overflow_chain(fuzz_pool, fuzz_trace):
    """Repeatedly inserting one narrow rule overflows its leaf past
    binth and forces subtree rebuilds; semantics must hold throughout."""
    inc = _fuzz_base()
    narrow = fuzz_pool[-1]
    rebuilds = 0
    for _ in range(inc.binth + 4):
        rebuilds += inc.insert(narrow).subtrees_rebuilt
    assert rebuilds > 0
    _check_against_oracle(inc, fuzz_trace)


def test_pinned_shadowed_duplicate_survives_removal(fuzz_pool, fuzz_trace):
    """Shrunk fuzz counterexample (latent pre-PR bug): insert the same
    wildcard twice — the second copy overflows a leaf, and the subtree
    rebuild used to *eliminate* it as shadowed by the first — then
    remove the first copy.  The second copy must still serve; updatable
    trees therefore build without redundancy elimination."""
    inc = _fuzz_base()
    wild = fuzz_pool[-2]
    res = inc.apply_updates((insert_op(wild), insert_op(wild)))
    first, second = res.inserted_ids
    inc.apply_updates((remove_op(first),))
    _check_against_oracle(inc, fuzz_trace)
    # The surviving copy catches what nothing narrower matches.
    assert inc.classify((3, 1, 4, 1, 59)) == second or \
        inc.classify((3, 1, 4, 1, 59)) < first


def test_pinned_wildcard_insert_reaches_every_region(fuzz_pool, fuzz_trace):
    """A full-wildcard insert must land in every live region (new
    leaves in empty slots included) and agree with the oracle."""
    inc = _fuzz_base()
    inc.apply_updates((insert_op(fuzz_pool[-2]),))
    _check_against_oracle(inc, fuzz_trace)
    wild_id = len(inc._ruleset) - 1
    # Any header matches it when nothing narrower does.
    assert inc.classify((1, 2, 3, 4, 251)) == wild_id
