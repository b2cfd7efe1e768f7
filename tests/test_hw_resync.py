"""Tests for incremental `MemoryImage` re-sync (repro.hw.resync).

The contract under test: after an in-place update batch on an
incremental tree, :func:`resync_memory_image` must leave the image
byte-identical to a from-scratch build of the same tree while issuing
far fewer write-port transactions than the full re-encode — the
word-write count *is* the paper's hardware update cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import generate_ruleset, generate_trace
from repro.algorithms.incremental import IncrementalClassifier
from repro.core.errors import CapacityError
from repro.core.updates import insert_op, remove_op
from repro.hw import Accelerator, build_memory_image
from repro.hw.resync import resync_memory_image


@pytest.fixture()
def inc():
    # binth=8 keeps the tree deep enough that the image spans >100
    # words — small batches must then touch only a corner of it.
    rs = generate_ruleset("acl1", 1000, seed=91)
    return IncrementalClassifier(rs, algorithm="hicuts", binth=8, spfac=4)


@pytest.fixture()
def new_rules():
    return list(generate_ruleset("acl1", 60, seed=92).rules)


def assert_matches_scratch(image):
    """The resynced image must be byte-identical to a scratch build."""
    fresh = build_memory_image(image.tree, image.speed)
    assert image.memory.words_used == fresh.memory.words_used
    assert image.memory.to_bytes() == fresh.memory.to_bytes()
    assert image.root_wrapped == fresh.root_wrapped
    assert image.n_internal_words == fresh.n_internal_words
    assert image.n_leaf_words == fresh.n_leaf_words


class TestIncrementalResync:
    def test_small_batch_rewrites_far_fewer_words(self, inc, new_rules):
        image = build_memory_image(inc.tree, speed=1)
        full_writes = image.memory.writes
        inc.apply_updates(
            [remove_op(3), remove_op(7), insert_op(new_rules[0])]
        )
        stats = resync_memory_image(image, inc.last_touched)
        assert not stats.full_rebuild
        # The whole point: a 3-op batch must not re-encode the array.
        assert 0 < stats.words_rewritten <= full_writes // 5
        assert stats.words_rewritten == (
            stats.internal_rewritten + stats.leaf_words_rewritten
        )
        assert stats.total_words == image.memory.words_used

    def test_resync_is_byte_identical_to_scratch_build(self, inc, new_rules):
        image = build_memory_image(inc.tree, speed=1)
        inc.apply_updates(
            [insert_op(r) for r in new_rules[:5]] + [remove_op(11)]
        )
        resync_memory_image(image, inc.last_touched)
        assert_matches_scratch(image)

    def test_fresh_accelerator_serves_updated_ruleset(self, inc, new_rules):
        image = build_memory_image(inc.tree, speed=1)
        inc.apply_updates(
            [remove_op(i) for i in range(0, 20, 4)]
            + [insert_op(r) for r in new_rules[:3]]
        )
        resync_memory_image(image, inc.last_touched)
        trace = generate_trace(
            inc.live_ruleset(), 1500, seed=93, background_fraction=0.2
        )
        # A fresh accelerator (resync mutates the image in place; the
        # Accelerator caches placement arrays at construction).
        got = Accelerator(image).run_trace(trace).match
        assert np.array_equal(got, inc.classify_trace(trace))

    def test_repeated_batches_stay_consistent(self, inc, new_rules):
        # Small batches that fit in existing leaves: across several of
        # them the cumulative write-port cost must stay below one full
        # re-encode (a leaf *split* legitimately renumbers the BFS
        # layout and approaches a rebuild — that is the expensive case,
        # not this one).
        image = build_memory_image(inc.tree, speed=1)
        rewritten = []
        for start in range(0, 12, 4):
            inc.apply_updates(
                [insert_op(r) for r in new_rules[start:start + 2]]
                + [remove_op(start), remove_op(start + 1)]
            )
            stats = resync_memory_image(image, inc.last_touched)
            rewritten.append(stats.words_rewritten)
            assert_matches_scratch(image)
        full = build_memory_image(inc.tree, speed=1).memory.writes
        assert sum(rewritten) < full  # three batches < one re-encode

    def test_root_flip_falls_back_to_full_rebuild(self, new_rules):
        rs = generate_ruleset("acl1", 8, seed=94)
        inc = IncrementalClassifier(rs, algorithm="hicuts", binth=30, spfac=4)
        image = build_memory_image(inc.tree, speed=1)
        assert image.root_wrapped  # <= binth rules: a wrapped leaf root
        inc.apply_updates([insert_op(r) for r in new_rules])
        stats = resync_memory_image(image, inc.last_touched)
        assert stats.full_rebuild
        assert not image.root_wrapped
        assert_matches_scratch(image)
        trace = generate_trace(
            inc.live_ruleset(), 800, seed=95, background_fraction=0.2
        )
        got = Accelerator(image).run_trace(trace).match
        assert np.array_equal(got, inc.classify_trace(trace))

    def test_growth_beyond_capacity_raises(self, inc, new_rules):
        image = build_memory_image(inc.tree, speed=1)
        tight = build_memory_image(
            inc.tree, speed=1, capacity_words=image.memory.words_used
        )
        inc.apply_updates([insert_op(r) for r in new_rules])
        with pytest.raises(CapacityError, match="words"):
            resync_memory_image(tight, inc.last_touched)

    def test_noop_batch_rewrites_nothing_new(self, inc):
        image = build_memory_image(inc.tree, speed=1)
        before = image.memory.to_bytes()
        stats = resync_memory_image(image, set())
        assert stats.words_rewritten == 0
        assert stats.words_discarded == 0
        assert image.memory.to_bytes() == before

    def test_shrinking_batch_discards_stale_words(self, inc):
        # A batch that is mostly removals leaves the layout with fewer
        # words; the re-sync must drop the ones past its end.
        image = build_memory_image(inc.tree, speed=1)
        before = image.memory.words_used
        inc.apply_updates([remove_op(i) for i in range(0, 1000, 2)])
        stats = resync_memory_image(image, inc.last_touched)
        assert stats.words_discarded > 0
        assert image.memory.words_used < before
        assert_matches_scratch(image)
