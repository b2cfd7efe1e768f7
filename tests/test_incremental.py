"""Tests for incremental updates (insert/remove on live trees)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import generate_ruleset, generate_trace
from repro.algorithms import LinearSearchClassifier
from repro.algorithms.incremental import IncrementalClassifier, UpdateStats
from repro.algorithms.opcount import OpCounter
from repro.core.errors import BuildError
from repro.core.rules import Rule
from repro.core.updates import insert_op, remove_op
from repro.hw import build_memory_image, Accelerator


def oracle_match(inc, trace):
    """Linear search over the live rules, mapped back to stable ids."""
    live = inc.live_ruleset()
    compact = LinearSearchClassifier(live).classify_trace(trace)
    # live index -> stable id
    stable = [i for i in range(len(inc._ruleset)) if inc._live[i]]
    out = np.full_like(compact, -1)
    hit = compact >= 0
    out[hit] = np.asarray(stable, dtype=np.int64)[compact[hit]]
    return out


@pytest.fixture()
def inc():
    rs = generate_ruleset("acl1", 300, seed=91)
    return IncrementalClassifier(rs, algorithm="hicuts", binth=30, spfac=4)


@pytest.fixture()
def new_rules():
    return list(generate_ruleset("acl1", 30, seed=92).rules)


class TestInsert:
    def test_inserted_rule_becomes_matchable(self, inc):
        rule = Rule.from_5tuple(
            (0xDEADBEEF, 32), (0x0BADF00D, 32), (7777, 7777), (8888, 8888),
            (6, 1),
        )
        header = (0xDEADBEEF, 0x0BADF00D, 7777, 8888, 6)
        before = inc.classify(header)
        inc.insert(rule)
        after = inc.classify(header)
        assert after == len(inc._ruleset) - 1 or after == before != -1

    def test_semantics_after_many_inserts(self, inc, new_rules):
        rs = inc.live_ruleset()
        trace = generate_trace(rs, 1500, seed=93, background_fraction=0.2)
        for rule in new_rules:
            inc.insert(rule)
        got = inc.classify_trace(trace)
        want = oracle_match(inc, trace)
        assert np.array_equal(got, want)

    def test_leaf_split_on_overflow(self):
        rs = generate_ruleset("acl1", 100, seed=94)
        inc = IncrementalClassifier(rs, binth=8, spfac=4)
        stats_total = 0
        for rule in generate_ruleset("acl1", 60, seed=95).rules:
            st = inc.insert(rule)
            stats_total += st.subtrees_rebuilt
        # With binth=8 and 60 inserts some leaf must have overflowed.
        assert stats_total > 0
        trace = generate_trace(inc.live_ruleset(), 800, seed=96)
        assert np.array_equal(inc.classify_trace(trace), oracle_match(inc, trace))

    def test_insert_into_empty_region_creates_leaf(self):
        # One highly specific ruleset: most of the space is EMPTY children.
        rs = generate_ruleset("acl1", 60, seed=97)
        inc = IncrementalClassifier(rs, binth=30, spfac=4)
        wild = Rule.from_5tuple((0, 0), (0, 0), (0, 65535), (0, 65535), (0, 0))
        st = inc.insert(wild)
        assert st.new_leaves > 0
        # The wildcard must now match everything nothing else matches.
        assert inc.classify((1, 2, 3, 4, 250)) == len(inc._ruleset) - 1

    def test_copy_on_write_protects_merged_siblings(self):
        """Inserting a narrow rule must not leak it into merged siblings."""
        rs = generate_ruleset("acl1", 400, seed=98)
        inc = IncrementalClassifier(rs, binth=30, spfac=4)
        narrow = Rule.from_5tuple(
            (0x11223344, 32), (0x55667788, 32), (1, 1), (2, 2), (17, 1)
        )
        inc.insert(narrow)
        trace = generate_trace(inc.live_ruleset(), 2000, seed=99,
                               background_fraction=0.3)
        assert np.array_equal(inc.classify_trace(trace), oracle_match(inc, trace))


class TestRemove:
    def test_removed_rule_never_matches(self, inc):
        arrays = inc.live_ruleset().arrays
        header = tuple(int(arrays.lo[d, 0]) for d in range(5))
        assert inc.classify(header) == 0
        inc.remove(0)
        assert inc.classify(header) != 0

    def test_semantics_after_mixed_updates(self, inc, new_rules):
        for rule in new_rules[:10]:
            inc.insert(rule)
        for rid in (3, 50, 120, 301):
            inc.remove(rid)
        trace = generate_trace(inc.live_ruleset(), 1500, seed=100,
                               background_fraction=0.2)
        assert np.array_equal(inc.classify_trace(trace), oracle_match(inc, trace))

    def test_double_remove_rejected(self, inc):
        inc.remove(5)
        with pytest.raises(BuildError):
            inc.remove(5)
        with pytest.raises(BuildError):
            inc.remove(10_000)

    def test_live_count(self, inc):
        n0 = inc.n_live_rules
        inc.remove(1)
        assert inc.n_live_rules == n0 - 1


class TestRebuild:
    def test_rebuild_compacts_and_preserves_semantics(self, inc, new_rules):
        for rule in new_rules[:5]:
            inc.insert(rule)
        inc.remove(2)
        trace = generate_trace(inc.live_ruleset(), 1000, seed=101)
        want_live = LinearSearchClassifier(inc.live_ruleset()).classify_trace(trace)
        inc.rebuild()
        got = inc.classify_trace(trace)
        # After compaction ids are the live ruleset's own indices.
        assert np.array_equal(got, want_live)
        assert inc.n_live_rules == len(inc._ruleset)


class TestHardwareResync:
    def test_updated_tree_still_encodes_and_runs(self, inc, new_rules):
        for rule in new_rules[:8]:
            inc.insert(rule)
        inc.remove(7)
        image = build_memory_image(inc.tree, speed=1)
        trace = generate_trace(inc.live_ruleset(), 600, seed=102)
        run = Accelerator(image).run_trace(trace)
        assert np.array_equal(run.match, oracle_match(inc, trace))


class TestHyperCutsMode:
    def test_hypercuts_incremental(self):
        rs = generate_ruleset("ipc1", 250, seed=103)
        inc = IncrementalClassifier(rs, algorithm="hypercuts", binth=30,
                                    spfac=4)
        for rule in generate_ruleset("ipc1", 20, seed=104).rules:
            inc.insert(rule)
        inc.remove(11)
        trace = generate_trace(inc.live_ruleset(), 1000, seed=105,
                               background_fraction=0.2)
        assert np.array_equal(inc.classify_trace(trace), oracle_match(inc, trace))

    def test_unknown_algorithm(self):
        rs = generate_ruleset("acl1", 50, seed=106)
        with pytest.raises(BuildError):
            IncrementalClassifier(rs, algorithm="nope")


class TreeScanRemove(IncrementalClassifier):
    """Removal as it was before the holder index: a Python loop over
    every node of the tree, one mask per stored list.  Kept as the
    oracle for :class:`TestRemoveDifferential` — it needs no index, so
    it also shows the index names exactly the nodes a scan finds.  (The
    scan used to serve a run of removals at once; the nodes a batch
    touches are the same either way, a removal never moves another
    rule.)"""

    def remove(self, rule_id):
        if not self._is_live(rule_id):
            raise BuildError(f"rule {rule_id} is not live")
        self._live[rule_id] = False
        stats = UpdateStats()
        for nid, node in enumerate(self.tree.nodes):
            if node.is_leaf and node.rule_ids.size:
                mask = node.rule_ids != rule_id
                if not mask.all():
                    node.rule_ids = node.rule_ids[mask]
                    stats.leaves_touched += 1
                    stats.touched.add(nid)
                    self.ops.add("mem_write", 1)
            elif node.pushed.size:
                pushed = node.pushed[node.pushed != rule_id]
                if pushed.size != node.pushed.size:
                    node.pushed = pushed
                    stats.touched.add(nid)
        self.tree.mark_dirty(stats.touched)
        return stats


def scan_holders(inc) -> dict[int, set[int]]:
    """The rule -> holder-nodes index, from scratch."""
    index: dict[int, set[int]] = {}
    for nid, node in enumerate(inc.tree.nodes):
        for rid in np.concatenate((node.rule_ids, node.pushed)).tolist():
            index.setdefault(rid, set()).add(nid)
    return index


class TestRemoveDifferential:
    """The indexed removal edits exactly what the tree scan edited."""

    @pytest.mark.parametrize(
        "algorithm, hw_mode, family",
        [("hicuts", True, "acl1"), ("hypercuts", False, "fw1"),
         ("hypercuts", True, "ipc1")],
    )
    def test_random_batches_match_the_tree_scan(
        self, algorithm, hw_mode, family
    ):
        rs = generate_ruleset(family, 300, seed=107)
        kwargs = dict(algorithm=algorithm, binth=16, spfac=4, hw_mode=hw_mode)
        new = IncrementalClassifier(rs, ops=OpCounter(), **kwargs)
        old = TreeScanRemove(rs, ops=OpCounter(), **kwargs)
        fresh = iter(generate_ruleset(family, 40, seed=108).rules)
        rng = np.random.default_rng(109)
        pushed_edits = 0
        for _ in range(25):
            batch = []
            for _ in range(int(rng.integers(1, 9))):
                if rng.random() < 0.3:
                    batch.append(insert_op(next(fresh)))
                else:  # live, dead and repeated ids alike
                    batch.append(remove_op(rng.integers(0, len(new._ruleset))))
            got, want = new.apply_updates(batch), old.apply_updates(batch)
            assert got == want
            assert new.last_touched == old.last_touched
            assert new.ops.as_dict() == old.ops.as_dict()
            assert len(new.tree.nodes) == len(old.tree.nodes)
            for a, b in zip(new.tree.nodes, old.tree.nodes):
                assert np.array_equal(a.rule_ids, b.rule_ids)
                assert np.array_equal(a.pushed, b.pushed)
            assert new._holders == scan_holders(new)
            pushed_edits += sum(
                not new.tree.nodes[nid].is_leaf for nid in new.last_touched
            )
        if not hw_mode:
            assert pushed_edits  # the pushed-list branch really ran

    def test_stats_of_one_removal_match(self):
        rs = generate_ruleset("acl1", 300, seed=110)
        new = IncrementalClassifier(rs, binth=16, ops=OpCounter())
        old = TreeScanRemove(rs, binth=16, ops=OpCounter())
        for rid in (4, 7, 90, 151, 229):
            got, want = new.remove(rid), old.remove(rid)
            assert got.touched == want.touched and got.touched
            assert got.leaves_touched == want.leaves_touched
            assert new.ops["mem_write"] == old.ops["mem_write"]

    def test_index_survives_splices_clones_and_rebuild(self):
        """Every edit of a stored list keeps the index exact: leaf
        appends, fresh leaves, copy-on-write clones, subtree splices,
        removals — and `rebuild()` starts it over."""
        rs = generate_ruleset("acl1", 120, seed=111)
        inc = IncrementalClassifier(rs, algorithm="hicuts", binth=8, spfac=4)
        assert inc._holders == scan_holders(inc)
        narrow = Rule.from_5tuple(
            (0x0A0A0A0A, 32), (0x14141414, 32), (80, 80), (443, 443), (6, 1)
        )
        wide = list(generate_ruleset("acl1", 20, seed=112).rules)
        rng = np.random.default_rng(113)
        rebuilt = cloned = fresh_leaves = 0
        for step in range(40):
            if step % 4 == 3:
                live = np.nonzero(inc._live)[0]
                inc.remove(int(live[rng.integers(live.size)]))
            else:
                stats = inc.insert(narrow if step % 2 else wide[step // 2])
                rebuilt += stats.subtrees_rebuilt
                cloned += stats.nodes_cloned
                fresh_leaves += stats.new_leaves
            assert inc._holders == scan_holders(inc)
            # ...and the reference counts, which a splice now extends
            # by the spliced nodes only, still equal a full recount.
            assert inc._refcounts == inc._count_refs()
        assert rebuilt and cloned and fresh_leaves
        inc.rebuild()
        assert inc._holders == scan_holders(inc)
        assert set(inc._holders) == set(range(inc.n_live_rules))
