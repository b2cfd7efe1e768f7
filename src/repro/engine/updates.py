"""The rule-update serving surface of the engine.

Section 4 of the paper splits deployment into a data plane that keeps
classifying and a control plane that mutates its copy of the search
structure.  This module gives the engine that split:

* :class:`UpdatableClassifier` — the protocol extension: a
  :class:`~repro.engine.protocol.Classifier` that additionally applies
  :class:`~repro.core.updates.RuleUpdate` batches with stable-id
  semantics and an ``update_epoch`` version counter.  The incremental
  backend implements it natively (copy-on-write tree surgery plus flat-
  kernel row patching); any other registry backend can serve updates
  through :class:`RebuildUpdatable`.
* :class:`RebuildUpdatable` — the adapter for backends without an
  incremental structure (linear, tuple-space, RFC, TCAM, ...): it owns
  the stable-id rule store, rebuilds the wrapped backend from the live
  rules on every batch, and translates the rebuilt backend's compacted
  ids back to stable ids, so every updatable backend reports identical
  matches.  This is the "full re-sync" end of the paper's control-plane
  cost spectrum — the energy model in :mod:`repro.energy.updates` prices
  exactly this rebuild against the incremental path.
* :func:`build_updatable_backend` — registry composition: the
  incremental backend is returned as-is, everything else is wrapped.

Stable-id semantics (shared with the incremental backend): a freshly
built classifier's rules are ids ``0..n-1``, inserts append, removals
tombstone, ids are never reused.  The per-epoch differential harness in
``tests/test_update_serving.py`` replays interleaved update/classify
schedules against a from-scratch linear oracle at every epoch and
requires exact agreement.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from ..core.errors import ConfigError
from ..core.rules import Rule
from ..core.ruleset import RuleSet
from ..core.updates import (
    OP_INSERT,
    OP_REMOVE,
    RuleUpdate,
    ScheduledUpdate,
    UpdateResult,
    insert_op,
    remove_op,
)
from .protocol import Classifier, ClassifierBase
from .registry import backend_spec, build_backend

__all__ = [
    "RuleUpdate",
    "ScheduledUpdate",
    "UpdateResult",
    "insert_op",
    "remove_op",
    "UpdatableClassifier",
    "is_updatable",
    "require_updatable",
    "RebuildUpdatable",
    "build_updatable_backend",
]


@runtime_checkable
class UpdatableClassifier(Classifier, Protocol):
    """A classifier that serves live rule updates.

    ``apply_updates`` applies one batch of insert/remove operations and
    advances ``update_epoch`` by one (empty batches included — epochs
    number ruleset *versions*).  Implementations must keep stable-id
    semantics: classification results refer to the id a rule was born
    with, across every later mutation.
    """

    update_epoch: int

    def apply_updates(self, batch: Iterable[RuleUpdate]) -> UpdateResult: ...


def is_updatable(classifier: Classifier) -> bool:
    """Whether ``classifier`` can actually serve update batches.

    Wrappers that merely *delegate* updates (the flow-cached front-end
    marks itself with ``_delegates_updates``) are updatable only when
    the classifier they wrap is — a cached linear scan must be rejected
    up front, not die mid-run inside a forked worker.
    """
    if getattr(classifier, "_delegates_updates", False):
        return is_updatable(classifier.classifier)
    return callable(getattr(classifier, "apply_updates", None))


def require_updatable(classifier: Classifier) -> None:
    """The one "not updatable" rejection, raised before anything is
    served or applied."""
    if not is_updatable(classifier):
        raise ConfigError(
            f"backend {getattr(classifier, 'backend_name', '?')!r} does "
            "not serve rule updates; open the engine with "
            "EngineConfig(updatable=True) (or build the classifier through "
            "repro.engine.updates.build_updatable_backend)"
        )


class RebuildUpdatable(ClassifierBase):
    """Update serving for backends without an incremental structure.

    Owns the control-plane rule store (stable ids, tombstones) and
    rebuilds the wrapped backend from the live rules after every batch.
    The rebuilt backend sees a compacted ruleset, so its match ids are
    translated back through the live-id table — results are then
    comparable packet-for-packet with the incremental backend under the
    same update stream.
    """

    def __init__(self, name: str, ruleset: RuleSet, **params) -> None:
        spec = backend_spec(name)
        self.backend_name = f"{spec.name}+updates"
        self.schema = ruleset.schema
        self._name = spec.name
        self._params = dict(params)
        self._src_name = ruleset.name
        self._rules: list[Rule] = list(ruleset.rules)
        self._live = np.ones(len(self._rules), dtype=bool)
        self.update_epoch = 0
        self.rebuilds = 0
        self._refresh()

    # ------------------------------------------------------------------
    def live_ruleset(self) -> RuleSet:
        """The live rules in priority order (ids compacted)."""
        rules = [r for i, r in enumerate(self._rules) if self._live[i]]
        return RuleSet(rules, self.schema, f"{self._src_name}+upd")

    def _refresh(self) -> None:
        self._stable = np.nonzero(self._live)[0].astype(np.int64)
        self.classifier = build_backend(
            self._name, self.live_ruleset(), **self._params
        )
        self.rebuilds += 1

    # ------------------------------------------------------------------
    def apply_updates(self, batch: Iterable[RuleUpdate]) -> UpdateResult:
        inserted = removed = skipped = 0
        ids: list[int] = []
        for op in batch:
            if op.op == OP_INSERT:
                op.rule.validate(self.schema)
                self._rules.append(op.rule)
                self._live = np.append(self._live, True)
                ids.append(len(self._rules) - 1)
                inserted += 1
            elif op.op == OP_REMOVE:
                rid = op.rule_id
                if 0 <= rid < len(self._rules) and self._live[rid]:
                    self._live[rid] = False
                    removed += 1
                else:
                    skipped += 1
        if inserted or removed:
            self._refresh()
        self.update_epoch += 1
        return UpdateResult(
            epoch=self.update_epoch, inserted=inserted, removed=removed,
            skipped=skipped, inserted_ids=tuple(ids),
        )

    # ------------------------------------------------------------------
    def classify_batch(self, headers: np.ndarray) -> np.ndarray:
        compact = np.asarray(self.classifier.classify_batch(headers))
        out = np.full(compact.shape, -1, dtype=np.int64)
        hit = compact >= 0
        out[hit] = self._stable[compact[hit]]
        return out

    def memory_bytes(self) -> int:
        return self.classifier.memory_bytes()

    def memory_accesses_per_lookup(self) -> int:
        return self.classifier.memory_accesses_per_lookup()


def build_updatable_backend(
    name: str, ruleset: RuleSet, **params
) -> Classifier:
    """Build backend ``name`` with the update-serving surface.

    The incremental backend already implements it (and is returned
    unwrapped); every other registered backend is adapted through
    :class:`RebuildUpdatable`.
    """
    spec = backend_spec(name)
    if spec.name == "incremental":
        return build_backend("incremental", ruleset, **params)
    return RebuildUpdatable(spec.name, ruleset, **params)
