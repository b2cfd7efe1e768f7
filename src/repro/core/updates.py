"""Rule-update primitives shared by the control plane and the engine.

The paper's Section 4 deployment splits classification into a data plane
(the accelerator serving lookups) and a control plane that mutates its
copy of the search structure and re-syncs the device.  This module holds
the *wire format* of that split — the plain data types an update stream
is made of — so the algorithm layer (``repro.algorithms.incremental``),
the serving engine (``repro.engine``) and the workload generators
(``repro.classbench``) can exchange updates without importing each
other.

Stable-id semantics: rules keep the id they were born with.  A freshly
built classifier's rules are ids ``0..n-1``; every insert takes the next
id (``n``, ``n+1``, ...); a remove tombstones its id, which is never
reused.  Classification results always report stable ids, so a packet's
match is comparable across ruleset versions — the per-epoch differential
harness depends on exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .rules import Rule

#: The two operation kinds an update stream carries.
OP_INSERT = "insert"
OP_REMOVE = "remove"


@dataclass(frozen=True)
class RuleUpdate:
    """One control-plane operation: insert a rule or remove a stable id."""

    op: str
    rule: Rule | None = None
    rule_id: int = -1

    def __post_init__(self) -> None:
        if self.op == OP_INSERT:
            if self.rule is None:
                raise ConfigError("insert update requires a rule")
        elif self.op == OP_REMOVE:
            if self.rule_id < 0:
                raise ConfigError("remove update requires a rule_id >= 0")
        else:
            raise ConfigError(
                f"unknown update op {self.op!r}; "
                f"expected {OP_INSERT!r} or {OP_REMOVE!r}"
            )


def insert_op(rule: Rule) -> RuleUpdate:
    """An insert operation (the rule takes the next stable id)."""
    return RuleUpdate(op=OP_INSERT, rule=rule)


def remove_op(rule_id: int) -> RuleUpdate:
    """A remove operation for stable id ``rule_id``."""
    return RuleUpdate(op=OP_REMOVE, rule_id=int(rule_id))


@dataclass
class UpdateResult:
    """What one :meth:`apply_updates` call did.

    ``epoch`` is the classifier's ruleset version *after* the batch
    (every applied batch advances it by one, including empty batches —
    epochs number the versions, not the mutations).  ``skipped`` counts
    operations that were well-formed but inapplicable — removing an id
    that is not live — which update serving tolerates by design: under
    churn, a control plane may race its own earlier removals.
    """

    epoch: int
    inserted: int = 0
    removed: int = 0
    skipped: int = 0
    #: Stable ids assigned to this batch's inserts, in batch order.
    inserted_ids: tuple[int, ...] = ()

    @property
    def applied(self) -> int:
        return self.inserted + self.removed


@dataclass(frozen=True)
class ScheduledUpdate:
    """An update batch scheduled at a packet offset of a serving trace.

    The pipeline applies the batch at the first chunk boundary at or
    after ``at_packet`` (see ``ClassificationPipeline.run``), so every
    packet is classified against one well-defined epoch.
    """

    at_packet: int
    batch: tuple[RuleUpdate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.at_packet < 0:
            raise ConfigError(
                f"at_packet must be >= 0, got {self.at_packet}"
            )


def sorted_schedule(updates) -> list[ScheduledUpdate]:
    """An update schedule — :class:`ScheduledUpdate` entries or
    ``(at_packet, batch)`` pairs — as one list ordered by offset.
    Equal offsets keep their given order (the sort is stable), so the
    schedule is fully deterministic."""
    items = [
        upd if isinstance(upd, ScheduledUpdate)
        else ScheduledUpdate(int(upd[0]), tuple(upd[1]))
        for upd in updates or ()
    ]
    return sorted(items, key=lambda upd: upd.at_packet)
