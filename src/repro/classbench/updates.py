"""Update-trace generation (the ClassBench of rule churn).

ClassBench synthesises rulesets and packet traces; an update-serving
evaluation additionally needs a *rule churn* workload — a seeded stream
of inserts and removes scheduled along a packet trace.  This module
generates one the same way the trace generator works: new rules are
derived from the ruleset itself (a random existing rule, narrowed
per-dimension), so inserts land in populated regions of the space and
actually perturb the search structure, and removals pick uniformly
among the rules still live *under the generated stream itself* (the
generator tracks stable ids exactly like the classifiers do, so a
remove always names a live id at its point in the stream).

Narrowing keeps every field prefix-shaped or exact: a prefix field
deepens to a random sub-prefix, anything else collapses to a random
exact value inside the source interval.  That keeps generated rules
valid for the software backends — including tuple-space search, whose
tuple derivation assumes prefix-shaped IP fields — and for the
ClassBench file format.  It does *not* keep them valid for the
accelerator: a wildcard protocol ``(0, 255)`` is a prefix too, so it can
deepen to e.g. ``(192, 255)``, and :func:`repro.hw.encoding.encode_rule`
encodes only an exact or wildcard protocol (an ``EncodingError``
otherwise).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ConfigError
from ..core.geometry import range_is_prefix
from ..core.rules import Rule
from ..core.ruleset import RuleSet
from ..core.updates import RuleUpdate, ScheduledUpdate, insert_op, remove_op


def _derive_rule(
    src: Rule, schema, rng: np.random.Generator, keep_prob: float = 0.4
) -> Rule:
    """A new rule inside ``src``'s hypercube, prefix/exact per field."""
    ranges = []
    for d, (lo, hi) in enumerate(src.ranges):
        span = hi - lo + 1
        if span == 1 or rng.random() < keep_prob:
            ranges.append((lo, hi))
            continue
        width = schema.widths[d]
        if range_is_prefix(lo, hi, width):
            # Deepen the prefix by 1..4 bits (clamped to the field).
            src_plen = width - (span.bit_length() - 1)
            plen = min(width, src_plen + int(rng.integers(1, 5)))
            block = 1 << (width - plen)
            n_blocks = span // block
            new_lo = lo + int(rng.integers(n_blocks)) * block
            ranges.append((new_lo, new_lo + block - 1))
        else:
            # Arbitrary ranges (ports) collapse to a random exact value.
            v = lo + int(rng.integers(span))
            ranges.append((v, v))
    rule = Rule(ranges=tuple(ranges), priority=src.priority, action=src.action)
    rule.validate(schema)
    return rule


def generate_update_stream(
    ruleset: RuleSet,
    n_updates: int,
    n_packets: int,
    insert_fraction: float = 0.5,
    batch_size: int = 8,
    seed: int = 0,
) -> list[ScheduledUpdate]:
    """Generate a seeded insert/remove stream scheduled along a trace.

    Parameters
    ----------
    n_updates:
        Total update operations in the stream.
    n_packets:
        Length of the packet trace the stream rides along; batches are
        scheduled at evenly spaced offsets strictly inside ``(0,
        n_packets)`` so the pipeline observes every epoch.
    insert_fraction:
        Probability an operation is an insert (removals otherwise; a
        stream that runs out of live rules falls back to inserting).
    batch_size:
        Operations per :class:`~repro.core.updates.ScheduledUpdate`
        batch (the control-plane's re-sync granularity).
    """
    if n_updates < 1:
        raise ConfigError("n_updates must be >= 1")
    if n_packets < 1:
        raise ConfigError("n_packets must be >= 1")
    if not 0.0 <= insert_fraction <= 1.0:
        raise ConfigError("insert_fraction must be in [0, 1]")
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if len(ruleset) == 0:
        raise ConfigError("cannot generate updates for an empty ruleset")

    rng = np.random.default_rng(seed)
    live = list(range(len(ruleset)))
    next_id = len(ruleset)
    ops: list[RuleUpdate] = []
    for _ in range(n_updates):
        if rng.random() < insert_fraction or not live:
            src = ruleset.rules[int(rng.integers(len(ruleset)))]
            ops.append(insert_op(_derive_rule(src, ruleset.schema, rng)))
            live.append(next_id)
            next_id += 1
        else:
            ops.append(remove_op(live.pop(int(rng.integers(len(live))))))

    batches = [
        tuple(ops[i : i + batch_size])
        for i in range(0, len(ops), batch_size)
    ]
    offsets = np.linspace(0, n_packets, num=len(batches) + 2)[1:-1]
    # Clamp into [1, n_packets-1] so no batch lands at offset 0 (which
    # would hide the pre-update epoch) or past the trace (degenerate
    # traces shorter than the batch count excepted).
    hi = max(1, n_packets - 1)
    return [
        ScheduledUpdate(at_packet=min(max(1, int(round(at))), hi),
                        batch=batch)
        for at, batch in zip(offsets, batches)
    ]


def churn_schedule(
    ruleset: RuleSet,
    rate_per_kpkt: int,
    n_packets: int,
    insert_fraction: float = 0.5,
    batch_size: int = 8,
    seed: int = 0,
) -> list[ScheduledUpdate]:
    """Rate-based churn plumbing for sweep grids.

    The sweep axes express churn as a *rate* — update operations per
    1000 served packets — so cells with different trace lengths stay
    comparable.  This converts the rate into a concrete
    :func:`generate_update_stream` (at least one full batch, so a
    nonzero rate always exercises the update path); a zero rate returns
    an empty schedule.
    """
    if rate_per_kpkt < 0:
        raise ConfigError(
            f"rate_per_kpkt must be >= 0, got {rate_per_kpkt}"
        )
    if rate_per_kpkt == 0:
        return []
    n_updates = max(batch_size, int(round(rate_per_kpkt * n_packets / 1000)))
    return generate_update_stream(
        ruleset,
        n_updates,
        n_packets,
        insert_fraction=insert_fraction,
        batch_size=batch_size,
        seed=seed,
    )
