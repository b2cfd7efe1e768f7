"""Ruleset container and ClassBench filter-file I/O.

The evaluation workloads of the paper are ClassBench-style filter sets
(acl1 / fw1 / ipc1 families).  :class:`RuleSet` is the library's central
container: an ordered list of :class:`~repro.core.rules.Rule` (order =
priority, first match wins) plus its :class:`~repro.core.rules.FieldSchema`
and a lazily-built structure-of-arrays view for the vectorised code paths.

File format (ClassBench ``db_generator`` output)::

    @198.51.100.0/24  10.0.0.0/8  0 : 65535  1024 : 65535  0x06/0xFF

with one rule per line.  A sixth flags column, when present, is preserved
but not classified on (the paper's hardware classifies the 5-tuple only).
"""

from __future__ import annotations

import re
from typing import Iterator, Sequence

import numpy as np

from .errors import RuleFormatError
from .packet import PacketTrace
from .rules import FIVE_TUPLE, FieldSchema, Rule, RuleArrays

_PREFIX_RE = re.compile(r"^@?(\d+)\.(\d+)\.(\d+)\.(\d+)/(\d+)$")
_RANGE_RE = re.compile(r"^(\d+)\s*:\s*(\d+)$")
_PROTO_RE = re.compile(r"^0x([0-9a-fA-F]{1,2})/0x([0-9a-fA-F]{1,2})$")


def _parse_ip_prefix(token: str) -> tuple[int, int]:
    m = _PREFIX_RE.match(token)
    if not m:
        raise RuleFormatError(f"bad IP prefix {token!r}")
    a, b, c, d, plen = (int(g) for g in m.groups())
    for octet in (a, b, c, d):
        if octet > 255:
            raise RuleFormatError(f"bad IP octet in {token!r}")
    if plen > 32:
        raise RuleFormatError(f"bad prefix length in {token!r}")
    value = (a << 24) | (b << 16) | (c << 8) | d
    host = 32 - plen
    lo = (value >> host) << host
    return lo, lo | ((1 << host) - 1)


def _format_ip_prefix(lo: int, hi: int) -> str:
    span = hi - lo + 1
    if span & (span - 1):
        raise RuleFormatError(f"[{lo},{hi}] not a prefix block")
    plen = 32 - (span.bit_length() - 1)
    return (
        f"{(lo >> 24) & 255}.{(lo >> 16) & 255}.{(lo >> 8) & 255}.{lo & 255}/{plen}"
    )


class RuleSet:
    """An ordered classification ruleset with first-match-wins semantics."""

    def __init__(
        self,
        rules: Sequence[Rule],
        schema: FieldSchema = FIVE_TUPLE,
        name: str = "ruleset",
    ) -> None:
        self.schema = schema
        self.name = name
        self.rules: list[Rule] = []
        for i, rule in enumerate(rules):
            rule.validate(schema)
            if rule.priority != i:
                rule = Rule(ranges=rule.ranges, priority=i, action=rule.action)
            self.rules.append(rule)
        self._arrays: RuleArrays | None = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __getitem__(self, i: int) -> Rule:
        return self.rules[i]

    @property
    def arrays(self) -> RuleArrays:
        """Structure-of-arrays view, built once and cached."""
        if self._arrays is None:
            self._arrays = RuleArrays(self.rules, self.schema)
        return self._arrays

    # ------------------------------------------------------------------
    # Classification oracle
    # ------------------------------------------------------------------
    def classify(self, header: Sequence[int]) -> int:
        """First-match rule index for ``header`` (-1 when nothing matches).

        This is the semantic oracle every accelerated classifier in the
        library must agree with.
        """
        return self.arrays.first_match(header)

    def classify_trace(self, trace: PacketTrace) -> np.ndarray:
        return self.arrays.batch_match(trace.headers)

    # ------------------------------------------------------------------
    # Mutation (incremental updates, which HiCuts/HyperCuts support)
    # ------------------------------------------------------------------
    def append(self, rule: Rule) -> None:
        rule.validate(self.schema)
        appended = Rule(
            ranges=rule.ranges, priority=len(self.rules), action=rule.action
        )
        self.rules.append(appended)
        # Extend the cached SoA view in place instead of dropping it: an
        # insert on a large serving ruleset then costs one buffer copy,
        # not a full per-rule rebuild (the update-serving hot path).
        if self._arrays is not None:
            self._arrays.append_rule(appended)

    def remove(self, index: int) -> Rule:
        removed = self.rules.pop(index)
        self.rules = [
            Rule(ranges=r.ranges, priority=i, action=r.action)
            for i, r in enumerate(self.rules)
        ]
        self._arrays = None
        return removed

    def subset(self, n: int, name: str | None = None) -> "RuleSet":
        """First ``n`` rules as a new ruleset (used for size sweeps)."""
        return RuleSet(
            self.rules[:n], self.schema, name or f"{self.name}[:{n}]"
        )

    # ------------------------------------------------------------------
    # Statistics used by the generator tests and the experiments' shapes
    # ------------------------------------------------------------------
    def wildcard_fraction(self, dim: int) -> float:
        if not self.rules:
            return 0.0
        full = self.schema.full_range(dim)
        return sum(1 for r in self.rules if r.ranges[dim] == full) / len(self.rules)

    def storage_bytes(self) -> int:
        """Bytes to store the raw ruleset (one 160-bit word per rule, the
        paper's leaf encoding width)."""
        return len(self.rules) * 20

    # ------------------------------------------------------------------
    # ClassBench file I/O (5-tuple schema only)
    # ------------------------------------------------------------------
    @staticmethod
    def load(path: str, name: str | None = None) -> "RuleSet":
        rules: list[Rule] = []
        with open(path, "r", encoding="ascii") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rules.append(_parse_filter_line(line, len(rules)))
                except RuleFormatError as exc:
                    raise RuleFormatError(f"{path}:{ln}: {exc}") from exc
        return RuleSet(rules, FIVE_TUPLE, name or path)

    def save(self, path: str) -> None:
        if self.schema is not FIVE_TUPLE:
            raise RuleFormatError("ClassBench format requires the 5-tuple schema")
        with open(path, "w", encoding="ascii") as fh:
            for rule in self.rules:
                fh.write(_format_filter_line(rule) + "\n")


def _parse_filter_line(line: str, priority: int) -> Rule:
    # Tokenize: prefixes and proto are whitespace-free; port ranges contain
    # "lo : hi" so we re-join around ':'.
    parts = line.replace(":", " : ").split()
    # Expected layout: sip dip slo : shi dlo : dhi proto [flags]; the
    # source-IP token may carry ClassBench's leading ``@`` (the prefix
    # regex accepts it either way).
    if len(parts) < 9:
        raise RuleFormatError(f"too few tokens in {line!r}")
    sip = _parse_ip_prefix(parts[0])
    dip = _parse_ip_prefix(parts[1])
    if parts[3] != ":" or parts[6] != ":":
        raise RuleFormatError(f"bad port ranges in {line!r}")
    sport = (int(parts[2]), int(parts[4]))
    dport = (int(parts[5]), int(parts[7]))
    for lo, hi in (sport, dport):
        if lo > hi or hi > 0xFFFF:
            raise RuleFormatError(f"bad port range [{lo}, {hi}]")
    m = _PROTO_RE.match(parts[8])
    if not m:
        raise RuleFormatError(f"bad protocol token {parts[8]!r}")
    pval, pmask = int(m.group(1), 16), int(m.group(2), 16)
    proto = (pval, pval) if pmask == 0xFF else (0, 255)
    if pmask not in (0x00, 0xFF):
        raise RuleFormatError(f"unsupported protocol mask {pmask:#x}")
    return Rule(
        ranges=(sip, dip, sport, dport, proto), priority=priority, action=priority
    )


def _format_filter_line(rule: Rule) -> str:
    sip, dip, sport, dport, proto = rule.ranges
    if proto == (0, 255):
        proto_tok = "0x00/0x00"
    elif proto[0] == proto[1]:
        proto_tok = f"0x{proto[0]:02X}/0xFF"
    else:
        raise RuleFormatError(f"protocol range {proto} not representable")
    return (
        f"@{_format_ip_prefix(*sip)}\t{_format_ip_prefix(*dip)}\t"
        f"{sport[0]} : {sport[1]}\t{dport[0]} : {dport[1]}\t{proto_tok}"
    )
