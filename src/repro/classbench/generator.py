"""Synthetic ruleset generator (ClassBench ``db_generator`` equivalent).

Given a :class:`~repro.classbench.seeds.SeedModel` and a target size, draw
unique 5-tuple rules whose marginal statistics follow the family model.
Determinism: every public entry point takes an integer ``seed`` and uses an
isolated :class:`numpy.random.Generator`, so experiments are reproducible
bit-for-bit.

The generator deliberately produces *structured* address space: prefixes
extend a small pool of shared bases, so that subsets of rules share high
order bits the way real filter sets do.  This is what gives the decision
trees their discriminating power on the 8-MSB hardware grid and reproduces
the paper's shallow acl1/ipc1 trees versus replication-heavy fw1 trees.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ConfigError
from ..core.geometry import prefix_to_range
from ..core.rules import FIVE_TUPLE, Rule
from ..core.ruleset import RuleSet
from .seeds import (
    PORT_AR,
    PORT_EM,
    PORT_HI,
    PORT_LO,
    PORT_WC,
    WELL_KNOWN_PORTS,
    PrefixModel,
    SeedModel,
    get_seed,
)


class _PrefixSampler:
    """Draws prefixes with shared-base structure for one IP dimension."""

    def __init__(
        self, model: PrefixModel, rng: np.random.Generator, n_rules: int
    ) -> None:
        self.model = model
        self.rng = rng
        # Pool of shared /16 bases: top halves of the address space that
        # many rules will refine.  Drawn once per generator run.  The pool
        # grows with the target size the way a ClassBench seed trie does —
        # large real filter sets spread over many more subnets than small
        # ones, which is what keeps big acl trees shallow (paper Table 4).
        n_bases = max(model.n_bases, n_rules // 24)
        self.bases = rng.integers(0, 1 << 16, size=n_bases, dtype=np.uint32)
        self.lengths = np.array(model.lengths(), dtype=np.int64)
        w = np.array(model.weights(), dtype=np.float64)
        self.probs = w / w.sum()

    def draw(self) -> tuple[int, int]:
        """Return (value, prefix_len)."""
        plen = int(self.rng.choice(self.lengths, p=self.probs))
        if plen == 0:
            return 0, 0
        if self.rng.random() < self.model.p_fresh:
            base = int(self.rng.integers(0, 1 << 16))
        else:
            base = int(self.bases[self.rng.integers(0, len(self.bases))])
        if plen <= 16:
            value = (base >> (16 - plen)) << (32 - plen)
        else:
            low_bits = int(self.rng.integers(0, 1 << (plen - 16)))
            value = (base << 16) | (low_bits << (32 - plen))
        return value & 0xFFFFFFFF, plen


def _draw_port(
    klass: str, rng: np.random.Generator, em_ports: np.ndarray, em_probs: np.ndarray
) -> tuple[int, int]:
    if klass == PORT_WC:
        return 0, 65535
    if klass == PORT_HI:
        return 1024, 65535
    if klass == PORT_LO:
        return 0, 1023
    if klass == PORT_EM:
        p = int(rng.choice(em_ports, p=em_probs))
        return p, p
    if klass == PORT_AR:
        # Arbitrary range: log-uniform width, mostly inside the registered
        # port space; mirrors the AR ranges seen in the published seeds.
        width = int(np.exp(rng.uniform(np.log(2), np.log(2000))))
        lo = int(rng.integers(0, 65536 - width))
        return lo, lo + width - 1
    raise ConfigError(f"unknown port class {klass!r}")


def generate_ruleset(
    family: str | SeedModel,
    n_rules: int,
    seed: int = 0,
    name: str | None = None,
    add_default_rule: bool = False,
) -> RuleSet:
    """Generate a unique-rule 5-tuple ruleset of (close to) ``n_rules``.

    Parameters
    ----------
    family:
        ``"acl1" | "fw1" | "ipc1"`` or a custom :class:`SeedModel`.
    n_rules:
        Target number of unique rules.  Oversampling plus de-duplication
        guarantees the exact count except for pathologically small spaces.
    seed:
        RNG seed; same (family, n_rules, seed) -> identical ruleset.
    add_default_rule:
        Append a lowest-priority match-everything rule, as deployed ACLs
        have.  Off by default because the paper's filter sets do not count
        one.
    """
    model = get_seed(family) if isinstance(family, str) else family
    if n_rules < 1:
        raise ConfigError("n_rules must be >= 1")
    rng = np.random.default_rng(seed)
    src_sampler = _PrefixSampler(model.src_prefix, rng, n_rules)
    dst_sampler = _PrefixSampler(model.dst_prefix, rng, n_rules)

    em_ports = np.array([p for p, _ in WELL_KNOWN_PORTS], dtype=np.int64)
    em_w = np.array([w for _, w in WELL_KNOWN_PORTS], dtype=np.float64)
    em_probs = em_w / em_w.sum()

    sp_classes = model.src_port.classes()
    sp_probs = np.array(model.src_port.weights(), dtype=np.float64)
    sp_probs /= sp_probs.sum()
    dp_classes = model.dst_port.classes()
    dp_probs = np.array(model.dst_port.weights(), dtype=np.float64)
    dp_probs /= dp_probs.sum()

    protos = list(model.proto_weights)
    proto_w = np.array([model.proto_weights[p] for p in protos], dtype=np.float64)
    proto_probs = proto_w / proto_w.sum()

    seen: set[tuple] = set()
    rules: list[Rule] = []
    attempts = 0
    max_attempts = 60 * n_rules + 1000
    while len(rules) < n_rules and attempts < max_attempts:
        attempts += 1
        if rng.random() < model.p_smoker:
            # Replication-heavy firewall shape: wildcard source IP and
            # source port.  The destination stays at least moderately
            # specified (real firewall wildcards point *out*, not both
            # ways), otherwise a handful of rules replicate into every
            # leaf of the tree.
            sip = (0, 0)
            dip = dst_sampler.draw()
            if dip[1] < 16:
                dip = (dip[0], 16)
            sport = (0, 65535)
            dport = (0, 65535) if rng.random() < 0.3 else _draw_port(
                PORT_EM, rng, em_ports, em_probs
            )
        else:
            sip = src_sampler.draw()
            dip = dst_sampler.draw()
            sp_class = str(rng.choice(sp_classes, p=sp_probs))
            dp_class = str(rng.choice(dp_classes, p=dp_probs))
            # Specificity correlation: wildcard IPs tend to wildcard ports.
            if sip[1] == 0 and rng.random() < model.p_port_follows_ip:
                sp_class = PORT_WC
            sport = _draw_port(sp_class, rng, em_ports, em_probs)
            dport = _draw_port(dp_class, rng, em_ports, em_probs)
        proto_choice = protos[int(rng.choice(len(protos), p=proto_probs))]
        proto = (0, 255) if proto_choice is None else (proto_choice, proto_choice)

        key = (sip, dip, sport, dport, proto)
        if key in seen:
            continue
        seen.add(key)
        rules.append(
            Rule(
                ranges=(
                    prefix_to_range(sip[0], sip[1], 32),
                    prefix_to_range(dip[0], dip[1], 32),
                    sport,
                    dport,
                    proto,
                ),
                priority=len(rules),
                action=len(rules),
            )
        )

    # Real filter sets are ordered specific -> general (the broad deny/
    # accept rules sit at the bottom); without this ordering an early
    # wildcard rule would shadow — and redundancy elimination would
    # legitimately delete — most of the set.  Sort by hypercube log-volume
    # (stable, so equal-volume rules keep their draw order).
    def log_volume(rule: Rule) -> float:
        vol = 0.0
        for lo, hi in rule.ranges:
            vol += float(np.log2(hi - lo + 1))
        return vol

    rules.sort(key=log_volume)
    rules = [
        Rule(ranges=r.ranges, priority=i, action=i) for i, r in enumerate(rules)
    ]
    if add_default_rule:
        rules.append(
            Rule(
                ranges=FIVE_TUPLE.universe(),
                priority=len(rules),
                action=len(rules),
            )
        )
    label = name or f"{model.name}_{n_rules}_s{seed}"
    return RuleSet(rules, FIVE_TUPLE, label)
