"""Seed models for the ClassBench-style synthetic ruleset generator.

The paper evaluates on filter sets derived from the ClassBench seed
families ``acl1`` (access control list), ``fw1`` (firewall) and ``ipc1``
(IP chain); the original seed files and the WUSTL trace archive are no
longer distributed, so we embed *parameter models* of the three families
that capture the structural signatures the paper's results depend on:

* **acl1** — almost every rule fully specifies the destination (long dst
  prefixes), sources are a mix of specified prefixes and wildcards,
  destination ports are dominated by exact well-known services, protocol
  almost always exact (TCP/UDP).  Consequence: decision trees cut well on
  dst IP and stay shallow; memory grows ~linearly (paper Table 4, acl1).
* **fw1** — many wildcarded source fields and port wildcards plus a tail
  of very short prefixes.  Wildcard rules overlap every cut child, so they
  replicate across the tree; this is exactly why the paper's Table 4 shows
  fw1 memory exploding (3.3 MB for HiCuts / 8.2 MB for HyperCuts at 23 k
  rules, vs ~0.6 MB for acl1 at similar sizes).
* **ipc1** — intermediate: moderately specified sources and destinations,
  a broader protocol mix, some wildcards.

Each family is a :class:`SeedModel`: categorical distributions over prefix
lengths (with nesting/sharing behaviour driven by a pool of shared network
bases), port "classes" following the ClassBench taxonomy (WC wildcard, HI
ephemeral [1024:65535], LO well-known [0:1023], AR arbitrary range, EM
exact match) and a protocol distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

# Port class identifiers (ClassBench taxonomy).
PORT_WC = "WC"  # wildcard        [0, 65535]
PORT_HI = "HI"  # ephemeral       [1024, 65535]
PORT_LO = "LO"  # well known      [0, 1023]
PORT_AR = "AR"  # arbitrary range
PORT_EM = "EM"  # exact match

#: Well-known service ports used for EM draws (weights roughly follow the
#: frequency tables published with ClassBench).
WELL_KNOWN_PORTS: tuple[tuple[int, float], ...] = (
    (80, 0.22),
    (443, 0.13),
    (53, 0.12),
    (25, 0.08),
    (21, 0.07),
    (23, 0.05),
    (110, 0.05),
    (123, 0.04),
    (135, 0.04),
    (139, 0.04),
    (161, 0.03),
    (389, 0.03),
    (445, 0.03),
    (1433, 0.03),
    (3306, 0.02),
    (8080, 0.02),
)

#: IANA protocol numbers used in draws: TCP, UDP, ICMP, GRE, ESP, AH, OSPF.
PROTO_TCP, PROTO_UDP, PROTO_ICMP = 6, 17, 1
PROTO_GRE, PROTO_ESP, PROTO_AH, PROTO_OSPF = 47, 50, 51, 89


@dataclass(frozen=True)
class PrefixModel:
    """Distribution of prefix lengths for one IP dimension.

    ``length_weights`` maps prefix length -> relative weight.  ``n_bases``
    controls address-space sharing: values are drawn by extending one of
    ``n_bases`` shared /16 network bases, so rules cluster into subnets the
    way real filter sets do (this is what makes cutting effective).
    ``p_fresh`` is the probability of drawing an entirely fresh base
    instead of reusing the pool.
    """

    length_weights: dict[int, float]
    n_bases: int = 24
    p_fresh: float = 0.05

    def lengths(self) -> list[int]:
        return sorted(self.length_weights)

    def weights(self) -> list[float]:
        return [self.length_weights[k] for k in sorted(self.length_weights)]


@dataclass(frozen=True)
class PortModel:
    """Distribution over ClassBench port classes for one port dimension."""

    class_weights: dict[str, float]

    def classes(self) -> list[str]:
        return sorted(self.class_weights)

    def weights(self) -> list[float]:
        return [self.class_weights[k] for k in sorted(self.class_weights)]


@dataclass(frozen=True)
class SeedModel:
    """Complete parameter model for one ClassBench family."""

    name: str
    src_prefix: PrefixModel
    dst_prefix: PrefixModel
    src_port: PortModel
    dst_port: PortModel
    #: (proto_number | None for wildcard) -> weight
    proto_weights: dict[int | None, float]
    #: Probability that a rule is a "smoker": wildcard source AND ports,
    #: i.e. the replication-heavy shape that dominates firewall sets.
    p_smoker: float = 0.0
    #: Correlation between src/dst specificity: probability that a rule
    #: with a wildcard source also wildcards the source port.
    p_port_follows_ip: float = 0.6


ACL1 = SeedModel(
    name="acl1",
    src_prefix=PrefixModel(
        length_weights={
            0: 0.07,
            8: 0.02,
            16: 0.05,
            21: 0.04,
            24: 0.18,
            26: 0.06,
            27: 0.07,
            28: 0.10,
            30: 0.11,
            32: 0.30,
        },
        n_bases=16,
        p_fresh=0.04,
    ),
    dst_prefix=PrefixModel(
        length_weights={
            16: 0.02,
            21: 0.03,
            24: 0.14,
            26: 0.05,
            27: 0.08,
            28: 0.13,
            30: 0.13,
            32: 0.42,
        },
        n_bases=12,
        p_fresh=0.03,
    ),
    src_port=PortModel({PORT_WC: 0.82, PORT_HI: 0.08, PORT_LO: 0.02, PORT_AR: 0.03, PORT_EM: 0.05}),
    dst_port=PortModel({PORT_WC: 0.12, PORT_HI: 0.08, PORT_LO: 0.05, PORT_AR: 0.14, PORT_EM: 0.61}),
    proto_weights={PROTO_TCP: 0.70, PROTO_UDP: 0.22, PROTO_ICMP: 0.05, None: 0.02, PROTO_GRE: 0.01},
    p_smoker=0.01,
)

FW1 = SeedModel(
    name="fw1",
    src_prefix=PrefixModel(
        length_weights={
            0: 0.08,
            8: 0.01,
            12: 0.01,
            16: 0.10,
            20: 0.06,
            24: 0.24,
            28: 0.08,
            30: 0.10,
            32: 0.32,
        },
        n_bases=10,
        p_fresh=0.05,
    ),
    dst_prefix=PrefixModel(
        length_weights={
            0: 0.01,
            16: 0.12,
            20: 0.07,
            24: 0.26,
            27: 0.06,
            30: 0.14,
            32: 0.34,
        },
        n_bases=10,
        p_fresh=0.05,
    ),
    src_port=PortModel({PORT_WC: 0.72, PORT_HI: 0.16, PORT_LO: 0.02, PORT_AR: 0.04, PORT_EM: 0.06}),
    dst_port=PortModel({PORT_WC: 0.20, PORT_HI: 0.12, PORT_LO: 0.04, PORT_AR: 0.10, PORT_EM: 0.54}),
    proto_weights={PROTO_TCP: 0.58, PROTO_UDP: 0.22, PROTO_ICMP: 0.07, None: 0.05, PROTO_GRE: 0.05, PROTO_ESP: 0.03},
    p_smoker=0.015,
)

IPC1 = SeedModel(
    name="ipc1",
    src_prefix=PrefixModel(
        length_weights={
            0: 0.06,
            8: 0.01,
            16: 0.12,
            21: 0.05,
            24: 0.24,
            27: 0.08,
            30: 0.11,
            32: 0.33,
        },
        n_bases=14,
        p_fresh=0.05,
    ),
    dst_prefix=PrefixModel(
        length_weights={
            0: 0.01,
            16: 0.08,
            21: 0.05,
            24: 0.22,
            27: 0.09,
            30: 0.14,
            32: 0.41,
        },
        n_bases=12,
        p_fresh=0.04,
    ),
    src_port=PortModel({PORT_WC: 0.78, PORT_HI: 0.09, PORT_LO: 0.03, PORT_AR: 0.04, PORT_EM: 0.06}),
    dst_port=PortModel({PORT_WC: 0.13, PORT_HI: 0.10, PORT_LO: 0.05, PORT_AR: 0.12, PORT_EM: 0.60}),
    proto_weights={PROTO_TCP: 0.63, PROTO_UDP: 0.24, PROTO_ICMP: 0.06, None: 0.02, PROTO_OSPF: 0.03, PROTO_AH: 0.02},
    p_smoker=0.008,
)

#: Registry used by the CLI/experiments: family name -> seed model.
FAMILIES: dict[str, SeedModel] = {"acl1": ACL1, "fw1": FW1, "ipc1": IPC1}


def get_seed(name: str) -> SeedModel:
    """Look up a family model by name (raises KeyError with the options)."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown seed family {name!r}; available: {sorted(FAMILIES)}"
        ) from None
