"""Bit-exact encodings of the accelerator's memory word formats.

Section 3 of the paper fixes the geometry:

* memory words are **4800 bits** wide (spread over 134 block RAMs);
* a word holds either **one internal node** or **up to 30 rules**;
* an internal node carries up to **256 child entries** of
  ``1 (leaf flag) + 12 (word address) + 5 (start position)`` bits
  (256 × 18 = 4608 bits) plus an **8-bit mask and 8-bit shift per
  dimension** (5 × 16 = 80 bits) — 4688 bits, fitting one word;
* a stored rule uses **160 bits**: 32+32 bits for the two port ranges
  (16-bit min/max each), 35 bits per IP address (32 address + 3 encoded
  mask), 9 bits protocol (8 value + 1 exact flag) and a 16-bit rule
  number.  That sums to 159; we use the remaining bit as an explicit
  *end-of-leaf* flag, which is how the search knows where a leaf's rule
  list stops (the paper leaves this mechanism implicit).

Two encodings the paper leaves under-specified are realised as follows:

* **3-bit IP mask**: field values 0-4 directly encode prefix lengths
  28-32 (the address bits are all significant); field value 5 means the
  prefix length (0-27) is stored in the 5 least-significant address bits,
  which are don't-care host bits for those lengths.  Decode is
  unambiguous and tests round-trip all 33 lengths.
* **Signed shifts**: the child-index datapath computes
  ``sum_d ((msb8_d & mask_d) >> shift_d)``; combining several dimensions
  can require left shifts, so the 8-bit shift field is two's-complement
  (negative = shift left).

Words are manipulated as Python ints (arbitrary precision) and stored as
600-byte big-endian blocks in the :class:`~repro.hw.memory.MemoryImage`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import EncodingError
from ..core.geometry import range_is_prefix
from ..core.rules import Rule

WORD_BITS = 4800
WORD_BYTES = WORD_BITS // 8  # 600
RULE_BITS = 160
RULES_PER_WORD = WORD_BITS // RULE_BITS  # 30
MAX_CHILDREN = 256
CHILD_ENTRY_BITS = 18  # 1 leaf flag + 12 word address + 5 start position
ADDR_BITS = 12
POS_BITS = 5
NDIM = 5
MASK_SHIFT_BITS = 16  # 8-bit mask + 8-bit shift per dimension
NODE_BITS = MAX_CHILDREN * CHILD_ENTRY_BITS + NDIM * MASK_SHIFT_BITS  # 4688

#: Sentinel child entry marking "no rules in this sub-region": an
#: impossible address (the accelerator has 1024 words; 0xFFF > 1023).
EMPTY_ADDR = 0xFFF

#: Rule-number sentinel for unused rule slots in a leaf word.
INVALID_RULE_ID = 0xFFFF


# ---------------------------------------------------------------------------
# Bit helpers
# ---------------------------------------------------------------------------
def set_bits(word: int, offset: int, width: int, value: int) -> int:
    """Return ``word`` with ``value`` stored at ``[offset, offset+width)``.

    Bit 0 is the least significant bit of the 4800-bit word.
    """
    if value < 0 or value >> width:
        raise EncodingError(f"value {value} does not fit in {width} bits")
    mask = ((1 << width) - 1) << offset
    return (word & ~mask) | (value << offset)


def get_bits(word: int, offset: int, width: int) -> int:
    """Extract the ``width``-bit field at ``offset``."""
    return (word >> offset) & ((1 << width) - 1)


def word_to_bytes(word: int) -> bytes:
    return word.to_bytes(WORD_BYTES, "big")


def word_from_bytes(data: bytes) -> int:
    if len(data) != WORD_BYTES:
        raise EncodingError(f"memory word must be {WORD_BYTES} bytes")
    return int.from_bytes(data, "big")


# ---------------------------------------------------------------------------
# IP prefix mask encoding (35 bits per address: 32 address + 3 mask code)
# ---------------------------------------------------------------------------
def encode_ip_prefix(lo: int, hi: int) -> tuple[int, int]:
    """Encode an IP range (must be a prefix block) as (addr32, mask3)."""
    if not range_is_prefix(lo, hi, 32):
        raise EncodingError(f"IP range [{lo}, {hi}] is not a prefix block")
    span = hi - lo + 1
    plen = 32 - (span.bit_length() - 1)
    if plen >= 28:
        return lo, plen - 28
    # plen <= 27: at least 5 host bits are don't-care; stash the length
    # there and flag with mask code 5.
    addr = (lo & ~0x1F) | plen
    return addr, 5


def decode_ip_prefix(addr: int, mask3: int) -> tuple[int, int]:
    """Inverse of :func:`encode_ip_prefix` -> (lo, hi)."""
    if mask3 <= 4:
        plen = 28 + mask3
    elif mask3 == 5:
        plen = addr & 0x1F
        if plen > 27:
            raise EncodingError(f"invalid embedded prefix length {plen}")
    else:
        raise EncodingError(f"invalid mask code {mask3}")
    host = 32 - plen
    lo = (addr >> host) << host
    return lo, lo | ((1 << host) - 1)


# ---------------------------------------------------------------------------
# 160-bit rule slots
# ---------------------------------------------------------------------------
# Field offsets inside a rule slot (LSB first):
_RULE_LAYOUT = {
    "src_port_lo": (0, 16),
    "src_port_hi": (16, 16),
    "dst_port_lo": (32, 16),
    "dst_port_hi": (48, 16),
    "src_ip_addr": (64, 32),
    "src_ip_mask": (96, 3),
    "dst_ip_addr": (99, 32),
    "dst_ip_mask": (131, 3),
    "proto_value": (134, 8),
    "proto_exact": (142, 1),
    "rule_id": (143, 16),
    "end_of_leaf": (159, 1),
}


def encode_rule(rule: Rule, rule_id: int, end_of_leaf: bool) -> int:
    """Encode one rule into a 160-bit slot value.

    The rule must use the 5-tuple schema with prefix IP ranges and an
    exact-or-wildcard protocol (which is what ClassBench filter sets and
    our generator produce).
    """
    if len(rule.ranges) != 5:
        raise EncodingError("hardware rules must be 5-tuple")
    sip, dip, sport, dport, proto = rule.ranges
    if rule_id >= INVALID_RULE_ID:
        raise EncodingError(f"rule id {rule_id} exceeds the 16-bit field")
    sip_addr, sip_mask = encode_ip_prefix(*sip)
    dip_addr, dip_mask = encode_ip_prefix(*dip)
    if proto == (0, 255):
        proto_value, proto_exact = 0, 0
    elif proto[0] == proto[1]:
        proto_value, proto_exact = proto[0], 1
    else:
        raise EncodingError(f"protocol range {proto} not encodable (9 bits)")
    for lo, hi in (sport, dport):
        if not 0 <= lo <= hi <= 0xFFFF:
            raise EncodingError(f"bad port range [{lo}, {hi}]")

    slot = 0
    values = {
        "src_port_lo": sport[0],
        "src_port_hi": sport[1],
        "dst_port_lo": dport[0],
        "dst_port_hi": dport[1],
        "src_ip_addr": sip_addr,
        "src_ip_mask": sip_mask,
        "dst_ip_addr": dip_addr,
        "dst_ip_mask": dip_mask,
        "proto_value": proto_value,
        "proto_exact": proto_exact,
        "rule_id": rule_id,
        "end_of_leaf": int(end_of_leaf),
    }
    for name, value in values.items():
        offset, width = _RULE_LAYOUT[name]
        slot = set_bits(slot, offset, width, value)
    return slot


@dataclass(frozen=True)
class DecodedRule:
    """A rule slot decoded back into matchable intervals."""

    ranges: tuple[tuple[int, int], ...]
    rule_id: int
    end_of_leaf: bool

    @property
    def valid(self) -> bool:
        return self.rule_id != INVALID_RULE_ID

    def matches(self, header) -> bool:
        return all(
            lo <= int(v) <= hi for (lo, hi), v in zip(self.ranges, header)
        )


def decode_rule(slot: int) -> DecodedRule:
    """Decode a 160-bit slot (inverse of :func:`encode_rule`)."""
    f = {name: get_bits(slot, off, w) for name, (off, w) in _RULE_LAYOUT.items()}
    if f["rule_id"] == INVALID_RULE_ID:
        return DecodedRule(
            ranges=((0, 0),) * 5, rule_id=INVALID_RULE_ID,
            end_of_leaf=bool(f["end_of_leaf"]),
        )
    sip = decode_ip_prefix(f["src_ip_addr"], f["src_ip_mask"])
    dip = decode_ip_prefix(f["dst_ip_addr"], f["dst_ip_mask"])
    proto = (f["proto_value"],) * 2 if f["proto_exact"] else (0, 255)
    return DecodedRule(
        ranges=(
            sip,
            dip,
            (f["src_port_lo"], f["src_port_hi"]),
            (f["dst_port_lo"], f["dst_port_hi"]),
            proto,
        ),
        rule_id=f["rule_id"],
        end_of_leaf=bool(f["end_of_leaf"]),
    )


def empty_rule_slot(end_of_leaf: bool = False) -> int:
    """An unused rule slot (never matches)."""
    slot = set_bits(0, *_RULE_LAYOUT["rule_id"], INVALID_RULE_ID)
    if end_of_leaf:
        slot = set_bits(slot, *_RULE_LAYOUT["end_of_leaf"], 1)
    return slot


# ---------------------------------------------------------------------------
# Internal-node words
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ChildEntry:
    """One decoded child pointer."""

    is_leaf: bool
    addr: int
    pos: int

    @property
    def is_empty(self) -> bool:
        return self.addr == EMPTY_ADDR


@dataclass(frozen=True)
class DecodedNode:
    """An internal-node word decoded into datapath parameters."""

    masks: tuple[int, ...]  # 8-bit mask per dimension
    shifts: tuple[int, ...]  # signed shift per dimension (+right / -left)
    entries: tuple[ChildEntry, ...]

    def child_index(self, msb8: tuple[int, ...] | list[int]) -> int:
        """The mask/shift/add computation of Section 3 / Figure 4."""
        idx = 0
        for m, s, v in zip(self.masks, self.shifts, msb8):
            masked = v & m
            idx += (masked >> s) if s >= 0 else (masked << -s)
        return idx


def _encode_shift(shift: int) -> int:
    if not -128 <= shift <= 127:
        raise EncodingError(f"shift {shift} out of int8 range")
    return shift & 0xFF


def _decode_shift(raw: int) -> int:
    return raw - 256 if raw >= 128 else raw


def encode_internal_node(
    masks: list[int],
    shifts: list[int],
    entries: list[ChildEntry],
) -> int:
    """Encode an internal node word.

    ``entries`` may be shorter than 256; remaining slots become empty.
    Layout (LSB first): 256 child entries of 18 bits each, then per-dim
    (mask, shift) pairs.
    """
    if len(masks) != NDIM or len(shifts) != NDIM:
        raise EncodingError(f"need {NDIM} masks/shifts")
    if len(entries) > MAX_CHILDREN:
        raise EncodingError(
            f"{len(entries)} children exceed the {MAX_CHILDREN}-entry limit"
        )
    word = 0
    for i in range(MAX_CHILDREN):
        if i < len(entries):
            e = entries[i]
            if e.addr != EMPTY_ADDR and e.addr >> ADDR_BITS:
                raise EncodingError(f"word address {e.addr} exceeds 12 bits")
            if e.pos >> POS_BITS:
                raise EncodingError(f"start position {e.pos} exceeds 5 bits")
            value = (int(e.is_leaf)) | (e.addr << 1) | (e.pos << (1 + ADDR_BITS))
        else:
            value = 1 | (EMPTY_ADDR << 1)
        word = set_bits(word, i * CHILD_ENTRY_BITS, CHILD_ENTRY_BITS, value)
    base = MAX_CHILDREN * CHILD_ENTRY_BITS
    for d in range(NDIM):
        word = set_bits(word, base + d * MASK_SHIFT_BITS, 8, masks[d])
        word = set_bits(
            word, base + d * MASK_SHIFT_BITS + 8, 8, _encode_shift(shifts[d])
        )
    return word


def decode_internal_node(word: int) -> DecodedNode:
    """Inverse of :func:`encode_internal_node`."""
    entries = []
    for i in range(MAX_CHILDREN):
        raw = get_bits(word, i * CHILD_ENTRY_BITS, CHILD_ENTRY_BITS)
        entries.append(
            ChildEntry(
                is_leaf=bool(raw & 1),
                addr=(raw >> 1) & (EMPTY_ADDR),
                pos=raw >> (1 + ADDR_BITS),
            )
        )
    base = MAX_CHILDREN * CHILD_ENTRY_BITS
    masks, shifts = [], []
    for d in range(NDIM):
        masks.append(get_bits(word, base + d * MASK_SHIFT_BITS, 8))
        shifts.append(_decode_shift(get_bits(word, base + d * MASK_SHIFT_BITS + 8, 8)))
    return DecodedNode(masks=tuple(masks), shifts=tuple(shifts), entries=tuple(entries))


def pack_leaf_word(slots: list[int]) -> int:
    """Pack up to 30 rule slots into one word (slot 0 at the LSB end)."""
    if len(slots) > RULES_PER_WORD:
        raise EncodingError(f"{len(slots)} slots exceed {RULES_PER_WORD}/word")
    word = 0
    for i, slot in enumerate(slots):
        word = set_bits(word, i * RULE_BITS, RULE_BITS, slot)
    for i in range(len(slots), RULES_PER_WORD):
        word = set_bits(word, i * RULE_BITS, RULE_BITS, empty_rule_slot())
    return word


def unpack_leaf_word(word: int) -> list[int]:
    """Split a word into its 30 rule slots."""
    return [get_bits(word, i * RULE_BITS, RULE_BITS) for i in range(RULES_PER_WORD)]
