"""The native tier of the :class:`~repro.algorithms.flat_tree.FlatTree`
walk, of the :class:`~repro.engine.flowcache.FlowCache` and of the stage
graph's TCAM prefilter: ``_flat_walk.c``, ``_flow_cache.c`` and
``_prefilter.c``, built once, as one library, with the C compiler that
is here.

The walk is the per-packet loop of the portable NumPy walk over the
*same* ``FlatTree`` buffers (no second table format), bit-identical on
all six :class:`~repro.algorithms.base.BatchLookup` fields.  Handed an
accelerator's leaf placement (:func:`place`), it also counts each
packet's memory-port cycles as it finishes it, bit-identical to
:class:`~repro.hw.Accelerator`'s NumPy formula over ``batch_lookup``.
The cache kernels (:func:`lookup`, :func:`commit`) are the flow
cache's two per-batch calls over its own tables, bit-identical to its
NumPy path in every table, counter and returned array.  The prefilter
calls (:func:`flow_hash`, :func:`memo_probe`, :func:`memo_insert`) are
:class:`~repro.stages.StageGraph`'s per-packet flow hash (the flow
cache's FNV-1a) and its verdict memo, bit-identical to its NumPy path in
every hash and verdict.  There
is no switch: a process uses all of them if the library loads and every
portable path if not, and :func:`status` says which and why.

The first ``FlatTree`` compile (inside ``Engine.open``, never in a timed
serve) loads ``flat_walk-<key>.so`` from
``${XDG_CACHE_HOME:-~/.cache}/repro-native/``, else the temp directory
(``key`` hashes the sources, compiler, flags and machine), building it
under a temporary name and ``os.replace``-ing it in when missing, so a
racing process never loads half a file.  No compiler, a failed or
timed-out build, an unwritable directory or an ``OSError`` on load leave
the portable paths in place, the reason recorded; nothing is raised.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..core.errors import BuildError

#: One translation unit, in this order (``source()``).
SOURCES = ("_flat_walk.c", "_flow_cache.c", "_prefilter.c")
FLAGS = ("-O2", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 60

# ``tables`` of _flat_walk.c in its field order: the scalars, then one
# pointer per FlatTree buffer as (name, dtype, shape rule).
_SCALARS = ("n_nodes", "naxes", "ndim", "pow2", "n_children", "n_leaf", "n_push")
_AXIS = ("ax_dim", "ax_ncuts", "ax_stride", "ax_lo", "ax_hi", "ax_span",
         "ax_mask", "ax_shift")
_CSR = ("child_base", "child_len", "leaf_base", "leaf_len", "push_base",
        "push_len")
_BUFFERS = (
    ("kind", np.int8, "node"),
    *((name, np.int64, "axis") for name in _AXIS),
    *((name, np.int64, "node") for name in _CSR),
    ("children", np.int32, "children"),
    ("leaf_rules", np.int64, "leaf"), ("push_rules", np.int64, "push"),
    ("leaf_lo", np.uint32, "leaf_bounds"), ("leaf_span", np.uint32, "leaf_bounds"),
    ("push_lo", np.uint32, "push_bounds"), ("push_span", np.uint32, "push_bounds"),
)


class _Tables(ctypes.Structure):
    """One ``FlatTree``'s pointer table; ``keep`` holds the arrays the
    pointers point into for as long as the table lives."""

    _fields_ = [(name, ctypes.c_int64) for name in _SCALARS] + [
        (name, ctypes.c_void_p) for name, _, _ in _BUFFERS
    ]


class _Placement(ctypes.Structure):
    """``placement`` of _flat_walk.c: an accelerator's per-node leaf start
    slot and rule count (:func:`place`); ``keep`` as for ``_Tables``."""

    _fields_ = [("n_nodes", ctypes.c_int64), ("rules_per_word", ctypes.c_int64),
                ("pos", ctypes.c_void_p), ("n_rules", ctypes.c_void_p)]


#: ``_Cache`` table fields and the ``FlowCache`` attributes they bind.
_CACHE_TABLES = (("keyw", "_keyw"), ("result", "_result"), ("stamp", "_stamp"),
                 ("epoch_of", "_epoch"), ("filled", "_filled"))


class _Cache(ctypes.Structure):
    """``flow_cache`` of _flow_cache.c: one ``FlowCache``'s geometry, its
    clock and its five tables, bound for one call (:func:`_bind_cache`)."""

    _fields_ = [(name, ctypes.c_int64) for name in (
        "n_sets", "ways", "ndim", "epoch", "tick",
    )] + [(field, ctypes.c_void_p) for field, _ in _CACHE_TABLES]


@dataclass(frozen=True)
class _Kernel:
    """What this process loaded: ``fn`` is ``flat_walk`` and ``lib``
    the library its ``fc_*`` flow-cache and ``pf_*`` prefilter functions
    are called on, or ``None`` (the portable paths) with the
    ``reason``."""

    fn: object = None
    lib: ctypes.CDLL | None = None
    reason: str | None = None
    compiler: str | None = None
    path: str | None = None


#: Set by the first :func:`_load`: the one piece of process-wide state.
_kernel: _Kernel | None = None


def status() -> dict:
    """Which walk this process serves with, and why (loads on first use)."""
    k = _load()
    return {"kernel": "native" if k.fn else "portable", "reason": k.reason,
            "compiler": k.compiler, "path": k.path}


def source() -> bytes:
    """The C sources as one translation unit, found the way an installed
    package finds its data; ``#line`` keeps each file's own name in the
    compiler's messages."""
    root = resources.files(__package__)
    return b"".join(
        b'#line 1 "%s"\n' % name.encode() + root.joinpath(name).read_bytes()
        for name in SOURCES
    )


def _load() -> _Kernel:
    global _kernel
    if _kernel is None:
        _kernel = _build_and_load()
    return _kernel


def _build_and_load() -> _Kernel:
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return _Kernel(reason="no C compiler (cc, gcc) on PATH")
    try:
        version = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, check=True,
            timeout=BUILD_TIMEOUT_S,
        ).stdout.partition("\n")[0]
    except (OSError, subprocess.SubprocessError) as exc:
        return _Kernel(reason=f"{cc} --version: {exc}")
    code = source()
    salt = "\0".join((version, *FLAGS, platform.machine())).encode()
    name = f"flat_walk-{hashlib.sha256(code + salt).hexdigest()[:20]}.so"
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    for folder in (os.path.join(cache, "repro-native"), tempfile.gettempdir()):
        path = os.path.join(folder, name)
        try:
            try:
                fn, lib = _open(path)
            except OSError:  # not there yet, or cut short: build it once
                _compile(cc, code, path)
                fn, lib = _open(path)
        except (OSError, subprocess.SubprocessError) as exc:
            said = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
            reason = f"{path}: {exc} {said.strip()[-300:]}".rstrip()
            continue
        return _Kernel(fn=fn, lib=lib, compiler=version, path=path)
    return _Kernel(reason=reason, compiler=version)


def _compile(cc: str, code: bytes, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-x", "c", "-o", tmp, "-"], input=code, check=True,
            capture_output=True, timeout=BUILD_TIMEOUT_S,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: str):
    mode = os.stat(path)
    if hasattr(os, "getuid") and (
        mode.st_uid != os.getuid() or mode.st_mode & 0o022
    ):  # the temp dir is shared: load only what nobody else could write
        raise OSError(f"{path} is writable by another user")
    lib = ctypes.CDLL(path)
    fn = lib.flat_walk
    # (tables, placement or NULL, headers, n, match, the five statistics
    # arrays or NULLs, the three cycle arrays or NULLs)
    fn.argtypes = [ctypes.POINTER(_Tables), ctypes.POINTER(_Placement),
                   ctypes.c_void_p, ctypes.c_int64, *[ctypes.c_void_p] * 9]
    fn.restype = ctypes.c_int
    ptr, i64, cache = ctypes.c_void_p, ctypes.c_int64, ctypes.POINTER(_Cache)
    for name, args, res in (
        ("fc_lookup", [cache, ptr, i64, i64, *[ptr] * 6], ctypes.c_int),
        ("fc_commit", [cache, ptr, ptr, i64, ptr, ptr, ptr, ptr, i64, ptr,
                       ptr, i64, i64, ptr], ctypes.c_int),
        ("pf_hash", [ptr, i64, i64, ptr], None),
        ("pf_probe", [ptr, i64, i64, ptr, ptr, i64, ptr, ptr], i64),
        ("pf_insert", [ptr, i64, i64, ptr, ptr, ptr, i64], None),
    ):
        getattr(lib, name).argtypes = args
        getattr(lib, name).restype = res
    # The key tables are little-endian words (``flowcache._KEY_WORD``);
    # the C loops read native ones, so elsewhere the cache (and the
    # prefilter, in the same library) stays NumPy.
    return fn, lib if sys.byteorder == "little" else None


def _pointer(name: str, arr, dtype, shape) -> int:
    """The address of ``arr``, once it is what the C loop will read."""
    if not (
        isinstance(arr, np.ndarray) and arr.dtype == dtype
        and arr.shape == shape and arr.flags["C_CONTIGUOUS"]
    ):
        raise BuildError(
            f"native kernel: {name} is not a C-contiguous "
            f"{np.dtype(dtype).name} array of shape {shape}"
        )
    return arr.ctypes.data


def bind(flat) -> _Tables | None:
    """The pointer table over ``flat``'s current buffers; ``FlatTree``
    calls this whenever it re-binds them (``__init__``, ``patch``), and
    the first call builds or loads the library.  ``None`` for a grid
    tree that lost its power-of-two alignment: unreachable by invariant,
    so it gets no C branch and takes the portable walk."""
    _load()
    if flat.grid_mode and not flat.pow2:
        return None
    ndim, n_nodes = flat.schema.ndim, flat.kind.size
    n_children, n_leaf, n_push = (
        flat.children.size, flat.leaf_rules.size, flat.push_rules.size
    )
    shapes = {
        "node": (n_nodes,), "axis": (flat.naxes, n_nodes),
        "children": (n_children,), "leaf": (n_leaf,), "push": (n_push,),
        "leaf_bounds": (ndim, n_leaf), "push_bounds": (ndim, n_push),
    }
    tables = _Tables(
        n_nodes, flat.naxes, ndim, flat.pow2, n_children, n_leaf, n_push
    )
    tables.keep = []
    for name, dtype, rule in _BUFFERS:
        if name in ("ax_mask", "ax_shift") and not flat.pow2:
            continue  # software trees have no mask/shift tables: NULL
        arr = getattr(flat, name)
        setattr(tables, name, _pointer(name, arr, dtype, shapes[rule]))
        tables.keep.append(arr)
    return tables


def place(pos, n_rules, rules_per_word: int) -> _Placement:
    """The pointer table over an accelerator's leaf placement: per tree
    node, the leaf's start slot in its first word and its rule count
    (``int64``, zero for internal nodes), and the rule slots per word."""
    n = len(pos)
    placement = _Placement(
        n, rules_per_word, _pointer("pos", pos, np.int64, (n,)),
        _pointer("n_rules", n_rules, np.int64, (n,)),
    )
    placement.keep = (pos, n_rules)
    return placement


def walk(
    tables: _Tables | None, headers32, match, stats=None,
    placement: _Placement | None = None, cycles=(),
) -> bool:
    """Walk every packet of ``headers32``, writing ``match`` and, when
    given, the five statistics arrays and — under ``placement`` — the
    ``int64`` cycle arrays ``cycles = (occupancy[, internal_fetches,
    leaf_words])``.  ``False`` (nothing written) when there is no table
    or no library: the caller takes the portable walk."""
    fn = _load().fn
    if tables is None or fn is None:
        return False
    n = match.shape[0]
    out = [_pointer("match", match, np.int64, (n,))]
    out += [_pointer("statistics", s, np.int32, (n,)) for s in stats or ()]
    out += [None] * (6 - len(out))
    out += [_pointer("cycles", c, np.int64, (n,)) for c in cycles]
    out += [None] * (9 - len(out))
    headers = _pointer("headers", headers32, np.uint32, (n, tables.ndim))
    code = fn(ctypes.byref(tables), placement, headers, n, *out)
    if code:
        raise BuildError(
            "batch traversal did not terminate" if code == 1 else
            "batch traversal left its tables (corrupt FlatTree or "
            "placement buffers)"
        )
    return True


# The flow cache: each function returns ``None`` (nothing written) when
# the library did not load, and the caller takes its NumPy path.


def _bind_cache(cache) -> _Cache:
    """The pointer table over ``cache``'s tables as they are now (its
    epoch and tick included); built per call, so it never outlives a
    re-allocation."""
    if not cache.n_sets:  # every set index would fall outside the tables
        raise BuildError("native flow cache: a zero-entry cache")
    n_words = (cache._ndim + 1) // 2
    bound = _Cache(cache.n_sets, cache.ways, cache._ndim, int(cache.epoch),
                   int(cache._tick))
    for field, attr in _CACHE_TABLES:
        keyw = field == "keyw"
        setattr(bound, field, _pointer(
            attr, getattr(cache, attr), np.uint64 if keyw else np.int64,
            (cache.n_sets, cache.ways, n_words) if keyw
            else (cache.n_sets, cache.ways),
        ))
    return bound


def lookup(cache, headers32, group: bool = True, expect: int = 0):
    """``FlowCache.lookup``'s ``(match, misses, rank, uniq, sets)``,
    grouping in a table first sized for ``expect`` distinct misses;
    without ``group`` the probe alone (the last three ``None``)."""
    lib = _load().lib
    if lib is None:
        return None
    n, ndim = headers32.shape[0], cache._ndim
    bound = _bind_cache(cache)
    headers = _pointer("headers", headers32, np.uint32, (n, ndim))
    match, misses = np.empty(n, np.int64), np.empty(n, np.int64)
    rank, uniq, sets = (np.empty(n, np.int64), np.empty((n, ndim), np.uint32),
                        np.empty(n, np.int64)) if group else (None,) * 3
    counts = np.zeros(2, np.int64)
    if lib.fc_lookup(ctypes.byref(bound), headers, n, expect, match.ctypes.data,
                     *(a if a is None else a.ctypes.data
                       for a in (misses, rank, uniq, sets, counts))):
        raise MemoryError("native flow cache: out of memory")
    m, distinct = counts
    if group:
        rank, uniq, sets = rank[:m], uniq[:distinct], sets[:distinct]
    return match, misses[:m], rank, uniq, sets


def _optional(name: str, arr, size: int):
    return None if arr is None else _pointer(name, arr, np.int64, (size,))


def commit(cache, uniq, sets, results, cycles=None, misses=None, rank=None,
           match=None, hit_cycles: int = 0):
    """``FlowCache.commit``: ``(occupancy, evictions, reclamations)``."""
    lib = _load().lib
    if lib is None:
        return None
    nd, m = uniq.shape[0], 0 if misses is None else misses.shape[0]
    n = 0 if match is None else match.shape[0]
    bound = _bind_cache(cache)
    scatter, occupancy = [None] * 3, None  # misses, rank, match: all or none
    if misses is not None:
        scatter = [_pointer(name, a, np.int64, (size,)) for name, a, size in
                   (("misses", misses, m), ("rank", rank, m), ("match", match, n))]
        occupancy = None if cycles is None else np.empty(n, np.int64)
    counts = np.zeros(2, np.int64)
    code = lib.fc_commit(
        ctypes.byref(bound),
        _pointer("uniq", uniq, np.uint32, (nd, cache._ndim)),
        _optional("sets", sets, nd), nd,
        _pointer("results", results, np.int64, (nd,)),
        _optional("cycles", cycles, nd), *scatter[:2], m, scatter[2],
        _optional("occupancy", occupancy, n), n, hit_cycles, counts.ctypes.data,
    )
    if code == 3:
        raise MemoryError("native flow cache: out of memory")
    if code:
        raise BuildError("native flow cache: a set index, miss or rank "
                         "outside its table")
    return occupancy, int(counts[0]), int(counts[1])


# The line card's TCAM prefilter (``stages/graph.py``): each function
# returns ``False`` / ``None`` (nothing written) when the library did not
# load, and the graph takes its NumPy path.


def flow_hash(rows, out) -> bool:
    """``out[p]`` = the flow hash of ``uint32`` header row ``p``: the
    flow cache's (``flowcache.flow_hash``)."""
    lib = _load().lib
    if lib is None:
        return False
    n, ndim = out.shape[0], np.shape(rows)[-1]
    lib.pf_hash(_pointer("rows", rows, np.uint32, (n, ndim)), n, ndim,
                _pointer("out", out, np.uint64, (n,)))
    return True


def _memo_table(slots, ndim: int):
    """The address and row count of a verdict memo of ``ndim``-column
    headers, once it is ``(power of two, ndim + 1)`` ``uint32``."""
    size = len(slots)
    if size < 1 or size & (size - 1):
        raise BuildError(f"native prefilter: {size} memo slots, not a "
                         "power of two")
    return _pointer("slots", slots, np.uint32, (size, ndim + 1)), size


def memo_probe(slots, rows, h, out):
    """``out[p]`` = the memoised verdict of header row ``p`` (flow hash
    ``h[p]``), -1 for a flow ``slots`` lacks; returns those flows'
    positions.  ``slots`` is the table of ``(header columns, verdict +
    2)`` rows, tag ``0`` empty."""
    lib = _load().lib
    if lib is None:
        return None
    n, ndim = out.shape[0], np.shape(rows)[-1]
    table, size = _memo_table(slots, ndim)
    unseen = np.empty(n, np.int64)
    m = lib.pf_probe(
        table, size, ndim, _pointer("rows", rows, np.uint32, (n, ndim)),
        _pointer("h", h, np.uint64, (n,)), n,
        _pointer("out", out, np.int64, (n,)), unseen.ctypes.data,
    )
    if m < 0:
        raise BuildError("native prefilter: a memo with no empty slot")
    return unseen[:m]


def memo_insert(slots, rows, h, verdicts, n_flows: int) -> bool:
    """Insert header ``rows`` (distinct flows, none in ``slots`` yet;
    flow hashes ``h``) with their ``verdicts`` into a memo holding
    ``n_flows``; refused past half full."""
    lib = _load().lib
    if lib is None:
        return False
    k, ndim = len(h), np.shape(rows)[-1]
    table, size = _memo_table(slots, ndim)
    args = (table, size, ndim, _pointer("rows", rows, np.uint32, (k, ndim)),
            _pointer("h", h, np.uint64, (k,)),
            _pointer("verdicts", verdicts, np.int64, (k,)), k)
    if n_flows < 0 or 2 * (n_flows + k) > size:
        raise BuildError(f"native prefilter: {n_flows} + {k} flows past "
                         f"half of {size} memo slots")
    if k and not -1 <= verdicts.min() <= verdicts.max() < 2**32 - 2:
        raise BuildError("native prefilter: a verdict below -1 or past "
                         "the uint32 tag")  # the tag would read as empty
    lib.pf_insert(*args)
    return True
