"""The native tier of the :class:`~repro.algorithms.flat_tree.FlatTree`
walk, of the :class:`~repro.engine.flowcache.FlowCache`, of the stage
graph's TCAM prefilter, of the trace text parser and of HyperCuts' cut
search: ``_flat_walk.c``, ``_flow_cache.c``, ``_prefilter.c``,
``_trace_text.c`` and ``_partition.c``, built once, as one library, with
the C compiler that is here.

The walk is the per-packet loop of the portable NumPy walk over the
*same* ``FlatTree`` buffers (no second table format), bit-identical on
all six :class:`~repro.algorithms.base.BatchLookup` fields.  Handed an
accelerator's leaf placement (:func:`place`), it also counts each
packet's memory-port cycles as it finishes it, bit-identical to
:class:`~repro.hw.Accelerator`'s NumPy formula over ``batch_lookup``.
The cache kernels (:func:`lookup`, :func:`commit`) are the flow cache's
two per-batch calls over its own tables (bound once), bit-identical to
its NumPy path in every table, counter and returned array;
:func:`serve` is both around the walk of the distinct misses, in one
call, for a backend whose miss classification is that walk, and
:func:`retire` is ``FlowCache.retire``'s pass over the tables after an
update batch.  The walk and the cache calls write into the arrays they
are handed (a slice of a run's outputs) and add what they wrote to a
two-cell tally: the packets with a result >= 0 and their cycles.  The prefilter calls
(:func:`flow_hash`, :func:`memo_probe`, :func:`memo_insert`) are
:class:`~repro.stages.StageGraph`'s per-packet flow hash (the flow
cache's FNV-1a) and its verdict memo, bit-identical to its NumPy path in
every hash and verdict.  The parser (:func:`parse_text`) turns whole
lines of ClassBench trace text into ``uint32`` header rows and refuses
any line outside its strict grammar, which
:func:`~repro.core.packet.read_trace_blocks` then hands to its
text-mode loop, so the rows are that loop's on every input.  The cut
search (:func:`search_cuts`) is one HyperCuts node's
``HyperCutsBuilder._search_combo`` over ``_partition.py``'s
``coord_spans`` and ``max_count_grid``, both branches, in one call: the
same chosen cut, and the counts the builder charges its ``OpCounter``
with.  There is no switch: a process uses all of them if the library
loads and every portable path if not, and :func:`status` says which and
why.

One rule splits every threaded call (docs/engine.md, "Threads inside a
native call"): :func:`walk` over its packets, :func:`serve` over its
batch (by cache set, sized by the walks it expects), :func:`parse_text`
over its lines, each into k =
``min(threads, work // least)`` jobs (``threads`` when ``least`` is 0), at
least one, where :func:`_split` passes :func:`thread_ceiling` and the
call's ``least`` or a count forced from outside; each call reports its k.
The calling thread and threads created and joined inside the call claim
the jobs from one counter, so none outlives the call and a later
``fork()`` is safe, and a thread that cannot start is one thread fewer.
The jobs touch disjoint outputs, so every output is the one-thread
output.  The other cache
calls, the prefilter and the cut search run on the calling thread; like
every ctypes call, each releases the GIL while it runs.

The first tree build or ``FlatTree`` compile (inside ``Engine.open``,
never in a timed serve) or trace file read loads ``flat_walk-<key>.so``
from ``${XDG_CACHE_HOME:-~/.cache}/repro-native/``, else the temp directory
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
from functools import cache
from importlib import resources

import numpy as np

from ..core.errors import BuildError, PacketFormatError

#: One translation unit, in this order (``source()``).
SOURCES = ("_flat_walk.c", "_flow_cache.c", "_prefilter.c", "_trace_text.c",
           "_partition.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-pthread")
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
    slot and rule count and its per-field largest value (:func:`place`);
    ``keep`` as for ``_Tables``."""

    _fields_ = [(name, ctypes.c_int64)
                for name in ("n_nodes", "rules_per_word", "ndim")] + [
        (name, ctypes.c_void_p) for name in ("pos", "n_rules", "max_value")
    ]


#: ``_Cache`` table fields and the ``FlowCache`` attributes they bind.
_CACHE_TABLES = (("keyw", "_keyw"), ("result", "_result"), ("stamp", "_stamp"),
                 ("epoch_of", "_epoch"), ("filled", "_filled"))


class _Cache(ctypes.Structure):
    """``flow_cache`` of _flow_cache.c: one ``FlowCache``'s geometry, its
    clock and its five tables, bound once per allocation (:func:`_bound`)."""

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


#: Set by the first :func:`_load`: the library this process loaded.
_kernel: _Kernel | None = None

#: Packets one job of a split walk gets at the least.  Measured, not a
#: knob: on a 2-CPU host a walk of 16,384-65,536 packets runs 1.6-1.8x
#: faster on two threads, and a thread costs ~50 us to start and join
#: (docs/engine.md, "Threads inside a native call").
MIN_SLICE = 16384

#: Distinct misses one owner of a split cached serve walks at the least,
#: as the cache's last batch counted them.  Measured, not a knob: see
#: docs/engine.md, "Split: a cached batch, over set owners".
MIN_OWNED = 4096

#: Set in a forked shard owner (:func:`one_thread`): its siblings hold
#: the host's other CPUs.
_one_thread = False


@cache
def host_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset -c 0`` on a many-core host is 1), else the host's
    count.  The one seam the pipeline's tier plan and the walk's thread
    count read it through (tests monkeypatch ``native.host_cpus`` to run
    both ``auto`` branches on any machine); asked once, it costs a
    syscall."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def thread_ceiling() -> int:
    """The most threads one native call of this process uses."""
    return 1 if _one_thread else host_cpus()


def one_thread() -> None:
    """Keep every later native call of this process on the calling
    thread: what a forked shard owner does, so ``k`` forked owners never
    start more threads than the host has CPUs."""
    global _one_thread
    _one_thread = True


def _split(least: int, threads: int | None) -> tuple[int, int]:
    """The ``(threads, least)`` a threaded call hands its C function:
    :func:`thread_ceiling` and the call's ``least``, or a forced count
    and 0 when ``threads`` is given (the tests force counts the rule
    would not pick)."""
    if threads is None:
        return thread_ceiling(), least
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads, 0


def status() -> dict:
    """Which walk this process serves with, and why (loads on first use),
    and the most threads one of its native calls uses."""
    k = _load()
    return {"kernel": "native" if k.fn else "portable", "reason": k.reason,
            "compiler": k.compiler, "path": k.path,
            "threads": thread_ceiling()}


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
    # arrays or NULLs, the three cycle arrays or NULLs, threads, least, k,
    # tally or NULL)
    fn.argtypes = [ctypes.POINTER(_Tables), ctypes.POINTER(_Placement),
                   ctypes.c_void_p, ctypes.c_int64, *[ctypes.c_void_p] * 9,
                   ctypes.c_int64, ctypes.c_int64,
                   ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p]
    fn.restype = ctypes.c_int
    ptr, i64, cache = ctypes.c_void_p, ctypes.c_int64, ctypes.POINTER(_Cache)
    for name, args, res in (
        ("fc_lookup", [cache, ptr, i64, i64, *[ptr] * 7, i64, ptr],
         ctypes.c_int),
        # (cache, tables, placement or NULL, headers, n, expect, match,
        # occupancy or NULL, hit cycles, threads, least, counts, tally)
        ("fc_serve", [cache, ctypes.POINTER(_Tables),
                      ctypes.POINTER(_Placement), ptr, i64, i64, ptr, ptr,
                      i64, i64, i64, ptr, ptr], ctypes.c_int),
        ("fc_commit", [cache, ptr, ptr, i64, ptr, ptr, ptr, ptr, i64, ptr,
                       ptr, i64, ptr, ptr], ctypes.c_int),
        ("pf_hash", [ptr, i64, i64, ptr], None),
        ("pf_probe", [ptr, i64, i64, ptr, ptr, i64, ptr, ptr], i64),
        ("pf_insert", [ptr, i64, i64, ptr, ptr, ptr, i64], None),
        # (buf, len, ndim, max_lines, out, max_rows, used, maxes, threads,
        # least)
        ("tt_parse", [ptr, i64, i64, i64, ptr, i64, ptr, ptr, i64, i64],
         ctypes.c_int),
        # (cache, removed, removes, bounds, ids, inserts)
        ("fc_retire", [cache, ptr, i64, ptr, ptr, i64], i64),
        # (bounds, region, max_exp, k, n, lo_bound, hi_bound, exhaustive,
        # out, evals, spans)
        ("cs_search", [ptr, ptr, ptr, *[i64] * 5, ptr, ptr, ptr],
         ctypes.c_int),
    ):
        getattr(lib, name).argtypes = args
        getattr(lib, name).restype = res
    # The key tables are little-endian words (``flowcache._KEY_WORD``);
    # the C loops read native ones, so elsewhere the cache (and the
    # prefilter, the trace parser, whose digit loop reads little-endian
    # words too, and the cut search, in the same library) stays portable.
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


def place(pos, n_rules, rules_per_word: int, max_value) -> _Placement:
    """The pointer table over an accelerator's leaf placement: per tree
    node, the leaf's start slot in its first word and its rule count
    (``int64``, zero for internal nodes), the rule slots per word, and
    per header field the largest value its width holds (``uint32``,
    ``2**width - 1``), which the walk checks every header against."""
    n, ndim = len(pos), len(max_value)
    if np.any(np.asarray(max_value) & (np.asarray(max_value) + 1)):
        raise BuildError("native kernel: a largest field value that is "
                         "not 2**width - 1")
    placement = _Placement(
        n, rules_per_word, ndim, _pointer("pos", pos, np.int64, (n,)),
        _pointer("n_rules", n_rules, np.int64, (n,)),
        _pointer("max_value", max_value, np.uint32, (ndim,)),
    )
    placement.keep = (pos, n_rules, max_value)
    return placement


def walk(
    tables: _Tables | None, headers32, match, stats=None,
    placement: _Placement | None = None, cycles=(), threads: int | None = None,
    tally=None,
) -> int:
    """Walk every packet of ``headers32``, split by the one rule with
    :data:`MIN_SLICE`, writing ``match`` and, when given, the five
    statistics arrays and — under ``placement`` — the ``int64`` cycle arrays
    ``cycles = (occupancy[, internal_fetches, leaf_words])``, after
    checking each header's fields against their widths
    (:class:`~repro.core.errors.PacketFormatError`, as ``PacketTrace``
    raises).  Given ``tally`` (two ``int64`` cells), the packets that
    matched and the sum of their cycles are added to it, each job's
    counts summed.  Returns the k it ran on, or 0 (nothing written) when
    there is no table or no library: the caller takes the portable
    walk."""
    fn = _load().fn
    if tables is None or fn is None:
        return 0
    n = match.shape[0]
    out = [_pointer("match", match, np.int64, (n,))]
    out += [_pointer("statistics", s, np.int32, (n,)) for s in stats or ()]
    out += [None] * (6 - len(out))
    out += [_pointer("cycles", c, np.int64, (n,)) for c in cycles]
    out += [None] * (9 - len(out))
    headers = _pointer("headers", headers32, np.uint32, (n, tables.ndim))
    k = ctypes.c_int64()
    code = fn(ctypes.byref(tables), placement, headers, n, *out,
              *_split(MIN_SLICE, threads), ctypes.byref(k),
              _optional("tally", tally, 2))
    check(code, headers32, placement)
    return k.value


def check(code: int, headers32, placement: _Placement | None) -> None:
    """Raise the error a native call (the walk, :func:`serve`, the cache
    calls) returned ``code`` for over ``headers32``: a too-wide header is the
    :class:`~repro.core.errors.PacketFormatError` ``PacketTrace`` raises,
    naming the first field any header overflows."""
    if code == 3:
        widths = placement.keep[2]
        field = int(np.flatnonzero((headers32 > widths).any(axis=0))[0])
        raise PacketFormatError(f"trace field {field} exceeds field width")
    if code == 4:
        raise MemoryError("native flow cache: out of memory")
    if code:
        raise BuildError(
            "batch traversal did not terminate" if code == 1 else
            "batch traversal left its tables (corrupt FlatTree or "
            "placement buffers)"
        )


# The flow cache: each function returns ``None`` (nothing written) when
# the library did not load, and the caller takes its NumPy path.


def _bound(cache) -> _Cache:
    """``cache``'s pointer table with its clock written in, built (and
    shape-checked) once per table allocation; a table replaced since the
    last call is noticed by identity and bound anew."""
    tables = [getattr(cache, attr) for _, attr in _CACHE_TABLES]
    bound = cache._native
    if bound is None or any(a is not b for a, b in zip(bound.keep, tables)):
        if not cache.n_sets:  # every set index would fall outside the tables
            raise BuildError("native flow cache: a zero-entry cache")
        n_words = (cache._ndim + 1) // 2
        bound = _Cache(cache.n_sets, cache.ways, cache._ndim)
        for (field, attr), table in zip(_CACHE_TABLES, tables):
            keyw = field == "keyw"
            setattr(bound, field, _pointer(
                attr, table, np.uint64 if keyw else np.int64,
                (cache.n_sets, cache.ways, n_words) if keyw
                else (cache.n_sets, cache.ways),
            ))
        bound.keep = tables
        cache._native = bound
    bound.epoch, bound.tick = int(cache.epoch), int(cache._tick)
    return bound


def lookup(cache, headers32, group: bool = True, expect: int = 0,
           match=None, occupancy=None, hit_cycles: int = 0, tally=None):
    """``FlowCache.lookup``'s ``(match, misses, rank, uniq, sets)``,
    grouping in a table first sized for ``expect`` distinct misses;
    without ``group`` the probe alone (the last three ``None``).
    ``match`` is written in place when given; ``occupancy``, when given,
    gets ``hit_cycles`` in every cell in the same pass, and ``tally``
    (two ``int64`` cells) the hits' matched count and cycles."""
    lib = _load().lib
    if lib is None:
        return None
    n, ndim = headers32.shape[0], cache._ndim
    bound = _bound(cache)
    headers = _pointer("headers", headers32, np.uint32, (n, ndim))
    match = np.empty(n, np.int64) if match is None else match
    misses = np.empty(n, np.int64)
    rank, uniq, sets = (np.empty(n, np.int64), np.empty((n, ndim), np.uint32),
                        np.empty(n, np.int64)) if group else (None,) * 3
    counts = np.zeros(2, np.int64)
    check(lib.fc_lookup(ctypes.byref(bound), headers, n, expect,
                        _pointer("match", match, np.int64, (n,)),
                        *(a if a is None else a.ctypes.data
                          for a in (misses, rank, uniq, sets, counts)),
                        _optional("occupancy", occupancy, n), hit_cycles,
                        _optional("tally", tally, 2)), headers32, None)
    m, distinct = counts
    if group:
        rank, uniq, sets = rank[:m], uniq[:distinct], sets[:distinct]
    return match, misses[:m], rank, uniq, sets


def _optional(name: str, arr, size: int):
    return None if arr is None else _pointer(name, arr, np.int64, (size,))


def serve(cache, walk, headers32, counts, match, occupancy=None,
          hit_cycles: int = 0, tally=None, threads: int | None = None):
    """One cached batch in one call (``fc_serve``), for a backend whose
    miss classification is one native walk, ``walk = (tables,
    placement)``: the batch split by the one rule with :data:`MIN_OWNED`
    over set owners, the work being the distinct misses of the cache's
    last batch, each owner probing its packets in arrival order, then
    grouping, walking and filling its own sets.  ``match``, ``occupancy`` and
    ``tally`` are written as :func:`lookup`, the walk and :func:`commit`
    write them; ``counts`` (five ``int64`` cells) gets the misses, the
    distinct misses, the evictions, the reclamations and the owners.
    Returns the call's code for :func:`check` (an error leaves every
    table as the three calls leave it), or ``None`` (nothing written)
    when the library did not load."""
    lib = _load().lib
    if lib is None:
        return None
    tables, placement = walk
    n = headers32.shape[0]
    bound = _bound(cache)
    return lib.fc_serve(
        ctypes.byref(bound), ctypes.byref(tables), placement,
        _pointer("headers", headers32, np.uint32, (n, cache._ndim)), n,
        cache._distinct, _pointer("match", match, np.int64, (n,)),
        _optional("occupancy", occupancy, n), hit_cycles,
        *_split(MIN_OWNED, threads), _pointer("counts", counts, np.int64, (5,)),
        _optional("tally", tally, 2),
    )


def commit(cache, uniq, sets, results, cycles=None, misses=None, rank=None,
           match=None, occupancy=None, tally=None):
    """``FlowCache.commit``: ``(evictions, reclamations)``.  Given the
    misses, each gets its rank's result in ``match`` and, given
    ``occupancy``, its rank's ``cycles`` there; ``tally`` (two ``int64``
    cells) gets the misses' matched count and cycles."""
    lib = _load().lib
    if lib is None:
        return None
    nd, m = uniq.shape[0], 0 if misses is None else misses.shape[0]
    n = 0 if match is None else match.shape[0]
    bound = _bound(cache)
    scatter = [None] * 4  # misses, rank, match, occupancy: all or none
    if misses is not None:
        scatter = [_pointer(name, a, np.int64, (size,)) for name, a, size in
                   (("misses", misses, m), ("rank", rank, m), ("match", match, n))]
        scatter.append(_optional("occupancy", occupancy, n))
    counts = np.zeros(2, np.int64)
    code = lib.fc_commit(
        ctypes.byref(bound),
        _pointer("uniq", uniq, np.uint32, (nd, cache._ndim)),
        _optional("sets", sets, nd), nd,
        _pointer("results", results, np.int64, (nd,)),
        _optional("cycles", cycles, nd), *scatter[:2], m, *scatter[2:], n,
        counts.ctypes.data, _optional("tally", tally, 2),
    )
    if code == 2:
        raise BuildError("native flow cache: a set index, miss or rank "
                         "outside its table")
    check(code, None, None)
    return int(counts[0]), int(counts[1])


def retire(cache, removed, bounds, ids):
    """``FlowCache.retire``'s pass over the tables: the live entries whose
    result is one of the ``removed`` ids (ascending, ``int64``), or that
    an insert with a lower id covers (``bounds``: ``(inserts, ndim, 2)``
    ``int64`` lo / hi, ``ids`` their ``int64`` ids), are tagged epoch
    -1; returns how many."""
    lib = _load().lib
    if lib is None:
        return None
    m = ids.shape[0]
    bound = _bound(cache)
    return int(lib.fc_retire(
        ctypes.byref(bound),
        _pointer("removed", removed, np.int64, removed.shape[:1]),
        removed.shape[0],
        _pointer("bounds", bounds, np.int64, (m, cache._ndim, 2)),
        _pointer("ids", ids, np.int64, (m,)), m,
    ))


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


# The trace text parser (``core/packet.py``'s ``read_trace_blocks``):
# ``None`` when the library did not load, and the reader takes its
# text-mode loop.

#: Bytes past its input the trace parser may read (never use).
TEXT_PAD = 16

#: Lines one thread of a split parse gets at the least.  Measured, not a
#: knob: on a 2-CPU host a parse of 2,048 ledger lines runs slower on two
#: threads than on one (0.94x), and one of 4,096-16,384 lines 1.1-1.4x
#: faster (docs/engine.md, "What ingest costs").
MIN_LINES = 2048


def parse_text(buf, start: int, stop: int, max_lines: int, out, row: int,
               used, maxes, threads: int | None = None):
    """Parse the whole lines of ``buf[start:stop]`` (``uint8``, readable
    :data:`TEXT_PAD` bytes past ``stop``), at most ``max_lines`` of them,
    into rows ``row:`` of ``out`` (``(rows, ndim)`` ``uint32``): ``True``
    with ``used = [rows, bytes, lines, threads]`` parsed (rows of ``out``
    past the parsed ones are scratch) and ``maxes`` (``ndim`` ``uint32``)
    raised to each column's largest value, ``False`` (``used`` and
    ``maxes`` meaningless) when a line is outside ``_trace_text.c``'s
    grammar.  The lines split by the one rule with :data:`MIN_LINES`
    (the work is what ``max_lines``, the room in ``out`` and the bytes
    allow); the rows, ``used[:3]``, ``maxes`` and the answer are one
    thread's at every k."""
    lib = _load().lib
    if lib is None:
        return None
    cap, ndim = out.shape
    if not (0 <= start <= stop and stop + TEXT_PAD <= buf.size
            and 0 <= row <= cap):
        raise BuildError("native trace parser: a window outside its buffers")
    return not lib.tt_parse(
        _pointer("buf", buf, np.uint8, buf.shape) + start, stop - start,
        ndim, max_lines,
        _pointer("out", out, np.uint32, out.shape) + row * ndim * 4,
        cap - row, _pointer("used", used, np.int64, (4,)),
        _pointer("maxes", maxes, np.uint32, (ndim,)),
        *_split(MIN_LINES, threads),
    )


# HyperCuts' combination search (``hypercuts.py``): ``None`` when the
# library did not load, refuses the node or runs out of memory, and the
# builder takes its NumPy search.


def search_cuts(axes, max_exp, n: int, lo_bound: int, hi_bound: int,
                exhaustive: bool):
    """One node's ``HyperCutsBuilder._search_combo`` in one call
    (``cs_search``): ``axes`` holds each candidate axis's ``(rule lo,
    rule hi, region lo, region hi)`` as ``_axis_bounds`` gives them,
    ``max_exp`` each axis's largest exponent, ``exhaustive`` the branch.
    Returns ``(best, fallback, evals, spans)``: the two ``(maxc, prod,
    exps)`` keys (``None`` for none), the combinations evaluated per
    number of cut axes (a list of ``k + 1``) and the spans computed."""
    lib = _load().lib
    if lib is None:
        return None
    k = len(axes)
    bounds = np.empty((k, 2, n), np.int64)
    region = np.empty((k, 2), np.int64)
    for i, (rlo, rhi, reg_lo, reg_hi) in enumerate(axes):
        bounds[i, 0], bounds[i, 1], region[i] = rlo, rhi, (reg_lo, reg_hi)
    exps = np.array(max_exp, np.int64)
    out = np.empty((2, 2 + k), np.int64)
    evals = np.empty(k + 1, np.int64)
    spans = np.empty(1, np.int64)
    code = lib.cs_search(bounds.ctypes.data, region.ctypes.data,
                         exps.ctypes.data, k, n, lo_bound, hi_bound,
                         exhaustive, out.ctypes.data, evals.ctypes.data,
                         spans.ctypes.data)
    if code:  # refused, or out of memory: the NumPy search decides
        return None
    best, fallback = (
        (int(row[0]), int(row[1]), tuple(row[2:].tolist())) if row[1] else None
        for row in out
    )
    return best, fallback, evals.tolist(), int(spans[0])
