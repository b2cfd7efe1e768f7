"""The native tier of the :class:`~repro.algorithms.flat_tree.FlatTree`
walk: ``_flat_walk.c``, built once with the C compiler that is here.

The C function is the per-packet loop of the portable NumPy walk over
the *same* ``FlatTree`` buffers (no second table format), bit-identical
on all six :class:`~repro.algorithms.base.BatchLookup` fields.  Handed
an accelerator's leaf placement (:func:`place`), it also counts each
packet's memory-port cycles as it finishes it, bit-identical to
:class:`~repro.hw.Accelerator`'s NumPy formula over ``batch_lookup``.
There is no switch: a process uses it if it loads and the portable walk
if not, and :func:`status` says which and why.

The first ``FlatTree`` compile (inside ``Engine.open``, never in a timed
serve) looks for ``flat_walk-<key>.so`` in
``${XDG_CACHE_HOME:-~/.cache}/repro-native/``, then in the temp
directory; ``key`` hashes the source, the compiler's version line, the
flags and ``platform.machine()``.  A missing, truncated or foreign file
is built under a temporary name and moved into place with
``os.replace``, so a racing process never loads half a file.  No
compiler, a failed or timed-out build, an unwritable directory or an
``OSError`` on load leave the portable walk in place with the reason
recorded; nothing is raised.  docs/engine.md has the full account.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..core.errors import BuildError

SOURCE = "_flat_walk.c"
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


@dataclass(frozen=True)
class _Kernel:
    """What this process loaded: ``fn`` is ``flat_walk``, or ``None``
    (the portable walk) with the ``reason``."""

    fn: object = None
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
    """The C source, found the way an installed package finds its data."""
    return resources.files(__package__).joinpath(SOURCE).read_bytes()


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
                fn = _open(path)
            except OSError:  # not there yet, or cut short: build it once
                _compile(cc, code, path)
                fn = _open(path)
        except (OSError, subprocess.SubprocessError) as exc:
            said = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
            reason = f"{path}: {exc} {said.strip()[-300:]}".rstrip()
            continue
        return _Kernel(fn=fn, compiler=version, path=path)
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
    fn = ctypes.CDLL(path).flat_walk
    # (tables, placement or NULL, headers, n, match, the five statistics
    # arrays or NULLs, the three cycle arrays or NULLs)
    fn.argtypes = [ctypes.POINTER(_Tables), ctypes.POINTER(_Placement),
                   ctypes.c_void_p, ctypes.c_int64, *[ctypes.c_void_p] * 9]
    fn.restype = ctypes.c_int
    return fn


def _pointer(name: str, arr, dtype, shape) -> int:
    """The address of ``arr``, once it is what the C loop will read."""
    if not (
        isinstance(arr, np.ndarray) and arr.dtype == dtype
        and arr.shape == shape and arr.flags["C_CONTIGUOUS"]
    ):
        raise BuildError(
            f"native walk: {name} is not a C-contiguous "
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
