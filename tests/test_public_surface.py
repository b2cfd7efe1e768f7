"""Each package exports only what its callers import.

A name in a package's ``__all__`` must import from the package and have
a caller outside it: a non-``__init__`` module elsewhere in ``src/``,
``benchmarks/``, ``examples/`` or a code sample in ``docs/``.  A
re-export is not a caller and neither is a test; a name only those use
is imported from its submodule instead.  The match is a word-boundary
search, so it errs towards keeping a name.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGES = sorted(
    ".".join(p.parent.relative_to(SRC).parts) for p in SRC.rglob("__init__.py")
)


def _caller_text(package: str) -> str:
    """Everything that may call into ``package`` from outside it."""
    pkg_dir = SRC.joinpath(*package.split("."))
    files = [
        p
        for p in SRC.rglob("*.py")
        if p.name != "__init__.py" and pkg_dir not in p.parents
    ]
    for caller_dir in ("benchmarks", "examples"):
        files += (ROOT / caller_dir).rglob("*.py")
    files += (ROOT / "docs").rglob("*.md")
    return "\n".join(p.read_text(encoding="utf-8") for p in files)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_has_a_caller(package):
    module = importlib.import_module(package)
    exported = [n for n in getattr(module, "__all__", ()) if not n.startswith("__")]
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{package}.__all__ names what it does not define: {missing}"
    text = _caller_text(package)
    uncalled = [n for n in exported if not re.search(rf"\b{re.escape(n)}\b", text)]
    assert not uncalled, (
        f"{package} exports names nothing outside it uses: {uncalled}; "
        f"drop them from __all__ and import them from their submodule"
    )
