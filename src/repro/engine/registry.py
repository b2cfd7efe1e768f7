"""String-keyed backend registry: build any classifier by name.

Every classification engine in the library registers a build-from-ruleset
factory here, so the CLI, the experiment harness, the benchmark suite and
the serving pipeline can all instantiate backends uniformly::

    from repro.engine import build_backend

    clf = build_backend("rfc", ruleset)
    matches = clf.classify_trace(trace)

Factories accept (and ignore) parameters that do not apply to them, so a
single parameter namespace (``binth``, ``spfac``, ``speed``, ...) can be
threaded from the CLI to whichever backend the user named.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..algorithms import (
    IncrementalClassifier,
    LinearSearchClassifier,
    OpCounter,
    RFCClassifier,
    TupleSpaceClassifier,
)
from ..baselines import TcamClassifier
from ..core.errors import ConfigError
from ..core.ruleset import RuleSet
from .backends import AcceleratorClassifier, DecisionTreeClassifier
from .protocol import Classifier

Factory = Callable[..., Classifier]


@dataclass(frozen=True)
class BackendSpec:
    """One registered backend: factory plus CLI-facing metadata."""

    name: str
    factory: Factory
    description: str = ""
    #: Whether the backend builds a decision tree the ``build`` CLI
    #: subcommand can report on (treeless backends error cleanly there).
    builds_tree: bool = False
    aliases: tuple[str, ...] = ()


_REGISTRY: dict[str, BackendSpec] = {}
_ALIASES: dict[str, str] = {}


def register_backend(
    name: str,
    factory: Factory,
    *,
    description: str = "",
    builds_tree: bool = False,
    aliases: tuple[str, ...] = (),
) -> BackendSpec:
    """Register ``factory`` under ``name`` (and ``aliases``)."""
    if name in _REGISTRY or name in _ALIASES:
        raise ConfigError(f"backend {name!r} is already registered")
    for alias in aliases:
        if alias in _REGISTRY or alias in _ALIASES:
            raise ConfigError(f"backend alias {alias!r} is already registered")
    spec = BackendSpec(
        name=name,
        factory=factory,
        description=description,
        builds_tree=builds_tree,
        aliases=aliases,
    )
    _REGISTRY[name] = spec
    for alias in aliases:
        _ALIASES[alias] = name
    return spec


def available_backends() -> tuple[str, ...]:
    """Canonical backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def registered_aliases() -> dict[str, str]:
    """Alias -> canonical-name map (a copy; mutate via register_backend)."""
    return dict(_ALIASES)


def backend_spec(name: str) -> BackendSpec:
    """Resolve ``name`` (or an alias) to its :class:`BackendSpec`."""
    canonical = _ALIASES.get(name, name)
    spec = _REGISTRY.get(canonical)
    if spec is None:
        raise ConfigError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(available_backends())}"
        )
    return spec


def build_backend(name: str, ruleset: RuleSet, **params) -> Classifier:
    """Instantiate the backend registered under ``name`` for ``ruleset``.

    ``params`` is the shared parameter namespace (``binth``, ``spfac``,
    ``hw_mode``, ``speed``, ``algorithm``, ``ops``...); each factory picks
    what applies to it.
    """
    spec = backend_spec(name)
    clf = spec.factory(ruleset, **params)
    if getattr(clf, "backend_name", None) in (None, "classifier"):
        try:
            clf.backend_name = spec.name
        except AttributeError:  # __slots__ classes keep their own label
            pass
    return clf


# ---------------------------------------------------------------------------
# Built-in backends.  Module-level factory functions (not lambdas) so
# they stay picklable for multiprocessing shards.
# ---------------------------------------------------------------------------
def _make_linear(ruleset: RuleSet, **_ignored) -> LinearSearchClassifier:
    return LinearSearchClassifier(ruleset)


def _make_rfc(
    ruleset: RuleSet,
    max_table_entries: int | None = None,
    ops: OpCounter | None = None,
    **_ignored,
) -> RFCClassifier:
    if max_table_entries is None:
        return RFCClassifier(ruleset, ops=ops)
    return RFCClassifier(ruleset, max_table_entries=max_table_entries, ops=ops)


def _make_tuple_space(
    ruleset: RuleSet, ops: OpCounter | None = None, **_ignored
) -> TupleSpaceClassifier:
    return TupleSpaceClassifier(ruleset, ops=ops)


def _make_hicuts(ruleset: RuleSet, **params) -> DecisionTreeClassifier:
    params.pop("algorithm", None)
    return DecisionTreeClassifier(ruleset, algorithm="hicuts", **params)


def _make_hypercuts(ruleset: RuleSet, **params) -> DecisionTreeClassifier:
    params.pop("algorithm", None)
    return DecisionTreeClassifier(ruleset, algorithm="hypercuts", **params)


def _make_incremental(
    ruleset: RuleSet,
    algorithm: str = "hicuts",
    binth: int = 30,
    spfac: float = 4.0,
    hw_mode: bool = True,
    ops: OpCounter | None = None,
    **_ignored,
) -> IncrementalClassifier:
    return IncrementalClassifier(
        ruleset, algorithm=algorithm, binth=binth, spfac=spfac,
        hw_mode=hw_mode, ops=ops,
    )


def _make_tcam(
    ruleset: RuleSet, max_slots: int | None = None, **_ignored
) -> TcamClassifier:
    if max_slots is None:
        return TcamClassifier(ruleset)
    return TcamClassifier(ruleset, max_slots=max_slots)


def _make_accelerator(ruleset: RuleSet, **params) -> AcceleratorClassifier:
    return AcceleratorClassifier(ruleset, **params)


register_backend(
    "linear", _make_linear,
    description="first-match linear scan (the semantic oracle)",
)
register_backend(
    "rfc", _make_rfc,
    description="Recursive Flow Classification (Gupta & McKeown)",
)
register_backend(
    "tuple_space", _make_tuple_space, aliases=("tss",),
    description="tuple space search (Srinivasan, Suri & Varghese)",
)
register_backend(
    "hicuts", _make_hicuts, builds_tree=True,
    description="HiCuts decision tree (software or hw/grid mode)",
)
register_backend(
    "hypercuts", _make_hypercuts, builds_tree=True,
    description="HyperCuts decision tree (software or hw/grid mode)",
)
register_backend(
    "incremental", _make_incremental,
    description="decision tree with in-place rule updates",
)
register_backend(
    "tcam", _make_tcam,
    description="ternary CAM with range-to-prefix expansion",
)
register_backend(
    "accelerator", _make_accelerator, aliases=("hw",),
    description="the paper's hardware accelerator (grid tree + memory image)",
)
