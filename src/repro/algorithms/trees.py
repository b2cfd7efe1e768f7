"""The decision-tree algorithms by name: one table, one error."""

from __future__ import annotations

from ..core.errors import ConfigError
from ..core.ruleset import RuleSet
from ._builder import TreeBuilder
from .hicuts import HiCutsBuilder, HiCutsConfig
from .hypercuts import HyperCutsBuilder, HyperCutsConfig
from .opcount import OpCounter

#: Algorithm name -> (builder, config) for every tree algorithm.
TREE_BUILDERS = {
    "hicuts": (HiCutsBuilder, HiCutsConfig),
    "hypercuts": (HyperCutsBuilder, HyperCutsConfig),
}


def tree_builder(
    algorithm: str,
    ruleset: RuleSet,
    ops: OpCounter | None = None,
    **config,
) -> TreeBuilder:
    """The ``algorithm`` builder for ``ruleset``; ``config`` holds the
    fields of that algorithm's config (``binth``, ``spfac``, ``hw_mode``,
    ...)."""
    try:
        builder, config_class = TREE_BUILDERS[algorithm]
    except KeyError:
        raise ConfigError(
            f"unknown tree algorithm {algorithm!r}; "
            f"expected one of {sorted(TREE_BUILDERS)}"
        ) from None
    return builder(ruleset, config_class(**config), ops)
