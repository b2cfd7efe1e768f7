"""Classification algorithms: the paper's decision trees plus baselines.

* :func:`build_hicuts` / :func:`build_hypercuts` — original software
  algorithms (Section 2) and, with ``hw_mode=True``, the paper's modified
  hardware-oriented variants (Section 3).
* :class:`LinearSearchClassifier` — the first-match oracle.
* :class:`RFCClassifier` — the fastest software baseline the paper
  compares against (546x claim).
* :class:`TupleSpaceClassifier` — extension baseline ([8]).
* :mod:`~repro.algorithms.native` — the C walk :class:`FlatTree` serves
  from when the compiler that is here could build it (``status()``).
"""

from . import native
from .base import EMPTY_CHILD, INTERNAL, LEAF, BatchLookup, DecisionTree, Node
from .flat_tree import FlatTree
from .hicuts import build_hicuts
from .incremental import IncrementalClassifier, UpdateStats
from .hypercuts import build_hypercuts
from .linear import LinearSearchClassifier
from .opcount import OpCounter
from .rfc import RFCClassifier, build_rfc
from .tuple_space import TupleSpaceClassifier

__all__ = [
    "EMPTY_CHILD",
    "INTERNAL",
    "LEAF",
    "BatchLookup",
    "DecisionTree",
    "Node",
    "FlatTree",
    "native",
    "build_hicuts",
    "IncrementalClassifier",
    "UpdateStats",
    "build_hypercuts",
    "LinearSearchClassifier",
    "OpCounter",
    "RFCClassifier",
    "build_rfc",
    "TupleSpaceClassifier",
]
