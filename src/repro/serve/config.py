"""`EngineConfig` — the one declarative description of a serving engine.

A single frozen dataclass that

* names the backend and its build parameters (``binth``/``spfac``/
  ``speed``/``software``),
* shapes the pipeline (``shards``/``chunk_size``/``shard_mode``),
* sizes the flow cache (``cache_entries``/``cache_ways``),
* selects the update policy (``updatable``) and the device energy model
  (``energy_model``),
* sets the fault posture (``fault_policy``/``max_retries``/
  ``chunk_timeout_s``/``on_malformed``) — see
  :mod:`repro.engine.supervision`.

Each field is declared once, with its type, range or choices, CLI flag
and help; :class:`repro.core.spec.Spec` derives the validation
(a :class:`~repro.core.errors.ConfigError` naming the field), the
``to_dict``/``from_dict``/``save``/``load`` JSON round-trip and the
``to_args``/``from_args`` CLI round-trip from that declaration.  Only
the rules that span fields live here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigError
from ..core.spec import Spec, field
from ..engine.pipeline import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_MIN_CHUNK_PACKETS,
    SHARD_MODES,
)
from ..engine.registry import backend_spec
from ..engine.supervision import FAULT_POLICIES, SupervisionPolicy
from .ingest import ON_MALFORMED

#: Device energy models ``EngineReport`` can evaluate a run against.
ENERGY_MODELS = ("asic", "fpga", "none")


@dataclass(frozen=True)
class EngineConfig(Spec):
    """Declarative, validated, immutable serving-engine description.

    ``backend`` accepts any registered name or alias and is canonicalised
    at construction (``"tss"`` becomes ``"tuple_space"``), so two configs
    naming the same engine compare equal.
    """

    # -- backend + search-structure build parameters --------------------
    backend: str = field("hypercuts", flag="--algorithm")
    binth: int = field(30, min=1)
    spfac: float = field(4.0, gt=0)
    speed: int = field(1, choices=(0, 1))
    software: bool = field(
        False, help="original software algorithm instead of hw mode"
    )

    # -- pipeline shape --------------------------------------------------
    shards: int = field(
        1, min=1, help="worker shards (fork-based; 1 = single process)"
    )
    chunk_size: int = field(
        DEFAULT_CHUNK_SIZE, min=1, help="packets per streamed chunk"
    )
    persistent: bool = field(
        False,
        help="deprecated no-op: forked shard workers are always held "
        "across runs",
    )
    #: A run that carries updates is always served in-process.  The
    #: engine defaults to ``"auto"`` (``ClassificationPipeline``
    #: constructed directly: ``"processes"``).
    shard_mode: str = field(
        "auto",
        choices=SHARD_MODES,
        help="worker tier: auto forks a run of at least shards x "
        "max(chunk size, min chunk packets) packets (shards clamped to "
        "the CPUs, at least 2), processes forks every update-free run, "
        "threads serves in-process shards on the caller (default: auto)",
    )
    #: ``chunk_size`` stays the epoch grid and the reporting granularity
    #: for update streams.
    min_chunk_packets: int = field(
        DEFAULT_MIN_CHUNK_PACKETS,
        min=0,
        metavar="N",
        help="coalesce dispatches on update-free runs to at least N "
        "packets each (0 disables; default 65536)",
    )

    # -- flow-cache geometry ---------------------------------------------
    cache_entries: int = field(
        0, min=0,
        help="flow-cache entries in front of the backend (0 = no cache)",
    )
    cache_ways: int = field(4, min=1, help="flow-cache set associativity")

    # -- update policy ---------------------------------------------------
    #: Tree backends route to the incremental classifier, everything
    #: else serves updates by rebuild adaptation (`repro.engine.updates`).
    updatable: bool = field(
        False,
        help="build through the update-serving surface even without "
        "--updates (implied by --updates)",
    )

    # -- fault handling --------------------------------------------------
    #: What a serving fault (worker crash, chunk deadline overrun, arena
    #: fence trip, injected fault) does.
    fault_policy: str = field(
        "fail",
        choices=FAULT_POLICIES,
        help="serving-fault posture: fail raises a typed "
        "ServingFaultError, retry replays the failed step with backoff, "
        "degrade retries then serves a forked run inline "
        "(forked -> inline)",
    )
    max_retries: int = field(
        2, min=0, metavar="N",
        help="retries per failed step before failing or degrading "
        "(default 2)",
    )
    chunk_timeout_s: float = field(
        0.0, min=0, flag="--chunk-timeout", metavar="S",
        help="per-chunk dispatch deadline in seconds (0 = no deadline; "
        "crash detection stays on)",
    )
    on_malformed: str = field(
        "raise",
        choices=ON_MALFORMED,
        help="malformed trace-line policy for file ingestion: raise "
        "aborts, quarantine dead-letters bad lines (bounded, counted) "
        "and serves the rest",
    )

    # -- telemetry -------------------------------------------------------
    energy_model: str = field(
        "asic",
        choices=ENERGY_MODELS,
        help="device model the engine report evaluates occupancy against",
    )

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        super().__post_init__()
        spec = backend_spec(self.backend)  # raises ConfigError for unknowns
        object.__setattr__(self, "backend", spec.name)
        if self.cache_entries % self.cache_ways:
            raise ConfigError(
                f"cache_entries ({self.cache_entries}) must be a "
                f"multiple of cache_ways ({self.cache_ways})"
            )

    @property
    def policy(self) -> SupervisionPolicy:
        """The fault posture as the pipeline's supervision policy."""
        return SupervisionPolicy(
            fault_policy=self.fault_policy,
            max_retries=self.max_retries,
            chunk_timeout_s=self.chunk_timeout_s,
        )
