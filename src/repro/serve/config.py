"""`EngineConfig` — the one declarative description of a serving engine.

Before this layer, the serving stack was configured three different
ways: ``ClassificationPipeline.__init__`` took a pile of keyword knobs,
the CLI re-plumbed each knob by hand through ``argparse``, and
``experiments/common.py`` built variants a third way.  ``EngineConfig``
replaces all of that with a single frozen dataclass that

* names the backend and its build parameters (``binth``/``spfac``/
  ``speed``/``software``),
* shapes the pipeline (``shards``/``chunk_size``/``shard_mode``),
* sizes the flow cache (``cache_entries``/``cache_ways``/
  ``cache_max_age``),
* selects the update policy (``updatable``) and the device energy model
  (``energy_model``),
* sets the fault posture (``fault_policy``/``max_retries``/
  ``chunk_timeout_s``/``on_malformed``) — see
  :mod:`repro.engine.supervision`,

and round-trips losslessly through every representation the repo uses:

``to_dict``/``from_dict``
    plain-JSON dictionaries (configs in files, bench metadata);
``to_args``/``from_args``
    the CLI flag namespace (``--algorithm``/``--shards``/...), so
    ``EngineConfig.from_args(parse(cfg.to_args()))  == cfg`` exactly —
    the round-trip the config test suite pins bit-for-bit.

Validation happens at construction: every invalid combination raises
:class:`~repro.core.errors.ConfigError` naming the offending field, so
a config is either constructible or loudly rejected — never latently
wrong inside a forked worker.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core.errors import ConfigError
from ..engine.pipeline import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_MIN_CHUNK_PACKETS,
    SHARD_MODES,
)
from ..engine.registry import backend_spec
from ..engine.supervision import SupervisionPolicy
from .ingest import ON_MALFORMED

#: Device energy models ``EngineReport`` can evaluate a run against.
ENERGY_MODELS = ("asic", "fpga", "none")


@dataclass(frozen=True)
class EngineConfig:
    """Declarative, validated, immutable serving-engine description.

    ``backend`` accepts any registered name or alias and is canonicalised
    at construction (``"tss"`` becomes ``"tuple_space"``), so two configs
    naming the same engine compare equal.
    """

    # -- backend + search-structure build parameters --------------------
    backend: str = "hypercuts"
    binth: int = 30
    spfac: float = 4.0
    speed: int = 1
    #: Serve decision trees with the original software traversal instead
    #: of routing them onto the hardware-accelerator model.
    software: bool = False

    # -- pipeline shape --------------------------------------------------
    shards: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Deprecated no-op (forked workers are always held until close).
    persistent: bool = False
    #: Worker tier of update-free runs (one that carries updates is
    #: served in-process): ``"auto"`` forks only when the clamped worker
    #: count and the pipeline's own measured break-even say a fork wins,
    #: ``"processes"`` whenever ``shards > 1``, ``"threads"`` serves
    #: in-process shards (a private flow-cache clone each) on the
    #: calling thread — no threads.  The engine defaults to ``"auto"``
    #: (``ClassificationPipeline`` constructed directly: ``"processes"``).
    shard_mode: str = "auto"
    #: Coalesce dispatches on update-free runs until each carries at
    #: least this many packets (0 disables).  ``chunk_size`` stays the
    #: epoch grid and the reporting granularity for update streams.
    min_chunk_packets: int = DEFAULT_MIN_CHUNK_PACKETS

    # -- flow-cache geometry ---------------------------------------------
    cache_entries: int = 0
    cache_ways: int = 4
    #: TTL in cache lookups; entries expire this many lookups after the
    #: fill.  0 disables aging.
    cache_max_age: int = 0

    # -- update policy ---------------------------------------------------
    #: Build the backend through the update-serving surface
    #: (`repro.engine.updates`): tree backends route to the incremental
    #: classifier, everything else serves updates by rebuild adaptation.
    updatable: bool = False

    # -- fault handling --------------------------------------------------
    #: What a serving fault (worker crash, chunk deadline overrun, arena
    #: fence trip, injected fault) does: ``"fail"`` raises a typed
    #: :class:`~repro.core.errors.ServingFaultError`, ``"retry"``
    #: replays the failed step (bounded, backed off) where it failed,
    #: ``"degrade"`` retries and then serves a forked run inline
    #: (forked -> inline).
    fault_policy: str = "fail"
    #: Retries per failed step before failing (or degrading).
    max_retries: int = 2
    #: Per-chunk dispatch deadline in seconds; 0 disables the deadline
    #: (crash detection stays on).
    chunk_timeout_s: float = 0.0
    #: Malformed trace-line policy for file ingestion: ``"raise"``
    #: aborts on the first bad line, ``"quarantine"`` dead-letters bad
    #: lines (bounded, counted) and serves the rest.
    on_malformed: str = "raise"

    # -- telemetry -------------------------------------------------------
    energy_model: str = "asic"

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        spec = backend_spec(self.backend)  # raises ConfigError for unknowns
        object.__setattr__(self, "backend", spec.name)
        if self.binth < 1:
            raise ConfigError(f"binth must be >= 1, got {self.binth}")
        if self.spfac <= 0:
            raise ConfigError(f"spfac must be > 0, got {self.spfac}")
        if self.speed not in (0, 1):
            raise ConfigError(f"speed must be 0 or 1, got {self.speed}")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.chunk_size < 1:
            raise ConfigError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.shard_mode not in SHARD_MODES:
            raise ConfigError(
                f"unknown shard_mode {self.shard_mode!r}; "
                f"expected one of {', '.join(SHARD_MODES)}"
            )
        if self.min_chunk_packets < 0:
            raise ConfigError(
                f"min_chunk_packets must be >= 0, "
                f"got {self.min_chunk_packets}"
            )
        if self.cache_entries < 0:
            raise ConfigError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )
        if self.cache_entries:
            if self.cache_ways < 1:
                raise ConfigError(
                    f"cache_ways must be >= 1, got {self.cache_ways}"
                )
            if self.cache_entries % self.cache_ways:
                raise ConfigError(
                    f"cache_entries ({self.cache_entries}) must be a "
                    f"multiple of cache_ways ({self.cache_ways})"
                )
        if self.cache_max_age < 0:
            raise ConfigError(
                f"cache_max_age must be >= 0 (0 = no aging), "
                f"got {self.cache_max_age}"
            )
        self.policy  # validates the fault posture
        if self.on_malformed not in ON_MALFORMED:
            raise ConfigError(
                f"unknown on_malformed {self.on_malformed!r}; "
                f"expected one of {', '.join(ON_MALFORMED)}"
            )
        if self.energy_model not in ENERGY_MODELS:
            raise ConfigError(
                f"unknown energy_model {self.energy_model!r}; "
                f"expected one of {', '.join(ENERGY_MODELS)}"
            )

    @property
    def policy(self) -> SupervisionPolicy:
        """The fault posture as the pipeline's supervision policy."""
        return SupervisionPolicy(
            fault_policy=self.fault_policy,
            max_retries=self.max_retries,
            chunk_timeout_s=self.chunk_timeout_s,
        )

    # -- dict round-trip -------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (the exact ``from_dict`` inverse)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """Construct from a plain dict, rejecting unknown keys loudly."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"EngineConfig.from_dict expects a dict, "
                f"got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown EngineConfig field(s): {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        return cls(**data)

    # -- CLI round-trip --------------------------------------------------
    def to_args(self) -> list[str]:
        """The CLI flag list describing this config, fully explicit.

        ``parse_args(cfg.to_args())`` fed back through :meth:`from_args`
        reconstructs ``cfg`` bit-for-bit (the config test suite pins
        this), so a config can be logged, replayed, or handed to a
        subprocess as its exact command line.
        """
        args = [
            "--algorithm", self.backend,
            "--binth", str(self.binth),
            "--spfac", repr(self.spfac),
            "--speed", str(self.speed),
            "--shards", str(self.shards),
            "--chunk-size", str(self.chunk_size),
            "--shard-mode", self.shard_mode,
            "--min-chunk-packets", str(self.min_chunk_packets),
            "--cache-entries", str(self.cache_entries),
            "--cache-ways", str(self.cache_ways),
            "--cache-max-age", str(self.cache_max_age),
            "--fault-policy", self.fault_policy,
            "--max-retries", str(self.max_retries),
            "--chunk-timeout", repr(self.chunk_timeout_s),
            "--on-malformed", self.on_malformed,
            "--energy-model", self.energy_model,
        ]
        if self.software:
            args.append("--software")
        if self.persistent:
            args.append("--persistent")
        if self.updatable:
            args.append("--updatable")
        return args

    @classmethod
    def from_args(cls, args) -> "EngineConfig":
        """Construct from an ``argparse`` namespace (or anything with the
        CLI attribute names).  Attributes a subcommand does not define
        fall back to the config defaults, so one mapping serves
        ``classify`` and ``bench`` alike."""
        def get(name, default):
            value = getattr(args, name, None)
            return default if value is None else value

        defaults = cls()
        return cls(
            backend=get("algorithm", defaults.backend),
            binth=int(get("binth", defaults.binth)),
            spfac=float(get("spfac", defaults.spfac)),
            speed=int(get("speed", defaults.speed)),
            software=bool(get("software", defaults.software)),
            shards=int(get("shards", defaults.shards)),
            chunk_size=int(get("chunk_size", defaults.chunk_size)),
            persistent=bool(get("persistent", defaults.persistent)),
            shard_mode=str(get("shard_mode", defaults.shard_mode)),
            min_chunk_packets=int(
                get("min_chunk_packets", defaults.min_chunk_packets)
            ),
            cache_entries=int(get("cache_entries", defaults.cache_entries)),
            cache_ways=int(get("cache_ways", defaults.cache_ways)),
            cache_max_age=int(
                get("cache_max_age", defaults.cache_max_age)
            ),
            updatable=bool(get("updatable", False))
            or bool(get("updates", 0)),
            fault_policy=str(get("fault_policy", defaults.fault_policy)),
            max_retries=int(get("max_retries", defaults.max_retries)),
            chunk_timeout_s=float(
                get("chunk_timeout", defaults.chunk_timeout_s)
            ),
            on_malformed=str(get("on_malformed", defaults.on_malformed)),
            energy_model=str(get("energy_model", defaults.energy_model)),
        )
