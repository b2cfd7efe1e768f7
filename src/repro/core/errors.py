"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from capacity limits
of the modelled hardware.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class RuleFormatError(ReproError):
    """A rule or ruleset file could not be parsed or is inconsistent."""


class PacketFormatError(ReproError):
    """A packet/trace entry could not be parsed or is out of range."""


class BuildError(ReproError):
    """Decision-tree construction failed (bad parameters, no progress)."""


class CapacityError(ReproError):
    """The modelled hardware resource was exceeded.

    Raised, for example, when a search structure needs more than the
    accelerator's 1024 words of 4800-bit memory, or when an internal node
    would require more than 256 child entries.
    """


class EncodingError(ReproError):
    """A value cannot be represented in the hardware memory format."""


class SimulationError(ReproError):
    """The cycle-accurate simulator reached an inconsistent state."""


class ConfigError(ReproError):
    """Invalid combination of configuration parameters."""


class ServingFaultError(ReproError):
    """A serving-path fault the runtime could not (or was told not to)
    recover from.

    Carries the failure coordinates the fault-tolerance contract
    promises: ``shard`` (the 0-based id of the shard that owns the
    chunk, forked or in-process alike), ``chunk`` (the chunk
    ordinal being served when the fault hit), ``epoch`` (the ruleset
    version in effect, when known), ``tier`` (the worker tier that
    failed) and ``cause`` (the underlying exception or fault kind).

    Instances must survive a trip through ``multiprocessing`` pickling,
    hence the ``__reduce__`` that rebuilds from the message plus the
    attribute dict.
    """

    def __init__(
        self,
        message: str,
        *,
        shard=None,
        chunk=None,
        epoch=None,
        tier=None,
        cause=None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.chunk = chunk
        self.epoch = epoch
        self.tier = tier
        self.cause = cause

    def __reduce__(self):
        return (_rebuild_exc, (self.__class__, self.args[0], self.__dict__))


def _rebuild_exc(cls, message, state):
    exc = cls(message)
    exc.__dict__.update(state)
    return exc


class WorkerCrashError(ServingFaultError):
    """A worker process died (non-zero exit) while serving a chunk."""


class ChunkTimeoutError(ServingFaultError):
    """A chunk dispatch exceeded the configured ``chunk_timeout_s``."""


class ArenaCorruptionError(ServingFaultError):
    """The shared-memory arena's generation fence / checksum word did
    not match the dispatched descriptor — the attach would have read a
    torn or stale segment."""


class InjectedFault(ReproError):
    """A fault raised by the deterministic injection layer
    (:mod:`repro.engine.faults`).  Recoverable by supervision policy."""

    def __init__(self, message: str, *, kind=None, chunk=None, shard=None):
        super().__init__(message)
        self.kind = kind
        self.chunk = chunk
        self.shard = shard

    def __reduce__(self):
        return (_rebuild_exc, (self.__class__, self.args[0], self.__dict__))


class IngestError(ReproError):
    """A trace-ingestion source failed (I/O error, unreadable segment).

    ``segment`` is the stream-segment ordinal being fetched; ``cause``
    the underlying exception."""

    def __init__(self, message: str, *, segment=None, cause=None):
        super().__init__(message)
        self.segment = segment
        self.cause = cause

    def __reduce__(self):
        return (_rebuild_exc, (self.__class__, self.args[0], self.__dict__))
