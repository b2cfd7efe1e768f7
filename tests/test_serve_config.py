"""`EngineConfig` round-trips and validation.

The satellite contract: a config survives **every** representation the
repo uses bit-for-bit — JSON text -> ``from_dict`` -> ``to_args`` ->
the real CLI parser -> ``from_args`` must reproduce the exact same
config — and every invalid combination is rejected at construction
with a :class:`ConfigError` naming the offending field.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import build_parser
from repro.core.errors import ConfigError
from repro.serve import EngineConfig
from repro.serve.config import ENERGY_MODELS

#: A spread of configs covering every field away from its default.
CONFIG_GRID = [
    EngineConfig(),
    EngineConfig(backend="linear"),
    EngineConfig(backend="tuple_space", shards=4, chunk_size=1024),
    EngineConfig(backend="rfc", software=True, binth=16, spfac=2.5),
    EngineConfig(backend="hicuts", speed=0, persistent=True, shards=2),
    EngineConfig(
        backend="accelerator", cache_entries=4096, cache_ways=8,
    ),
    EngineConfig(backend="incremental", updatable=True, energy_model="fpga"),
    EngineConfig(
        backend="hypercuts", binth=24, spfac=6.0, shards=8,
        chunk_size=8192, persistent=True, cache_entries=512, cache_ways=2,
        updatable=True, energy_model="none",
    ),
    EngineConfig(backend="tcam", energy_model="none"),
]


class TestDictRoundTrip:
    @pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: c.backend)
    def test_dict_round_trip_identity(self, config):
        assert EngineConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: c.backend)
    def test_json_round_trip_identity(self, config):
        text = json.dumps(config.to_dict())
        assert EngineConfig.from_dict(json.loads(text)) == config

    def test_to_dict_is_plain_json(self):
        payload = EngineConfig(cache_entries=256).to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_aliases_canonicalised(self):
        assert EngineConfig(backend="tss") == EngineConfig(
            backend="tuple_space"
        )
        assert EngineConfig(backend="hw").backend == "accelerator"


class TestCliRoundTrip:
    """JSON -> config -> CLI args -> config, bit-identical (the real
    ``bench`` parser in the middle, not a mock)."""

    @pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: c.backend)
    def test_args_round_trip_identity(self, config):
        argv = ["bench", *config.to_args()]
        namespace = build_parser().parse_args(argv)
        assert EngineConfig.from_args(namespace) == config

    @pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: c.backend)
    def test_full_json_to_cli_chain(self, config):
        restored = EngineConfig.from_dict(json.loads(json.dumps(
            config.to_dict()
        )))
        namespace = build_parser().parse_args(["bench", *restored.to_args()])
        final = EngineConfig.from_args(namespace)
        assert final == config
        assert final.to_dict() == config.to_dict()

    def test_from_args_tolerates_sparse_namespaces(self):
        # The classify subparser has no --shards/--persistent; missing
        # attributes fall back to config defaults.
        namespace = build_parser().parse_args(
            ["classify", "--algorithm", "rfc", "--cache-entries", "128"]
        )
        config = EngineConfig.from_args(namespace)
        assert config.backend == "rfc"
        assert config.cache_entries == 128
        assert config.shards == 1 and not config.persistent

    def test_updates_count_implies_updatable(self):
        namespace = build_parser().parse_args(
            ["bench", "--algorithm", "hicuts", "--updates", "8"]
        )
        assert EngineConfig.from_args(namespace).updatable


class TestValidation:
    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            EngineConfig(backend="nope")
        with pytest.raises(ConfigError, match="linear"):
            EngineConfig(backend="nope")

    def test_unknown_dict_key_is_named(self):
        with pytest.raises(ConfigError, match="warp_speed"):
            EngineConfig.from_dict({"backend": "linear", "warp_speed": 9})

    def test_removed_cache_max_age_key_is_named(self):
        with pytest.raises(ConfigError, match="cache_max_age"):
            EngineConfig.from_dict({"backend": "linear", "cache_max_age": 9})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ConfigError, match="expects a dict"):
            EngineConfig.from_dict(["backend", "linear"])

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("binth", 0, "binth"),
            ("spfac", 0.0, "spfac"),
            ("speed", 2, "speed"),
            ("shards", 0, "shards"),
            ("chunk_size", 0, "chunk_size"),
            ("cache_entries", -1, "cache_entries"),
            ("energy_model", "solar", "energy_model"),
            ("fault_policy", "panic", "fault_policy"),
            ("max_retries", -1, "max_retries"),
            ("chunk_timeout_s", -0.5, "chunk_timeout_s"),
        ],
    )
    def test_bad_field_named_in_error(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(EngineConfig(), **{field: value})

    def test_bad_cache_geometry(self):
        with pytest.raises(ConfigError, match="multiple"):
            EngineConfig(cache_entries=10, cache_ways=4)
        with pytest.raises(ConfigError, match="cache_ways"):
            EngineConfig(cache_entries=8, cache_ways=0)

    def test_energy_models_cover_the_devices(self):
        assert set(ENERGY_MODELS) == {"asic", "fpga", "none"}

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EngineConfig().backend = "linear"
