"""Pipeline configuration: defaults, flat key=value files, HECP_* env vars.

Precedence, lowest to highest: built-in defaults, config file, environment,
command-line flags.
"""

from __future__ import annotations

import os
from decimal import Decimal, InvalidOperation
from typing import Mapping, Optional

from .errors import EnergyKgError
from .namespaces import (
    DEFAULT_BASE, cossmic_graph, datatype_resource, device_resource, station_resource,
)
from .record import Record
from .terms import Iri, IriError, finite_decimal

ENV_PREFIX = "HECP_"


class ConfigError(EnergyKgError):
    """Invalid configuration value or file."""


class PipelineConfig(Record):
    _fields = (
        "base", "station", "graph", "network", "counter_mode", "resolution", "out",
        "threshold", "datatype", "scale", "bind", "format", "min_samples",
    )

    def __init__(
        self,
        base: str = DEFAULT_BASE.value,
        station: str = "GHCND:GME00102404",
        graph: str = "",  # empty means <base>graph/cossmic
        network: str = "DE_KN_COSSMIC",  # used when a CSV has no headings
        counter_mode: str = "cumulative",
        resolution: str = "daily",
        out: str = "out",
        threshold: float = 0.7,
        datatype: str = "TMAX",
        scale: str = "1",
        bind: str = "127.0.0.1:8080",
        format: str = "tsv",
        min_samples: int = 2,
    ) -> None:
        self.base = base
        self.station = station
        self.graph = graph
        self.network = network
        self.counter_mode = counter_mode
        self.resolution = resolution
        self.out = out
        self.threshold = threshold
        self.datatype = datatype
        self.scale = scale
        self.bind = bind
        self.format = format
        self.min_samples = min_samples

    def validate(self) -> "PipelineConfig":
        try:
            Iri(self.base)
        except IriError as exc:
            raise ConfigError(f"base: {exc}")
        if self.graph:
            try:
                Iri(self.graph)
            except IriError as exc:
                raise ConfigError(f"graph: {exc}")
        # Both are minted into IRIs that analyze pastes into its queries.
        for key, mint in (("station", station_resource), ("datatype", datatype_resource)):
            try:
                mint(self.base_iri, getattr(self, key))
            except IriError as exc:
                raise ConfigError(f"{key}: {exc}")
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError(f"threshold must be within [0, 1], got {self.threshold}")
        if self.counter_mode not in ("cumulative", "interval"):
            raise ConfigError(f"counter_mode must be cumulative or interval, got {self.counter_mode!r}")
        if self.resolution not in ("daily", "raw"):
            raise ConfigError(f"resolution must be daily or raw, got {self.resolution!r}")
        if self.format not in ("tsv", "json"):
            raise ConfigError(f"format must be tsv or json, got {self.format!r}")
        try:
            finite_decimal(self.scale)
        except InvalidOperation:
            raise ConfigError(f"scale is not numeric: {self.scale!r}")
        if self.min_samples < 2:
            raise ConfigError(f"min_samples must be at least 2, got {self.min_samples}")
        self.bind_address()
        return self

    @property
    def base_iri(self) -> Iri:
        return Iri(self.base)

    @property
    def graph_iri(self) -> Iri:
        return Iri(self.graph) if self.graph else cossmic_graph(self.base_iri)

    @property
    def station_iri(self) -> Iri:
        return station_resource(self.base_iri, self.station)

    @property
    def network_iri(self) -> Iri:
        return device_resource(self.base_iri, self.network)

    @property
    def scale_decimal(self) -> Decimal:
        return Decimal(self.scale)

    def bind_address(self) -> tuple[str, int]:
        host, _, port_text = self.bind.rpartition(":")
        if not host or not port_text:
            raise ConfigError(f"bind must be host:port, got {self.bind!r}")
        try:
            port = int(port_text)
        except ValueError:
            raise ConfigError(f"bind port is not an integer: {port_text!r}")
        if not (0 <= port <= 65535):
            raise ConfigError(f"bind port out of range: {port}")
        return host, port


# Each setting's type: its default's.
_FIELD_TYPES = dict(zip(PipelineConfig._fields, map(type, PipelineConfig()._astuple())))


def parse_config_file(text: str, path: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{number}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{number}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _coerce(key: str, value: str):
    kind = _FIELD_TYPES[key]
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}")


def load_config(
    config_path: Optional[str] = None,
    cli_overrides: Optional[Mapping[str, object]] = None,
    env: Optional[Mapping[str, str]] = None,
) -> PipelineConfig:
    config = PipelineConfig()
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"cannot read config file {config_path}: not UTF-8 at byte {exc.start}"
            )
        for key, value in parse_config_file(text, config_path).items():
            setattr(config, key, _coerce(key, value))
    environment = os.environ if env is None else env
    for key in _FIELD_TYPES:
        env_key = ENV_PREFIX + key.upper()
        if env_key in environment:
            setattr(config, key, _coerce(key, environment[env_key]))
    for key, value in (cli_overrides or {}).items():
        if value is not None:
            setattr(config, key, value)
    return config.validate()
