"""Typed run configuration, physical-scene conversions, run manifests.

Config files are INI sections whose values are Python literals, e.g.

    [geometry]
    x = [3, 1, 4]
    d_microns = 570.0

parse_config() fills anything omitted with defaults and rejects unknown
keys; emit_config() writes every key back out, and the two round-trip
exactly.  RunManifest snapshots a run (config text, seed, version,
outputs) so it can be reproduced bit for bit.
"""

from __future__ import annotations

import ast
import configparser
import datetime
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import __version__
from .correlation import magic_positions
from .errors import ConfigError
from .geometry import SourceGeometry
from .reconstruct import SearchBounds
from .spectrum import GatePolicy

__all__ = [
    "GeometryConfig",
    "SimulateConfig",
    "FitConfig",
    "Config",
    "PhysicalScene",
    "RunManifest",
    "parse_config",
    "load_config",
    "emit_config",
]


@dataclass(frozen=True)
class GeometryConfig:
    x: tuple[int, ...] = (3, 1, 4)
    d_microns: float = 570.0


@dataclass(frozen=True)
class SimulateConfig:
    frames: int = 1000
    seed: int = 1
    pixels: int = 512
    orders: tuple[int, ...] = (3, 4, 5, 6)
    bits: int | None = None
    weights: tuple[float, ...] | None = None
    save_frames: bool = True


@dataclass(frozen=True)
class FitConfig:
    max_harmonics: int = 6
    oversample: int = 8
    stop_snr: float = 4.0


@dataclass(frozen=True)
class Config:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    gate: GatePolicy = field(default_factory=GatePolicy)
    fit: FitConfig = field(default_factory=FitConfig)
    reconstruct: SearchBounds = field(default_factory=SearchBounds)

    def source_geometry(self) -> SourceGeometry:
        return SourceGeometry(self.geometry.x, d=self.geometry.d_microns * 1e-6)


# INI key -> (section dataclass, attribute, type spec). Type specs:
# "int", "float", "bool", "int_tuple", "float_tuple",
# and "|none" marks optional.
_SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "geometry": {"x": ("x", "int_tuple"), "d_microns": ("d_microns", "float")},
    "simulate": {
        "frames": ("frames", "int"),
        "seed": ("seed", "int"),
        "pixels": ("pixels", "int"),
        "orders": ("orders", "int_tuple"),
        "bits": ("bits", "int|none"),
        "weights": ("weights", "float_tuple|none"),
        "save_frames": ("save_frames", "bool"),
    },
    "gate": {
        "k_A": ("k_a", "float"),
        "sigma_f_max": ("sigma_f_max", "float"),
        "eps_int": ("eps_int", "float"),
    },
    "fit": {
        "max_harmonics": ("max_harmonics", "int"),
        "oversample": ("oversample", "int"),
        "stop_snr": ("stop_snr", "float"),
    },
    "reconstruct": {
        "max_sources": ("max_sources", "int"),
        "max_span": ("max_span", "int"),
        "allow_unknown_span": ("allow_unknown_span", "bool"),
    },
}

_SECTION_TYPES = {
    "geometry": GeometryConfig,
    "simulate": SimulateConfig,
    "gate": GatePolicy,
    "fit": FitConfig,
    "reconstruct": SearchBounds,
}


def _coerce(section: str, key: str, value: Any, spec: str) -> Any:
    optional = spec.endswith("|none")
    base = spec.removesuffix("|none")
    if value is None:
        if optional:
            return None
        raise ConfigError(f"[{section}] {key}: None is not allowed")
    if base == "bool":
        if isinstance(value, bool):
            return value
    elif base == "int":
        if isinstance(value, bool):
            pass  # bools are ints; reject them for numeric keys
        elif isinstance(value, int):
            return value
    elif base == "float":
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            return float(value)
    elif base == "int_tuple":
        if isinstance(value, (list, tuple)) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            return tuple(value)
    elif base == "float_tuple":
        if isinstance(value, (list, tuple)) and all(
            not isinstance(v, bool) and isinstance(v, (int, float)) for v in value
        ):
            return tuple(float(v) for v in value)
    raise ConfigError(f"[{section}] {key}: expected {base}, got {value!r}")


def parse_config(text: str) -> Config:
    """Parse config text, filling defaults and rejecting unknown keys."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case (k_A)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    problems: list[str] = []
    overrides: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        schema = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in schema:
                problems.append(f"unknown key [{section}] {key}")
                continue
            try:
                value = ast.literal_eval(raw)
            except (ValueError, SyntaxError) as exc:
                problems.append(f"[{section}] {key}: not a literal ({raw!r})")
                continue
            attr, spec = schema[key]
            try:
                overrides.setdefault(section, {})[attr] = _coerce(section, key, value, spec)
            except ConfigError as exc:
                problems.append(str(exc))
    if problems:
        raise ConfigError("; ".join(problems))

    sections = {}
    for section, cls in _SECTION_TYPES.items():
        try:
            sections[section] = cls(**overrides.get(section, {}))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc
    cfg = Config(**sections)
    try:
        cfg.source_geometry()
    except ValueError as exc:
        raise ConfigError(f"[geometry]: {exc}") from exc
    return cfg


def load_config(path: str | Path) -> Config:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _literal(value: Any) -> str:
    if isinstance(value, tuple):
        return "[" + ", ".join(_literal(v) for v in value) + "]"
    return repr(value)


def emit_config(config: Config) -> str:
    """Render a config with every key explicit; parse(emit(c)) == c."""
    lines: list[str] = []
    for section, schema in _SCHEMA.items():
        lines.append(f"[{section}]")
        part = getattr(config, section)
        for key, (attr, _spec) in schema.items():
            lines.append(f"{key} = {_literal(getattr(part, attr))}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# physical scene
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalScene:
    """Wavelength, source distance and lattice constant, all in metres.

    Converts between the dimensionless detector offset delta and physical
    detector angles: delta = 2*pi * d * sin(theta) / lambda.
    """

    wavelength: float
    z: float
    d: float

    def __post_init__(self) -> None:
        if self.wavelength <= 0 or self.z <= 0 or self.d <= 0:
            raise ValueError(f"scene lengths must be positive: {self}")

    def sin_theta(self, delta: float) -> float:
        return delta * self.wavelength / (2.0 * math.pi * self.d)

    def delta(self, sin_theta: float) -> float:
        return 2.0 * math.pi * self.d * sin_theta / self.wavelength

    def magic_sin_thetas(self, m: int) -> tuple[float, ...]:
        """Physical angles (as sines) of the fixed detectors at order m."""
        return tuple(self.sin_theta(delta) for delta in magic_positions(m))

    def abbe_min_separation(self, sin_aperture: float) -> float:
        """Classical two-point resolution limit lambda / (2 A)."""
        if not 0 < sin_aperture <= 1:
            raise ValueError(f"aperture sine must be in (0, 1], got {sin_aperture}")
        return self.wavelength / (2.0 * sin_aperture)


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run, plus where its outputs went."""

    config_text: str
    seed: int
    version: str = __version__
    created_utc: str = ""
    outputs: tuple[tuple[str, str], ...] = ()
    notes: tuple[str, ...] = ()

    @classmethod
    def create(
        cls,
        config: Config,
        seed: int,
        outputs: dict[str, str],
        notes: tuple[str, ...] = (),
    ) -> "RunManifest":
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
        return cls(
            config_text=emit_config(config),
            seed=seed,
            created_utc=stamp,
            outputs=tuple(sorted(outputs.items())),
            notes=notes,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "tool": "specklescope",
            "version": self.version,
            "created_utc": self.created_utc,
            "seed": self.seed,
            "config": self.config_text,
            "outputs": dict(self.outputs),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunManifest":
        return cls(
            config_text=str(data["config"]),
            seed=int(data["seed"]),
            version=str(data.get("version", "")),
            created_utc=str(data.get("created_utc", "")),
            outputs=tuple(sorted((str(k), str(v)) for k, v in data.get("outputs", {}).items())),
            notes=tuple(data.get("notes", ())),
        )
