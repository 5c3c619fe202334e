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
from dataclasses import dataclass, field, fields
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

    def __post_init__(self) -> None:
        for name, least in (("frames", 1), ("pixels", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not self.orders or min(self.orders) < 2 or len(set(self.orders)) != len(self.orders):
            raise ValueError(f"orders must be distinct integers >= 2, got {list(self.orders)}")


@dataclass(frozen=True)
class Config:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    gate: GatePolicy = field(default_factory=GatePolicy)
    reconstruct: SearchBounds = field(default_factory=SearchBounds)

    def source_geometry(self) -> SourceGeometry:
        return SourceGeometry(self.geometry.x, d=self.geometry.d_microns * 1e-6)


# INI section -> its dataclass, in emission order
_SECTIONS: dict[str, type] = {f.name: f.default_factory for f in fields(Config)}
# INI section -> key -> annotation such as "tuple[int, ...] | None"; the
# section modules postpone annotations, so each field's type is that text
_SCHEMA: dict[str, dict[str, str]] = {
    section: {f.name: f.type for f in fields(cls)} for section, cls in _SECTIONS.items()
}


def _is_scalar(value: Any, kind: str) -> bool:
    """Whether a literal fits an "int", "float" or "bool" field; bools are not numbers."""
    if isinstance(value, bool):
        return kind == "bool"
    if kind == "int":
        return isinstance(value, int)
    return kind == "float" and isinstance(value, (int, float))


def _coerce(section: str, key: str, value: Any, spec: str) -> Any:
    base = spec.removesuffix(" | None")
    if value is None:
        if base != spec:
            return None
        raise ConfigError(f"[{section}] {key}: None is not allowed")
    item = base.removeprefix("tuple[").removesuffix(", ...]")
    if item != base:
        if isinstance(value, (list, tuple)) and all(_is_scalar(v, item) for v in value):
            return tuple(float(v) if item == "float" else v for v in value)
    elif _is_scalar(value, base):
        return float(value) if base == "float" else value
    raise ConfigError(f"[{section}] {key}: expected {base}, got {value!r}")


def parse_config(text: str) -> Config:
    """Parse config text, filling defaults and rejecting unknown keys."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    problems: list[str] = []
    overrides: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            keys = ", ".join(parser.options(section))
            problems.append(f"unknown section [{section}]" + (f" (keys {keys})" if keys else ""))
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
            try:
                overrides.setdefault(section, {})[key] = _coerce(section, key, value, schema[key])
            except ConfigError as exc:
                problems.append(str(exc))
    if problems:
        raise ConfigError("; ".join(problems))

    sections = {}
    for section, cls in _SECTIONS.items():
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
        for key in schema:
            lines.append(f"{key} = {_literal(getattr(part, key))}")
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
            version=str(data["version"]),
            created_utc=str(data["created_utc"]),
            outputs=tuple(sorted((str(k), str(v)) for k, v in data["outputs"].items())),
            notes=tuple(str(note) for note in data["notes"]),
        )
