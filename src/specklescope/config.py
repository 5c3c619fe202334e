"""Typed run configuration, physical-scene conversions, run manifests.

Config files are INI sections whose values are Python literals, e.g.

    [geometry]
    x = [3, 1, 4]
    d_microns = 570.0

parse_config() fills anything omitted with defaults and rejects unknown
keys; emit_config() writes every key back out, and the two round-trip
exactly.  The [gate] and [reconstruct] sections are GatePolicy and
SearchBounds, which spectrum and reconstruct re-export.  RunManifest, the
snapshot of a run, lives in records and is re-exported here.  Nothing
here imports numpy.
"""

from __future__ import annotations

import ast
import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .errors import ConfigError
from .geometry import SourceGeometry
from .records import RunManifest

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
class GatePolicy:
    """Family-wise error rate of the line test.

    A line is kept when its contrast c = a/A0 passes the two-sided test
    |c| >= z* sigma_c, where z* = Phi^-1(1 - alpha/(2N)) over the N comb
    lines tested (Bonferroni).
    """

    alpha: float = 0.01

    def __post_init__(self) -> None:
        # below 1e-300 the per-test level alpha/(2N) could underflow to zero
        if not 1e-300 <= self.alpha < 1:
            raise ValueError(f"alpha must lie in [1e-300, 1), got {self.alpha}")

    def threshold(self, n_tests: int) -> float:
        """z* for a family of n_tests two-sided tests."""
        # imported here: statistics loads decimal and fractions (0.4 MB),
        # which no command but analyze needs
        from statistics import NormalDist

        return -NormalDist().inv_cdf(self.alpha / (2 * max(n_tests, 1)))


@dataclass(frozen=True)
class SearchBounds:
    """Hard limits on the candidate space.

    allow_unknown_span opens spans beyond the largest Present frequency
    (status Unknown); that space is cut off at max_span, so results are
    never marked exhaustive when it is enabled.
    """

    max_sources: int = 6
    max_span: int = 20
    allow_unknown_span: bool = False

    def __post_init__(self) -> None:
        if self.max_sources < 2:
            raise ValueError(f"need at least two sources, got {self.max_sources}")
        if self.max_span < 1:
            raise ValueError(f"span bound must be positive, got {self.max_span}")


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
# INI section -> key -> annotation such as "tuple[int, ...] | None"; this
# module postpones annotations, so each field's type is that text
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
        from .correlation import magic_positions

        return tuple(self.sin_theta(delta) for delta in magic_positions(m))

    def abbe_min_separation(self, sin_aperture: float) -> float:
        """Classical two-point resolution limit lambda / (2 A)."""
        if not 0 < sin_aperture <= 1:
            raise ValueError(f"aperture sine must be in (0, 1], got {sin_aperture}")
        return self.wavelength / (2.0 * sin_aperture)
