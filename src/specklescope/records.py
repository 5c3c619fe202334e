"""Records of a finished run: frequency evidence, candidates, apertures,
and the run manifest.

These are what `report` reads back from reconstruction.json and
manifest.json, so this module imports neither numpy nor the config
parser; spectrum and reconstruct build them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from . import __version__
from .errors import OrderError
from .geometry import SourceGeometry

if TYPE_CHECKING:
    from .config import Config

__all__ = [
    "EvidenceRow",
    "EvidenceTable",
    "Candidate",
    "CandidateSet",
    "ApertureReport",
    "aperture_report",
    "RunManifest",
]


@dataclass(frozen=True)
class EvidenceRow:
    """Which measured orders see a line at integer frequency f, and which could but do not."""

    f: int
    status: str  # "present" | "absent" | "unknown"
    present_orders: tuple[int, ...] = ()
    absent_orders: tuple[int, ...] = ()
    conflict: bool = False

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError(f"frequency must be a positive integer, got {self.f}")
        if self.status not in ("present", "absent", "unknown"):
            raise ValueError(f"unknown evidence status {self.status!r}")


@dataclass(frozen=True)
class EvidenceTable:
    """Tri-state frequency evidence merged across correlation orders.

    rows covers integers 1..span_hint; anything beyond span_hint is
    implicitly unknown.  A conflict (some order sees f, another order that
    could see f does not) keeps status "present" but is flagged on the
    row, so upstream noise problems stay visible.
    """

    span_hint: int
    rows: Mapping[int, EvidenceRow]
    orders_measured: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.span_hint < 0:
            raise ValueError(f"span hint must be non-negative, got {self.span_hint}")
        rows = dict(self.rows)
        for f, row in rows.items():
            if f != row.f:
                raise ValueError(f"row key {f} does not match row frequency {row.f}")
        if any(m < 2 for m in self.orders_measured):
            raise OrderError(f"correlation orders must be at least 2, got {self.orders_measured}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "orders_measured", tuple(sorted(self.orders_measured)))

    def status_of(self, f: int) -> str:
        if f < 1:
            raise ValueError(f"frequency must be a positive integer, got {f}")
        row = self.rows.get(f)
        return row.status if row is not None else "unknown"

    def present(self) -> tuple[int, ...]:
        return tuple(sorted(f for f, r in self.rows.items() if r.status == "present"))

    def absent(self) -> tuple[int, ...]:
        return tuple(sorted(f for f, r in self.rows.items() if r.status == "absent"))

    def conflicts(self) -> tuple[int, ...]:
        return tuple(sorted(f for f, r in self.rows.items() if r.conflict))


@dataclass(frozen=True)
class Candidate:
    """One geometry hypothesis, optionally scored against measured spectra."""

    geometry: SourceGeometry
    score: float | None = None
    chi2_by_order: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class CandidateSet:
    """Search output: candidates, the evidence they explain, and whether
    the enumeration covered the whole bounded space."""

    candidates: tuple[Candidate, ...]
    evidence: EvidenceTable
    exhaustive: bool

    def geometries(self) -> tuple[SourceGeometry, ...]:
        return tuple(c.geometry for c in self.candidates)

    def winners(self) -> tuple[Candidate, ...]:
        """Scored candidates within one unit of chi-square of the best score."""
        scored = [c for c in self.candidates if c.score is not None]
        if not scored:
            return ()
        best = min(c.score for c in scored)
        return tuple(c for c in scored if c.score - best < 1.0)


@dataclass(frozen=True)
class ApertureReport:
    """Detector-aperture fractions of the full period needed at order m.

    moving is the scan range of the swept detector (one filter period);
    total is the extent of the whole arrangement, the fixed array with
    the scan window placed inside it.  Both shrink as 1/(m-1)-type
    fractions, which is where the subclassical resolution claim comes
    from; at m = 2 there is nothing to hide the scan window in and both
    fractions are 1.
    """

    m: int
    moving: float
    total: float


def aperture_report(m: int) -> ApertureReport:
    """Aperture fractions (1/(m-1), max(m-2, 1)/(m-1)) for an order-m run.

    The fixed detectors span (m-2)/(m-1) of the period and the scan
    window 1/(m-1) fits inside that span for m >= 3; at m = 2 the window
    itself is the widest thing in the setup.
    """
    if m < 2:
        raise OrderError(f"correlation order must be at least 2, got {m}")
    return ApertureReport(m=m, moving=1.0 / (m - 1), total=max(m - 2, 1) / (m - 1))


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
        import datetime

        from .config import emit_config

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
