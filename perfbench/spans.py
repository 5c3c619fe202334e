"""Spans around the calls into each specklescope module, recorded from outside.

The traced run calls ``specklescope.cli.main`` in-process after swapping
timing wrappers in for names the program looks up at call time: the stage
functions ``cli`` imported, the ``serialize`` readers and writers,
``reconstruct.predicted_spectrum`` and scipy's ``least_squares`` (both on
``scipy.optimize`` and on ``specklescope.spectrum``, so the count survives
an import moved into the fit).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# names cli.py imported -> span names
_CLI_STAGES = {
    "sample_frames": "speckle.sample_frames",
    "estimate_g_m": "speckle.estimate_g_m",
    "fit_free": "spectrum.fit_free",
    "gate": "spectrum.gate",
    "aggregate": "spectrum.aggregate",
    "search": "reconstruct.search",
    "disambiguate": "reconstruct.disambiguate",
}
# what a span records off its call's result
_COUNTS = {
    "spectrum.fit_free": lambda spectrum: len(spectrum.harmonics),
    "spectrum.gate": lambda spectrum: len(spectrum.harmonics),
    "reconstruct.search": lambda candidate_set: len(candidate_set.candidates),
    "spectrum.least_squares": lambda result: result.nfev,
}
_TEXT_IO = ("write_curve_csv", "read_curve_csv", "write_json", "read_json", "atomic_write_text")
_FRAME_IO = ("write_frames", "read_frames")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    count: float = 0.0  # a size read off the call's result, e.g. nfev or lines


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        """Record one span around a block; yields the span's index."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if count is not None:
                self.spans[index].count = float(count(result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self) -> None:
        import scipy.optimize

        import specklescope.cli as cli
        import specklescope.reconstruct as reconstruct
        import specklescope.serialize as serialize
        import specklescope.spectrum as spectrum

        for attr, name in _CLI_STAGES.items():
            self.patch(cli, attr, name, _COUNTS.get(name))
        for attr in _FRAME_IO + _TEXT_IO:
            self.patch(serialize, attr, f"serialize.{attr}")
        self.patch(reconstruct, "predicted_spectrum", "correlation.predicted_spectrum")
        lsq = "spectrum.least_squares"
        self.patch(scipy.optimize, "least_squares", lsq, _COUNTS[lsq])
        if hasattr(spectrum, "least_squares"):
            self.patch(spectrum, "least_squares", lsq, _COUNTS[lsq])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], frames: int, frames_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced pipeline (cli.* import times aside).

    The ``cli.<command>_s`` figures are in-process command times: the
    command's work without the start of Python and the package import.
    """

    def total(name: str) -> float:
        return sum(s.end - s.start for s in spans if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def counted(name: str) -> float:
        return sum(s.count for s in spans if s.name == name)

    text_io = {f"serialize.{a}" for a in _TEXT_IO}
    text_io_s = sum(
        s.end - s.start
        for s in spans
        if s.name in text_io and (s.parent is None or spans[s.parent].name not in text_io)
    )
    selfs = self_times(spans)
    lines = counted("spectrum.fit_free")
    sample_s = total("speckle.sample_frames")
    return {
        "cli.simulate_s": total("cli.simulate"),
        "cli.analyze_s": total("cli.analyze"),
        "cli.reconstruct_s": total("cli.reconstruct"),
        "speckle.sample_frames_s": sample_s,
        "speckle.frames_per_s": frames / sample_s if sample_s > 0 else 0.0,
        "speckle.estimate_g_m_s": total("speckle.estimate_g_m"),
        "speckle.estimate_g_m_calls": calls("speckle.estimate_g_m"),
        "serialize.write_frames_s": total("serialize.write_frames"),
        "serialize.read_frames_s": total("serialize.read_frames"),
        "serialize.frames_mb": frames_bytes / 1e6,
        "serialize.text_io_s": text_io_s,
        "spectrum.fit_free_s": total("spectrum.fit_free"),
        "spectrum.lsq_calls": calls("spectrum.least_squares"),
        "spectrum.lsq_nfev": counted("spectrum.least_squares"),
        "spectrum.lsq_s": total("spectrum.least_squares"),
        "spectrum.lines_fitted": lines,
        "spectrum.line_yield": counted("spectrum.gate") / lines if lines else 0.0,
        "correlation.predicted_spectrum_calls": calls("correlation.predicted_spectrum"),
        "correlation.predicted_spectrum_s": total("correlation.predicted_spectrum"),
        "reconstruct.search_s": total("reconstruct.search"),
        "reconstruct.candidates": counted("reconstruct.search"),
        "reconstruct.disambiguate_self_s": sum(
            t for s, t in zip(spans, selfs) if s.name == "reconstruct.disambiguate"
        ),
    }
