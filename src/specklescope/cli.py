"""Command-line pipeline: simulate, analyze, reconstruct, aperture, report.

Exit codes: 0 success, 1 standard output closed before the command
finished (a pipe into `head`), 2 config, usage, malformed-artifact or
unwritable output path error, 3 empty evidence, 4 fit failure.  All
artifacts land in the --out directory, which only simulate creates;
manifest.json snapshots the effective config so a run can be reproduced
exactly, and a bare analyze or reconstruct runs on the config it records.

Each command imports what it runs when it runs.  `--help`, `--version`,
usage and config errors, `aperture` and `report` never load numpy;
`simulate` loads neither the spectral fit nor the search, and `analyze`
neither the sampler nor the search.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError, EmptyEvidenceError, FitError, FormatError, OutputError, SpeckleScopeError,
)

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, which type checkers read; typing costs 5 ms
if TYPE_CHECKING:
    from .config import Config
    from .correlation import Harmonic
    from .records import CandidateSet, RunManifest

# Stage functions the commands look up on this module when they run, so a
# stand-in set here first is the one called: perfbench/spans.py swaps in
# timing wrappers.  Each is imported on first use.
# `fit_free` is the comb fit under the name the benchmark wraps, until it
# reads a stage trace instead (ROADMAP item 8).
_STAGES = {
    "sample_frames": "speckle", "estimate_g_m": "speckle",
    "fit_free": "spectrum", "gate": "spectrum", "aggregate": "spectrum",
    "search": "reconstruct", "disambiguate": "reconstruct",
}


def _stage(name: str):
    """The function bound to `name` here, importing and binding it on first use."""
    if name not in _STAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_STAGES[name]}", __package__)
    return globals().setdefault(name, getattr(module, "fit_fixed" if name == "fit_free" else name))


__getattr__ = _stage

_CURVE_PREFIX = "curves_m"
_REPLICA_PREFIX = "replicas_m"
_FRAMES_NAME = "frames.sstk"
# what analyze and reconstruct derive from a run's curves; table.csv is an older
# analyze's.  analyze rewrites the first two and deletes the rest
_RESULTS = ("spectra.json", "evidence.json", "reconstruction.json", "table.csv")


def _parse_orders(text: str) -> tuple[int, ...]:
    """Order lists as '3,5,6' or inclusive ranges as '3..6'."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            orders = tuple(range(int(lo), int(hi) + 1))
        else:
            orders = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise ConfigError(f"cannot parse orders {text!r}: {exc}") from exc
    if not orders or any(m < 2 for m in orders) or len(set(orders)) != len(orders):
        raise ConfigError(f"orders must be distinct integers >= 2, got {text!r}")
    return orders


def _read_manifest(out: Path) -> RunManifest | None:
    """The run directory's manifest.json, or None when it has none."""
    from . import serialize
    from .records import RunManifest

    path = out / "manifest.json"
    return serialize.read_json(path, RunManifest.from_dict) if path.exists() else None


def _load_config_arg(
    args: argparse.Namespace,
    manifest: RunManifest | None = None,
    orders: tuple[int, ...] | None = None,
) -> Config:
    """Flags over --config over the run's manifest (when given) over defaults.

    `orders` stands in for an --orders flag the command line left out.
    """
    from dataclasses import replace

    from .config import Config, load_config, parse_config

    if args.config:
        config = load_config(args.config)
    elif manifest is not None:
        config = parse_config(manifest.config_text)
    else:
        config = Config()
    flags = {key: getattr(args, key, None) for key in ("seed", "frames", "orders")}
    flags["orders"] = _parse_orders(flags["orders"]) if flags["orders"] is not None else orders
    try:
        sim = replace(config.simulate, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(f"[simulate]: {exc}") from exc
    return replace(config, simulate=sim)


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create directory {path}: {exc.strerror or exc}") from exc
    return path


def _remove(out: Path, names: tuple[str, ...]) -> None:
    """Delete the named files from `out`, those that exist."""
    try:
        for name in names:
            (out / name).unlink(missing_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot remove {exc.filename}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config_arg(args)  # first, so a config error loads no stage
    from contextlib import nullcontext

    from . import serialize
    from .records import RunManifest
    from .speckle import nearest_magic_pixels, uniform_grid

    sim = config.simulate
    geometry = config.source_geometry()

    try:  # the sampler checks frames, seed, weights and bits before it draws
        frames = _stage("sample_frames")(
            geometry, sim.frames, sim.seed, uniform_grid(sim.pixels), sim.weights, sim.bits
        )
    except ValueError as exc:
        raise ConfigError(f"[simulate]: {exc}") from exc
    # every order is placed before the first frame is drawn
    placements = [nearest_magic_pixels(frames.delta_axis, m) for m in sim.orders]
    # the fit's lines, every integer f <= max_span, must lie below the grid's
    # Nyquist frequency, and its 2*max_span + 1 parameters need more pixels
    span = config.reconstruct.max_span
    if sim.pixels <= 2 * span + 1:
        raise ConfigError(f"[simulate] pixels = {sim.pixels}: the fit of every line f <= "
                          f"max_span = {span}, below the Nyquist frequency pixels / 2, needs "
                          f"more than 2*max_span + 1 = {2 * span + 1} pixels")
    out = _make_dir(Path(args.out))
    # an earlier run's frames, and results derived from its curves, would outlive them
    _remove(out, (_FRAMES_NAME, *_RESULTS))

    # one pass: each chunk is sampled, archived and folded into every
    # order's sums; frames.sstk appears only once the estimator has finished
    frames_path = out / _FRAMES_NAME
    archive = (serialize.write_frames(frames, frames_path) if sim.save_frames
               else nullcontext(frames))
    with archive as stream:
        curves = _stage("estimate_g_m")(stream, [pixels for pixels, _ in placements])

    notes: list[str] = []
    outputs: dict[str, str] = {}
    if frames.bits is not None:
        clipped = frames.clipped / (frames.n_frames * frames.n_pixels)
        if clipped > 0.5:
            notes.append(
                f"quantization at {frames.bits} bits pins {clipped:.0%} of samples "
                "at the rail; statistics are unreliable"
            )
    if sim.frames < 2:
        notes.append("single frame: sigma column unavailable, estimates unreliable")
    if sim.save_frames:
        outputs["frames"] = frames_path.name

    for m, (pixels, placement_error), curve in zip(sim.orders, placements, curves):
        path = out / f"{_CURVE_PREFIX}{m}.csv"
        serialize.write_curve_csv(curve, path)
        outputs[f"curve_m{m}"] = path.name
        if curve.replicas is not None:
            path = out / f"{_REPLICA_PREFIX}{m}.npy"
            serialize.write_replicas(curve.replicas, path)
            outputs[f"replicas_m{m}"] = path.name
        notes.append(f"order {m}: magic placement error {placement_error:.3e} rad")
        print(f"order {m}: {len(curve)} pixels, fixed at {list(pixels)}")

    manifest = RunManifest.create(config, seed=sim.seed, outputs=outputs, notes=tuple(notes))
    serialize.write_json(out / "manifest.json", manifest.to_dict())
    for note in notes:
        print(f"note: {note}")
    print(f"simulated {sim.frames} frames of x={list(geometry.x)} into {out}")
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _z(line: Harmonic) -> float:
    """|a/A0| over its sigma; inf at zero sigma, unless a/A0 is 0 too."""
    if line.sigma_contrast:
        return abs(line.contrast) / line.sigma_contrast
    return float("inf") if line.contrast else 0.0


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import serialize

    out = Path(args.out)
    manifest = _read_manifest(out)
    found = None
    if not (args.orders or args.config or manifest is not None):
        # a bare directory: every curve file in it, under the orders rule of the config
        stems = (p.stem.removeprefix(_CURVE_PREFIX) for p in out.glob(f"{_CURVE_PREFIX}*.csv"))
        found = tuple(sorted(int(stem) for stem in stems if stem.isdigit()))
        if not found:
            raise ConfigError(f"no curve files under {out}")
    config = _load_config_arg(args, manifest, found)
    orders = config.simulate.orders
    paths = {m: out / f"{_CURVE_PREFIX}{m}.csv" for m in orders}
    missing = [m for m, path in paths.items() if not path.exists()]
    if missing:
        raise ConfigError(f"no curve file for order(s) {missing} under {out}")
    replica_paths = {m: out / f"{_REPLICA_PREFIX}{m}.npy" for m in orders}
    # a manifest names the files its run wrote; any others are left from an earlier run
    listed = None if manifest is None else {name for _, name in manifest.outputs}
    stale = [p.name for p in (*paths.values(), *replica_paths.values())
             if listed is not None and p.exists() and p.name not in listed]
    if stale:
        raise ConfigError(f"{', '.join(stale)} under {out}: not listed in manifest.json, "
                          "so left from an earlier run")
    curves = {m: serialize.read_curve_csv(path, m) for m, path in paths.items()}
    for m, path in replica_paths.items():
        if path.exists():
            curves[m] = serialize.read_replicas(path, curves[m])
        else:  # external curves and one-frame runs have none
            print(f"warning: order {m}: no {path.name}; sigmas from the fit covariance miss the "
                  "pixel-correlated estimator noise", file=sys.stderr)

    span_bound = config.reconstruct.max_span
    raw, failures = [], []
    for m in sorted(curves):
        try:
            raw.append(_stage("fit_free")(curves[m], span_bound))
        except FitError as exc:
            failures.append((m, str(exc)))
            print(f"order {m}: fit failed: {exc}", file=sys.stderr)
    # one family-wise threshold over every comb line the run tested
    n_tests = sum(span_bound // (s.m - 1) for s in raw)
    gated = [_stage("gate")(s, config.gate, n_tests) for s in raw]

    evidence = _stage("aggregate")(gated)
    # an earlier reconstruction answers the earlier evidence, not this one
    _remove(out, _RESULTS[2:])
    serialize.write_json(out / "spectra.json", serialize.spectra_to_dict(raw, gated, failures))
    serialize.write_json(out / "evidence.json", serialize.evidence_to_dict(evidence))

    print(f"gate: {n_tests} comb lines tested, |a/A0| >= "
          f"{config.gate.threshold(n_tests):.2f} sigma (alpha = {config.gate.alpha:g})")
    for spectrum, gated_spectrum in zip(raw, gated):
        kept = set(gated_spectrum.frequencies)
        for h in spectrum.harmonics:
            print(f"order {spectrum.m}: f = {h.f:g}, A = {h.amplitude:.3f} +- {h.sigma_a:.3f}, "
                  f"a/A0 = {h.contrast:+.4f} +- {h.sigma_contrast:.4f}  "
                  f"[{'accepted' if h.f in kept else 'rejected'}]")
    n_off = sum(len(s.off_comb) for s in raw)  # the scale of the off-comb ratios below
    print(f"off-comb: {n_off} lines fitted, family-wise z* = "
          f"{config.gate.threshold(n_off):.2f} sigma (alpha = {config.gate.alpha:g})")
    for spectrum in raw:
        h = max(spectrum.off_comb, key=_z, default=None)
        print(f"order {spectrum.m}: A0 = {spectrum.a0:.3f}, " + (
            "no off-comb lines: the scan spans less than 2*pi" if h is None else
            f"largest off-comb line f = {h.f:g}, a/A0 = {h.contrast:+.4f} +- "
            f"{h.sigma_contrast:.4f} ({_z(h):.1f} sigma)"))
    present = evidence.present()
    print(f"evidence: present {list(present)}, absent {list(evidence.absent())}")
    if not present:
        print("warning: no frequencies accepted; evidence table is empty", file=sys.stderr)
    if failures:
        print(f"{len(failures)} fit(s) failed", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def cmd_reconstruct(args: argparse.Namespace) -> int:
    from . import serialize

    out = Path(args.out)
    config = _load_config_arg(args, None if args.config else _read_manifest(out))
    evidence_path = out / "evidence.json"
    if not evidence_path.exists():
        raise ConfigError(f"missing {evidence_path}; run analyze first")
    evidence = serialize.read_json(evidence_path, serialize.evidence_from_dict)

    candidate_set = _stage("search")(evidence, config.reconstruct)

    spectra_path = out / "spectra.json"
    if spectra_path.exists():
        from dataclasses import replace

        fits = serialize.read_json(spectra_path, serialize.fits_from_dict)
        # the lines the gate accepted: those evidence.json marks Present at their order
        present = {(m, f) for f, row in evidence.rows.items() for m in row.present_orders}
        gated = [replace(s, harmonics=kept) for s in fits  # orders left empty are dropped
                 if (kept := tuple(h for h in s.harmonics if (s.m, h.f) in present))]
        if gated and candidate_set.candidates:
            try:
                candidate_set = _stage("disambiguate")(candidate_set, gated)
            except ValueError as exc:  # e.g. a zero offset or a repeated order
                raise FormatError(f"{spectra_path}: cannot score these spectra: {exc}") from exc

    serialize.write_json(out / "reconstruction.json", serialize.report_to_dict(candidate_set))

    print(f"{len(candidate_set.candidates)} candidate geometr"
          f"{'y' if len(candidate_set.candidates) == 1 else 'ies'}")
    _print_candidates(candidate_set)
    if not candidate_set.exhaustive:
        print("warning: bounds truncated the search; candidate list may be incomplete",
              file=sys.stderr)
    return 0


def _print_candidates(candidate_set: CandidateSet) -> None:
    for cand in candidate_set.candidates:
        score = "" if cand.score is None else f"  chi2 = {cand.score:.2f}"
        print(f"  x = {list(cand.geometry.x)}{score}")
    if not candidate_set.candidates:
        print("warning: no geometry within the [reconstruct] bounds fits the evidence",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# aperture
# ---------------------------------------------------------------------------


def cmd_aperture(args: argparse.Namespace) -> int:
    from . import serialize
    from .records import aperture_report

    orders = _parse_orders(args.orders)
    reports = [aperture_report(m) for m in orders]
    if args.out:
        path = Path(args.out)
        _make_dir(path.parent)
        rows = ({"m": r.m, "r_moving": r.moving, "r_total": r.total} for r in reports)
        serialize.write_csv(path, ("m", "r_moving", "r_total"), rows)
    for r in reports:
        print(f"m = {r.m}: moving {r.moving:.4f}, fixed array {r.total:.4f} of full aperture")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    from . import serialize
    from .records import aperture_report

    out = Path(args.out)
    recon_path = out / "reconstruction.json"
    if not recon_path.exists():
        raise ConfigError(f"missing {recon_path}; run reconstruct first")
    candidate_set = serialize.read_json(recon_path, serialize.report_from_dict)
    evidence = candidate_set.evidence

    print(f"orders measured: {list(evidence.orders_measured)}")
    print(f"present: {list(evidence.present())}")
    print(f"absent:  {list(evidence.absent())}")
    conflicts = evidence.conflicts()
    if conflicts:
        print(f"conflicts: {list(conflicts)}")
    print(f"exhaustive search: {candidate_set.exhaustive}")
    _print_candidates(candidate_set)
    winners = candidate_set.winners()
    if winners:
        print(f"winner(s) within one chi-square unit: {[list(c.geometry.x) for c in winners]}")
    for ap in map(aperture_report, evidence.orders_measured):
        print(f"order {ap.m}: moving aperture {ap.moving:.4f}, fixed array {ap.total:.4f}")
    manifest = _read_manifest(out)
    if manifest is not None:
        print(f"run: seed {manifest.seed}, tool version {manifest.version}")
        for note in manifest.notes:
            print(f"note: {note}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specklescope",
        description="Thermal-speckle correlation simulation and source reconstruction",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample speckle frames and estimate curves")
    sim.add_argument("--config", help="config file (defaults used when omitted)")
    sim.add_argument("--seed", type=int, help="override simulate.seed")
    sim.add_argument("--frames", type=int, help="override simulate.frames")
    sim.add_argument("--orders", help="override simulate.orders, e.g. 3..6 or 3,5")
    sim.add_argument("--out", default="runs/latest", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="fit spectra, gate lines, build evidence")
    ana.add_argument("--config", help="config file (defaults used when omitted)")
    ana.add_argument("--orders", help="restrict to these orders")
    ana.add_argument("--out", default="runs/latest", help="directory with curve files")
    ana.set_defaults(func=cmd_analyze)

    rec = sub.add_parser("reconstruct", help="enumerate and rank source geometries")
    rec.add_argument("--config", help="config file (defaults used when omitted)")
    rec.add_argument("--out", default="runs/latest", help="directory with evidence.json")
    rec.set_defaults(func=cmd_reconstruct)

    ape = sub.add_parser("aperture", help="aperture fractions per correlation order")
    ape.add_argument("--orders", required=True, help="orders, e.g. 2..8")
    ape.add_argument("--out", help="optional CSV file")
    ape.set_defaults(func=cmd_aperture)

    rep = sub.add_parser("report", help="summarize a finished run")
    rep.add_argument("--out", default="runs/latest", help="run directory")
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away (`| head -1`); as the Python docs
        # recommend, point stdout at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EmptyEvidenceError as exc:
        print(f"empty evidence: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 4
    except (SpeckleScopeError, MemoryError) as exc:  # a size such as pixels = 10**12
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
