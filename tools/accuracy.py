"""Accuracy of the CLI pipeline over fixed sets of simulation seeds.

Run from the repository root:

    python3 tools/accuracy.py --tag T

Each set is a config and a range of seeds, fixed here and never chosen
after the fact: the README demo, `x = [1, 3, 5]` at order 5 with 8000
and 4000 frames, eight sources, the demo with two sets of unequal
weights, and the demo on 122 and 250 pixels, where the fixed detectors
miss the magic offsets.  For every seed the script runs `simulate ->
analyze -> reconstruct -> report` in-process through
`specklescope.cli.main` (from `src/` of the checkout it runs in) on a
fresh temporary run directory, and records:

- each command's exit code;
- the Present and Absent sets, and the false Present and false Absent
  rows (measured against the truth's pair distances);
- whether the truth is a candidate, its rank and the number of winners
  (candidates within one chi-square unit of the best);
- the best chi-square and the truth's;
- every tested comb line's a/A0 and replica sigma;
- every off-comb line's a/A0 and replica sigma (`off_comb`): the integer
  f the fit resolves between the comb lines, where the magic placement
  transmits nothing.

For each set and each tested line (m, f) it also records the seed spread
of a/A0 (the sample standard deviation over the seeds) divided by the
line's mean replica sigma, and prints the median and range of that ratio.
For the off-comb lines of each set it records the rms of z = (a/A0)/sigma,
the line's distance from zero, and how many reach |z| >= 3; at the magic
placement z is noise, off it the pair distances show.

"Unique" means the truth is the only winner.  The results go to
`BENCH_accuracy_<T>.json` in the working directory, and a table of the
sets to standard output.  The sweep takes about 14 s on two CPUs (Python
3.11, numpy 2.4, one BLAS thread) and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread, as perfbench runs the commands (set before numpy loads)
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

DEMO = dict(x=(3, 1, 4), frames=20000, pixels=240, orders=(3, 4, 5, 6))
X135 = dict(x=(1, 3, 5), pixels=120, orders=(5,), max_span=18, allow_unknown_span=True)
EIGHT = dict(x=(1, 4, 2, 6, 3, 5, 2), frames=100000, pixels=240, orders=(3, 4, 5, 6),
             max_sources=8, max_span=25, allow_unknown_span=True)

# (name, config, seeds)
SETS = (
    ("demo", DEMO, range(20)),
    ("x135_8000", {**X135, "frames": 8000}, range(12)),
    ("x135_4000", {**X135, "frames": 4000}, range(12)),
    ("eight", EIGHT, range(8)),
    ("demo_w_1_05_08_06", {**DEMO, "weights": (1.0, 0.5, 0.8, 0.6)}, range(10)),
    ("demo_w_1_03_1_03", {**DEMO, "weights": (1.0, 0.3, 1.0, 0.3)}, range(10)),
    # fixed detectors off the magic offsets: pixels not a multiple of m - 1
    ("demo_122px", {**DEMO, "pixels": 122}, range(10)),
    ("demo_250px", {**DEMO, "pixels": 250}, range(10)),
)
COMMANDS = ("simulate", "analyze", "reconstruct", "report")


def ini(config: dict) -> str:
    """The config file of one set; the seed comes by flag."""
    simulate = {key: config[key] for key in ("frames", "pixels", "orders", "weights")
                if key in config}
    reconstruct = {key: config[key] for key in ("max_sources", "max_span", "allow_unknown_span")
                   if key in config}
    lines = ["[geometry]", f"x = {list(config['x'])}", "", "[simulate]", "save_frames = False"]
    lines += [f"{key} = {list(v) if isinstance(v, tuple) else v}" for key, v in simulate.items()]
    lines += ["", "[reconstruct]"]
    lines += [f"{key} = {v}" for key, v in reconstruct.items()]
    return "\n".join(lines) + "\n"


def canonical(x) -> tuple[int, ...]:
    """A gap tuple and its mirror image name one geometry."""
    return min(tuple(x), tuple(x)[::-1])


def pair_distances(x) -> set[int]:
    positions = list(itertools.accumulate(x, initial=0))
    return {b - a for a, b in itertools.combinations(positions, 2)}


def run_seed(main, config_path: Path, out: Path, seed: int, truth: tuple[int, ...]) -> dict:
    """One seed through the four commands, and what its run directory says."""
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for command in COMMANDS:
            args = [command, "--out", str(out)]
            if command == "simulate":
                args += ["--config", str(config_path), "--seed", str(seed)]
            codes[command] = main(args)
    record: dict = {"seed": seed, "exit": codes}
    if codes["analyze"] == 0:
        spectra = json.loads((out / "spectra.json").read_text())
        for key, lines in (("lines", "harmonics"), ("off_comb", "off_comb")):
            record[key] = [[s["m"], h["f"], h["a_A0"], h["sigma_a_A0"]]
                           for s in spectra["fits"] for h in s.get(lines, ())]
    if codes["reconstruct"] != 0:
        return record
    evidence = json.loads((out / "evidence.json").read_text())
    report = json.loads((out / "reconstruction.json").read_text())
    present = sorted(r["f"] for r in evidence["rows"] if r["status"] == "present")
    absent = sorted(r["f"] for r in evidence["rows"] if r["status"] == "absent")
    distances = pair_distances(truth)
    candidates = report["candidates"]
    scores = [c["score"] for c in candidates if c["score"] is not None]
    best = min(scores) if scores else None
    ranks = [i for i, c in enumerate(candidates) if canonical(c["x"]) == truth]
    rank = ranks[0] if ranks else None
    winners = sum(s - best < 1.0 for s in scores) if scores else 0
    record.update(
        present=present,
        absent=absent,
        false_present=[f for f in present if f not in distances],
        false_absent=[f for f in absent if f in distances],
        candidates=len(candidates),
        truth_candidate=rank is not None,
        truth_rank=rank,
        winners=winners,
        best_chi2=best,
        truth_chi2=None if rank is None else candidates[rank]["score"],
        unique=rank == 0 and winners == 1,
    )
    return record


def line_spreads(records: list[dict]) -> list[dict]:
    """Per tested line (m, f): the seed spread of a/A0 over its mean replica sigma.

    The spread is the sample standard deviation over the seeds that fitted
    the line; a replica sigma that describes the estimator's noise gives a
    ratio near 1.
    """
    by_line: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for record in records:
        for m, f, contrast, sigma in record.get("lines", ()):
            by_line.setdefault((m, f), []).append((contrast, sigma))
    rows = []
    for (m, f), seen in sorted(by_line.items()):
        if len(seen) < 2:
            continue
        contrasts, sigmas = zip(*seen)
        spread, mean_sigma = statistics.stdev(contrasts), statistics.fmean(sigmas)
        rows.append({"m": m, "f": f, "seeds": len(seen), "spread": spread,
                     "mean_sigma": mean_sigma, "ratio": spread / mean_sigma})
    return rows


def off_comb_z(records: list[dict]) -> dict:
    """How far the off-comb lines of a set sit from zero, in units of their sigma."""
    z = [contrast / sigma for record in records
         for _, _, contrast, sigma in record.get("off_comb", ()) if sigma > 0]
    return {"lines": len(z), "rms_z": math.sqrt(statistics.fmean(v * v for v in z)) if z else None,
            "z_ge_3": sum(abs(v) >= 3 for v in z)}


def summarize(records: list[dict]) -> dict:
    return {
        "seeds": len(records),
        "all_exit_0": all(not any(r["exit"].values()) for r in records),
        "unique": sum(bool(r.get("unique")) for r in records),
        "truth_candidate": sum(bool(r.get("truth_candidate")) for r in records),
        "false_absent_seeds": sum(bool(r.get("false_absent")) for r in records),
        "false_present_seeds": sum(bool(r.get("false_present")) for r in records),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names BENCH_accuracy_<tag>.json")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "specklescope").is_dir():
        print(f"no src/specklescope under {Path.cwd()}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    from specklescope import __version__
    from specklescope.cli import main as cli_main

    results = []
    print(f"{'set':<20} {'seeds':>5} {'unique':>6} {'truth':>6} {'f.abs':>5} {'f.pres':>6} "
          f"{'exit0':>5} {'lines':>5} {'ratio':>6} {'range':^11} {'off':>4} {'rms z':>5} "
          f"{'z>=3':>4} {'s':>6}")
    for name, config, seeds in SETS:
        truth = canonical(config["x"])
        started = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="accuracy-") as work:
            config_path = Path(work) / "run.ini"
            config_path.write_text(ini(config))
            records = [run_seed(cli_main, config_path, Path(work) / f"seed{seed}", seed, truth)
                       for seed in seeds]
        elapsed = time.perf_counter() - started
        summary = summarize(records)
        lines = line_spreads(records)
        ratios = [line["ratio"] for line in lines]
        off = off_comb_z(records)
        results.append({"name": name, "config": ini(config), "seeds": list(seeds),
                        "summary": summary, "lines": lines, "off_comb": off,
                        "records": records, "seconds": round(elapsed, 1)})
        print(f"{name:<20} {summary['seeds']:>5} {summary['unique']:>6} "
              f"{summary['truth_candidate']:>6} {summary['false_absent_seeds']:>5} "
              f"{summary['false_present_seeds']:>6} {str(summary['all_exit_0']):>5} "
              f"{len(lines):>5} {statistics.median(ratios) if ratios else math.nan:>6.2f} "
              f"{min(ratios, default=math.nan):>5.2f}-{max(ratios, default=math.nan):<5.2f} "
              f"{off['lines']:>4} {off['rms_z'] or math.nan:>5.2f} {off['z_ge_3']:>4} "
              f"{elapsed:>6.1f}")

    path = Path(f"BENCH_accuracy_{args.tag}.json")
    path.write_text(json.dumps({
        "tag": args.tag,
        "specklescope": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sets": results,
    }, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
