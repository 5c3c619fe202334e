"""Benchmark of the specklescope command-line pipeline on pinned workloads.

Run from the repository root:

    python3 perfbench/run.py --workload demo --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --steadiness --seconds 56

A run repeats rounds for about ``--seconds`` (see ``rounds``).  An
untraced round times ``simulate -> analyze -> reconstruct -> report`` as
separate CLI processes on a fresh run directory, checks the run directory
(see checks.py) and times a few bare starts of the CLI's import.
``pipeline_s`` is the mean over the run's rounds, and ``setup_s`` the
median over its starts.  ``--trace 1`` instead calls the CLI in-process,
one untraced and one traced pipeline per round, and reports per-layer
figures from the spans.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread for every command and for the in-process traced run (set
# before numpy loads): a second thread does no useful work in this program
# and, on a shared host with few cores, waits on whichever core another
# tenant holds.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

from checks import checks_for, run_checks
from spans import Tracer, layer_metrics
from workloads import SIM_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
COMMANDS = ("simulate", "analyze", "reconstruct", "report")
CLI_MAIN = "import sys; from specklescope.cli import main; sys.exit(main())"
MIN_ROUNDS = 4  # untraced; the mean needs a few rounds even on a slow host
SETUP_PER_ROUND = 2
IMPORTTIME_REPEATS = 3
STEADINESS_SETS = 2
STEADINESS_RUNS = 10

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_optimize_s": "s",
    "cli.simulate_s": "s",
    "cli.analyze_s": "s",
    "cli.reconstruct_s": "s",
    "speckle.sample_frames_s": "s",
    "speckle.frames_per_s": "1/s",
    "speckle.estimate_g_m_s": "s",
    "speckle.estimate_g_m_calls": "count",
    "serialize.write_frames_s": "s",
    "serialize.read_frames_s": "s",
    "serialize.frames_mb": "MB",
    "serialize.text_io_s": "s",
    "spectrum.fit_free_s": "s",
    "spectrum.lsq_calls": "count",
    "spectrum.lsq_nfev": "count",
    "spectrum.lsq_s": "s",
    "spectrum.lines_fitted": "count",
    "spectrum.line_yield": "ratio",
    "correlation.predicted_spectrum_calls": "count",
    "correlation.predicted_spectrum_s": "s",
    "reconstruct.search_s": "s",
    "reconstruct.candidates": "count",
    "reconstruct.disambiguate_self_s": "s",
    "trace.overhead_pct": "%",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cli_args(command: str, ini: Path, out: Path, seed: int) -> list[str]:
    args = [command, "--out", str(out)]
    if command != "report":
        args += ["--config", str(ini)]
    if command == "simulate":
        args += ["--seed", str(seed)]
    return args


class Tally:
    """Operations attempted and failed; an operation is a command or a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok

    def skip(self, count: int, what: str) -> None:
        """Operations a failed command left unattempted count as failed."""
        self.attempted += count
        self.failed += count
        if count:
            print(f"FAILED {what}: {count} operation(s) not reached", file=sys.stderr)


def check_run(workload: Workload, run: Path, tally: Tally) -> None:
    for name, error in run_checks(workload, run):
        tally.record(error is None, f"{workload.name} check {name}", error or "")


# ---------------------------------------------------------------------------
# untraced: every command in its own process
# ---------------------------------------------------------------------------


def run_process(argv: list[str], log: Path) -> tuple[float, int]:
    """Peak RSS in MB and exit code of one child process."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, proc.returncode


def time_setup() -> float:
    """Wall seconds of starting Python and importing specklescope.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import specklescope.cli"], env=child_env(), check=True)
    return time.perf_counter() - start


def subprocess_pipeline(
    workload: Workload, ini: Path, out: Path, tally: Tally
) -> dict[str, float] | None:
    figures = {"peak_rss_mb": 0.0}
    start = time.perf_counter()
    for i, command in enumerate(COMMANDS):
        log = out.parent / f"{out.name}.{command}.log"
        argv = [sys.executable, "-c", CLI_MAIN, *cli_args(command, ini, out, SIM_SEED)]
        rss_mb, code = run_process(argv, log)
        what = f"{workload.name} {command}"
        if not tally.record(code == 0, what, f"exit {code}: {log.read_text()[-2000:]}"):
            tally.skip(len(COMMANDS) - i - 1 + len(checks_for(workload)), what)
            return None
        figures["peak_rss_mb"] = max(figures["peak_rss_mb"], rss_mb)
    figures["pipeline_s"] = time.perf_counter() - start
    check_run(workload, out, tally)
    return figures


# ---------------------------------------------------------------------------
# traced: the CLI in-process, with and without span wrappers
# ---------------------------------------------------------------------------


def inprocess_pipeline(
    workload: Workload, ini: Path, out: Path, tally: Tally, tracer: Tracer | None
) -> float | None:
    """Wall seconds of the four commands called through cli.main."""
    from specklescope.cli import main

    elapsed = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for i, command in enumerate(COMMANDS):
            what = f"{workload.name} {command} (in-process)"
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    with tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext():
                        code = main(cli_args(command, ini, out, SIM_SEED))
                except Exception as exc:  # a traceback is a failed command, not a crashed run
                    code = f"{type(exc).__name__}: {exc}"
            elapsed += time.perf_counter() - start
            if not tally.record(code == 0, what, f"exit {code}: {sink.getvalue()[-2000:]}"):
                tally.skip(len(COMMANDS) - i - 1 + len(checks_for(workload)), what)
                return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    check_run(workload, out, tally)
    return elapsed


def import_times() -> tuple[float, float]:
    """Cumulative import seconds of specklescope.cli and of scipy.optimize."""
    argv = [sys.executable, "-X", "importtime", "-c", "import specklescope.cli"]
    cli, scipy_opt = [], []
    for _ in range(IMPORTTIME_REPEATS):
        report = subprocess.run(
            argv, env=child_env(), check=True, capture_output=True, text=True
        ).stderr
        cumulative = {}
        for line in report.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        cli.append(cumulative["specklescope.cli"])
        scipy_opt.append(cumulative.get("scipy.optimize", 0.0))
    return statistics.median(cli), statistics.median(scipy_opt)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def rounds(seconds: float, minimum: int):
    """Round indices for about `seconds`.

    The first `minimum` rounds always run; another starts only if one more
    round as long as the last still ends within `seconds`, so faster code
    gets more rounds in the same run length.
    """
    start = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        yield index
        index += 1
        now = time.perf_counter()
        if index >= minimum and now - start + (now - round_start) > seconds:
            return


def untraced_run(
    workload: Workload, seconds: float, scratch: Path, tally: Tally
) -> dict[str, float]:
    ini = scratch / "workload.ini"
    ini.write_text(workload.ini())
    time_setup()  # the first start may compile bytecode
    samples: dict[str, list[float]] = {"setup_s": []}
    for index in rounds(seconds, MIN_ROUNDS):
        out = scratch / f"run{index}"
        for k, v in (subprocess_pipeline(workload, ini, out, tally) or {}).items():
            samples.setdefault(k, []).append(v)
        shutil.rmtree(out, ignore_errors=True)
        samples["setup_s"] += [time_setup() for _ in range(SETUP_PER_ROUND)]
    # every round runs the same acquisition, so rounds differ only in how
    # much other tenants slowed the host; the mean over a minute of rounds
    # varied least from run to run
    metrics = {"setup_s": statistics.median(samples["setup_s"])}
    if "pipeline_s" in samples:  # at least one pipeline ran to the end
        metrics["pipeline_s"] = statistics.fmean(samples["pipeline_s"])
        metrics["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    return metrics


def traced_run(
    workload: Workload, seconds: float, scratch: Path, tally: Tally
) -> dict[str, float]:
    ini = scratch / "workload.ini"
    ini.write_text(workload.ini())
    sys.path.insert(0, str(SRC))
    cli_import, scipy_import = import_times()
    samples: dict[str, list[float]] = {}
    wall = {True: 0.0, False: 0.0}  # in-process pipeline seconds, traced or not
    for index in rounds(seconds, 1):
        for traced in (index % 2 == 1, index % 2 == 0):  # alternate which goes first
            out = scratch / f"run{index}{'t' if traced else 'u'}"
            tracer = Tracer() if traced else None
            elapsed = inprocess_pipeline(workload, ini, out, tally, tracer)
            if elapsed is not None:
                wall[traced] += elapsed
            if elapsed is not None and traced:
                frames_bytes = (out / "frames.sstk").stat().st_size
                for k, v in layer_metrics(tracer.spans, workload.frames, frames_bytes).items():
                    samples.setdefault(k, []).append(v)
            shutil.rmtree(out, ignore_errors=True)
    # layer figures are per pipeline, averaged over the run's rounds
    metrics = {k: statistics.fmean(v) for k, v in samples.items()}
    metrics["cli.import_s"] = cli_import
    metrics["cli.import_scipy_optimize_s"] = scipy_import
    if wall[False] > 0:
        metrics["trace.overhead_pct"] = 100.0 * (wall[True] / wall[False] - 1.0)
    return metrics


def run(workload: Workload, seconds: float, trace: bool) -> dict:
    tally = Tally()
    scratch = HERE / "runs" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        measure = traced_run if trace else untraced_run
        metrics = measure(workload, seconds, scratch, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }


# ---------------------------------------------------------------------------
# steadiness: two sets of runs of the same code
# ---------------------------------------------------------------------------


def steadiness(seconds: float) -> int:
    """Run two separate sets of ten runs per workload and compare them."""
    sets = range(STEADINESS_SETS)
    results: dict[str, list[list[dict]]] = {name: [] for name in WORKLOADS}
    for s in sets:
        for name in WORKLOADS:
            results[name].append([])
            for i in range(STEADINESS_RUNS):
                seed = 1000 * (s + 1) + i
                argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(argv, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                results[name][s].append(out)
                print(f"set {s + 1} {name} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
                      file=sys.stderr, flush=True)

    print(f"{'workload':8} {'metric':14} " + " ".join(
        f"{'set ' + str(s + 1) + ' median [q1, q3] spread':>36}" for s in sets
    ) + f" {'drift':>7}")
    for name in WORKLOADS:
        for metric in END_TO_END:
            cells, medians = [], []
            for s in sets:
                values = [r["metrics"][metric]["value"] for r in results[name][s]]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                medians.append(q2)
                cells.append(f"{q2:9.4g} [{q1:9.4g}, {q3:9.4g}] {(q3 - q1) / q2:6.1%}")
            drift = abs(medians[1] / medians[0] - 1.0)
            print(f"{name:8} {metric:14} " + " ".join(f"{c:>36}" for c in cells) + f" {drift:7.1%}")
        shares = [
            f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
            for rs in results[name]
        ]
        print(f"{name:8} failed/attempted per set: {', '.join(shares)}")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steadiness.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="accepted for the common interface; every workload pins its inputs")
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run two sets of ten runs per workload and compare them")
    args = parser.parse_args()
    if not (SRC / "specklescope" / "cli.py").is_file():
        print(f"no specklescope sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(WORKLOADS[args.workload], args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
