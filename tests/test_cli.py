"""End-to-end command pipeline: artifacts, determinism, exit codes."""

import csv
import io
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import evidence_table, fresh_interpreter_env, magic_curve
from specklescope import (
    SourceGeometry, cli, estimate_g_m, g_m_analytic, magic_positions, nearest_magic_pixels,
)
from specklescope.cli import main
from specklescope.config import GatePolicy
from specklescope.serialize import (
    evidence_to_dict, read_curve_csv, read_frames, read_replicas, write_curve_csv, write_json,
)

CONFIG = """\
[geometry]
x = [1, 3]

[simulate]
frames = 1000
seed = 1
pixels = 240
orders = [3, 4]
"""

RESULTS = ["spectra.json", "evidence.json", "reconstruction.json"]
PIPELINE_ARTIFACTS = ["curves_m3.csv", "replicas_m3.npy", *RESULTS]


def run_pipeline(root, config=CONFIG, drop_frames=False):
    root.mkdir(parents=True, exist_ok=True)
    cfg = root / "run.ini"
    cfg.write_text(config)
    out = root / "out"
    for cmd in ("simulate", "analyze", "reconstruct"):
        if cmd == "analyze" and drop_frames:
            (out / "frames.sstk").unlink()
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0, cmd
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("pipeline"))


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------


def test_pipeline_writes_all_artifacts(run_dir):
    expected = PIPELINE_ARTIFACTS + [
        "curves_m4.csv", "replicas_m4.npy", "frames.sstk", "manifest.json",
    ]
    for name in expected:
        assert (run_dir / name).exists(), name
    # analyze prints its fit table; spectra.json already holds every line
    assert not (run_dir / "table.csv").exists()


def test_manifest_reproduces_the_config(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["tool"] == "specklescope"
    assert manifest["seed"] == 1
    assert manifest["outputs"]["curve_m3"] == "curves_m3.csv"
    assert manifest["outputs"]["replicas_m3"] == "replicas_m3.npy"
    assert any("placement error" in note for note in manifest["notes"])
    assert "frames = 1000" in manifest["config"]


def test_evidence_matches_the_known_geometry(run_dir):
    evidence = json.loads((run_dir / "evidence.json").read_text())
    by_f = {row["f"]: row["status"] for row in evidence["rows"]}
    assert by_f[3] == "present"
    assert by_f[4] == "present"
    assert by_f[2] == "absent"
    assert evidence["orders_measured"] == [3, 4]


def printed_fit_table(run_dir, tmp_path, capsys):
    """The (m, f, A, sigma_A, a/A0, its sigma, flag) rows analyze prints for a copy of run_dir."""
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    capsys.readouterr()
    assert main(["analyze", "--out", str(out)]) == 0
    line = r"^order (\d+): f = (\S+), A = (\S+) \+- (\S+), a/A0 = (\S+) \+- (\S+)  \[(\w+)\]$"
    return re.findall(line, capsys.readouterr().out, re.MULTILINE)


def test_fit_table_lists_lines(run_dir, tmp_path, capsys):
    rows = printed_fit_table(run_dir, tmp_path, capsys)
    assert rows, "no fitted lines at all"
    # every comb line up to max_span = 20 is tested: 10 at order 3, 6 at order 4
    assert [(int(r[0]), float(r[1])) for r in rows] == (
        [(3, 2.0 * k) for k in range(1, 11)] + [(4, 3.0 * k) for k in range(1, 7)]
    )
    accepted = {(int(r[0]), round(float(r[1]))) for r in rows if r[6] == "accepted"}
    assert accepted == {(3, 4), (4, 3)}
    assert {r[6] for r in rows} == {"accepted", "rejected"}


def test_fit_table_repeats_the_spectra_lines(run_dir, tmp_path, capsys):
    # each printed row is one fitted line of spectra.json, accepted when the gate kept it
    rows = printed_fit_table(run_dir, tmp_path, capsys)
    spectra = json.loads((run_dir / "spectra.json").read_text())
    fitted = [(s["m"], line) for s in spectra["fits"] for line in s["harmonics"]]
    gated = [(s["m"], line) for s in spectra["gated"] for line in s["harmonics"]]
    assert len(rows) == len(fitted) and gated
    for row, (m, line) in zip(rows, fitted):
        assert int(row[0]) == m
        assert float(row[1]) == line["f"]
        assert row[2:6] == (f"{line['A']:.3f}", f"{line['sigma_A']:.3f}",
                            f"{line['a_A0']:+.4f}", f"{line['sigma_a_A0']:.4f}")
        assert (row[6] == "accepted") == ((m, line) in gated)


def test_analyze_names_the_most_significant_off_comb_line(run_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    capsys.readouterr()
    assert main(["analyze", "--out", str(out)]) == 0
    line = (r"^order (\d+): A0 = \S+, largest off-comb line f = (\S+), "
            r"a/A0 = \S+ \+- \S+ \((\S+) sigma\)$")
    printed = re.findall(line, capsys.readouterr().out, re.MULTILINE)
    spectra = json.loads((out / "spectra.json").read_text())
    assert [int(m) for m, _, _ in printed] == [s["m"] for s in spectra["fits"]] == [3, 4]
    for (_, f, z), spectrum in zip(printed, spectra["fits"]):
        # every integer f <= max_span = 20 off the comb, each with its replica sigma
        m = spectrum["m"]
        assert [h["f"] for h in spectrum["off_comb"]] == [k for k in range(1, 21) if k % (m - 1)]
        top = max(spectrum["off_comb"], key=lambda h: abs(h["a_A0"]) / h["sigma_a_A0"])
        assert float(f) == top["f"]
        assert z == f"{abs(top['a_A0']) / top['sigma_a_A0']:.1f}"
    # the gate decides on no off-comb line
    assert all(s["off_comb"] == [] for s in spectra["gated"])


def test_analyze_scales_the_off_comb_lines_family_wise(run_dir, tmp_path, capsys):
    # z* over every off-comb line the run fitted: 10 at order 3, 14 at order 4
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    capsys.readouterr()
    assert main(["analyze", "--out", str(out)]) == 0
    printed = re.findall(r"^off-comb: (\d+) lines fitted, family-wise z\* = (\S+) sigma "
                         r"\(alpha = (\S+)\)$", capsys.readouterr().out, re.MULTILINE)
    spectra = json.loads((out / "spectra.json").read_text())
    n_off = sum(len(s["off_comb"]) for s in spectra["fits"])
    gate = GatePolicy()  # the run's config sets no [gate]
    assert printed == [(str(n_off), f"{gate.threshold(n_off):.2f}", f"{gate.alpha:g}")]
    assert n_off == 24 and printed[0][1:] == ("3.53", "0.01")


def test_reconstruction_identifies_the_source(run_dir):
    report = json.loads((run_dir / "reconstruction.json").read_text())
    assert [c["x"] for c in report["candidates"]] == [[1, 3]]
    assert report["exhaustive"] is True
    assert report["candidates"][0]["score"] is not None  # the accepted lines scored it


def rescored(run_dir, out, edit):
    """reconstruction.json of a bare reconstruct on a copy of run_dir with spectra.json edited."""
    shutil.copytree(run_dir, out)
    spectra = json.loads((out / "spectra.json").read_text())
    edit(spectra)
    write_json(out / "spectra.json", spectra)
    assert main(["reconstruct", "--out", str(out)]) == 0
    return (out / "reconstruction.json").read_bytes()


def test_reconstruct_scores_the_fitted_lines_the_evidence_accepts(run_dir, tmp_path):
    # evidence.json marks the gate's lines Present at their order; the fits carry their strengths
    def double_accepted_fits(spectra):
        (order_3,) = [s for s in spectra["fits"] if s["m"] == 3]
        (accepted,) = [line for line in order_3["harmonics"] if line["f"] == 4.0]
        accepted["A"] *= 2

    def double_gated(spectra):
        for spectrum in spectra["gated"]:
            for line in spectrum["harmonics"]:
                line["A"] *= 2

    original = (run_dir / "reconstruction.json").read_bytes()
    scaled = json.loads(rescored(run_dir, tmp_path / "fits", double_accepted_fits))
    assert scaled["candidates"][0]["score"] != json.loads(original)["candidates"][0]["score"]
    # the gated copy is read by no command
    assert rescored(run_dir, tmp_path / "gated", double_gated) == original


def test_reconstruct_reads_spectra_written_before_the_off_comb_lines(run_dir, tmp_path):
    # an older spectra.json: a residual `leakage` per order and no `off_comb`
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    spectra = json.loads((out / "spectra.json").read_text())
    for spectrum in spectra["fits"] + spectra["gated"]:
        assert spectrum.pop("off_comb") is not None
        spectrum["leakage"] = 0.05
    write_json(out / "spectra.json", spectra)
    assert main(["reconstruct", "--out", str(out)]) == 0
    candidates = [json.loads((d / "reconstruction.json").read_text())["candidates"]
                  for d in (run_dir, out)]
    assert candidates[0] and candidates[1] == candidates[0]


def test_report_command_summarizes(run_dir, capsys):
    assert main(["report", "--out", str(run_dir)]) == 0
    text = capsys.readouterr().out
    assert "x = [1, 3]" in text
    assert "present: [3, 4]" in text
    assert "seed 1" in text


def test_report_prints_the_apertures_of_the_measured_orders(run_dir, tmp_path, capsys):
    # older runs stored the apertures in reconstruction.json; report derives
    # them from the orders measured and prints the same lines for both
    old = tmp_path / "old"
    shutil.copytree(run_dir, old)
    report = json.loads((old / "reconstruction.json").read_text())
    assert "apertures" not in report
    report["apertures"] = [{"m": 3, "r_moving": 0.5, "r_total": 0.5},
                           {"m": 4, "r_moving": 1 / 3, "r_total": 2 / 3}]
    write_json(old / "reconstruction.json", report)
    printed = []
    for out in (run_dir, old):
        assert main(["report", "--out", str(out)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    lines = printed[0].splitlines()
    assert "order 3: moving aperture 0.5000, fixed array 0.5000" in lines
    assert "order 4: moving aperture 0.3333, fixed array 0.6667" in lines


def test_pipeline_is_deterministic(run_dir, tmp_path):
    again = run_pipeline(tmp_path / "again")
    for name in PIPELINE_ARTIFACTS:
        assert (again / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_results_do_not_depend_on_the_frame_file(run_dir, tmp_path, capsys):
    unsaved = run_pipeline(tmp_path / "unsaved", CONFIG + "save_frames = False\n")
    assert not (unsaved / "frames.sstk").exists()
    dropped = run_pipeline(tmp_path / "dropped", drop_frames=True)
    assert "warning" not in capsys.readouterr().err  # replicas were found
    for name in RESULTS:
        expected = (run_dir / name).read_bytes()
        assert (unsaved / name).read_bytes() == expected, name
        assert (dropped / name).read_bytes() == expected, name


# ---------------------------------------------------------------------------
# analyze variants
# ---------------------------------------------------------------------------


def test_the_frame_archive_re_estimates_the_saved_curves(run_dir):
    # frames.sstk streamed back through the one estimator gives simulate's
    # curves: the same chunks, blocks and bootstrap seed
    stream = read_frames(run_dir / "frames.sstk")
    orders = (3, 4)
    pixel_sets = [nearest_magic_pixels(stream.delta_axis, m)[0] for m in orders]
    for m, curve in zip(orders, estimate_g_m(stream, pixel_sets)):
        saved = read_curve_csv(run_dir / f"curves_m{m}.csv", m)
        saved = read_replicas(run_dir / f"replicas_m{m}.npy", saved)
        np.testing.assert_array_equal(curve.delta1, saved.delta1)
        np.testing.assert_array_equal(curve.values, saved.values)
        assert curve.sigma.tobytes() == saved.sigma.tobytes()
        assert curve.replicas.tobytes() == saved.replicas.tobytes()


def test_analyze_accepts_bare_curve_files(tmp_path, capsys):
    write_curve_csv(magic_curve((1, 3), 3), tmp_path / "curves_m3.csv")
    code = main(["analyze", "--out", str(tmp_path)])
    assert code == 0
    spectra = json.loads((tmp_path / "spectra.json").read_text())
    kept = [round(line["f"]) for s in spectra["gated"] for line in s["harmonics"]]
    assert kept == [4]
    # without replicas the sigmas come from the covariance, and analyze says so
    err = capsys.readouterr().err
    assert "warning: order 3: no replicas_m3.npy" in err
    assert "covariance" in err


def test_analyze_summarizes_a_curve_without_off_comb_lines(tmp_path, capsys):
    # half a period resolves the order-3 comb alone, f = 2, 4, ..., 20
    half = g_m_analytic(SourceGeometry((1, 3)), np.linspace(0.0, np.pi, 64), magic_positions(3))
    write_curve_csv(half, tmp_path / "curves_m3.csv")
    write_curve_csv(magic_curve((1, 3), 4), tmp_path / "curves_m4.csv")
    assert main(["analyze", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^order 3: A0 = \S+, no off-comb lines: the scan spans less than 2\*pi$",
                     out, re.MULTILINE)
    assert re.search(r"^order 4: A0 = \S+, largest off-comb line f = ", out, re.MULTILINE)
    spectra = json.loads((tmp_path / "spectra.json").read_text())
    assert [len(s["harmonics"]) for s in spectra["fits"]] == [10, 6]
    assert [len(s["off_comb"]) for s in spectra["fits"]] == [0, 14]


def test_malformed_curve_csv_exits_2(tmp_path, capsys):
    write_curve_csv(magic_curve((1, 3), 3), tmp_path / "curves_m3.csv")
    curve = (tmp_path / "curves_m3.csv").read_bytes()
    header, *rows = curve.decode().splitlines(keepends=True)
    for text in [
        "nonsense,header\n1,2\n",  # foreign header
        "delta1_rad,g_value,sigma\n0.0,2.0\n",  # short row
        "delta1_rad,g_value\n0.0,two\n",  # non-numeric cell
        _repeated_offsets(curve).decode(),
        "".join([header, *rows[::-1]]),  # offsets in reverse
        header,  # a header and no samples
    ]:
        (tmp_path / "curves_m3.csv").write_text(text)
        assert main(["analyze", "--out", str(tmp_path)]) == 2, text
        assert "curves_m3.csv" in capsys.readouterr().err


def test_analyze_names_orders_without_curve_files(tmp_path, capsys):
    write_curve_csv(magic_curve((1, 3), 3), tmp_path / "curves_m3.csv")
    assert main(["analyze", "--orders", "3,5", "--out", str(tmp_path)]) == 2
    assert "order(s) [5]" in capsys.readouterr().err


def test_analyze_reads_only_the_replicas_the_manifest_lists(tmp_path, capsys):
    # one frame over a 2000-frame run leaves that run's replicas behind, and
    # analyze refuses them as it refuses an unlisted curve file
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("frames = 1000", "frames = 2000").replace("[3, 4]", "[3]"))
    stale, fresh = tmp_path / "stale", tmp_path / "fresh"
    assert main(["simulate", "--config", str(cfg), "--out", str(stale)]) == 0
    codes, errors = {}, {}
    for out in (stale, fresh):
        assert main(["simulate", "--config", str(cfg), "--frames", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        codes[out] = main(["analyze", "--out", str(out)])
        errors[out] = capsys.readouterr().err
    assert (stale / "replicas_m3.npy").exists() and not (fresh / "replicas_m3.npy").exists()
    assert codes[stale] == 2
    assert f"replicas_m3.npy under {stale}: not listed in manifest.json" in errors[stale]
    assert not (stale / "spectra.json").exists()
    # a run without replicas is fitted with covariance sigmas, and analyze says so
    assert codes[fresh] == 0
    assert "order 3: no replicas_m3.npy" in errors[fresh]
    assert "covariance" in errors[fresh]


def test_analyze_refuses_curve_files_the_manifest_does_not_list(tmp_path, capsys):
    # a second run into the same directory leaves the first run's order 4 behind
    out = tmp_path / "out"
    assert main(["simulate", "--frames", "500", "--orders", "3,4", "--out", str(out)]) == 0
    assert main(["simulate", "--frames", "500", "--orders", "3", "--seed", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--orders", "3,4", "--out", str(out)]) == 2
    assert "curves_m4.csv" in capsys.readouterr().err
    assert not (out / "spectra.json").exists()
    assert not (out / "evidence.json").exists()


def test_resimulating_clears_the_previous_runs_results(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text("[geometry]\nx = [3, 1, 4]\n\n[simulate]\nframes = 2000\npixels = 240\n")
    for command in ("simulate", "analyze", "reconstruct"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
    (out / "table.csv").write_text("m,f\n")  # an older analyze's fit table
    cfg.write_text("[geometry]\nx = [2, 5]\n\n[simulate]\nframes = 2000\npixels = 240\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for name in RESULTS + ["table.csv"]:
        assert not (out / name).exists(), name
    capsys.readouterr()
    # the first run's answer is gone, not reported for the second run's curves
    assert main(["reconstruct", "--out", str(out)]) == 2
    assert f"missing {out / 'evidence.json'}; run analyze first" in capsys.readouterr().err
    assert main(["report", "--out", str(out)]) == 2
    assert "[3, 1, 4]" not in capsys.readouterr().out


def test_reanalyzing_removes_the_earlier_reconstruction(run_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    (out / "table.csv").write_text("m,f\n")  # an older analyze's fit table
    assert main(["analyze", "--orders", "3", "--out", str(out)]) == 0
    assert json.loads((out / "evidence.json").read_text())["orders_measured"] == [3]
    assert not (out / "reconstruction.json").exists()
    assert not (out / "table.csv").exists()
    capsys.readouterr()
    # the answer to the earlier, two-order evidence is not reported for this one
    assert main(["report", "--out", str(out)]) == 2
    done = capsys.readouterr()
    assert f"missing {out / 'reconstruction.json'}; run reconstruct first" in done.err
    assert done.out == ""


def test_simulate_without_frames_removes_an_earlier_archive(tmp_path):
    # an earlier run's frames.sstk would be read back beside this run's curves
    first, second = tmp_path / "first.ini", tmp_path / "second.ini"
    first.write_text("[geometry]\nx = [1, 3]\n\n[simulate]\nframes = 600\norders = [3]\n")
    second.write_text("[geometry]\nx = [2, 5]\n\n[simulate]\nframes = 300\norders = [3]\n"
                      "save_frames = False\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(first), "--out", str(out)]) == 0
    assert read_frames(out / "frames.sstk").n_frames == 600
    assert main(["simulate", "--config", str(second), "--out", str(out)]) == 0
    assert not (out / "frames.sstk").exists()
    assert "frames" not in json.loads((out / "manifest.json").read_text())["outputs"]


def test_analyze_takes_orders_from_the_manifest(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--frames", "500", "--orders", "3,5", "--out", str(out)]) == 0
    assert main(["analyze", "--out", str(out)]) == 0
    spectra = json.loads((out / "spectra.json").read_text())
    fitted = [s["m"] for s in spectra["fits"]] + [f["m"] for f in spectra["failures"]]
    assert sorted(fitted) == [3, 5]


def test_bare_analyze_takes_the_whole_config_from_the_manifest(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[geometry]\nx = [1, 3]\n\n[simulate]\nframes = 300\norders = [3, 4]\n\n"
                   "[gate]\nalpha = 1e-300\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    configured = (out / "evidence.json").read_bytes()
    capsys.readouterr()
    assert main(["analyze", "--out", str(out)]) == 0
    assert (out / "evidence.json").read_bytes() == configured
    assert "present []" in capsys.readouterr().out


def test_simulate_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", str(cfg), "--out", str(out),
         "--frames", "64", "--seed", "9", "--orders", "3"]
    )
    assert code == 0
    assert not (out / "curves_m4.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert "frames = 64" in manifest["config"]


# ---------------------------------------------------------------------------
# aperture
# ---------------------------------------------------------------------------


def test_aperture_table(tmp_path, capsys):
    path = tmp_path / "apertures.csv"
    assert main(["aperture", "--orders", "2..4", "--out", str(path)]) == 0
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["m"] for r in rows] == ["2", "3", "4"]
    assert float(rows[0]["r_moving"]) == 1.0
    assert float(rows[0]["r_total"]) == 1.0
    assert float(rows[2]["r_moving"]) == pytest.approx(1 / 3)
    assert float(rows[2]["r_total"]) == pytest.approx(2 / 3)


def test_aperture_creates_missing_directories(tmp_path):
    path = tmp_path / "nope" / "dir" / "ap.csv"
    assert main(["aperture", "--orders", "3..5", "--out", str(path)]) == 0
    with open(path, newline="") as handle:
        assert [r["m"] for r in csv.DictReader(handle)] == ["3", "4", "5"]


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------

# runs one command in a fresh interpreter, then lists every module it loaded
MODULES_PROBE = """\
import sys
from specklescope.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""


def modules_loaded(*argv):
    done = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, *argv],
        capture_output=True, text=True, env=fresh_interpreter_env(),
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def scipy_modules_loaded(*argv):
    return sorted(name for name in modules_loaded(*argv) if name.split(".")[0] == "scipy")


def test_no_command_loads_scipy(tmp_path):
    # scipy is a test-only dependency; scipy.optimize alone takes half a second to import
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("frames = 1000", "frames = 200"))
    out = str(tmp_path / "out")
    assert scipy_modules_loaded() == []
    assert scipy_modules_loaded("simulate", "--config", str(cfg), "--out", out) == []
    for argv in (["analyze", "--config", str(cfg), "--out", out],
                 ["reconstruct", "--config", str(cfg), "--out", out],
                 ["report", "--out", out],
                 ["aperture", "--orders", "3..5", "--out", str(tmp_path / "ap.csv")]):
        assert scipy_modules_loaded(*argv) == [], argv[0]


def test_import_and_analyze_skip_numpy_ma_and_statistics(run_dir, tmp_path):
    # numpy.ma costs about 16 ms a process and statistics 0.4 MB; gate loads
    # statistics when it runs, and nothing needs numpy.ma
    assert not {"numpy.ma", "statistics"} & modules_loaded()
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = shutil.copytree(run_dir, tmp_path / "out")
    assert "numpy.ma" not in modules_loaded("analyze", "--config", str(cfg), "--out", str(out))


# like MODULES_PROBE, but also through argparse's exits; prints the exit code first
EXIT_PROBE = """\
import sys
from specklescope.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, " ".join(sorted(sys.modules)))
"""


def exit_and_modules(*argv):
    done = subprocess.run(
        [sys.executable, "-c", EXIT_PROBE, *map(str, argv)],
        capture_output=True, text=True, env=fresh_interpreter_env(),
    )
    assert done.returncode == 0, done.stderr
    code, *modules = done.stdout.splitlines()[-1].split()
    return int(code), set(modules)


def test_each_command_loads_only_the_layers_it_runs(run_dir, tmp_path):
    # numpy alone takes about 0.07 s of every start, and report reads two JSON files
    assert "numpy" not in modules_loaded()  # the bare import
    bad = tmp_path / "bad.ini"
    bad.write_text("[simulate]\nframes = 0\n")
    for argv, expected in ((["--help"], 0), (["--version"], 0),
                           (["aperture", "--orders", "3..6"], 0),
                           (["report", "--out", run_dir], 0),
                           ([], 2), (["simulate", "--frames", "x"], 2),
                           (["simulate", "--config", bad, "--out", tmp_path / "o"], 2)):
        code, modules = exit_and_modules(*argv)
        assert code == expected, argv
        assert "numpy" not in modules, argv
        if argv[:1] == ["report"]:  # the manifest is read without the config parser
            assert not {"specklescope.config", "configparser"} & modules
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("frames = 1000", "frames = 200"))
    out = tmp_path / "out"
    code, modules = exit_and_modules("simulate", "--config", cfg, "--out", out)
    assert code == 0 and "specklescope.speckle" in modules
    assert not {"specklescope.reconstruct", "specklescope.spectrum"} & modules
    code, modules = exit_and_modules("analyze", "--config", cfg, "--out", out)
    assert code == 0 and "specklescope.spectrum" in modules
    assert not {"specklescope.speckle", "specklescope.reconstruct"} & modules


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_config_errors_exit_2(tmp_path):
    # each returns 2 from main: no exception, so no traceback
    bad = tmp_path / "bad.ini"
    bad.write_text("[simulate]\nframe_count = 10\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["analyze", "--out", str(tmp_path / "empty")]) == 2
    assert main(["simulate", "--frames", "0", "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    # the weights and bits rules are the sampler's: four sources under the default x
    for text in ("frames = 0", "pixels = 0", "seed = -1", "orders = []", "orders = [3, 3]",
                 "weights = [1.0, 2.0]", "weights = [1.0, 0.0, 1.0, 1.0]",
                 "weights = [1.0, -2.0, 1.0, 1.0]", "weights = [1.0, 1e999, 1.0, 1.0]",
                 "bits = 0", "bits = 20", f"seed = {2**128}",
                 "pixels = 1000000000000"):  # 8 TB of offsets: refused at once, not allocated
        bad.write_text(f"[simulate]\n{text}\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2, text
    assert not (tmp_path / "o").exists()
    write_curve_csv(magic_curve((1, 3), 3), tmp_path / "curves_m3.csv")
    for text in ("[gate]\nalpha = 0", "[gate]\nalpha = 1.5", "[gate]\nk_A = 2.5",
                 "[fit]\nmax_harmonics = 6"):
        bad.write_text(f"{text}\n")
        assert main(["analyze", "--config", str(bad), "--orders", "3",
                     "--out", str(tmp_path)]) == 2, text
    assert not (tmp_path / "spectra.json").exists()
    assert main(["analyze", "--orders", "3,3", "--out", str(tmp_path)]) == 2
    assert main(["aperture", "--orders", "1..3"]) == 2
    # 800 GB of orders: refused at once too, with a one-line error
    assert main(["aperture", "--orders", "2..100000000000"]) == 2
    # the fit table and the aperture file have one format, CSV
    for argv in (["analyze", "--format", "json"], ["aperture", "--orders", "3", "--format", "csv"]):
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2, argv
    assert main(["report", "--out", str(tmp_path / "nowhere")]) == 2


def test_order_2_is_refused_before_any_frame_is_drawn(tmp_path, monkeypatch, capsys):
    # no magic placement gives order 2 a comb the fit can resolve
    def draw(*args):
        raise AssertionError("a frame was drawn")

    monkeypatch.setattr(cli, "sample_frames", draw)
    cfg = tmp_path / "run.ini"
    write_curve_csv(magic_curve((1, 3), 3), tmp_path / "curves_m3.csv")
    # nor past the permanent cap, where no candidate's lines can be scored
    for orders in ("2,3", "13"):
        assert main(["simulate", "--frames", "3000", "--orders", orders,
                     "--out", str(tmp_path / "o")]) == 2
        assert "orders must be distinct integers >= 3" in capsys.readouterr().err
        cfg.write_text(f"[simulate]\norders = [{orders}]\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        assert main(["analyze", "--orders", orders, "--out", str(tmp_path)]) == 2
        assert ">= 3" in capsys.readouterr().err
    # a bare analyze holds the curve files it finds to the same rule
    write_curve_csv(magic_curve((1, 3), 2), tmp_path / "curves_m2.csv")
    assert main(["analyze", "--out", str(tmp_path)]) == 2
    assert "orders must be distinct integers >= 3, got [2, 3]" in capsys.readouterr().err
    assert not (tmp_path / "spectra.json").exists()
    # the aperture table still covers the pair correlation
    assert main(["aperture", "--orders", "2..8"]) == 0
    assert capsys.readouterr().out.startswith("m = 2: ")


def test_a_grid_too_coarse_for_the_comb_is_refused_before_any_frame_is_drawn(
    tmp_path, monkeypatch, capsys
):
    # at 40 pixels the fit's top line f = max_span = 20 sits at the Nyquist frequency
    def estimate(*args):
        raise AssertionError("a frame was drawn")

    cfg = tmp_path / "run.ini"
    cfg.write_text("[geometry]\nx = [1, 3]\n\n[simulate]\nframes = 200\npixels = 40\n"
                   "orders = [3]\n")
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "estimate_g_m", estimate)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [simulate] pixels = 40: the fit of every line "
                          "f <= max_span = 20")
    assert "Nyquist" in err
    assert not out.exists()
    # a lower span bound leaves the top line below Nyquist, and the fit resolves it
    cfg.write_text(cfg.read_text() + "\n[reconstruct]\nmax_span = 19\n")
    for command in ("simulate", "analyze"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command


def test_unwritable_output_paths_exit_2_and_name_the_path(tmp_path):
    directory = tmp_path / "D"
    directory.mkdir()
    regular = tmp_path / "F"
    regular.write_text("")
    cases = [  # argv, and the path the error must name
        (["aperture", "--orders", "3..4", "--out", str(directory)], directory),
        (["simulate", "--frames", "10", "--out", str(regular / "run")], regular / "run"),
        (["aperture", "--orders", "3..4", "--out", str(regular / "x.csv")], regular),
    ]
    for argv, named in cases:
        # a fresh interpreter, so a traceback would show
        done = subprocess.run(
            [sys.executable, "-m", "specklescope.cli", *argv],
            capture_output=True, text=True, env=fresh_interpreter_env(),
        )
        assert done.returncode == 2, (argv, done.stderr)
        assert "Traceback" not in done.stderr
        assert str(named) in done.stderr, argv
    assert regular.read_text() == "" and not any(directory.iterdir())


def test_estimator_errors_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    # one-bit counts of two frames leave pixels that never light up
    cfg.write_text("[geometry]\nx = [1, 3]\n\n[simulate]\nframes = 2\nbits = 1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "dead")]) == 2
    assert "zero mean intensity" in capsys.readouterr().err
    # a grid of two pixels, at 0 and pi, cannot hold the order-6 magic offset at 8pi/5
    cfg.write_text("[simulate]\nframes = 10\npixels = 2\norders = [6]\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "half")]) == 2
    assert "outside the grid" in capsys.readouterr().err
    assert not (tmp_path / "half").exists()
    # a failed simulate archives no frames
    assert not (tmp_path / "dead" / "frames.sstk").exists()
    assert not (tmp_path / "half" / "frames.sstk").exists()


def _drop_first_row_f(evidence):
    del evidence["rows"][0]["f"]
    return evidence


def _drop_fits(spectra):
    del spectra["fits"]
    return spectra


def _repeat_fitted_order(spectra):
    spectra["fits"].append(spectra["fits"][0])
    return spectra


def _zero_offset(spectra):
    spectra["fits"][0]["A0"] = 0.0
    return spectra


def _nan_offset(spectra):
    spectra["fits"][0]["A0"] = float("nan")
    return spectra


def _drop_sigmas(spectra):
    for spectrum in spectra["fits"]:
        del spectrum["sigma_A0"]
        for line in spectrum["harmonics"]:
            del line["sigma_A"], line["sigma_a_A0"]
    return spectra


def _off_comb_line(spectra):
    # order 4 transmits only multiples of 3, so no order-4 line sits at f = 4
    (order_4,) = [s for s in spectra["fits"] if s["m"] == 4]
    order_4["harmonics"][0]["f"] = 4.0
    return spectra


def _old_line_keys(spectra):
    # a spectra.json from the free fit: frequency errors, no contrasts
    for spectrum in spectra["fits"]:
        for line in spectrum["harmonics"]:
            line["sigma_f"] = 0.01
            for key in ("a_A0", "sigma_a_A0", "b_A0", "sigma_b_A0"):
                del line[key]
    return spectra


def _drop_evidence(report):
    del report["evidence"]
    return report


def _outputs_as_list(manifest):
    manifest["outputs"] = []
    return manifest


def _chi2_as_list(report):
    report["candidates"][0]["chi2_by_order"] = []
    return report


def _line_past_int64(spectra):
    # on the order-3 comb, at a frequency no int64 holds
    (order_3,) = [s for s in spectra["fits"] if s["m"] == 3]
    order_3["harmonics"][0]["f"] = 2**65
    return spectra


def _order_1(evidence):
    evidence["orders_measured"].insert(0, 1)
    return evidence


def _report_order_1(report):
    _order_1(report["evidence"])
    return report


def _repeated_offsets(blob):
    # every row twice, so delta1_rad repeats each offset
    header, *rows = blob.decode().splitlines(keepends=True)
    return "".join([header, *(row * 2 for row in rows)]).encode()


def _json_edit(edit):
    return lambda blob: json.dumps(edit(json.loads(blob))).encode()


def _five_replica_rows(blob):
    # too few resamples for their spread to be an error
    cut = io.BytesIO()
    np.save(cut, np.load(io.BytesIO(blob))[:5])
    return cut.getvalue()


# artifact, the command that reads it, and how it is broken; every case exits 2
MALFORMED_ARTIFACTS = {
    "curve-repeated-offsets": ("curves_m3.csv", "analyze", _repeated_offsets),
    "replicas-truncated": ("replicas_m3.npy", "analyze", lambda blob: blob[:100]),
    "replicas-five-rows": ("replicas_m3.npy", "analyze", _five_replica_rows),
    "evidence-row-without-f": ("evidence.json", "reconstruct", _json_edit(_drop_first_row_f)),
    "spectra-without-fits": ("spectra.json", "reconstruct", _json_edit(_drop_fits)),
    "spectra-repeated-order": ("spectra.json", "reconstruct", _json_edit(_repeat_fitted_order)),
    "spectra-zero-offset": ("spectra.json", "reconstruct", _json_edit(_zero_offset)),
    "spectra-nan-offset": ("spectra.json", "reconstruct", _json_edit(_nan_offset)),
    "spectra-without-sigmas": ("spectra.json", "reconstruct", _json_edit(_drop_sigmas)),
    "spectra-off-comb-line": ("spectra.json", "reconstruct", _json_edit(_off_comb_line)),
    "spectra-old-lines": ("spectra.json", "reconstruct", _json_edit(_old_line_keys)),
    "spectra-line-past-int64": ("spectra.json", "reconstruct", _json_edit(_line_past_int64)),
    "evidence-order-1": ("evidence.json", "reconstruct", _json_edit(_order_1)),
    "report-order-1": ("reconstruction.json", "report", _json_edit(_report_order_1)),
    "report-without-evidence": ("reconstruction.json", "report", _json_edit(_drop_evidence)),
    "manifest-as-list": ("manifest.json", "report", _json_edit(list)),
    "manifest-outputs-as-list": ("manifest.json", "analyze", _json_edit(_outputs_as_list)),
    "report-chi2-as-list": ("reconstruction.json", "report", _json_edit(_chi2_as_list)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ARTIFACTS))
def test_malformed_artifacts_exit_2_without_traceback(run_dir, tmp_path, case):
    name, command, corrupt = MALFORMED_ARTIFACTS[case]
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    artifact = out / name
    artifact.write_bytes(corrupt(artifact.read_bytes()))
    # a fresh interpreter, so a traceback would show
    done = subprocess.run(
        [sys.executable, "-m", "specklescope.cli", command, "--out", str(out)],
        capture_output=True, text=True, env=fresh_interpreter_env(),
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert name in done.stderr


def test_a_present_frequency_past_the_span_bound_truncates_the_search(run_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    evidence = json.loads((out / "evidence.json").read_text())
    evidence["rows"].append({"f": 1e300, "status": "present", "A": 0.1, "sigma_A": 0.01,
                             "present_orders": [3], "absent_orders": [], "conflict": False})
    write_json(out / "evidence.json", evidence)
    # a fresh interpreter, so a traceback would show
    done = subprocess.run(
        [sys.executable, "-m", "specklescope.cli", "reconstruct", "--out", str(out)],
        capture_output=True, text=True, env=fresh_interpreter_env(),
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == "0 candidate geometries\n"
    assert "warning: bounds truncated the search" in done.stderr


def test_empty_evidence_exits_3(tmp_path):
    table = evidence_table((), absent=(2,), orders_measured=(3,))
    write_json(tmp_path / "evidence.json", evidence_to_dict(table))
    assert main(["reconstruct", "--out", str(tmp_path)]) == 3


def test_a_search_without_candidates_warns(tmp_path, capsys):
    # distances 1 and 3 without 2 fit no set of sites within span 3
    table = evidence_table((1, 3), absent=(2,), orders_measured=(3, 4))
    write_json(tmp_path / "evidence.json", evidence_to_dict(table))
    assert main(["reconstruct", "--out", str(tmp_path)]) == 0
    assert main(["report", "--out", str(tmp_path)]) == 0
    done = capsys.readouterr()
    assert done.out.startswith("0 candidate geometries\norders measured: [3, 4]\n")
    assert "exhaustive search: True" in done.out and "winner" not in done.out
    # one warning from each command
    warning = "warning: no geometry within the [reconstruct] bounds fits the evidence"
    assert done.err.splitlines() == [warning, warning]


def test_fit_failure_exits_4(tmp_path):
    write_curve_csv(magic_curve((1, 3), 3, samples=7), tmp_path / "curves_m3.csv")
    assert main(["analyze", "--out", str(tmp_path)]) == 4
    # failures are still recorded for inspection
    spectra = json.loads((tmp_path / "spectra.json").read_text())
    assert spectra["failures"][0]["m"] == 3


def test_a_singular_fit_covariance_is_a_fit_failure(tmp_path, capsys):
    # without replicas the sigmas come from the covariance; a curve near the
    # float maximum overflows its squared residual
    curve = magic_curve((1, 3), 3)
    values = 1e307 * curve.values / curve.values.max()
    write_curve_csv(replace(curve, values=values, sigma=np.full(len(curve), 1e307)),
                    tmp_path / "curves_m3.csv")
    assert main(["analyze", "--out", str(tmp_path)]) == 4
    assert "order 3: fit failed: fit covariance is not finite" in capsys.readouterr().err
    spectra = json.loads((tmp_path / "spectra.json").read_text())
    assert [failure["m"] for failure in spectra["failures"]] == [3]


def test_an_old_manifest_exits_2_and_names_the_removed_keys(run_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    manifest = json.loads((out / "manifest.json").read_text())
    old_sections = ("[gate]\nk_A = 2.5\nsigma_f_max = 0.1\neps_int = 0.15\n\n"
                    "[fit]\nmax_harmonics = 6\noversample = 8\nstop_snr = 4.0\n")
    assert "[gate]\nalpha = 0.01\n" in manifest["config"]
    manifest["config"] = manifest["config"].replace("[gate]\nalpha = 0.01\n", old_sections)
    manifest["config"] = manifest["config"].replace("x = [1, 3]\n", "x = [1, 3]\nd_microns = 570.0\n")
    write_json(out / "manifest.json", manifest)
    for command in ("analyze", "reconstruct"):
        assert main([command, "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        for key in ("k_A", "sigma_f_max", "eps_int", "[fit]", "max_harmonics", "stop_snr",
                    "d_microns"):
            assert key in err, (command, key)


def test_only_simulate_creates_the_out_directory(tmp_path):
    for command in ("analyze", "reconstruct"):
        assert main([command, "--out", str(tmp_path / command / "a" / "b")]) == 2, command
        assert not (tmp_path / command).exists(), command


# ---------------------------------------------------------------------------
# a closed standard output
# ---------------------------------------------------------------------------


def test_a_closed_pipe_exits_1_without_traceback(tmp_path):
    # 7477 candidates print about 160 kB, more than a pipe holds, so the
    # command is still writing when its reader goes away, as under `| head -1`
    cfg = tmp_path / "run.ini"
    cfg.write_text("[reconstruct]\nmax_span = 20\nallow_unknown_span = True\n")
    table = evidence_table((4,), orders_measured=(5,))
    write_json(tmp_path / "evidence.json", evidence_to_dict(table))
    for argv in (["reconstruct", "--config", str(cfg)], ["report"]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "specklescope.cli", *argv, "--out", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_interpreter_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1, (argv[0], err)
        assert first and "Traceback" not in err, argv[0]
        assert (tmp_path / "reconstruction.json").exists()
