"""End-to-end command pipeline: artifacts, determinism, exit codes."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import specklescope
from conftest import magic_curve
from specklescope import EvidenceTable, cli, uniform_grid
from specklescope.cli import main
from specklescope.serialize import evidence_to_dict, write_curve_csv, write_json

CONFIG = """\
[geometry]
x = [1, 3]

[simulate]
frames = 1000
seed = 1
pixels = 240
orders = [3, 4]
"""

RESULTS = ["spectra.json", "evidence.json", "table.csv", "reconstruction.json"]
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


def test_fit_table_lists_lines(run_dir):
    with open(run_dir / "table.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows, "no fitted lines at all"
    assert set(rows[0]) == {"m", "f", "A", "sigma_A", "a_A0", "sigma_a_A0", "accepted"}
    # every comb line up to max_span = 20 is tested: 10 at order 3, 6 at order 4
    assert [(int(r["m"]), float(r["f"])) for r in rows] == (
        [(3, 2.0 * k) for k in range(1, 11)] + [(4, 3.0 * k) for k in range(1, 7)]
    )
    accepted = {
        (int(r["m"]), round(float(r["f"]))) for r in rows if r["accepted"] == "True"
    }
    assert accepted == {(3, 4), (4, 3)}


def test_reconstruction_identifies_the_source(run_dir):
    report = json.loads((run_dir / "reconstruction.json").read_text())
    assert [c["x"] for c in report["candidates"]] == [[1, 3]]
    assert report["exhaustive"] is True
    assert report["candidates"][0]["score"] is not None  # gated spectra scored it


def test_report_command_summarizes(run_dir, capsys):
    assert main(["report", "--out", str(run_dir)]) == 0
    text = capsys.readouterr().out
    assert "x = [1, 3]" in text
    assert "present: [3, 4]" in text
    assert "seed 1" in text


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


def test_analyze_accepts_bare_curve_files(tmp_path, capsys):
    write_curve_csv(magic_curve((1, 3), 3), tmp_path / "curves_m3.csv")
    code = main(["analyze", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    table = json.loads((tmp_path / "table.json").read_text())
    kept = [round(r["f"]) for r in table["rows"] if r["accepted"]]
    assert kept == [4]
    # without replicas the sigmas come from the covariance, and analyze says so
    err = capsys.readouterr().err
    assert "warning: order 3: no replicas_m3.npy" in err
    assert "covariance" in err


def test_malformed_curve_csv_exits_2(tmp_path, capsys):
    for text in [
        "nonsense,header\n1,2\n",  # foreign header
        "delta1_rad,g_value,sigma\n0.0,2.0\n",  # short row
        "delta1_rad,g_value\n0.0,two\n",  # non-numeric cell
    ]:
        (tmp_path / "curves_m3.csv").write_text(text)
        assert main(["analyze", "--out", str(tmp_path)]) == 2, text
        assert "curves_m3.csv" in capsys.readouterr().err


def test_analyze_names_orders_without_curve_files(tmp_path, capsys):
    write_curve_csv(magic_curve((1, 3), 3), tmp_path / "curves_m3.csv")
    assert main(["analyze", "--orders", "3,5", "--out", str(tmp_path)]) == 2
    assert "order(s) [5]" in capsys.readouterr().err


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


def fresh_interpreter_env():
    """The environment for a child Python that imports this checkout's package."""
    src = str(Path(specklescope.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


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
    for text in ("frames = 0", "pixels = 0", "seed = -1", "orders = []", "orders = [3, 3]"):
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
    assert main(["report", "--out", str(tmp_path / "nowhere")]) == 2


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


def test_estimator_errors_exit_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.ini"
    # one-bit counts of two frames leave pixels that never light up
    cfg.write_text("[geometry]\nx = [1, 3]\n\n[simulate]\nframes = 2\nbits = 1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "dead")]) == 2
    assert "zero mean intensity" in capsys.readouterr().err
    # a grid over half the period cannot hold the order-3 magic offset at pi
    monkeypatch.setattr(cli, "uniform_grid", lambda pixels: uniform_grid(pixels, hi=math.pi))
    assert main(["simulate", "--frames", "10", "--orders", "3",
                 "--out", str(tmp_path / "half")]) == 2
    assert "outside the grid" in capsys.readouterr().err
    # a failed simulate archives no frames
    assert not (tmp_path / "dead" / "frames.sstk").exists()
    assert not (tmp_path / "half" / "frames.sstk").exists()


def _drop_first_row_f(evidence):
    del evidence["rows"][0]["f"]
    return evidence


def _drop_gated(spectra):
    del spectra["gated"]
    return spectra


def _repeat_gated_order(spectra):
    spectra["gated"].append(spectra["gated"][0])
    return spectra


def _zero_offset(spectra):
    spectra["gated"][0]["A0"] = 0.0
    return spectra


def _nan_offset(spectra):
    spectra["gated"][0]["A0"] = float("nan")
    return spectra


def _drop_sigmas(spectra):
    for spectrum in spectra["gated"]:
        del spectrum["sigma_A0"]
        for line in spectrum["harmonics"]:
            del line["sigma_A"], line["sigma_a_A0"]
    return spectra


def _off_comb_line(spectra):
    # order 4 transmits only multiples of 3, so no order-4 line sits at f = 4
    (order_4,) = [s for s in spectra["gated"] if s["m"] == 4]
    order_4["harmonics"][0]["f"] = 4.0
    return spectra


def _old_line_keys(spectra):
    # a spectra.json from the free fit: frequency errors, no contrasts
    for spectrum in spectra["gated"]:
        for line in spectrum["harmonics"]:
            line["sigma_f"] = 0.01
            for key in ("a_A0", "sigma_a_A0", "b_A0", "sigma_b_A0"):
                del line[key]
    return spectra


def _drop_evidence(report):
    del report["evidence"]
    return report


def _json_edit(edit):
    return lambda blob: json.dumps(edit(json.loads(blob))).encode()


# artifact, the command that reads it, and how it is broken; every case exits 2
MALFORMED_ARTIFACTS = {
    "replicas-truncated": ("replicas_m3.npy", "analyze", lambda blob: blob[:100]),
    "evidence-row-without-f": ("evidence.json", "reconstruct", _json_edit(_drop_first_row_f)),
    "spectra-without-gated": ("spectra.json", "reconstruct", _json_edit(_drop_gated)),
    "spectra-repeated-order": ("spectra.json", "reconstruct", _json_edit(_repeat_gated_order)),
    "spectra-zero-offset": ("spectra.json", "reconstruct", _json_edit(_zero_offset)),
    "spectra-nan-offset": ("spectra.json", "reconstruct", _json_edit(_nan_offset)),
    "spectra-without-sigmas": ("spectra.json", "reconstruct", _json_edit(_drop_sigmas)),
    "spectra-off-comb-line": ("spectra.json", "reconstruct", _json_edit(_off_comb_line)),
    "spectra-old-lines": ("spectra.json", "reconstruct", _json_edit(_old_line_keys)),
    "report-without-evidence": ("reconstruction.json", "report", _json_edit(_drop_evidence)),
    "manifest-as-list": ("manifest.json", "report", _json_edit(list)),
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


def test_empty_evidence_exits_3(tmp_path):
    table = EvidenceTable.from_sets((), absent=(2,), orders_measured=(3,))
    write_json(tmp_path / "evidence.json", evidence_to_dict(table))
    assert main(["reconstruct", "--out", str(tmp_path)]) == 3


def test_fit_failure_exits_4(tmp_path):
    write_curve_csv(magic_curve((1, 3), 3, samples=7), tmp_path / "curves_m3.csv")
    assert main(["analyze", "--out", str(tmp_path)]) == 4
    # failures are still recorded for inspection
    spectra = json.loads((tmp_path / "spectra.json").read_text())
    assert spectra["failures"][0]["m"] == 3


def test_an_old_manifest_exits_2_and_names_the_removed_keys(run_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    manifest = json.loads((out / "manifest.json").read_text())
    old_sections = ("[gate]\nk_A = 2.5\nsigma_f_max = 0.1\neps_int = 0.15\n\n"
                    "[fit]\nmax_harmonics = 6\noversample = 8\nstop_snr = 4.0\n")
    assert "[gate]\nalpha = 0.01\n" in manifest["config"]
    manifest["config"] = manifest["config"].replace("[gate]\nalpha = 0.01\n", old_sections)
    write_json(out / "manifest.json", manifest)
    for command in ("analyze", "reconstruct"):
        assert main([command, "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        for key in ("k_A", "sigma_f_max", "eps_int", "[fit]", "max_harmonics", "stop_snr"):
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
    table = EvidenceTable.from_sets((4,), orders_measured=(5,))
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
