"""The package's export list and where each name lives, the README's library example, and
the names the benchmark's tracer patches."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import specklescope
from conftest import fresh_interpreter_env
from specklescope import (
    config, correlation, errors, geometry, reconstruct, records, serialize, speckle, spectrum,
)

MODULES = (config, correlation, errors, geometry, reconstruct, records, speckle, spectrum)


def test_export_list_is_the_union_of_the_module_lists():
    names = specklescope.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(*(module.__all__ for module in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(specklescope, name) is getattr(module, name), name


def test_each_exported_class_and_function_lives_in_the_module_that_lists_it():
    # one home per name: a module lists only what it defines, never a re-export
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if isinstance(value, type) or callable(value):
                assert value.__module__ == module.__name__, (module.__name__, name)


def test_the_readme_library_example_runs():
    # the "Library use" block as written, with warnings as errors; its last
    # comment gives what it prints
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = code.rsplit("# prints ", 1)[1].strip()
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, env=fresh_interpreter_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected


def test_benchmark_tracer_finds_every_name_it_patches(monkeypatch):
    # perfbench/spans.py wraps names the program looks up at call time; a
    # rename would otherwise surface only in a traced benchmark run
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    originals = {name: getattr(serialize, name) for name in serialize.__all__}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert serialize.write_frames is not originals["write_frames"]
    finally:
        tracer.uninstall()
    assert {name: getattr(serialize, name) for name in serialize.__all__} == originals


def test_the_tracer_sees_the_stages_the_cli_imports_when_they_run(monkeypatch, tmp_path):
    from specklescope import cli

    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    for name in cli._STAGES:  # as in a fresh process: no stage bound yet
        monkeypatch.delitem(vars(cli), name, raising=False)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[geometry]\nx = [1, 3]\n\n[simulate]\nframes = 400\npixels = 120\n"
                   "orders = [3, 4]\n")
    out = str(tmp_path / "out")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for command in ("simulate", "analyze", "reconstruct", "report"):
            config = [] if command == "report" else ["--config", str(cfg)]
            assert cli.main([command, "--out", out, *config]) == 0, command
    finally:
        tracer.uninstall()
    recorded = {span.name for span in tracer.spans}
    assert {"speckle.estimate_g_m", "spectrum.gate", "reconstruct.search",
            "reconstruct.disambiguate", "correlation.predicted_spectrum"} <= recorded
