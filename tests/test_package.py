"""The package's export list, and the names the benchmark's tracer patches."""

import importlib.util
import sys
from pathlib import Path

import specklescope
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
