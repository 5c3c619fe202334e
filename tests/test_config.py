"""Config parsing, emission round-trips, the run manifest."""

import configparser
import re
from pathlib import Path

import pytest

from specklescope import (
    Config,
    ConfigError,
    RunManifest,
    SourceGeometry,
    emit_config,
    parse_config,
)
from specklescope.serialize import manifest_from_dict, manifest_to_dict


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg == Config()
    assert cfg.geometry.x == (3, 1, 4)
    assert cfg.simulate.frames == 1000
    assert cfg.gate.alpha == 0.01
    assert cfg.reconstruct.max_span == 20


def test_defaults_round_trip():
    cfg = Config()
    assert parse_config(emit_config(cfg)) == cfg


def test_custom_config_round_trips():
    text = """
[geometry]
x = [1, 3, 2]

[simulate]
frames = 250
seed = 42
pixels = 240
orders = [3, 4]
bits = 12
weights = [1.0, 2.0, 1.0, 0.5]
save_frames = False

[gate]
alpha = 0.05

[reconstruct]
max_span = 12
"""
    cfg = parse_config(text)
    assert cfg.geometry.x == (1, 3, 2)
    assert cfg.simulate.bits == 12
    assert cfg.simulate.weights == (1.0, 2.0, 1.0, 0.5)
    assert cfg.simulate.save_frames is False
    assert cfg.gate.alpha == 0.05
    assert cfg.reconstruct.max_span == 12
    assert parse_config(emit_config(cfg)) == cfg


def test_optional_keys_accept_none():
    cfg = parse_config("[simulate]\nbits = None\nweights = None\n")
    assert cfg.simulate.bits is None
    assert cfg.simulate.weights is None


@pytest.mark.parametrize(
    "text",
    [
        "[telescope]\nfocal = 2\n",  # unknown section
        "[simulate]\nframe_count = 10\n",  # unknown key
        "[simulate]\nframes = 10.5\n",  # float for int
        "[simulate]\nframes = True\n",  # bool for int
        "[simulate]\nframes = ten\n",  # not a literal
        "[simulate]\nframes = None\n",  # None where required
        "[geometry]\nx = [0, 2]\n",  # zero gap
        "[geometry]\nx = [1.5]\n",  # non-integer gap
        "[gate]\nk_A = None\n",  # not a key: [gate] alpha sets the line test
        "[gate]\nk_A = -1.0\n",
        "[gate]\nalpha = None\n",
        "[gate]\nalpha = 0.0\n",  # GatePolicy rejects it
        "[gate]\nalpha = 1.0\n",
        "[simulate]\nsave_frames = 1\n",  # int for bool
        "[geometry]\nx = 3\n",  # scalar for tuple
        "[fit]\nspan_bound = 16\n",  # removed: no stage read it
        "[scene]\nz_m = 0.4\n",  # removed: no stage read it
        "[geometry]\nd_microns = 570.0\n",  # removed: the analysis works in lattice units
        "[simulate]\nframes = 0\n",
        "[simulate]\npixels = 0\n",
        "[simulate]\nseed = -1\n",
        "[simulate]\norders = []\n",
        "[simulate]\norders = [3, 3]\n",
        "[simulate]\norders = [1, 3]\n",
        "[fit]\nmax_harmonics = 0\n",  # no [fit] section: the comb fit has no knobs
        "[fit]\nmax_harmonics = -2\n",
        "[fit]\noversample = 0\n",
        "[fit]\nstop_snr = 0.0\n",
        "[fit]\nstop_snr = -1\n",
        "[fit]\nstop_snr = 1e999\n",  # infinity
    ],
)
def test_bad_configs_are_rejected(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_error_message_lists_every_problem():
    with pytest.raises(ConfigError) as err:
        parse_config("[simulate]\nframes = ten\npixel = 3\n")
    message = str(err.value)
    assert "frames" in message
    assert "pixel" in message


def test_config_builds_geometry():
    cfg = parse_config("[geometry]\nx = [2, 2]\n")
    assert cfg.source_geometry() == SourceGeometry((2, 2))
    assert Config().source_geometry() == SourceGeometry((3, 1, 4))


def test_readme_config_reference_matches_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config reference", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    assert parse_config(block) == Config()

    def keys(text):
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read_string(text)
        return [(name, key) for name in parser.sections() for key in parser[name]]

    assert keys(block) == keys(emit_config(Config()))


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


def test_manifest_round_trip():
    manifest = RunManifest.create(
        Config(),
        seed=17,
        outputs={"curves": "curves_m3.csv", "frames": "frames.sstk"},
        notes=("clipping above half",),
    )
    data = manifest_to_dict(manifest)
    assert data["tool"] == "specklescope"
    assert data["seed"] == 17
    assert data["created_utc"]  # stamped
    back = manifest_from_dict(data)
    assert back == manifest
    assert parse_config(back.config_text) == Config()
