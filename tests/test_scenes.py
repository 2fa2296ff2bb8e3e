from __future__ import annotations

import dataclasses

import pytest

from playtrace.scenes import benchmark_scene, benchmark_scenes
from playtrace.simulator import generate_trace

EXPECTED_NAMES = [
    "static-center",
    "static-small",
    "static-duo",
    "pan-long",
    "pan-exit",
    "orbit-one",
    "drift-trio",
    "big-close",
    "noisy-trio",
]


def test_pack_has_nine_valid_scenes():
    scenes = benchmark_scenes()
    assert [s.name for s in scenes] == EXPECTED_NAMES
    for s in scenes:
        dataclasses.replace(s)  # a scene checks itself when made
        assert s.duration_ms >= 10000
        assert s.planes


def test_lookup_by_name():
    s = benchmark_scene("big-close")
    assert s.name == "big-close"
    with pytest.raises(KeyError):
        benchmark_scene("no-such-scene")


def test_scene_variety():
    scenes = {s.name: s for s in benchmark_scenes()}
    # at least one multi-plane scene and one noisy scene
    assert any(len(s.planes) >= 2 for s in scenes.values())
    assert any(s.default_jitter.vertex_noise_m > 0 for s in scenes.values())
    # moving and static camera paths both present
    assert any(len(s.camera_path) == 1 for s in scenes.values())
    assert any(len(s.camera_path) >= 2 for s in scenes.values())


def test_every_scene_generates_frames():
    for s in benchmark_scenes():
        trace = generate_trace(s, jitter_seed=1)
        assert len(trace.frames) == int(s.fps * s.duration_ms / 1000.0 + 0.5) or trace.frames
        assert trace.frames[0].screen_w == s.screen_w
