"""Benchmark scene pack.

Nine synthetic scenes spanning the factors that matter for gesture testing:
plane count (1 to 3), screen coverage (roughly 10% up to 60%), camera motion
(static, panning, orbiting) and recording quality (clean, noisy vertices,
frame dropout).  Scenes are described as plain dicts and built through the
regular scene loader so they serialize exactly like user-provided files.
"""

from __future__ import annotations

import math

from .simulator import SimScene, scene_from_dict

_COMMON = {
    "screen": [1920, 1080],
    "fps": 30.0,
    "intrinsics": {"fov_y_deg": 60.0, "near_m": 0.1, "far_m": 100.0},
}

_DOWN = [0.0, 0.0, -1.0]  # up vector for straight-down cameras

_FLAT = {"normal": [0, 1, 0], "axis_u": [1, 0, 0], "axis_v": [0, 0, 1]}  # a horizontal plane


def _orbit_path(
    duration_ms: int, radius: float, height: float, sweep_deg: float, look_at: list[float]
) -> list[dict]:
    steps = 10
    keys = []
    for i in range(steps + 1):
        t = round(duration_ms * i / steps)
        ang = math.radians(sweep_deg * i / steps)
        keys.append(
            {
                "t_ms": t,
                "pos": [
                    look_at[0] + radius * math.sin(ang),
                    height,
                    look_at[2] + radius * math.cos(ang),
                ],
                "look_at": look_at,
            }
        )
    return keys


_SCENES: list[dict] = [
    # 1: one mid-size table, static overhead camera, ~27% coverage
    {
        **_COMMON,
        "name": "static-center",
        "duration_ms": 20000,
        "camera_path": [{"t_ms": 0, "pos": [0, 2.0, 0], "look_at": [0, 0, 0], "up": _DOWN}],
        "planes": [
            {
                "id": "table",
                "center": [0, 0, 0],
                **_FLAT,
                "extents": [0.9, 0.7],
                "detect_delay_ms": 500,
            }
        ],
    },
    # 2: one small off-center panel with mild vertex noise, ~14% coverage
    {
        **_COMMON,
        "name": "static-small",
        "duration_ms": 20000,
        "camera_path": [
            {"t_ms": 0, "pos": [0.1, 2.0, 0.05], "look_at": [0.1, 0, 0.05], "up": _DOWN}
        ],
        "planes": [
            {
                "id": "panel",
                "center": [0.35, 0, -0.2],
                **_FLAT,
                "extents": [0.65, 0.5],
                "detect_delay_ms": 500,
            }
        ],
        "jitter": {"vertex_noise_m": 0.005, "dropout_prob": 0.0},
    },
    # 3: two side-by-side mats, the second detected late
    {
        **_COMMON,
        "name": "static-duo",
        "duration_ms": 20000,
        "camera_path": [{"t_ms": 0, "pos": [0, 2.2, 0], "look_at": [0, 0, 0], "up": _DOWN}],
        "planes": [
            {
                "id": "left",
                "center": [-0.57, 0, 0.05],
                **_FLAT,
                "extents": [0.56, 0.62],
                "detect_delay_ms": 500,
            },
            {
                "id": "right",
                "center": [0.62, 0, -0.1],
                **_FLAT,
                "extents": [0.54, 0.64],
                "detect_delay_ms": 2500,
            },
        ],
    },
    # 4: slow lateral pan over one desk (tilted camera)
    {
        **_COMMON,
        "name": "pan-long",
        "duration_ms": 25000,
        "camera_path": [
            {"t_ms": 0, "pos": [-0.6, 1.9, 1.1], "look_at": [-0.35, 0, 0]},
            {"t_ms": 25000, "pos": [0.6, 1.9, 1.1], "look_at": [0.35, 0, 0]},
        ],
        "planes": [
            {
                "id": "desk",
                "center": [0, 0, 0],
                **_FLAT,
                "extents": [1.2, 0.95],
                "detect_delay_ms": 500,
            }
        ],
    },
    # 5: pan that carries the second mat off the right screen edge
    {
        **_COMMON,
        "name": "pan-exit",
        "duration_ms": 25000,
        "camera_path": [
            {"t_ms": 0, "pos": [0.55, 2.0, 0.75], "look_at": [0.55, 0, 0]},
            {"t_ms": 25000, "pos": [-0.55, 2.0, 0.75], "look_at": [-0.55, 0, 0]},
        ],
        "planes": [
            {
                "id": "mat-a",
                "center": [-0.5, 0, 0.05],
                **_FLAT,
                "extents": [0.92, 0.68],
                "detect_delay_ms": 500,
            },
            {
                "id": "mat-b",
                "center": [1.7, 0, -0.02],
                **_FLAT,
                "extents": [0.84, 0.62],
                "detect_delay_ms": 800,
            },
        ],
    },
    # 6: 90 degree orbit around one board
    {
        **_COMMON,
        "name": "orbit-one",
        "duration_ms": 25000,
        "camera_path": _orbit_path(25000, radius=1.1, height=2.05, sweep_deg=50, look_at=[0, 0, 0]),
        "planes": [
            {
                "id": "board",
                "center": [0, 0, 0],
                **_FLAT,
                "extents": [1.12, 0.92],
                "detect_delay_ms": 600,
            }
        ],
    },
    # 7: three pads, drifting overhead camera, staggered detection, one loss window
    {
        **_COMMON,
        "name": "drift-trio",
        "duration_ms": 30000,
        "camera_path": [
            {"t_ms": 0, "pos": [-0.09, 2.3, 0], "look_at": [-0.09, 0, 0], "up": _DOWN},
            {"t_ms": 30000, "pos": [0.09, 2.3, 0], "look_at": [0.09, 0, 0], "up": _DOWN},
        ],
        "planes": [
            {
                "id": "pad-a",
                "center": [-1.55, 0, 0.1],
                **_FLAT,
                "extents": [0.75, 0.60],
                "detect_delay_ms": 500,
            },
            {
                "id": "pad-b",
                "center": [0.05, 0, -0.15],
                **_FLAT,
                "extents": [0.77, 0.62],
                "detect_delay_ms": 1500,
                "lost_intervals": [[12000, 15000]],
            },
            {
                "id": "pad-c",
                "center": [1.58, 0, 0.12],
                **_FLAT,
                "extents": [0.73, 0.59],
                "detect_delay_ms": 3000,
            },
        ],
        "jitter": {"vertex_noise_m": 0.006, "dropout_prob": 0.0},
    },
    # 8: one big close floor patch, the only scene above 40% coverage
    {
        **_COMMON,
        "name": "big-close",
        "duration_ms": 20000,
        "camera_path": [{"t_ms": 0, "pos": [0, 1.9, 0], "look_at": [0, 0, 0], "up": _DOWN}],
        "planes": [
            {
                "id": "floor",
                "center": [0, 0, 0],
                **_FLAT,
                "extents": [1.3, 1.05],
                "detect_delay_ms": 400,
            }
        ],
    },
    # 9: three pads, static camera, noisy vertices plus frame dropout
    {
        **_COMMON,
        "name": "noisy-trio",
        "duration_ms": 30000,
        "camera_path": [{"t_ms": 0, "pos": [0, 2.3, 0], "look_at": [0, 0, 0], "up": _DOWN}],
        "planes": [
            {
                "id": "pad-a",
                "center": [-1.5, 0, 0.0],
                **_FLAT,
                "extents": [0.72, 0.57],
                "detect_delay_ms": 500,
            },
            {
                "id": "pad-b",
                "center": [0.0, 0, 0.1],
                **_FLAT,
                "extents": [0.73, 0.59],
                "detect_delay_ms": 1000,
            },
            {
                "id": "pad-c",
                "center": [1.5, 0, -0.08],
                **_FLAT,
                "extents": [0.70, 0.55],
                "detect_delay_ms": 2000,
            },
        ],
        "jitter": {"vertex_noise_m": 0.006, "dropout_prob": 0.015},
    },
]


def benchmark_scenes() -> list[SimScene]:
    """The nine-scene pack, in a fixed order."""
    return [scene_from_dict(d) for d in _SCENES]


def benchmark_scene(name: str) -> SimScene:
    for d in _SCENES:
        if d["name"] == name:
            return scene_from_dict(d)
    raise KeyError(f"no benchmark scene named '{name}'")
