"""Gesture scheduling.

Builds a timed gesture schedule either guided by test opportunities (every
touch lands inside a stable box while its opportunity is active) or blindly
over the whole screen, Monkey-style.  Both generators share one clocked walk:
time advances in fixed steps, and a step not covered by a running gesture
becomes an attempt.  Every attempt draws its gesture kind from a stream seeded
only by (seed), and reserves the gesture's duration whether or not an event is
actually emitted.  Guided runs emit an attempt only when it fits inside an
active test opportunity, so for one seed, mix and throttle the guided schedule
is a subset of the attempts the random baseline fires, and never has more
events.  Touch placement draws from a second stream so it cannot desync the
cadence.  A given (inputs, seed) pair always produces the identical schedule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .geometry import Rect
from .lifespan import TestOpportunity, opportunity_sort_key
from .jsonin import dump_json, finite, integer, load_json


class GestureKind(str, Enum):
    TAP = "TAP"
    DRAG = "DRAG"
    PINCH = "PINCH"
    ROTATE = "ROTATE"


# canonical order for cumulative draws; changing it changes schedules
_KIND_ORDER = (GestureKind.TAP, GestureKind.DRAG, GestureKind.PINCH, GestureKind.ROTATE)

DEFAULT_MIX: dict[GestureKind, float] = {
    GestureKind.TAP: 0.55,
    GestureKind.DRAG: 0.25,
    GestureKind.PINCH: 0.10,
    GestureKind.ROTATE: 0.10,
}

DEFAULT_DURATIONS_MS: dict[GestureKind, int] = {
    GestureKind.TAP: 50,
    GestureKind.DRAG: 500,
    GestureKind.PINCH: 700,
    GestureKind.ROTATE: 700,
}

DEFAULT_MIN_GAP_MS = 100
MAX_SCHEDULE_STEPS = 1_000_000  # clock steps one schedule may walk: 27.8 h at a 100 ms gap
BOX_INSET_FRACTION = 0.05   # touches stay this far (fractionally) inside the box
_TRACK_SAMPLES = 8
# offset separating the placement stream from the kind stream for one seed
_PLACEMENT_STREAM_OFFSET = 0x9E3779B9

TrackPoint = tuple[int, float, float]


@dataclass(frozen=True)
class GestureEvent:
    kind: GestureKind
    t_start_ms: int
    t_end_ms: int
    tracks: tuple[tuple[TrackPoint, ...], ...]
    target_id: str | None = None


@dataclass(frozen=True)
class EventSchedule:
    generator: str              # "GUIDED" or "RANDOM"
    seed: int
    mix: dict[GestureKind, float]
    events: tuple[GestureEvent, ...]


def _validate_mix(mix: Mapping[GestureKind, float]) -> dict[GestureKind, float]:
    clean = {k: float(v) for k, v in mix.items() if v > 0}
    if not clean:
        raise ValueError("gesture mix has no positive weights")
    total = sum(clean.values())
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"gesture mix must sum to 1, got {total}")
    return clean


def _draw_kind(rng: random.Random, mix: Mapping[GestureKind, float]) -> GestureKind:
    r = rng.random()
    acc = 0.0
    last = None
    for kind in _KIND_ORDER:
        if kind not in mix:
            continue
        acc += mix[kind]
        last = kind
        if r < acc:
            return kind
    return last  # float leftovers land on the final kind


def _inset(rect: Rect) -> Rect:
    dx = rect.width * BOX_INSET_FRACTION
    dy = rect.height * BOX_INSET_FRACTION
    return Rect(rect.x_min + dx, rect.y_min + dy, rect.x_max - dx, rect.y_max - dy)


def _sample_times(t0: int, dur: int, n: int) -> list[int]:
    return [t0 + round(dur * k / (n - 1)) for k in range(n)]


def _tap(rng: random.Random, rect: Rect, t0: int, dur: int) -> tuple[tuple[TrackPoint, ...], ...]:
    x = rng.uniform(rect.x_min, rect.x_max)
    y = rng.uniform(rect.y_min, rect.y_max)
    return (((t0, x, y),),)


def _drag(rng: random.Random, rect: Rect, t0: int, dur: int) -> tuple[tuple[TrackPoint, ...], ...]:
    x0 = rng.uniform(rect.x_min, rect.x_max)
    y0 = rng.uniform(rect.y_min, rect.y_max)
    x1 = rng.uniform(rect.x_min, rect.x_max)
    y1 = rng.uniform(rect.y_min, rect.y_max)
    times = _sample_times(t0, dur, _TRACK_SAMPLES)
    track = tuple(
        (t, x0 + (x1 - x0) * k / (_TRACK_SAMPLES - 1), y0 + (y1 - y0) * k / (_TRACK_SAMPLES - 1))
        for k, t in enumerate(times)
    )
    return (track,)


def _radial_center(rng: random.Random, rect: Rect) -> tuple[float, float]:
    # keep the center away from the edges so there is room for the fingers
    cx = rect.x_min + rect.width * rng.uniform(0.35, 0.65)
    cy = rect.y_min + rect.height * rng.uniform(0.35, 0.65)
    return cx, cy


def _max_radius_along(rect: Rect, cx: float, cy: float, ux: float, uy: float) -> float:
    r = math.inf
    if abs(ux) > 1e-12:
        r = min(r, (rect.x_max - cx) / abs(ux), (cx - rect.x_min) / abs(ux))
    if abs(uy) > 1e-12:
        r = min(r, (rect.y_max - cy) / abs(uy), (cy - rect.y_min) / abs(uy))
    return max(r, 0.0)


def _pinch(rng: random.Random, rect: Rect, t0: int, dur: int) -> tuple[tuple[TrackPoint, ...], ...]:
    cx, cy = _radial_center(rng, rect)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    ux, uy = math.cos(theta), math.sin(theta)
    r_max = _max_radius_along(rect, cx, cy, ux, uy)
    r_lo = r_max * rng.uniform(0.10, 0.30)
    r_hi = r_max * rng.uniform(0.60, 0.95)
    if rng.random() < 0.5:
        r_lo, r_hi = r_hi, r_lo  # pinch in rather than out
    times = _sample_times(t0, dur, _TRACK_SAMPLES)
    a: list[TrackPoint] = []
    b: list[TrackPoint] = []
    for k, t in enumerate(times):
        r = r_lo + (r_hi - r_lo) * k / (_TRACK_SAMPLES - 1)
        a.append((t, cx + r * ux, cy + r * uy))
        b.append((t, cx - r * ux, cy - r * uy))
    return (tuple(a), tuple(b))


def _rotate(rng: random.Random, rect: Rect, t0: int, dur: int) -> tuple[tuple[TrackPoint, ...], ...]:
    cx, cy = _radial_center(rng, rect)
    r_max = min(rect.x_max - cx, cx - rect.x_min, rect.y_max - cy, cy - rect.y_min)
    r = max(r_max, 0.0) * rng.uniform(0.30, 0.80)
    theta0 = rng.uniform(0.0, 2.0 * math.pi)
    sweep = (math.pi / 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
    times = _sample_times(t0, dur, _TRACK_SAMPLES)
    a: list[TrackPoint] = []
    b: list[TrackPoint] = []
    for k, t in enumerate(times):
        ang = theta0 + sweep * k / (_TRACK_SAMPLES - 1)
        a.append((t, cx + r * math.cos(ang), cy + r * math.sin(ang)))
        b.append((t, cx - r * math.cos(ang), cy - r * math.sin(ang)))
    return (tuple(a), tuple(b))


_BUILDERS: dict[GestureKind, Callable[..., tuple[tuple[TrackPoint, ...], ...]]] = {
    GestureKind.TAP: _tap,
    GestureKind.DRAG: _drag,
    GestureKind.PINCH: _pinch,
    GestureKind.ROTATE: _rotate,
}


def _clocked_walk(
    generator: str,
    duration_ms: int,
    seed: int,
    mix: Mapping[GestureKind, float] | None,
    min_gap_ms: int,
    place: Callable[[random.Random, int, int], tuple[Rect, str | None] | None],
) -> EventSchedule:
    """The clocked walk of both generators.

    place(place_rng, t, duration) returns the rectangle to touch and the
    target id, or None to decline the attempt.
    """
    if not min_gap_ms > 0:
        raise ValueError(f"min_gap_ms must be positive, got {min_gap_ms}")
    # ceiling division, which stays exact for an integer horizon of any size
    if -(-duration_ms // min_gap_ms) > MAX_SCHEDULE_STEPS:
        raise ValueError(
            f"duration_ms {duration_ms} and min_gap_ms {min_gap_ms} make more than "
            f"{MAX_SCHEDULE_STEPS} steps, the budget for one schedule"
        )
    mix = _validate_mix(mix or DEFAULT_MIX)
    kind_rng = random.Random(seed)
    place_rng = random.Random(seed + _PLACEMENT_STREAM_OFFSET)
    events: list[GestureEvent] = []
    busy_until = 0
    t = 0
    while t < duration_ms:
        if t >= busy_until:
            kind = _draw_kind(kind_rng, mix)
            dur = DEFAULT_DURATIONS_MS[kind]
            busy_until = t + dur
            spot = place(place_rng, t, dur)
            if spot is not None and t + dur <= duration_ms:
                rect, target = spot
                tracks = _BUILDERS[kind](place_rng, rect, t, dur)
                events.append(GestureEvent(kind, t, t + dur, tracks, target_id=target))
        t += min_gap_ms
    return EventSchedule(generator, seed, mix, tuple(events))


def schedule_guided(
    opportunities: Sequence[TestOpportunity],
    duration_ms: int,
    seed: int,
    mix: Mapping[GestureKind, float] | None = None,
    min_gap_ms: int = DEFAULT_MIN_GAP_MS,
) -> EventSchedule:
    """Schedule gestures into active test opportunities.

    Each attempt draws a kind, picks one active opportunity uniformly (an
    opportunity is active when its window contains the attempt time), and
    places the gesture inside its stable box with a 5% inset.  The attempt is
    declined, with its slot still consumed, when no opportunity is active or
    the gesture cannot finish before the picked opportunity closes.
    """
    opps = sorted(opportunities, key=opportunity_sort_key)

    def place(rng: random.Random, t: int, dur: int) -> tuple[Rect, str | None] | None:
        active = [o for o in opps if o.start_ms <= t <= o.end_ms]
        if not active:
            return None
        opp = active[rng.randrange(len(active))]
        if t + dur > opp.end_ms:
            return None
        return _inset(opp.stable_box), opp.trackable_id

    return _clocked_walk("GUIDED", duration_ms, seed, mix, min_gap_ms, place)


def schedule_random(
    screen: tuple[int, int],
    duration_ms: int,
    seed: int,
    mix: Mapping[GestureKind, float] | None = None,
    min_gap_ms: int = DEFAULT_MIN_GAP_MS,
) -> EventSchedule:
    """Schedule gestures blindly over the whole screen (random baseline).

    Same attempt cadence as the guided generator; an attempt is emitted
    whenever the gesture finishes inside the schedule horizon.
    """
    w, h = screen
    full = Rect(0.0, 0.0, float(w), float(h))
    return _clocked_walk(
        "RANDOM", duration_ms, seed, mix, min_gap_ms, lambda rng, t, dur: (full, None)
    )


def schedule_to_dict(schedule: EventSchedule) -> dict:
    return {
        "generator": schedule.generator,
        "seed": schedule.seed,
        "mix": {k.value: v for k, v in schedule.mix.items()},
        "events": [
            {
                "kind": ev.kind.value,
                "t": [ev.t_start_ms, ev.t_end_ms],
                "tracks": [[[t, x, y] for t, x, y in track] for track in ev.tracks],
                "target": ev.target_id,
            }
            for ev in schedule.events
        ],
    }


def _event_from_dict(ed: dict) -> GestureEvent:
    t = ed["t"]
    if not isinstance(t, list) or len(t) != 2:
        raise ValueError(f"t must be [t_start, t_end], got {t!r}")
    t_start, t_end = integer(t[0], "t_start"), integer(t[1], "t_end")
    if t_start > t_end:
        raise ValueError(f"t_start {t_start} is after t_end {t_end}")
    tracks = tuple(
        tuple((integer(pt, "track time"), finite(x, "track x"), finite(y, "track y"))
              for pt, x, y in track)
        for track in ed["tracks"]
    )
    if not tracks or not all(tracks):
        raise ValueError("tracks must be a non-empty list of non-empty tracks")
    for track in tracks:
        # replay interpolates along each track, which needs its times in order
        for (a, _, _), (b, _, _) in zip(track, track[1:]):
            if b < a:
                raise ValueError(f"track times must not decrease ({a} then {b})")
        if track[0][0] < t_start or track[-1][0] > t_end:
            raise ValueError(
                f"track times {track[0][0]}..{track[-1][0]} must lie in "
                f"[t_start, t_end] = [{t_start}, {t_end}]"
            )
    target = ed.get("target")
    if not (target is None or isinstance(target, str)):
        raise ValueError(f"target must be a string or null, got {target!r}")
    return GestureEvent(GestureKind(ed["kind"]), t_start, t_end, tracks, target)


def schedule_from_dict(d: dict) -> EventSchedule:
    """A schedule from its JSON form, checked event by event as it enters."""
    where = ""
    try:
        mix, generator = d["mix"], d["generator"]
        if not isinstance(mix, dict):
            raise ValueError(f"mix must be an object, got {mix!r}")
        if not isinstance(generator, str):
            raise ValueError(f"generator must be a string, got {generator!r}")
        mix = {GestureKind(k): finite(v, f"mix weight {k}") for k, v in mix.items()}
        seed = integer(d["seed"], "seed")
        events = []
        for i, ed in enumerate(d["events"]):
            where = f"event {i}: "
            events.append(_event_from_dict(ed))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"malformed schedule: {where}{exc}") from None
    return EventSchedule(generator, seed, mix, tuple(events))


def save_schedule(schedule: EventSchedule, path: str | Path) -> None:
    dump_json(schedule_to_dict(schedule), path)


def load_schedule(path: str | Path) -> EventSchedule:
    return schedule_from_dict(load_json(path))
