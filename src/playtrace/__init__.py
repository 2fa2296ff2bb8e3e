"""Stable-area analysis and gesture scheduling for AR playback traces."""

from .geometry import Rect, rect_area, rect_intersect
from .lifespan import TestOpportunity, filter_by_duration, intersect_runs, life_spans
from .metrics import VideoMetrics, compute_metrics
from .pipeline import AnalysisParams, analyze_boxes, run_boxes
from .scheduler import EventSchedule, GestureEvent, GestureKind, schedule_guided, schedule_random
from .simulator import Jitter, SimScene, execute_schedule, generate_trace, load_scene
from .trace import PlaybackTrace, load_trace, save_trace

__version__ = "0.1.0"

__all__ = [
    "AnalysisParams",
    "EventSchedule",
    "GestureEvent",
    "GestureKind",
    "Jitter",
    "PlaybackTrace",
    "Rect",
    "SimScene",
    "TestOpportunity",
    "VideoMetrics",
    "analyze_boxes",
    "compute_metrics",
    "execute_schedule",
    "filter_by_duration",
    "generate_trace",
    "intersect_runs",
    "life_spans",
    "load_scene",
    "load_trace",
    "rect_area",
    "rect_intersect",
    "run_boxes",
    "save_trace",
    "schedule_guided",
    "schedule_random",
    "__version__",
]
