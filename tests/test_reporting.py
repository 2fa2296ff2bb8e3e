from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import pytest

import oracles
from oracles import frame_blocks
from playtrace.geometry import Rect
from playtrace.lifespan import TestOpportunity, opportunity_sort_key
from playtrace.metrics import compute_metrics
from playtrace.pipeline import analyze_boxes, run_boxes
from playtrace.scenes import benchmark_scene
from playtrace.simulator import generate_trace
from playtrace.reporting import (
    CHART_WIDTH_PX,
    load_report,
    opportunities_to_dict,
    render_gantt,
    write_report,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _opp(tid, start, end, box=None):
    return TestOpportunity(tid, box or Rect(100, 100, 400, 300), start, end)


def _blocks(svg_text):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter(f"{SVG_NS}rect") if el.get("class") == "block"]


def test_gantt_is_valid_svg_with_one_block_per_opportunity():
    opps = [_opp("table", 0, 5000), _opp("chair", 2000, 9000), _opp("table", 7000, 10000)]
    svg = render_gantt(opps, 10000)
    blocks = _blocks(svg)
    assert len(blocks) == 3
    ids = sorted(b.get("data-id") for b in blocks)
    assert ids == ["chair", "table", "table"]
    for b in blocks:
        assert b.get("data-start-ms") is not None
        assert b.get("data-end-ms") is not None


def test_gantt_block_width_proportional_to_duration():
    opps = [_opp("a", 0, 2500), _opp("b", 0, 10000)]
    svg = render_gantt(opps, 10000)
    widths = {b.get("data-id"): float(b.get("width")) for b in _blocks(svg)}
    assert widths["a"] == pytest.approx(CHART_WIDTH_PX / 4, abs=0.01)
    assert widths["b"] == pytest.approx(CHART_WIDTH_PX, abs=0.01)
    xs = {b.get("data-id"): float(b.get("x")) for b in _blocks(svg)}
    assert xs["a"] == xs["b"]


def test_gantt_lanes_separate_trackables():
    opps = [_opp("a", 0, 4000), _opp("b", 1000, 5000)]
    svg = render_gantt(opps, 5000)
    ys = {b.get("data-id"): float(b.get("y")) for b in _blocks(svg)}
    assert ys["a"] != ys["b"]
    # lane order follows first appearance
    assert ys["a"] < ys["b"]


def test_gantt_labels_box_size():
    svg = render_gantt([_opp("a", 0, 1000, Rect(0, 0, 321, 98))], 1000)
    assert "321x98 px" in svg


def test_gantt_escapes_ids():
    svg = render_gantt([_opp("a<b&c", 0, 1000)], 1000)
    ET.fromstring(svg)
    assert "a&lt;b&amp;c" in svg


@pytest.mark.parametrize("tid, shown", [("a\x01b", "a\\x01b"), ("c\ud800", "c\\ud800"),
                                        ("\x00\x1f\ufffe\uffff", "\\x00\\x1f\\ufffe\\uffff"),
                                        ("a\\x01b", "a\\\\x01b")])
def test_gantt_escapes_characters_xml_forbids(tid, shown):
    # written as backslash escapes, as the CLI writes line breaks in its error line, and a
    # backslash doubled
    svg = render_gantt([_opp(tid, 0, 1000)], 1000)
    svg.encode("utf-8")
    (block,) = _blocks(svg)
    assert block.get("data-id") == shown
    assert f">{shown}</text>" in svg


def test_gantt_gives_distinct_ids_distinct_text():
    # a forbidden character and the text of its escape
    ids = ["a\x01", "a\\x01", "a\\\x01", "a\\\\x01", "a\\", "a\\\\"]
    svg = render_gantt([_opp(tid, 0, 1000 * (k + 1)) for k, tid in enumerate(ids)], 10_000)
    shown = [b.get("data-id") for b in _blocks(svg)]
    labels = [t.text for t in ET.fromstring(svg).iter(f"{SVG_NS}text")
              if t.get("text-anchor") == "end"]
    assert len(set(shown)) == len(set(labels)) == len(ids)
    assert sorted(shown) == sorted(labels)


def test_gantt_ids_with_tabs_and_line_ends_parse_back_unchanged(tmp_path):
    # an XML parser turns these into spaces in an attribute and CR into LF in text
    ids = ["a\tb", "c\nd", "e\rf", "g\r\nh", "\t\r\n", " i "]
    svg = render_gantt([_opp(tid, 0, 1000 * (k + 1)) for k, tid in enumerate(ids)], 10_000)
    (tmp_path / "gantt.svg").write_text(svg, encoding="utf-8")
    root = ET.parse(tmp_path / "gantt.svg").getroot()
    blocks = [el.get("data-id") for el in root.iter(f"{SVG_NS}rect") if el.get("class") == "block"]
    labels = [t.text for t in root.iter(f"{SVG_NS}text") if t.get("text-anchor") == "end"]
    assert sorted(blocks) == sorted(labels) == sorted(ids)


def test_gantt_empty_and_bad_duration():
    svg = render_gantt([], 5000)
    assert _blocks(svg) == []
    with pytest.raises(ValueError):
        render_gantt([], 0)


@pytest.mark.parametrize("end_ms", [7_200_000, 10**8, 10**10, 2**53])
def test_gantt_draws_at_most_13_ticks_however_long_the_span(end_ms):
    # past the 600 s step, the step grows tenfold until at most 12 steps fit
    labels = re.findall(r'text-anchor="middle">(\d+)s<', render_gantt([], end_ms))
    assert 2 <= len(labels) <= 13
    if end_ms == 7_200_000:   # 2 h, the longest span the step ladder covers
        assert labels == [str(600 * k) for k in range(13)]


def test_gantt_deterministic():
    opps = [_opp("a", 0, 3000), _opp("b", 500, 2000)]
    assert render_gantt(opps, 4000) == render_gantt(opps, 4000)


def test_opportunities_to_dict_sorted_and_typed():
    opps = [_opp("b", 2000, 3000), _opp("a", 0, 1000), _opp("a", 2000, 2500)]
    d = opportunities_to_dict(opps, {"fps": 10.0})
    assert [o["id"] for o in d["opportunities"]] == ["a", "a", "b"]
    assert d["opportunities"][0] == {
        "id": "a",
        "box": [100.0, 100.0, 400.0, 300.0],
        "start_ms": 0,
        "end_ms": 1000,
    }
    assert d["params"] == {"fps": 10.0}
    assert "metrics" not in d


def test_opportunities_to_dict_with_metrics():
    opps = [_opp("a", 0, 1000)]
    m = compute_metrics([opps], (1920, 1080))
    d = opportunities_to_dict(opps, {}, m)
    assert d["metrics"]["opportunity_count"] == 1


def test_report_round_trip(tmp_path):
    opps = [_opp("a", 0, 1000), _opp("b", 500, 4000, Rect(10, 20, 30, 40))]
    params = {"fps": 10.0, "min_visibility": 0.1}
    path = tmp_path / "report.json"
    write_report(opps, params, path)
    back, back_params = load_report(path)
    assert back_params == params
    assert [(o.trackable_id, o.stable_box, o.start_ms, o.end_ms) for o in back] == [
        (o.trackable_id, o.stable_box, o.start_ms, o.end_ms) for o in sorted(
            opps, key=lambda o: (o.start_ms, o.trackable_id, o.end_ms))
    ]
    # writing is byte deterministic
    write_report(opps, params, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_load_report_returns_the_opportunities_written(tmp_path):
    scene = benchmark_scene("drift-trio")
    runs = [run_boxes(frame_blocks(oracles.decimate(t.frames, t.source_fps, 10.0)))
            for t in (generate_trace(scene, seed, scene.default_jitter) for seed in (1, 2))]
    per_run, final, _metrics = analyze_boxes(runs)
    for got in (per_run[0], final):
        assert got
        write_report(got, {}, tmp_path / "report.json")
        assert load_report(tmp_path / "report.json")[0] == sorted(got, key=opportunity_sort_key)


def test_load_report_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"opportunities": [{"id": "a"}], "params": {}}')
    with pytest.raises(ValueError, match="malformed report"):
        load_report(p)
