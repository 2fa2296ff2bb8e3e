from __future__ import annotations

import dataclasses
import json
import re
import signal
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import oracles
from oracles import frame_blocks, iter_frames
from playtrace import cli as cli_module
from playtrace import pipeline as pipeline_module
from playtrace import trace as trace_module
from playtrace.cli import MAX_RUNS, main, parse_mix
from playtrace.pipeline import AnalysisParams, analyze_boxes, run_boxes
from playtrace.reporting import load_report, render_gantt
from playtrace.scenes import benchmark_scene, benchmark_scenes
from playtrace.scheduler import GestureKind, load_schedule, save_schedule, schedule_random
from playtrace.simulator import (
    CameraKeyframe,
    Jitter,
    ScenePlane,
    SimScene,
    generate_trace,
    save_scene,
)
from playtrace.trace import (
    TraceValidationError,
    deadline_walk,
    iter_blocks,
    load_trace,
    save_trace,
)


def _scene(jitter=None):
    plane = ScenePlane(
        plane_id="table",
        center=np.array([0.0, 0.0, 0.0]),
        normal=np.array([0.0, 1.0, 0.0]),
        axis_u=np.array([1.0, 0.0, 0.0]),
        axis_v=np.array([0.0, 0.0, 1.0]),
        extent_u=0.6,
        extent_v=0.5,
    )
    key = CameraKeyframe(
        0,
        np.array([0.0, 2.0, 0.0]),
        np.array([0.0, 0.0, 0.0]),
        np.array([0.0, 0.0, -1.0]),
    )
    return SimScene(
        name="cli-test",
        screen_w=1920,
        screen_h=1080,
        fps=30.0,
        duration_ms=6000,
        fov_y_deg=60.0,
        near_m=0.01,
        far_m=100.0,
        camera_path=(key,),
        planes=(plane,),
        default_jitter=jitter or Jitter(),
    )


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "run.jsonl"
    save_trace(generate_trace(_scene()), path)
    return path


def _static_center_and_shifted(tmp_path):
    """The static-center recording, and the same recording shifted 30 s earlier."""
    path = tmp_path / "run.jsonl"
    save_trace(generate_trace(benchmark_scene("static-center")), path)
    header, *frames = path.read_text(encoding="utf-8").splitlines()
    shifted = tmp_path / "shifted.jsonl"
    lines = [header]
    for line in frames:
        d = json.loads(line)
        d["t_ms"] -= 30_000
        lines.append(json.dumps(d))
    shifted.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for p in (path, shifted):
        assert main(["analyze", str(p), "--out", str(tmp_path / p.stem)]) == 0
    return tmp_path / path.stem, tmp_path / shifted.stem


def test_analyze_keeps_frames_before_time_zero(tmp_path):
    # every frame of the shifted recording has a negative t_ms
    plain, early = (load_report(out / "report.json")[0] for out in _static_center_and_shifted(tmp_path))
    assert plain
    assert [(o.trackable_id, o.stable_box, o.start_ms - 30_000, o.end_ms - 30_000) for o in plain] == [
        (o.trackable_id, o.stable_box, o.start_ms, o.end_ms) for o in early
    ]


def test_gantt_of_frames_before_time_zero_stays_in_the_chart(tmp_path):
    # the chart starts at the first frame when that is before 0 ms
    block = re.compile(r'<rect class="block"[^>]* x="([-\d.]+)" y="\d+" width="([\d.]+)"')
    plain, early = (
        block.findall((out / "gantt.svg").read_text(encoding="utf-8"))
        for out in _static_center_and_shifted(tmp_path)
    )
    assert len(early) == 1
    x, width = map(float, early[0])
    assert early[0][1] == "971.60"
    assert 150 <= x and x + width <= 1150
    assert early == plain


def _two_frames(tmp_path, trace_path, t_ms, **header_changes):
    """trace_path's header (with header_changes) and its first frame at each of t_ms."""
    header, frame = (json.loads(line) for line in trace_path.read_text().splitlines()[:2])
    header.update(header_changes)
    lines = [json.dumps(header)] + [json.dumps({**frame, "t_ms": t}) for t in t_ms]
    path = tmp_path / "two.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_gantt_of_the_longest_trace_draws_few_ticks(tmp_path, trace_path):
    path = _two_frames(tmp_path, trace_path, [0, 2**53])
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 0
    svg = (tmp_path / "out" / "gantt.svg").read_text(encoding="utf-8")
    assert 2 <= svg.count('text-anchor="middle"') <= 13


def test_analyze_at_a_sub_millisecond_period_keeps_every_frame(tmp_path, trace_path, capsys):
    # 1000 / 1e299 ms: t / period overflows a float, and every whole-ms timestamp is kept
    path = _two_frames(tmp_path, trace_path, [0, 2 * 10**12], fps=1e300)
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--fps", "1e299", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["metrics"]


def test_parse_mix():
    mix = parse_mix("TAP=0.5, drag=0.5")
    assert mix == {GestureKind.TAP: 0.5, GestureKind.DRAG: 0.5}
    with pytest.raises(ValueError, match="unknown gesture kind"):
        parse_mix("TAP=0.5,SWIPE=0.5")
    with pytest.raises(ValueError, match="expected KIND=WEIGHT"):
        parse_mix("TAP")
    with pytest.raises(ValueError, match="empty"):
        parse_mix(",")
    # a kind given twice would overwrite its first weight
    for text in ("TAP=0.5,DRAG=0.5,TAP=0.5", "TAP=0.5,DRAG=0.5,tap=0.5"):
        with pytest.raises(ValueError, match="^gesture kind TAP given twice in the mix$"):
            parse_mix(text)


def test_analyze_writes_report_and_chart(tmp_path, trace_path, capsys):
    out = tmp_path / "analysis"
    rc = main(["analyze", str(trace_path), "--out", str(out)])
    assert rc == 0
    opps, params = load_report(out / "report.json")
    assert len(opps) == 1
    assert params == {
        "fps": 10.0,
        "min_visibility": 0.1,
        "min_lifespan_s": 2.0,
        "runs": 1,
    }
    svg = (out / "gantt.svg").read_text()
    assert svg.startswith("<svg")
    assert 'data-id="table"' in svg
    assert "1 opportunities across 1 run(s)" in capsys.readouterr().out


def test_analyze_multi_run_regenerates_from_metadata(tmp_path):
    noisy = tmp_path / "noisy.jsonl"
    save_trace(generate_trace(_scene(Jitter(vertex_noise_m=0.004))), noisy)
    out = tmp_path / "multi"
    rc = main(["analyze", str(noisy), "--runs", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["params"]["runs"] == 3
    assert report["metrics"]["mutual_stability"] is not None
    assert len(report["opportunities"]) == 1


def test_analyze_multi_run_needs_scene_metadata(tmp_path, capsys):
    trace = dataclasses.replace(generate_trace(_scene()), metadata={})
    bare = tmp_path / "bare.jsonl"
    save_trace(trace, bare)
    rc = main(["analyze", str(bare), "--runs", "3", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "scene description" in capsys.readouterr().err


def test_analyze_missing_file_is_io_error(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_malformed_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    rc = main(["analyze", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "bad.jsonl:1:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "knobs, field",
    [
        (["--fps", "nan"], "fps"),
        (["--fps", "0"], "fps"),
        (["--min-visibility", "-1", "--min-lifespan", "-5"], "min_visibility"),
        (["--min-visibility", "1.5"], "min_visibility"),
        (["--min-lifespan", "-5"], "min_lifespan_s"),
        (["--min-lifespan", "inf"], "min_lifespan_s"),
    ],
)
def test_analyze_rejects_bad_knobs(tmp_path, trace_path, capsys, knobs, field):
    out = tmp_path / "x"
    rc = main(["analyze", str(trace_path), *knobs, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ")
    assert "Traceback" not in err
    assert not out.exists()


def _assert_input_error(rc, capsys):
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("runs", [0, -3, MAX_RUNS + 1])
@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_runs_outside_the_budget_are_rejected_first(tmp_path, capsys, command, runs):
    # the input does not exist, so reading it first would exit 2
    missing = str(tmp_path / "missing.jsonl")
    out = tmp_path / "out"
    rc = main([command, missing, "--runs", str(runs), "--out", str(out)])
    err = _assert_input_error(rc, capsys)
    assert err == f"error: --runs must be between 1 and {MAX_RUNS}, the budget of runs, got {runs}\n"
    assert not out.exists()


def test_trace_files_beyond_the_budget_are_rejected_first(tmp_path, capsys):
    # each trace file is a run: the inputs do not exist, so opening one first would exit 2
    missing = [str(tmp_path / f"missing{k}.jsonl") for k in range(MAX_RUNS + 1)]
    out = tmp_path / "out"
    rc = main(["analyze", *missing, "--out", str(out)])
    err = _assert_input_error(rc, capsys)
    assert err == (f"error: the number of trace files must be between 1 and {MAX_RUNS}, "
                   f"the budget of runs, got {MAX_RUNS + 1}\n")
    assert main(["analyze", *missing[:MAX_RUNS], "--out", str(out)]) == 2
    assert f"No such file or directory: '{missing[0]}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("runs", [2, 5])
def test_analyze_runs_with_several_traces_is_rejected_first(tmp_path, capsys, runs):
    # --runs regenerates the runs of one trace; with two traces it would be ignored.
    # The inputs do not exist, so reading one first would exit 2
    missing = [str(tmp_path / f"missing{k}.jsonl") for k in range(2)]
    out = tmp_path / "out"
    rc = main(["analyze", *missing, "--runs", str(runs), "--out", str(out)])
    err = _assert_input_error(rc, capsys)
    assert err == f"error: --runs {runs} regenerates the runs of one trace, got 2 traces\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, knobs, message",
    [
        ("schedule", ["--seed", "9007199254740993"],
         "--seed must be an integer of at most 2**53 in magnitude, got 9007199254740993"),
        ("schedule", ["--seed", "-9007199254740993"],
         "--seed must be an integer of at most 2**53 in magnitude, got -9007199254740993"),
        ("compare", ["--seeds", "1", "-1"], "--seeds must be non-negative, got -1"),
        ("analyze", ["--runs", "2", "--jitter-seed-base", "-3"],
         "--jitter-seed-base must be non-negative, got -3"),
        ("compare", ["--seeds", "3", "3"], "--seeds 3 and 3 share jitter seeds with --runs 3 "
         "(run r of seed s uses jitter seed 100 * s + r)"),
        ("compare", ["--seeds", "1", "2", "--runs", "101"], "--seeds 1 and 2 share jitter "
         "seeds with --runs 101 (run r of seed s uses jitter seed 100 * s + r)"),
    ],
)
def test_seed_knobs_are_rejected_before_anything_is_written(tmp_path, trace_path, capsys,
                                                            command, knobs, message):
    if command == "schedule":
        assert main(["analyze", str(trace_path), "--out", str(tmp_path / "a")]) == 0
        source = tmp_path / "a" / "report.json"
    elif command == "compare":
        source = tmp_path / "scene.json"
        save_scene(_scene(), source)
    else:
        source = trace_path
    out = tmp_path / "out"
    rc = main([command, str(source), *knobs, "--out", str(out)])
    assert _assert_input_error(rc, capsys) == f"error: {message}\n"
    assert not out.exists()


def test_compare_seeds_are_checked_before_the_scene_is_read(tmp_path, capsys):
    # seed 1's runs use jitter seeds 100-199 and seed 2's 200-299: none is shared
    scene = tmp_path / "scene.json"
    save_scene(_scene(), scene)
    assert main(["compare", str(scene), "--seeds", "1", "2", "--runs", "100"]) == 0
    capsys.readouterr()
    # a scene that is not there would exit 2
    rc = main(["compare", str(tmp_path / "missing.json"), "--seeds", "2", "1", "--runs", "101"])
    assert _assert_input_error(rc, capsys).startswith("error: --seeds 1 and 2 share jitter seeds")


def test_each_command_renders_each_distinct_run_once(tmp_path, monkeypatch):
    # a scene whose jitter draws nothing is one render per command, whatever the seeds
    # and runs; a jittered one renders each of its runs once
    seeds = []
    render = cli_module.render_frames
    monkeypatch.setattr(cli_module, "render_frames",
                        lambda scene, seed, *rest: seeds.append(seed) or render(scene, seed, *rest))
    jittered = [s.name for s in benchmark_scenes() if s.default_jitter.draws]
    assert jittered == ["static-small", "drift-trio", "noisy-trio"]
    for scene in benchmark_scenes():
        path = tmp_path / f"{scene.name}.json"
        save_scene(scene, path)
        seeds.clear()
        assert main(["compare", str(path), "--seeds", "1", "2", "--runs", "3"]) == 0
        want = [100, 101, 102, 200, 201, 202] if scene.name in jittered else [100]
        assert seeds == want, scene.name
    # no render outlives its command
    for name, want in (("pan-long", [5]), ("noisy-trio", [5, 6, 7])):
        trace = tmp_path / f"{name}.jsonl"
        save_trace(generate_trace(benchmark_scene(name), 1), trace)
        argv = ["analyze", str(trace), "--runs", "3", "--jitter-seed-base", "5"]
        for k in range(2):
            seeds.clear()
            assert main([*argv, "--out", str(tmp_path / f"{name}-{k}")]) == 0
            assert seeds == want, name
    seeds.clear()
    assert main(["compare", str(tmp_path / "pan-long.json"), "--seeds", "4", "5"]) == 0
    assert seeds == [400]


def _chart_of_id(tmp_path, trace_path, tid):
    """The root of gantt.svg of analyze on trace_path with its trackable renamed tid."""
    header, *frames = trace_path.read_text(encoding="utf-8").splitlines()
    lines = [header]
    for line in frames:
        frame = json.loads(line)
        frame["trackables"][0]["id"] = tid
        lines.append(json.dumps(frame))
    trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["analyze", str(trace_path), "--out", str(out)]) == 0
    assert [o.trackable_id for o in load_report(out / "report.json")[0]] == [tid]
    return ET.parse(out / "gantt.svg").getroot()


def _chart_ids(root):
    """The data-id of each block and the text of each lane label of a chart."""
    return ([el.get("data-id") for el in root.iter("{http://www.w3.org/2000/svg}rect")
             if el.get("class") == "block"],
            [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
             if el.get("text-anchor") == "end"])


def test_ids_with_characters_xml_forbids_give_a_well_formed_chart(tmp_path, trace_path):
    root = _chart_of_id(tmp_path, trace_path, "ta\x01ble\ud800")
    assert _chart_ids(root)[0] == ["ta\\x01ble\\ud800"]


@pytest.mark.parametrize("tid", ["ta\tble", "ta\nble", "ta\rble", "ta\r\nble"])
def test_ids_with_tabs_and_line_ends_come_back_from_the_chart(tmp_path, trace_path, tid):
    assert _chart_ids(_chart_of_id(tmp_path, trace_path, tid)) == ([tid], [tid])


def test_analyze_rejects_trace_jitter_that_is_not_an_object(tmp_path, capsys):
    trace = generate_trace(_scene())
    trace = dataclasses.replace(trace, metadata={**trace.metadata, "jitter": None})
    path = tmp_path / "null-jitter.jsonl"
    save_trace(trace, path)
    rc = main(["analyze", str(path), "--runs", "3", "--out", str(tmp_path / "x")])
    assert "jitter" in _assert_input_error(rc, capsys)


def test_analyze_runs_still_rejects_a_bad_last_frame(tmp_path, trace_path, capsys):
    # with --runs the trace's frames go unused, but they are still read and checked
    lines = trace_path.read_text().splitlines(keepends=True)
    lines[-1] = lines[-1].replace('"cam_pos": [', '"cam_pos": [true, ', 1)
    trace_path.write_text("".join(lines))
    out = tmp_path / "x"
    rc = main(["analyze", str(trace_path), "--runs", "3", "--out", str(out)])
    err = _assert_input_error(rc, capsys)
    assert err.startswith(f"error: run.jsonl:{len(lines)} cam_pos must be a list of 3 finite numbers, "
                          "got [True, ")
    assert not out.exists()


@pytest.mark.parametrize("k", [1, 50, 179])
def test_analyze_runs_rejects_a_bad_frame_as_load_trace_does(tmp_path, trace_path, capsys, k):
    # every frame but the last is dropped unbuilt, and each is still checked
    lines = trace_path.read_text().splitlines(keepends=True)
    lines[k] = lines[k].replace('"view": [', '"view": [null, ', 1)
    trace_path.write_text("".join(lines))
    with pytest.raises(TraceValidationError) as exc:
        load_trace(trace_path)
    rc = main(["analyze", str(trace_path), "--runs", "2", "--out", str(tmp_path / "x")])
    assert _assert_input_error(rc, capsys) == f"error: {exc.value}\n"
    assert str(exc.value).startswith(f"run.jsonl:{k + 1} view must be a list of 16 finite numbers, "
                                     "got [None, ")


@pytest.mark.parametrize("runs", [1, 2])
def test_analyze_builds_only_the_frames_it_keeps(tmp_path, trace_path, monkeypatch, runs):
    # analyze reads the trace as column blocks and builds no FrameRecord from it; one run
    # holds the rows of the frames the walk keeps, not the last, which it drops, and with
    # --runs 2 the trace's frames go unused and no row is held; the rendered runs of
    # --runs 2 and of compare are blocks too, and build no record either
    trace = load_trace(trace_path)
    kept = [f.timestamp_ms for f in oracles.decimate(trace.frames, trace.source_fps, 10.0)]
    assert kept[-1] < trace.duration_ms
    built, held = [], []
    for name in ("FrameRecord", "TrackableSnapshot"):
        made = getattr(trace_module, name)
        monkeypatch.setattr(trace_module, name,
                            lambda made=made, **kw: built.append(kw) or made(**kw))
    read = cli_module.iter_blocks

    def counted(path, keep=None):
        for block in read(path, keep):
            held.extend(block.t_ms)
            yield block

    monkeypatch.setattr(cli_module, "iter_blocks", counted)   # --runs 2 checks the trace
    monkeypatch.setattr(pipeline_module, "iter_blocks", counted)   # one trace is one run
    argv = ["analyze", str(trace_path), "--runs", str(runs), "--out", str(tmp_path / "x")]
    assert main(argv) == 0
    assert held == (kept if runs == 1 else [])
    save_scene(_scene(), tmp_path / "scene.json")
    assert main(["compare", str(tmp_path / "scene.json"), "--runs", str(runs)]) == 0
    assert built == []
    # the patch counts the records and snapshots of both producers; a generated trace
    # holds its blocks and makes its records once, when they are first read
    frames = list(iter_frames(trace_path))
    counted = len(frames) + sum(len(f.trackables) for f in frames)
    assert len(built) == counted > len(frames)
    rendered = generate_trace(_scene())   # the trace_path fixture's render
    assert len(rendered.frames) == len(frames) and len(built) == counted
    assert rendered.frames[0] is rendered.frames[0]
    assert len(built) == 2 * counted


@pytest.mark.parametrize("n", [121, 122, 123])
def test_analyze_ends_at_the_last_frame_whether_kept_or_dropped(tmp_path, n):
    # 30 fps analysed at 10: the walk keeps frame 120 (4000 ms) and drops 121 and 122
    full = generate_trace(_scene())
    path = tmp_path / "run.jsonl"
    save_trace(dataclasses.replace(full, frames=full.frames[:n]), path)
    params = AnalysisParams()
    loaded = run_boxes(frame_blocks(
        oracles.decimate(load_trace(path).frames, full.source_fps, params.fps)))
    walk = deadline_walk(full.source_fps, params.fps)
    oracles.assert_same_run(run_boxes(iter_blocks(path, walk)), loaded)
    assert walk.last_ms == full.frames[n - 1].timestamp_ms
    assert (loaded.timestamps_ms[-1] < walk.last_ms) == (n > 121)
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 0
    final = analyze_boxes([loaded], params)[1]
    assert final
    assert (tmp_path / "out" / "gantt.svg").read_text(encoding="utf-8") == render_gantt(
        final, walk.last_ms)


def test_analyze_rejects_screen_change_mid_trace(tmp_path, capsys):
    trace = generate_trace(_scene())
    small = [dataclasses.replace(f, screen_w=960, screen_h=540) for f in trace.frames[90:]]
    path = tmp_path / "resized.jsonl"
    # save_trace refuses such a trace, so the per-frame oracle writes it
    resized = dataclasses.replace(trace, frames=trace.frames[:90] + tuple(small))
    path.write_text(oracles.trace_text_per_frame(resized), encoding="utf-8")
    rc = main(["analyze", str(path), "--out", str(tmp_path / "x")])
    assert "resized.jsonl:92: screen 960x540" in _assert_input_error(rc, capsys)


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_scene_jitter_that_is_not_an_object(tmp_path, capsys, command):
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    d = json.loads(scene_path.read_text())
    d["jitter"] = []
    scene_path.write_text(json.dumps(d))
    sched_path = tmp_path / "random.json"
    save_schedule(schedule_random((1920, 1080), 6000, 0), sched_path)
    args = {
        "simulate": ["--schedule", str(sched_path), "--out", str(tmp_path / "o.json")],
        "compare": ["--runs", "1"],
    }[command]
    rc = main([command, str(scene_path), *args])
    assert "jitter" in _assert_input_error(rc, capsys)


def test_invalid_json_errors_name_the_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    rc = main(["schedule", str(bad), "--out", str(tmp_path / "s.json")])
    assert "broken.json: invalid JSON" in _assert_input_error(rc, capsys)
    rc = main(["simulate", str(scene_path), "--schedule", str(bad), "--out", str(tmp_path / "o.json")])
    assert "broken.json: invalid JSON" in _assert_input_error(rc, capsys)
    rc = main(["simulate", str(bad), "--schedule", str(bad), "--out", str(tmp_path / "o.json")])
    assert "broken.json: invalid JSON" in _assert_input_error(rc, capsys)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dropout_prob", 5.0),
        ("dropout_prob", -0.5),
        ("dropout_prob", float("nan")),
        ("vertex_noise_m", -0.01),
        ("vertex_noise_m", float("inf")),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_scene_jitter_out_of_range(tmp_path, capsys, command, field, value):
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    d = json.loads(scene_path.read_text())
    d["jitter"][field] = value
    scene_path.write_text(json.dumps(d))
    sched_path = tmp_path / "random.json"
    save_schedule(schedule_random((1920, 1080), 6000, 0), sched_path)
    args = {
        "simulate": ["--schedule", str(sched_path), "--out", str(tmp_path / "o.json")],
        "compare": ["--runs", "1"],
    }[command]
    rc = main([command, str(scene_path), *args])
    # the jitter checks itself, so no value of its own bears the loader's prefix
    assert _assert_input_error(rc, capsys).startswith(f"error: jitter {field} must be ")


def test_analyze_rejects_trace_jitter_out_of_range(tmp_path, capsys):
    trace = generate_trace(_scene())
    meta = {**trace.metadata, "jitter": {"vertex_noise_m": 0.0, "dropout_prob": 1.5}}
    path = tmp_path / "bad-jitter.jsonl"
    save_trace(dataclasses.replace(trace, metadata=meta), path)
    rc = main(["analyze", str(path), "--runs", "2", "--out", str(tmp_path / "x")])
    assert _assert_input_error(rc, capsys).startswith("error: jitter dropout_prob ")


def test_non_utf8_errors_name_the_file(tmp_path, trace_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    sched_path = tmp_path / "random.json"
    save_schedule(schedule_random((1920, 1080), 6000, 0), sched_path)
    out = tmp_path / "o.json"
    for argv in (
        ["simulate", str(bad), "--schedule", str(sched_path), "--out", str(out)],  # scene
        ["simulate", str(scene_path), "--schedule", str(bad), "--out", str(out)],  # schedule
        ["schedule", str(bad), "--out", str(out)],  # report
        ["analyze", str(bad), "--out", str(tmp_path / "x")],  # trace
    ):
        err = _assert_input_error(main(argv), capsys)
        # a trace is decoded line by line, so its error names the line too
        where = "utf16.json:1" if argv[0] == "analyze" else "utf16.json"
        assert err.startswith(f"error: {where}: not UTF-8 text"), argv
    assert not out.exists()


def test_deeply_nested_files_are_invalid_json(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    sched_path = tmp_path / "random.json"
    save_schedule(schedule_random((1920, 1080), 6000, 0), sched_path)
    out = tmp_path / "o.json"
    for argv in (
        ["simulate", str(deep), "--schedule", str(sched_path), "--out", str(out)],  # scene
        ["simulate", str(scene_path), "--schedule", str(deep), "--out", str(out)],  # schedule
        ["compare", str(deep)],  # scene
        ["schedule", str(deep), "--out", str(out)],  # report
    ):
        err = _assert_input_error(main(argv), capsys)
        assert err == "error: deep.json: invalid JSON: nested too deeply\n", argv
    assert not out.exists()


def test_integer_literals_past_the_digit_limit_are_invalid_json(tmp_path, trace_path, capsys):
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by default)
    digits = "9" * 5000
    limit = sys.get_int_max_str_digits()
    header, *frames = trace_path.read_text().splitlines()
    frame = json.loads(frames[2])
    frame["t_ms"] = 0
    frames[2] = json.dumps(frame).replace('"t_ms": 0', f'"t_ms": {digits}')
    trace_path.write_text("\n".join([header, *frames]) + "\n")
    rc = main(["analyze", str(trace_path), "--out", str(tmp_path / "x")])
    assert _assert_input_error(rc, capsys) == (
        f"error: run.jsonl:4: invalid JSON: integer of more than {limit} digits\n")

    long_int = tmp_path / "long.json"
    long_int.write_text(f'{{"fps": {digits}}}')
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    sched_path = tmp_path / "random.json"
    save_schedule(schedule_random((1920, 1080), 6000, 0), sched_path)
    out = tmp_path / "o.json"
    for argv in (
        ["simulate", str(long_int), "--schedule", str(sched_path), "--out", str(out)],  # scene
        ["simulate", str(scene_path), "--schedule", str(long_int), "--out", str(out)],  # schedule
        ["compare", str(long_int)],  # scene
        ["schedule", str(long_int), "--out", str(out)],  # report
    ):
        err = _assert_input_error(main(argv), capsys)
        assert err == f"error: long.json: invalid JSON: integer of more than {limit} digits\n", argv
    assert not out.exists()


@pytest.mark.parametrize("gap", ["0", "-5"])
def test_schedule_rejects_non_positive_gap(tmp_path, trace_path, capsys, gap):
    out = tmp_path / "analysis"
    assert main(["analyze", str(trace_path), "--out", str(out)]) == 0
    sched_path = tmp_path / "guided.json"
    rc = main(
        ["schedule", str(out / "report.json"), "--min-gap-ms", gap, "--out", str(sched_path)]
    )
    assert _assert_input_error(rc, capsys).startswith("error: min_gap_ms ")
    assert not sched_path.exists()


@pytest.mark.parametrize("argv, message", [
    (["--duration-ms", "-5"], "--duration-ms must be >= 0, got -5"),
    (["--mix", "TAP=0.5,DRAG=0.5,TAP=0.5"], "gesture kind TAP given twice in the mix"),
    (["--mix", "TAP=0.5,DRAG=0.5,tap=0.5"], "gesture kind TAP given twice in the mix"),
], ids=["negative-duration", "kind-twice", "kind-twice-lower"])
def test_schedule_rejects_bad_knobs(tmp_path, trace_path, capsys, argv, message):
    out = tmp_path / "analysis"
    assert main(["analyze", str(trace_path), "--out", str(out)]) == 0
    sched_path = tmp_path / "guided.json"
    rc = main(["schedule", str(out / "report.json"), *argv, "--out", str(sched_path)])
    assert _assert_input_error(rc, capsys) == f"error: {message}\n"
    assert not sched_path.exists()


def test_schedule_from_report(tmp_path, trace_path):
    out = tmp_path / "analysis"
    assert main(["analyze", str(trace_path), "--out", str(out)]) == 0
    sched_path = tmp_path / "guided.json"
    rc = main(["schedule", str(out / "report.json"), "--seed", "3", "--out", str(sched_path)])
    assert rc == 0
    sched = load_schedule(sched_path)
    assert sched.generator == "GUIDED"
    assert sched.seed == 3
    assert sched.events
    # deterministic across invocations
    again = tmp_path / "again.json"
    main(["schedule", str(out / "report.json"), "--seed", "3", "--out", str(again)])
    assert again.read_bytes() == sched_path.read_bytes()


def test_schedule_respects_mix(tmp_path, trace_path):
    out = tmp_path / "analysis"
    main(["analyze", str(trace_path), "--out", str(out)])
    sched_path = tmp_path / "taps.json"
    rc = main(
        [
            "schedule",
            str(out / "report.json"),
            "--mix",
            "TAP=1.0",
            "--out",
            str(sched_path),
        ]
    )
    assert rc == 0
    sched = load_schedule(sched_path)
    assert {e.kind for e in sched.events} == {GestureKind.TAP}


@pytest.mark.parametrize(
    "mix, message",
    [
        ("TAP=nan,DRAG=1", "mix weight TAP must be a finite number, got nan"),
        ("TAP=1,DRAG=inf", "mix weight DRAG must be a finite number, got inf"),
        ("TAP=-1,DRAG=1", "mix weight TAP must be >= 0, got -1.0"),
    ],
    ids=["nan", "inf", "negative"],
)
def test_schedule_rejects_bad_mix_weights(tmp_path, trace_path, capsys, mix, message):
    out = tmp_path / "analysis"
    assert main(["analyze", str(trace_path), "--out", str(out)]) == 0
    capsys.readouterr()
    sched_path = tmp_path / "s.json"
    rc = main(["schedule", str(out / "report.json"), "--mix", mix, "--out", str(sched_path)])
    assert _assert_input_error(rc, capsys) == f"error: {message}\n"
    assert not sched_path.exists()


def test_simulate_runs_schedule(tmp_path, trace_path):
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    out = tmp_path / "analysis"
    main(["analyze", str(trace_path), "--out", str(out)])
    sched_path = tmp_path / "guided.json"
    main(["schedule", str(out / "report.json"), "--out", str(sched_path)])
    result = tmp_path / "outcomes.json"
    rc = main(["simulate", str(scene_path), "--schedule", str(sched_path), "--out", str(result)])
    assert rc == 0
    d = json.loads(result.read_text())
    assert d["gsr"]["overall"] == 1.0
    assert all(o["success"] for o in d["outcomes"])


def _set_track_x(value):
    def edit(ev):
        ev["tracks"][0][0][1] = value
    return edit


def _shift_track_times(dt):
    def edit(ev):
        for point in ev["tracks"][0]:
            point[0] += dt
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ev: ev.update(t=[100, 50]), "t_start 100 is after t_end 50"),
        (lambda ev: ev.update(t=["0", "50"]), "t_start must be an integer of at most 2**53"),
        (lambda ev: ev.update(t=[True, 50]), "t_start must be an integer of at most 2**53"),
        (lambda ev: ev.update(t=[0, 50.7]), "t_end must be an integer of at most 2**53"),
        (lambda ev: ev["tracks"][0][0].__setitem__(0, 10**400),
         "track time must be an integer of at most 2**53"),
        (_set_track_x(10**400), "track x must be a finite number, got 1000"),
        (_set_track_x(float("nan")), "track x must be a finite number, got nan"),
        (_set_track_x(float("inf")), "track x must be a finite number, got inf"),
        (lambda ev: ev.update(tracks=[]), "tracks must be a non-empty list of non-empty tracks"),
        (lambda ev: ev.update(tracks=[[]]), "tracks must be a non-empty list of non-empty tracks"),
        (lambda ev: ev["tracks"][0].reverse(), "track times must not decrease (700 then 600)"),
        (_shift_track_times(100_000),
         "track times 100000..100700 must lie in [t_start, t_end] = [0, 700]"),
        (_shift_track_times(-1), "track times -1..699 must lie in [t_start, t_end] = [0, 700]"),
        (lambda ev: ev.update(target=[1, 2]), "target must be a string or null, got [1, 2]"),
    ],
    ids=["t-inverted", "t-str", "t-bool", "t-float", "track-time-huge", "x-huge", "x-nan",
         "x-inf", "no-tracks", "empty-track", "track-reversed", "track-shifted",
         "track-early", "target-list"],
)
def test_simulate_rejects_malformed_schedule(tmp_path, capsys, edit, message):
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    sched_path = tmp_path / "random.json"
    save_schedule(schedule_random((1920, 1080), 6000, 0), sched_path)
    d = json.loads(sched_path.read_text())
    edit(d["events"][0])
    sched_path.write_text(json.dumps(d))
    out = tmp_path / "o.json"
    rc = main(["simulate", str(scene_path), "--schedule", str(sched_path), "--out", str(out)])
    err = _assert_input_error(rc, capsys)
    assert err.startswith(f"error: malformed schedule: event 0: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", "7", "seed must be an integer of at most 2**53 in magnitude, got '7'"),
        ("seed", 7.9, "seed must be an integer of at most 2**53 in magnitude, got 7.9"),
        ("seed", True, "seed must be an integer of at most 2**53 in magnitude, got True"),
        ("seed", 10**400, "seed must be an integer of at most 2**53 in magnitude, got 1000"),
        ("mix", {"TAP": "nan"}, "mix weight TAP must be a finite number, got 'nan'"),
        ("mix", [["TAP", 1.0]], "mix must be an object, got [['TAP', 1.0]]"),
        ("mix", {"TAP": -1.0, "DRAG": 5.0}, "mix weight TAP must be >= 0, got -1.0"),
        ("mix", {"TAP": 0.0}, "gesture mix has no positive weights"),
        ("mix", {"TAP": 0.25, "DRAG": 0.25}, "gesture mix must sum to 1, got 0.5"),
        ("generator", ["RANDOM"], "generator must be a string, got ['RANDOM']"),
    ],
    ids=["seed-str", "seed-float", "seed-bool", "seed-huge", "mix-nan", "mix-list", "mix-negative",
         "mix-no-positive", "mix-sum", "generator-list"],
)
def test_simulate_rejects_malformed_schedule_fields(tmp_path, capsys, field, value, message):
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    sched_path = tmp_path / "random.json"
    save_schedule(schedule_random((1920, 1080), 6000, 0), sched_path)
    d = json.loads(sched_path.read_text())
    d[field] = value
    sched_path.write_text(json.dumps(d))
    out = tmp_path / "o.json"
    rc = main(["simulate", str(scene_path), "--schedule", str(sched_path), "--out", str(out)])
    err = _assert_input_error(rc, capsys)
    assert err.startswith(f"error: malformed schedule: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_accepts_equal_neighbouring_track_times(tmp_path):
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    sched_path = tmp_path / "random.json"
    save_schedule(schedule_random((1920, 1080), 6000, 0), sched_path)
    d = json.loads(sched_path.read_text())
    track = d["events"][0]["tracks"][0]
    track[1][0] = track[0][0]          # a finger resting for one sample
    track[-1][0] = d["events"][0]["t"][1]
    sched_path.write_text(json.dumps(d))
    out = tmp_path / "o.json"
    assert main(["simulate", str(scene_path), "--schedule", str(sched_path), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("source", ["duration-ms", "report-end-ms"])
def test_schedule_horizon_budget(tmp_path, trace_path, capsys, source):
    out = tmp_path / "analysis"
    assert main(["analyze", str(trace_path), "--out", str(out)]) == 0
    argv = ["schedule", str(out / "report.json"), "--out", str(tmp_path / "guided.json")]
    if source == "duration-ms":
        argv += ["--duration-ms", "100000000000"]
    else:
        report = json.loads((out / "report.json").read_text())
        report["opportunities"][0]["end_ms"] = 100_000_000_000
        (out / "report.json").write_text(json.dumps(report))

    def hang(signum, frame):
        pytest.fail("schedule did not reject the horizon within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        rc = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert _assert_input_error(rc, capsys) == (
        "error: duration_ms 100000000000 and min_gap_ms 100 make more than 1000000 steps, "
        "the budget for one schedule\n"
    )
    assert not (tmp_path / "guided.json").exists()


def test_compare_prints_table_and_writes_json(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    result = tmp_path / "compare.json"
    rc = main(
        [
            "compare",
            str(scene_path),
            "--seeds",
            "1",
            "--runs",
            "2",
            "--out",
            str(result),
        ]
    )
    assert rc == 0
    outp = capsys.readouterr().out
    assert "scene: cli-test" in outp
    assert "guided" in outp and "random" in outp
    d = json.loads(result.read_text())
    assert d["seeds"] == [1]
    assert d["runs"] == 2
    assert len(d["per_seed"]) == 1
    assert d["per_seed"][0]["opportunity_count"] == 1
    assert d["aggregate"]["guided"]["gsr"]["overall"] == 1.0
    assert d["aggregate"]["guided"]["events"] <= d["aggregate"]["random"]["events"]


def test_one_parser_serves_every_call_and_keeps_no_state(tmp_path, capsys):
    # main parses with one parser per process: failed parses of compare, one of them after
    # its --seeds were read, and good parses of other subcommands leave its defaults as
    # they were, so a later default compare writes what the first one wrote
    assert cli_module.build_parser() is cli_module.build_parser()
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    out = [tmp_path / "first.json", tmp_path / "again.json"]
    assert main(["compare", str(scene_path), "--runs", "1", "--out", str(out[0])]) == 0
    for argv in (["compare", str(scene_path), "--seeds", "5", "7", "--runs", "x"],
                 ["compare", str(scene_path), "--seeds"], ["compare"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert main(["scenes", "--out", str(tmp_path / "pack")]) == 0
    assert main(["analyze", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path)]) == 2
    assert main(["compare", str(scene_path), "--runs", "1", "--out", str(out[1])]) == 0
    assert json.loads(out[1].read_text())["seeds"] == [1]
    assert out[0].read_bytes() == out[1].read_bytes()
    args = cli_module.build_parser().parse_args(["compare", str(scene_path)])
    assert (args.seeds, args.runs, args.out) == ([1], 3, None)


def test_scenes_writes_pack(tmp_path, capsys):
    out = tmp_path / "pack"
    rc = main(["scenes", "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.glob("*.json"))
    assert len(files) == 9
    assert "static-center.json" in files
    # each file is a loadable scene
    from playtrace.simulator import load_scene

    for f in files:
        load_scene(out / f)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("camera_path", 0, "pos", 0), float("nan"),
         "malformed scene: camera_path[0] pos must be a list of 3 finite numbers, "
         "got [nan, 2.0, 0.0]"),
        (("camera_path", 0, "look_at", 2), float("inf"),
         "malformed scene: camera_path[0] look_at must be a list of 3 finite numbers, "
         "got [0.0, 0.0, inf]"),
        (("camera_path", 0, "up", 1), float("nan"),
         "malformed scene: camera_path[0] up must be a list of 3 finite numbers, "
         "got [0.0, nan, -1.0]"),
        (("planes", 0, "center", 0), float("inf"),
         "malformed scene: plane 'table' center must be a list of 3 finite numbers, "
         "got [inf, 0.0, 0.0]"),
        (("planes", 0, "normal", 1), float("nan"),
         "malformed scene: plane 'table' normal must be a list of 3 finite numbers, "
         "got [0.0, nan, 0.0]"),
        (("planes", 0, "axis_u", 0), float("nan"),
         "malformed scene: plane 'table' axis_u must be a list of 3 finite numbers, "
         "got [nan, 0.0, 0.0]"),
        (("planes", 0, "axis_v", 2), float("-inf"),
         "malformed scene: plane 'table' axis_v must be a list of 3 finite numbers, "
         "got [0.0, 0.0, -inf]"),
        (("planes", 0, "extents", 1), float("nan"),
         "malformed scene: plane 'table' extents must be a list of 2 finite numbers, "
         "got [0.6, nan]"),
        (("fps",), float("nan"), "fps must be a finite number, got nan"),
        (("intrinsics", "far_m"), float("inf"), "far_m must be a finite number, got inf"),
    ],
    ids=["pos-nan", "look_at-inf", "up-nan", "center-inf", "normal-nan", "axis_u-nan",
         "axis_v-inf", "extent-nan", "fps-nan", "far-inf"],
)
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_scene_non_finite_number(tmp_path, capsys, command, path, value, message):
    # a number list is the loader's to read, a single number the scene's own check
    rc = _run_edited_scene(tmp_path, command, path, value)
    assert _assert_input_error(rc, capsys) == f"error: {message}\n"


def _run_edited_scene(tmp_path, command, path, value):
    """Run command on the test scene with the entry at path set to value."""
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    d = json.loads(scene_path.read_text())
    *keys, last = path
    target = d
    for key in keys:
        target = target[key]
    target[last] = value
    scene_path.write_text(json.dumps(d))
    sched_path = tmp_path / "random.json"
    save_schedule(schedule_random((1920, 1080), 6000, 0), sched_path)
    args = {
        "simulate": ["--schedule", str(sched_path), "--out", str(tmp_path / "o.json")],
        "compare": ["--runs", "1"],
    }[command]
    return main([command, str(scene_path), *args])


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("planes", 0, "extents", 0), "0.6", "malformed scene: "
         "plane 'table' extents must be a list of 2 finite numbers, got ['0.6', 0.5]"),
        (("planes", 0, "center", 0), True, "malformed scene: "
         "plane 'table' center must be a list of 3 finite numbers, got [True, 0.0, 0.0]"),
        (("planes", 0, "verts"), [[-0.5, -0.5], ["0.5", -0.5], [0.5, 0.5]], "malformed scene: "
         "plane 'table' verts must be a list of 2 finite numbers, got ['0.5', -0.5]"),
        (("camera_path", 0, "up", 2), None, "malformed scene: "
         "camera_path[0] up must be a list of 3 finite numbers, got [0.0, 0.0, None]"),
        (("fps",), "30", "fps must be a finite number, got '30'"),
        (("fps",), 10**400, f"fps must be a finite number, got {10**400}"),
        (("intrinsics", "near_m"), False, "near_m must be a finite number, got False"),
        (("jitter", "dropout_prob"), "0.1", "jitter dropout_prob must be a finite number, got '0.1'"),
        (("screen", 0), "1920", "screen must be an integer of at most 2**53 in magnitude, got '1920'"),
        (("screen", 1), 1080.7, "screen must be an integer of at most 2**53 in magnitude, got 1080.7"),
        (("duration_ms",), 6000.0,
         "duration_ms must be an integer of at most 2**53 in magnitude, got 6000.0"),
        (("camera_path", 0, "t_ms"), "0",
         "camera_path[0] t_ms must be an integer of at most 2**53 in magnitude, got '0'"),
        (("planes", 0, "detect_delay_ms"), True,
         "plane 'table' detect_delay_ms must be an integer of at most 2**53 in magnitude, got True"),
        (("planes", 0, "lost_intervals"), [[1000, "2000"]],
         "plane 'table' lost_intervals must be an integer of at most 2**53 in magnitude, got '2000'"),
    ],
    ids=["extent-str", "center-bool", "verts-str", "up-null", "fps-str", "fps-huge", "near-bool",
         "dropout-str", "screen-str", "screen-float", "duration-float", "t_ms-str", "delay-bool",
         "lost-str"],
)
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_scene_numbers_must_be_json_numbers(tmp_path, capsys, command, path, value, message):
    # a number list is the loader's to read, a single number the scene's own check
    rc = _run_edited_scene(tmp_path, command, path, value)
    assert _assert_input_error(rc, capsys) == f"error: {message}\n"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("planes", 0, "id"), [1], "plane id must be a non-empty string, got [1]"),
        (("planes", 0, "id"), "", "plane id must be a non-empty string, got ''"),
        (("name",), {"a": 1}, "name must be a string, got {'a': 1}"),
        (("screen", 1), 10**400,
         f"screen must be an integer of at most 2**53 in magnitude, got {10**400}"),
        (("planes", 0, "detect_delay_ms"), 10**400,
         "plane 'table' detect_delay_ms must be an integer of at most 2**53 "
         f"in magnitude, got {10**400}"),
        (("planes", 0, "lost_intervals"), [[0, 2**53 + 1]],
         "plane 'table' lost_intervals must be an integer of at most 2**53 "
         "in magnitude, got 9007199254740993"),
        # finite numbers whose products overflow a float
        (("planes", 0, "normal"), [1e200, 0.0, 0.0],
         "plane 'table' normal must be unit length, got |n|=inf"),
        (("camera_path", 0, "pos"), [1e308, 1e308, 0.0],
         "camera distance to the look-at target overflows a float"),
        (("camera_path", 0, "up"), [0.0, 0.0, 1e200],
         "camera up vector is too long: its cross product overflows a float"),
        (("fps",), 5e-324, "fps 5e-324 is too small: its frame period overflows a float"),
        (("intrinsics", "fov_y_deg"), 5e-324,
         "fov_y_deg 5e-324, near_m 0.01 and far_m 100.0 make a projection matrix past the float range"),
        (("intrinsics", "far_m"), 1e308,
         "fov_y_deg 60.0, near_m 0.01 and far_m 1e+308 make a projection matrix past the float range"),
        # the trace reader's polygon rule
        (("planes", 0, "verts"), [],
         "plane 'table' verts must be a simple polygon of at least 3 vertices, got []"),
        (("planes", 0, "verts"), [[-0.5, -0.5], [0.5, 0.5]],
         "plane 'table' verts must be a simple polygon of at least 3 vertices, "
         "got [[-0.5, -0.5], [0.5, 0.5]]"),
        (("planes", 0, "verts"), [[-0.5, -0.5], [0.5, 0.5], [0.5, -0.5], [-0.5, 0.5]],
         "plane 'table' verts must be a simple polygon of at least 3 vertices, "
         "got [[-0.5, -0.5], [0.5, 0.5], [0.5, -0.5], [-0.5, 0.5]]"),
    ],
    ids=["id-list", "id-empty", "name-object", "screen-huge", "delay-huge", "lost-huge",
         "normal-huge", "camera-distance-huge", "camera-up-huge", "fps-tiny", "fov-tiny", "far-huge",
         "verts-empty", "verts-two", "verts-bowtie"],
)
@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.filterwarnings("error")  # an overflow warning escapes as an exception
def test_scene_rejects_malformed_names_and_huge_integers(tmp_path, capsys, command, path, value,
                                                         message):
    rc = _run_edited_scene(tmp_path, command, path, value)
    assert _assert_input_error(rc, capsys) == f"error: {message}\n"


@pytest.mark.parametrize(
    "value, message",
    [
        ([[1000, 2000, 3000]], "plane 'table' lost_intervals must be a list of [start, end] pairs"),
        ([5], "plane 'table' lost_intervals must be a list of [start, end] pairs"),
        (5, "plane 'table' lost_intervals must be a list of [start, end] pairs"),
    ],
    ids=["triple", "bare-int", "not-a-list"],
)
def test_scene_lost_intervals_must_be_pairs(tmp_path, capsys, value, message):
    rc = _run_edited_scene(tmp_path, "compare", ("planes", 0, "lost_intervals"), value)
    assert _assert_input_error(rc, capsys) == f"error: malformed scene: {message}, got {value!r}\n"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("camera_path", 0, "pos"), [0, 2.0], "camera_path[0] pos must be a list of 3 finite numbers"),
        (("camera_path", 0, "look_at"), [0, 0, 0, 1],
         "camera_path[0] look_at must be a list of 3 finite numbers"),
        (("camera_path", 0, "up"), 1.0, "camera_path[0] up must be a list of 3 finite numbers"),
        (("planes", 0, "center"), [0, 0], "plane 'table' center must be a list of 3 finite numbers"),
        (("planes", 0, "normal"), [], "plane 'table' normal must be a list of 3 finite numbers"),
        (("planes", 0, "axis_u"), [1, 0], "plane 'table' axis_u must be a list of 3 finite numbers"),
        (("planes", 0, "axis_v"), {"z": 1}, "plane 'table' axis_v must be a list of 3 finite numbers"),
        (("planes", 0, "extents"), [0.6, 0.5, 0.1],
         "plane 'table' extents must be a list of 2 finite numbers"),
        (("planes", 0, "verts"), [[-0.5, -0.5], [0.5], [0.5, 0.5]],
         "plane 'table' verts must be a list of 2 finite numbers"),
    ],
    ids=["pos", "look_at", "up", "center", "normal", "axis_u", "axis_v", "extents", "verts"],
)
def test_scene_vectors_must_have_their_length(tmp_path, capsys, path, value, message):
    rc = _run_edited_scene(tmp_path, "compare", path, value)
    bad = value[1] if path[-1] == "verts" else value
    assert _assert_input_error(rc, capsys) == f"error: malformed scene: {message}, got {bad!r}\n"


@pytest.mark.parametrize(
    "fps, duration_ms",
    [(1e300, 6000), (30.0, 10**15), (1e300, 2**53)],
    ids=["huge-fps", "huge-duration", "both"],
)
def test_scene_frame_budget(tmp_path, capsys, fps, duration_ms):
    scene_path = tmp_path / "scene.json"
    save_scene(_scene(), scene_path)
    d = json.loads(scene_path.read_text())
    d.update(fps=fps, duration_ms=duration_ms)
    scene_path.write_text(json.dumps(d))

    def hang(signum, frame):
        pytest.fail("compare did not reject the scene within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        rc = main(["compare", str(scene_path), "--runs", "1"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = _assert_input_error(rc, capsys)
    assert err.startswith(f"error: fps {float(fps)} and duration_ms {duration_ms} make more than ")
    assert err.endswith(" 1000000 frames, the budget for one trace\n")


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"box": [float("nan"), 100, 900, 700]},
         "opportunity 0: box must be a list of 4 finite numbers, got [nan, 100, 900, 700]"),
        ({"box": [100, 100, float("inf"), 700]},
         "opportunity 0: box must be a list of 4 finite numbers, got [100, 100, inf, 700]"),
        ({"start_ms": 5000, "end_ms": 4000}, "opportunity 0: start_ms 5000 is after end_ms 4000"),
        ({"start_ms": 1500.9},
         "opportunity 0: start_ms must be an integer of at most 2**53 in magnitude, got 1500.9"),
        ({"end_ms": "4000"},
         "opportunity 0: end_ms must be an integer of at most 2**53 in magnitude, got '4000'"),
        ({"start_ms": True},
         "opportunity 0: start_ms must be an integer of at most 2**53 in magnitude, got True"),
        ({"box": ["100", 100, 900, 700]}, "opportunity 0: box must be a list of 4 finite numbers"),
        ({"box": [100, 100, 900]}, "opportunity 0: box must be a list of 4 finite numbers"),
        ({"box": [100, 100, 900, 700, 5]}, "opportunity 0: box must be a list of 4 finite numbers"),
        ({"box": [100, False, 900, 700]}, "opportunity 0: box must be a list of 4 finite numbers"),
        ({"box": [100, -1e308, 900, 700]},
         "opportunity 0: box corners must lie within ±1e+150 px, got [100.0, -1e+308, 900.0, 700.0]"),
        ({"id": [1, 2]}, "opportunity 0: id must be a non-empty string, got [1, 2]"),
        ({"id": ""}, "opportunity 0: id must be a non-empty string, got ''"),
    ],
    ids=["box-nan", "box-inf", "window-inverted", "start-float", "end-str", "start-bool",
         "box-str", "box-short", "box-long", "box-bool", "box-far", "id-list", "id-empty"],
)
def test_schedule_rejects_bad_report_entries(tmp_path, trace_path, capsys, edit, message):
    out = tmp_path / "analysis"
    assert main(["analyze", str(trace_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    report["opportunities"][0].update(edit)
    (out / "report.json").write_text(json.dumps(report))
    sched_path = tmp_path / "guided.json"
    rc = main(["schedule", str(out / "report.json"), "--out", str(sched_path)])
    assert _assert_input_error(rc, capsys).startswith(f"error: malformed report: {message}")
    assert not sched_path.exists()


def test_schedule_rejects_report_params_that_are_not_an_object(tmp_path, trace_path, capsys):
    out = tmp_path / "analysis"
    assert main(["analyze", str(trace_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    report["params"] = [["a", 1]]
    (out / "report.json").write_text(json.dumps(report))
    rc = main(["schedule", str(out / "report.json"), "--out", str(tmp_path / "guided.json")])
    err = _assert_input_error(rc, capsys)
    assert err == "error: malformed report: params must be an object, got [['a', 1]]\n"


HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize(
    "field, message",
    [
        ('"view": [', f"run.jsonl:3 view must be a list of 16 finite numbers, got [{HUGE_INT}, "),
        ('"cam_pos": [', f"run.jsonl:3 cam_pos must be a list of 3 finite numbers, got [{HUGE_INT}, "),
        ('"verts": [[', "run.jsonl:3 trackable 'table' vertex 0 must be a list of 2 finite numbers, "
                        f"got [{HUGE_INT}, "),
        ('"screen": [', f"run.jsonl:3: screen must be an integer of at most 2**53 in magnitude, "
                        f"got {HUGE_INT}\n"),
        ('"t_ms": ', f"run.jsonl:3: t_ms must be an integer of at most 2**53 in magnitude, "
                     f"got {HUGE_INT}\n"),
        ('"fps": ', f"run.jsonl:1: fps must be a finite number, got {HUGE_INT}\n"),
    ],
    ids=["view", "cam_pos", "vertex", "screen", "t_ms", "fps"],
)
def test_analyze_rejects_huge_integer_literal(tmp_path, trace_path, capsys, field, message):
    # an integer literal too large for a float, in the first number of the field
    lines = trace_path.read_text().splitlines(keepends=True)
    line = 0 if field == '"fps": ' else 2
    start = lines[line].index(field) + len(field)
    end = min(i for i in (lines[line].find(",", start), lines[line].find("]", start)) if i >= 0)
    lines[line] = lines[line][:start] + HUGE_INT + lines[line][end:]
    trace_path.write_text("".join(lines))
    rc = main(["analyze", str(trace_path), "--out", str(tmp_path / "x")])
    assert _assert_input_error(rc, capsys).startswith(f"error: {message}")


@pytest.mark.filterwarnings("error")  # an overflow warning escapes as an exception
def test_analyze_rejects_a_huge_normal_without_a_warning(tmp_path, trace_path, capsys):
    header, frame = trace_path.read_text().splitlines()[:2]
    frame = json.loads(frame)
    frame["trackables"][0]["normal"] = [1e200, 0.0, 0.0]
    trace_path.write_text(header + "\n" + json.dumps(frame) + "\n")
    rc = main(["analyze", str(trace_path), "--out", str(tmp_path / "x")])
    err = _assert_input_error(rc, capsys)
    assert err == "error: run.jsonl:2 trackable 'table': normal must be unit length, got |n|=inf\n"


def test_analyze_rejects_a_huge_polygon_without_a_traceback(tmp_path, trace_path, capsys):
    # Python's ** 2 overflows on these vertices; the polygon is not simple, and no exception escapes
    header, frame = trace_path.read_text().splitlines()[:2]
    frame = json.loads(frame)
    frame["trackables"][0]["verts"] = [[-1e300, -1e300], [1e300, -1e300], [1e300, 1e300], [-1e300, 1e300]]
    trace_path.write_text(header + "\n" + json.dumps(frame) + "\n")
    rc = main(["analyze", str(trace_path), "--out", str(tmp_path / "x")])
    err = _assert_input_error(rc, capsys)
    assert err == "error: run.jsonl:2 trackable 'table': polygon must be simple (no self-intersection)\n"


@pytest.mark.parametrize("where", ["trackable-id", "plane-id", "file-name"])
def test_a_line_break_in_an_id_or_file_name_stays_on_the_one_error_line(tmp_path, trace_path,
                                                                         capsys, where):
    if where == "plane-id":
        scene_path = tmp_path / "scene.json"
        save_scene(_scene(), scene_path)
        d = json.loads(scene_path.read_text())
        d["planes"][0].update(id="a\nb", extents=[0.6, "0.5"])
        scene_path.write_text(json.dumps(d))
        rc = main(["compare", str(scene_path), "--runs", "1"])
        want = ("malformed scene: plane 'a\\nb' extents must be a list of 2 finite numbers, "
                "got [0.6, '0.5']")
    else:
        header, line = trace_path.read_text().splitlines()[:2]
        frame = json.loads(line)
        frame["trackables"][0]["normal"] = [0.0, 2.0, 0.0]
        tid, name = ("pad\nx", "run.jsonl") if where == "trackable-id" else ("table", "nl\nx.jsonl")
        frame["trackables"][0]["id"] = tid
        path = tmp_path / name
        path.write_text(header + "\n" + json.dumps(frame) + "\n")
        rc = main(["analyze", str(path), "--out", str(tmp_path / "x")])
        want = (f"{name}:2 trackable '{tid}': normal must be unit length, got |n|=2.00000000"
                .replace("\n", "\\n"))
    err = _assert_input_error(rc, capsys)
    assert err == f"error: {want}\n"
    assert len(err.splitlines()) == 1


def _with_huge_pose(line):
    """The frame line with column 0 of its first trackable's pose scaled by 1e306.

    Every number stays finite, but local x lands on infinite pixels.
    """
    frame = json.loads(line)
    pose = frame["trackables"][0]["pose"]
    pose[:4] = [v * 1e306 for v in pose[:4]]
    return json.dumps(frame)


def test_analyze_rejects_a_non_finite_projection_without_a_traceback(tmp_path, trace_path, capsys):
    header, frame = trace_path.read_text().splitlines()[:2]
    trace_path.write_text(header + "\n" + _with_huge_pose(frame) + "\n")
    rc = main(["analyze", str(trace_path), "--out", str(tmp_path / "x")])
    err = _assert_input_error(rc, capsys)
    assert err == ("error: frame at 0 ms: trackable 'table' vertex 0 (-0.6, -0.5) projects to "
                   "screen coordinates that are not finite numbers within ±1e+150 px\n")


def test_analyze_rejects_a_huge_finite_projection_without_a_traceback(tmp_path, trace_path, capsys):
    # a copy of the table as 'lid', 1 m nearer the camera, with column 0 of its pose scaled
    # by 1e155: every number and every pixel is finite, but the pixels lie near 1e158, where
    # Python's ** 2 of their differences overflows as the table's occluder is cut up
    header, line = trace_path.read_text().splitlines()[:2]
    frame = json.loads(line)
    lid = json.loads(json.dumps(frame["trackables"][0]))
    lid["id"] = "lid"
    lid["pose"][:4] = [v * 1e155 for v in lid["pose"][:4]]
    lid["pose"][13] += 1.0
    lid["center"][1] += 1.0
    frame["trackables"].append(lid)
    trace_path.write_text(header + "\n" + json.dumps(frame) + "\n")
    rc = main(["analyze", str(trace_path), "--out", str(tmp_path / "x")])
    err = _assert_input_error(rc, capsys)
    assert err == ("error: frame at 0 ms: trackable 'lid' vertex 0 (-0.6, -0.5) projects to "
                   "screen coordinates that are not finite numbers within ±1e+150 px\n")


def test_a_non_finite_projection_comes_before_a_later_read_error(tmp_path, trace_path, capsys):
    # line 2 is analysed before line 5 is read when frames go one at a time, so its fault wins,
    # though both lines fall in one block of frames
    header, *frames = trace_path.read_text().splitlines()
    lines = [header, _with_huge_pose(frames[0]), *frames[1:3], "{not json", *frames[3:10]]
    trace_path.write_text("\n".join(lines) + "\n")
    rc = main(["analyze", str(trace_path), "--out", str(tmp_path / "x")])
    err = _assert_input_error(rc, capsys)
    assert err.startswith("error: frame at 0 ms: trackable 'table' vertex 0 ")
    # without the bad pose, the read error is the first fault
    lines[1] = frames[0]
    trace_path.write_text("\n".join(lines) + "\n")
    rc = main(["analyze", str(trace_path), "--out", str(tmp_path / "x")])
    assert _assert_input_error(rc, capsys).startswith("error: run.jsonl:5: invalid JSON: ")
