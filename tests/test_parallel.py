"""analyze over several trace files, or byte ranges of one, on helper processes: no byte, no
error and no process changes.

Each test runs once with the machine's usable CPUs and, where it patches
pipeline.usable_cpus, with a fixed count, so a one-CPU machine checks the
one-process loop and the forced counts still check the helpers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import json
import os
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from playtrace import pipeline
from playtrace.cli import main
from playtrace.pipeline import AnalysisParams, run_boxes, trace_runs, walk_joins
from playtrace.scenes import benchmark_scene
from playtrace.simulator import generate_trace
from playtrace.trace import TraceFile, deadline_walk, load_trace, save_trace

# 6 s of noisy-trio: vertex noise and a few dropouts in every run
SCENE = dataclasses.replace(benchmark_scene("noisy-trio"), duration_ms=6000)
FPS = 10.0


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Eight recordings of SCENE, jitter seeds 0 to 7."""
    folder = tmp_path_factory.mktemp("traces")
    paths = [folder / f"run{r}.jsonl" for r in range(8)]
    for r, path in enumerate(paths):
        save_trace(generate_trace(SCENE, r), path)
    return [str(p) for p in paths]


@pytest.fixture(autouse=True)
def no_child_is_left():
    """After each test this process has no child: none running, none a zombie."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial(paths, fps=FPS):
    """(RunBoxes, t_ms of the last frame) of each path: the one-process loop of analyze."""
    out = []
    for p in paths:
        with TraceFile(p) as trace:
            walk = deadline_walk(trace.fps, fps)
            out.append((run_boxes(trace.read_blocks(walk)), walk.last_ms))
    return out


def _assert_same_runs(got, want):
    assert len(got) == len(want)
    for (run, end), (ref, ref_end) in zip(got, want):
        oracles.assert_same_run(run, ref)
        assert end == ref_end


@pytest.mark.parametrize("n", [2, 3, 8])
def test_helpers_change_no_byte_of_the_outputs(tmp_path, monkeypatch, traces, n):
    argv = ["analyze", *traces[:n]]
    assert main([*argv, "--out", str(tmp_path / "machine")]) == 0
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: n)   # one worker per run
    assert main([*argv, "--out", str(tmp_path / "per-run")]) == 0
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    assert main([*argv, "--out", str(tmp_path / "one")]) == 0
    oracles.eager_outputs([load_trace(p) for p in traces[:n]], tmp_path / "eager")
    for name in ("machine", "per-run", "eager"):
        oracles.assert_same_outputs(tmp_path / name, tmp_path / "one")


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_one_helper_per_usable_cpu_past_the_first(monkeypatch, traces, cpus):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    _assert_same_runs(list(trace_runs(traces[:3], FPS)), _serial(traces[:3]))
    assert len(forks) == min(3, cpus) - 1


def _bad(path, folder):
    """A copy of the trace whose third line has a view that is not a number."""
    lines = Path(path).read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace('"view": [', '"view": [null, ', 1)
    out = folder / f"bad-{Path(path).name}"
    out.write_text("".join(lines))
    return str(out)


def _analyze(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("cpus", [None, 3], ids=["machine", "3-cpus"])
@pytest.mark.parametrize("case", ["run-1-bad", "runs-0-and-1-bad", "run-1-missing"])
def test_the_first_fault_in_argument_order_is_the_serial_one(
    tmp_path, monkeypatch, capsys, traces, cpus, case
):
    paths = list(traces[:3])
    if case == "run-1-missing":
        paths[1] = str(tmp_path / "missing.jsonl")
    else:
        paths[1] = _bad(paths[1], tmp_path)
    if case == "runs-0-and-1-bad":
        paths[0] = _bad(paths[0], tmp_path)
    argv = ["analyze", *paths, "--out", str(tmp_path / "out")]
    if cpus is not None:
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    rc, err = _analyze(argv, capsys)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    assert (rc, err) == _analyze(argv, capsys)
    first = paths[0] if case == "runs-0-and-1-bad" else paths[1]
    assert err.startswith("error: ") and err.count("\n") == 1
    assert Path(first).name in err
    if case == "run-1-missing":
        assert rc == 2 and "No such file" in err
    else:
        assert rc == 1 and "view" in err
    assert not (tmp_path / "out").exists()


def test_a_trace_that_can_be_read_once_is_read_once(tmp_path, traces):
    # /dev/fd/N of a pipe gives its bytes once, so its header and frames must come from one
    # open.  The pipe is run 0, which this process reads: a forked helper holds a copy of the
    # write end until it exits, so a pipe read in a helper would never end.
    read, write = os.pipe()
    text = Path(traces[0]).read_bytes()

    def feed():
        with open(write, "wb") as out, contextlib.suppress(BrokenPipeError):
            out.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        piped = ["analyze", f"/dev/fd/{read}", *traces[1:3], "--out", str(tmp_path / "pipe")]
        assert main(piped) == 0
    finally:
        os.close(read)   # a writer still blocked gets BrokenPipeError
        writer.join()
    assert main(["analyze", *traces[:3], "--out", str(tmp_path / "file")]) == 0
    assert (tmp_path / "pipe" / "report.json").read_bytes() == (
        tmp_path / "file" / "report.json").read_bytes()


def test_stopping_after_the_first_run_leaves_no_helper(monkeypatch, traces):
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 3)
    runs = trace_runs(traces[:3], FPS)
    _assert_same_runs([next(runs)], _serial(traces[:1]))
    runs.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupt_in_the_caller_leaves_no_helper(monkeypatch, traces):
    caller = os.getpid()

    def interrupted(frames):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return run_boxes(frames)

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "run_boxes", interrupted)
    with pytest.raises(KeyboardInterrupt):
        list(trace_runs(traces[:3], FPS))


def test_the_runs_of_a_helper_that_died_are_computed_by_the_caller(monkeypatch, traces):
    caller = os.getpid()

    def dying(frames):
        if os.getpid() != caller:
            os._exit(1)
        return run_boxes(frames)

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "run_boxes", dying)
    _assert_same_runs(list(trace_runs(traces[:5], FPS)), _serial(traces[:5]))


def test_a_failed_fork_leaves_its_runs_to_the_caller(monkeypatch, traces):
    def failing():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", failing)
    _assert_same_runs(list(trace_runs(traces[:3], FPS)), _serial(traces[:3]))


# ------------------------------------------------------------ one file in byte ranges

SHORT_ARGS = ["--min-lifespan", "0.5"]   # so that every pad's spans reach the report


@pytest.fixture(scope="module")
def short(tmp_path_factory):
    """3 s of SCENE at 30 fps (90 frame lines): pads a, b and c appear at 0.5, 1 and 2 s."""
    path = tmp_path_factory.mktemp("short") / "run.jsonl"
    save_trace(generate_trace(dataclasses.replace(SCENE, duration_ms=3000), 1), path)
    return path


@pytest.fixture
def fallbacks(monkeypatch):
    """One entry, its number of ranges, for each file trace_runs cut into ranges and then read
    whole in this process, because a range raised or the ranges did not join."""
    calls = []
    stitched = pipeline._stitched

    def counted(ranges, source_fps, fps):
        run = stitched(ranges, source_fps, fps)
        if run is None:
            calls.append(len(ranges))
        return run

    monkeypatch.setattr(pipeline, "_stitched", counted)
    return calls


def _cut_at(monkeypatch, *cuts):
    """A file is cut into the ranges between the byte offsets cuts, on len(cuts) + 1 CPUs."""
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: len(cuts) + 1)
    monkeypatch.setattr(TraceFile, "spans", lambda self, n: list(zip((0, *cuts), (*cuts, None))))


def _line_starts(path):
    """The byte offset of every line start after the first line, but not the file's end."""
    data = Path(path).read_bytes()
    return [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")]


def _outputs(argv, out):
    assert main([*argv, "--out", str(out)]) == 0
    return [(out / name).read_bytes() for name in ("report.json", "gantt.svg")]


def _serial_outputs(monkeypatch, argv, out):
    with monkeypatch.context() as one:
        one.setattr(pipeline, "usable_cpus", lambda: 1)
        return _outputs(argv, out)


def test_a_cut_at_any_line_start_changes_no_byte(tmp_path, monkeypatch, short, fallbacks):
    argv = ["analyze", str(short), *SHORT_ARGS]
    oracles.eager_outputs([load_trace(short)], tmp_path / "eager",
                          AnalysisParams(min_lifespan_s=0.5))
    want = _serial_outputs(monkeypatch, argv, tmp_path / "serial")
    oracles.assert_same_outputs(tmp_path / "serial", tmp_path / "eager")
    assert len(json.loads(want[0])["opportunities"]) >= 3
    for cut in _line_starts(short):
        _cut_at(monkeypatch, cut)
        assert _outputs(argv, tmp_path / "cut") == want, cut
    # only the cut before the first frame line leaves a range with no frame
    assert fallbacks == [2]


@pytest.mark.parametrize("fps", ["10", "30", "45"])   # 30 fps is the recorded rate
@pytest.mark.parametrize("ends", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
def test_two_to_five_ranges_change_no_byte(tmp_path, monkeypatch, short, fallbacks, fps, ends):
    path = tmp_path / "run.jsonl"
    path.write_bytes(short.read_bytes().replace(b"\n", ends))
    argv = ["analyze", str(path), "--fps", fps, *SHORT_ARGS]
    want = _serial_outputs(monkeypatch, argv, tmp_path / "serial")
    serial = _serial([path], float(fps))
    for cpus in (2, 3, 4, 5):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        with TraceFile(path) as trace:
            spans = trace.spans(cpus)
        assert len(spans) == cpus and all(
            path.read_bytes()[start - 1:start] == b"\n" for start, _ in spans[1:])
        _assert_same_runs(list(trace_runs([str(path)], float(fps))), serial)
        assert _outputs(argv, tmp_path / f"{cpus}-ranges") == want, cpus
    assert fallbacks == []


def test_a_trace_with_carriage_returns_only_is_one_range(tmp_path, monkeypatch, short):
    path = tmp_path / "run.jsonl"
    path.write_bytes(short.read_bytes().replace(b"\n", b"\r"))
    with TraceFile(path) as trace:
        assert trace.spans(4) == [(0, None)]
    argv = ["analyze", str(path), *SHORT_ARGS]
    want = _serial_outputs(monkeypatch, argv, tmp_path / "serial")
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 4)
    assert _outputs(argv, tmp_path / "four") == want


@pytest.mark.parametrize("case", ["at-a-cut", "range-of-blanks"])
def test_blank_lines_at_a_cut(tmp_path, monkeypatch, short, fallbacks, case):
    # three blank lines after frame line 40: a cut in them splits frames as any cut does; a
    # range of blank lines alone has no frame, so the whole file is read in one walk
    lines = short.read_bytes().splitlines(keepends=True)
    path = tmp_path / "run.jsonl"
    path.write_bytes(b"".join([*lines[:41], b"\n", b"  \r\n", b"\t\n", *lines[41:]]))
    blanks = len(b"".join(lines[:41]))
    argv = ["analyze", str(path), *SHORT_ARGS]
    want = _serial_outputs(monkeypatch, argv, tmp_path / "serial")
    assert want == _serial_outputs(monkeypatch, ["analyze", str(short), *SHORT_ARGS],
                                   tmp_path / "plain")
    if case == "at-a-cut":
        for cut in (blanks, blanks + 1, blanks + 5, blanks + 7):
            _cut_at(monkeypatch, cut)
            assert _outputs(argv, tmp_path / "cut") == want, cut
        assert fallbacks == []
    else:
        _cut_at(monkeypatch, blanks, blanks + 7)
        assert _outputs(argv, tmp_path / "cut") == want
        assert fallbacks == [3]


def test_a_dropped_first_frame_leaves_no_column_order_behind(tmp_path, monkeypatch, short,
                                                            fallbacks):
    # pads b and c are taken out of every frame before 2033 ms, which lists them as c, b;
    # the walk at 10 fps keeps 2000 ms and drops 2033 ms, so the file's columns come in the
    # order of the next kept frame, 2100 ms: a, b, c.  A range starting at 2033 ms keeps it,
    # and its first frame is a part of its own that the resync drops.
    lines = short.read_text().splitlines(keepends=True)
    at = None
    for n, line in enumerate(lines[1:], start=1):
        frame = json.loads(line)
        ids = [t["id"] for t in frame["trackables"]]
        if frame["t_ms"] < 2033:
            frame["trackables"] = [t for t in frame["trackables"] if t["id"] == "pad-a"]
        elif frame["t_ms"] == 2033:
            assert ids == ["pad-a", "pad-b", "pad-c"]
            frame["trackables"] = [frame["trackables"][i] for i in (0, 2, 1)]
            at = n
        lines[n] = json.dumps(frame) + "\n"
    path = tmp_path / "run.jsonl"
    path.write_text("".join(lines))
    serial = _serial([path], FPS)
    assert list(serial[0][0].boxes) == ["pad-a", "pad-b", "pad-c"]
    assert 2033 not in serial[0][0].timestamps_ms
    argv = ["analyze", str(path), *SHORT_ARGS]
    want = _serial_outputs(monkeypatch, argv, tmp_path / "serial")
    _cut_at(monkeypatch, len("".join(lines[:at])))
    _assert_same_runs(list(trace_runs([str(path)], FPS)), serial)
    assert _outputs(argv, tmp_path / "cut") == want
    assert fallbacks == []


@pytest.mark.parametrize("case", ["range-0-bad", "range-1-bad", "screen-at-the-cut",
                                  "time-back-at-the-cut"])
def test_a_fault_in_any_range_is_the_serial_one(tmp_path, monkeypatch, capsys, short, fallbacks,
                                                case):
    lines = short.read_text().splitlines(keepends=True)
    edit = {"range-0-bad": 3, "range-1-bad": 80}.get(case, 45)
    frame = json.loads(lines[edit])
    if case == "screen-at-the-cut":
        frame["screen"] = [frame["screen"][0] + 1, frame["screen"][1]]
    elif case == "time-back-at-the-cut":
        frame["t_ms"] = json.loads(lines[edit - 1])["t_ms"]
    else:
        frame["view"][0] = None
    lines[edit] = json.dumps(frame) + "\n"
    path = tmp_path / "run.jsonl"
    path.write_text("".join(lines))
    argv = ["analyze", str(path), "--out", str(tmp_path / "out")]
    with monkeypatch.context() as one:
        one.setattr(pipeline, "usable_cpus", lambda: 1)
        want = _analyze(argv, capsys)
    assert want[0] == 1 and want[1].startswith(f"error: {path.name}")
    _cut_at(monkeypatch, len("".join(lines[:45])))
    assert _analyze(argv, capsys) == want
    assert fallbacks == [2]
    assert not (tmp_path / "out").exists()


def test_a_pipe_is_one_range(tmp_path, monkeypatch, short):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 4)
    read, write = os.pipe()
    text = short.read_bytes()

    def feed():
        with open(write, "wb") as out, contextlib.suppress(BrokenPipeError):
            out.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = _outputs(["analyze", f"/dev/fd/{read}", *SHORT_ARGS], tmp_path / "pipe")
    finally:
        os.close(read)
        writer.join()
    assert forks == []
    assert got == _serial_outputs(monkeypatch, ["analyze", str(short), *SHORT_ARGS],
                                  tmp_path / "file")


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_one_file_forks_one_helper_per_usable_cpu_past_the_first(monkeypatch, traces, fallbacks,
                                                                  cpus):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    _assert_same_runs(list(trace_runs(traces[:1], FPS)), _serial(traces[:1]))
    assert len(forks) == cpus - 1
    assert fallbacks == []


def test_the_ranges_of_a_helper_that_died_are_computed_by_the_caller(monkeypatch, traces,
                                                                   fallbacks):
    caller = os.getpid()

    def dying(frames):
        if os.getpid() != caller:
            os._exit(1)
        return run_boxes(frames)

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "run_boxes", dying)
    _assert_same_runs(list(trace_runs(traces[:1], FPS)), _serial(traces[:1]))
    assert fallbacks == []


def test_the_ranges_of_a_failed_fork_are_computed_by_the_caller(monkeypatch, traces, fallbacks):
    def failing():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", failing)
    _assert_same_runs(list(trace_runs(traces[:1], FPS)), _serial(traces[:1]))
    assert fallbacks == []


def test_stopping_after_the_first_file_of_ranges_leaves_no_helper(monkeypatch, traces):
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 4)
    runs = trace_runs(traces[:2], FPS)
    _assert_same_runs([next(runs)], _serial(traces[:1]))
    runs.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupt_in_a_range_of_the_caller_leaves_no_helper(monkeypatch, traces):
    caller = os.getpid()

    def interrupted(frames):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return run_boxes(frames)

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "run_boxes", interrupted)
    with pytest.raises(KeyboardInterrupt):
        list(trace_runs(traces[:1], FPS))


# (source fps, analysis fps) of the walk periods 1000/3, 1000/7 and 100 ms, and of a walk
# that keeps every timestamp
_WALKS = [(30.0, 3.0), (30.0, 7.0), (30.0, 10.0), (30.0, 30.0)]
_STARTS = st.one_of(st.integers(-2**53, -2**53 + 10**6), st.integers(-10**6, 10**6),
                    st.integers(2**53 - 2 * 10**6, 2**53 - 10**6))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_WALKS), _STARTS, st.lists(st.integers(1, 10**4), min_size=1, max_size=40),
       st.sets(st.integers(1, 40), min_size=1, max_size=4))
# near -2**53 and 2**53 a frame the file's walk drops, just under its deadline, can set the
# deadline a period later when a range's walk keeps it: the join must say it cannot
@example((30.0, 3.0), -9007199254740333, [333, 1, 332], {1})
@example((30.0, 7.0), 9007199254738572, [142, 1, 142], {1, 2})
def test_ranges_keep_what_one_walk_keeps_or_say_they_cannot(walk, start, gaps, cuts):
    times = [start]
    for gap in gaps:
        times.append(times[-1] + gap)
    cuts = sorted(c for c in cuts if c < len(times)) or [1]

    def kept(ts):
        keep = deadline_walk(*walk)
        return [t for t in ts if keep(t)]

    stitched: list[int] = []
    for lo, hi in zip([0, *cuts], [*cuts, len(times)]):
        own = kept(times[lo:hi])
        assert own[0] == times[lo]
        if stitched:
            join = walk_joins(*walk, stitched[-1], own[0])
            if join is None:   # a mismatch is reported, never a different kept set
                return
            own = own if join else own[1:]
        stitched += own
    assert stitched == kept(times)
