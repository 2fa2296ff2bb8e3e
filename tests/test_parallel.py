"""analyze over several trace files on helper processes: no byte, no error and no process changes.

Each test runs once with the machine's usable CPUs and, where it patches
pipeline.usable_cpus, with a fixed count, so a one-CPU machine checks the
one-process loop and the forced counts still check the helpers.
"""

from __future__ import annotations

import dataclasses
import errno
import os
from pathlib import Path

import pytest

import oracles
from playtrace import pipeline
from playtrace.cli import main
from playtrace.pipeline import run_boxes, trace_runs
from playtrace.scenes import benchmark_scene
from playtrace.simulator import generate_trace
from playtrace.trace import deadline_walk, iter_blocks, load_trace, read_header, save_trace

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


def _serial(paths):
    """(RunBoxes, t_ms of the last frame) of each path: the one-process loop of analyze."""
    out = []
    for p in paths:
        walk = deadline_walk(read_header(p)[0], FPS)
        out.append((run_boxes(iter_blocks(p, walk)), walk.last_ms))
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
