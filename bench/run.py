"""playtrace benchmark: end-to-end metrics per workload, or a traced per-layer split.

    python3 bench/run.py --workload pack-compare --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/`` and driven through ``playtrace.cli.main`` in this
process, one thread, one pass after another.  Set-up renders the inputs in
separate processes (see render.py).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (CLI invocations)
and ``metrics``.  The lines above it print the same metrics for people,
and a full record goes to ``.bench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 3        # setup_s is the median of this many renders
MIN_PASSES = 3           # untraced passes, however short --seconds is
MIN_TRACED_PAIRS = 2     # (untraced, traced) pass pairs in a traced run
COVERAGE_FLOOR = 0.90    # top-level spans must cover this share of a pass
SETUP_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
from probe import Probe  # noqa: E402
from workloads import WORKLOADS, answer_invocations, pooled_gsr, timed_invocations  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-reference",
        action="store_true",
        help=f"store this run's output digests for its seed in {REFERENCE.name}",
    )
    return p.parse_args(argv)


def import_program():
    """playtrace.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "playtrace" / "__init__.py").is_file():
        raise SystemExit(f"bench: no playtrace sources under {src}")
    sys.path.insert(0, str(src))
    import playtrace.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "playtrace").resolve():
        raise SystemExit(f"bench: imported playtrace from {cli.__file__}, not {src}")
    return cli


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def stats(samples: list[tuple[float, float]]) -> dict:
    """Median and quartiles of (wall, slowdown) samples, raw and probe-corrected."""
    out = {"n": len(samples)}
    for key, values in (
        ("raw", [wall for wall, _ in samples]),
        ("corrected", [wall / slowdown for wall, slowdown in samples]),
    ):
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[key] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def reference_digests(workload: str, seed: int, fp: dict) -> tuple[dict | None, str]:
    """Stored output digests for this workload and seed, if they apply here."""
    if not REFERENCE.is_file():
        return None, "no reference file"
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    digests = ref["digests"].get(workload, {}).get(str(seed))
    if digests is None:
        return None, f"no reference digests for seed {seed}"
    made_on = ref["fingerprint"]
    if (made_on["python"], made_on["numpy"]) != (fp["python"], fp["numpy"]):
        return None, (
            f"reference made with Python {made_on['python']}, numpy {made_on['numpy']}"
        )
    return digests, f"checked against stored digests for seed {seed}"


class Runner:
    """Runs CLI invocations and checks each one's exit status and outputs.

    An invocation fails when it raises, exits non-zero, leaves an output
    missing, or writes bytes that differ from an earlier pass of this run or
    from the stored reference.
    """

    def __init__(self, main, work: Path, reference: dict | None) -> None:
        self.main = main
        self.work = work
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, invocations, main=None) -> tuple[float, float]:
        """One pass: its wall time and the machine slowdown the probe saw meanwhile.

        Outputs are checked after the clock stops.
        """
        main = main or self.main
        sink = io.StringIO()
        results = []
        with redirect_stdout(sink), redirect_stderr(sink), Probe() as probe:
            start = time.perf_counter()
            for inv in invocations:
                try:
                    results.append(main(list(inv.argv)))
                except (Exception, SystemExit):
                    results.append(traceback.format_exc())
            wall = time.perf_counter() - start
        for inv, result in zip(invocations, results):
            self._check(inv, result, sink.getvalue())
        return wall, probe.slowdown()

    def _check(self, inv, result, log: str) -> None:
        self.attempted += 1
        problem = None
        if result != 0:
            problem = f"exit {result!r}; output:\n{log[-2000:]}"
        for rel in inv.outputs:
            if problem:
                break
            path = self.work / rel
            if not path.is_file():
                problem = f"missing output {rel}"
                continue
            digest = sha256(path)
            expected = self.digests.setdefault(rel, digest)
            if self.reference is not None:
                expected = self.reference.get(rel)
            if digest != expected:
                problem = f"{rel}: sha256 {digest[:12]} differs from {str(expected)[:12]}"
        if problem:
            self.failed += 1
            self.problems.append(f"`playtrace {inv.argv[0]}` failed: {problem}")

    def output_bytes(self, invocations) -> int:
        return sum((self.work / rel).stat().st_size for inv in invocations for rel in inv.outputs)


def set_up(
    workload: str, seed: int, inputs: Path, problems: list[str]
) -> list[tuple[float, float]]:
    """Render the inputs SETUP_REPEATS times in fresh processes.

    Returns the wall time of each and the slowdown its probe reported.
    """
    times = []
    first = None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        cmd = [
            sys.executable, str(BENCH / "render.py"),
            "--workload", workload, "--seed", str(seed), "--out", str(inputs),
        ]
        start = time.perf_counter()
        done = subprocess.run(
            cmd, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            text=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append((time.perf_counter() - start, json.loads(done.stdout)["slowdown"]))
        digests = {p.name: sha256(p) for p in sorted(inputs.iterdir())}
        if first is None:
            first = digests
        elif digests != first:
            problems.append("set-up rendered different inputs for the same seed")
    return times


def measure(args, cli, work: Path, fp: dict) -> dict:
    reference, ref_note = reference_digests(args.workload, args.seed, fp)
    runner = Runner(cli.main, work, reference)
    setup_times = set_up(args.workload, args.seed, work / "in", runner.problems)
    (work / "out").mkdir()
    timed = timed_invocations(args.workload, args.seed, work)
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": fp,
        "reference": ref_note,
        "setup_s": stats(setup_times),
    }
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        from tracing import Tracer, pass_layers

        tracer = Tracer()
        plain: list[tuple[float, float]] = []
        traced: list[tuple[float, float]] = []
        while len(traced) < MIN_TRACED_PAIRS or (
            time.perf_counter() + plain[-1][0] + traced[-1][0] <= deadline
        ):
            plain.append(runner.run(timed))
            pass_id = tracer.begin_pass()
            tracer.install()
            try:
                traced.append(runner.run(timed, tracer.wrap("cli.main", cli.main)))
            finally:
                tracer.uninstall()
            tracer.counts[pass_id]["reporting.bytes_written"] = runner.output_bytes(timed)
        per_pass = [
            pass_layers([s for s in tracer.spans if s[5] == i], tracer.counts[i], wall)
            for i, (wall, _) in enumerate(traced)
        ]
        for i, layers in enumerate(per_pass):
            if layers["tracing.span_coverage"] < COVERAGE_FLOOR:
                runner.problems.append(
                    f"traced pass {i}: top-level spans cover only "
                    f"{layers['tracing.span_coverage']:.1%} of its wall time"
                )
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        record.update(untraced_pass_s=stats(plain), traced_pass_s=stats(traced))
        metrics["tracing_overhead_s"] = (
            record["traced_pass_s"]["corrected"]["median"]
            - record["untraced_pass_s"]["corrected"]["median"]
        )
        record.update(
            missing_hooks=sorted(tracer.missing),
            span_count=len(tracer.spans),
        )
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        with gzip.open(spans_file, "wt", encoding="utf-8") as fh:
            fh.write('["id", "parent", "name", "start_s", "end_s", "pass"]\n')
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        passes: list[tuple[float, float]] = []
        while len(passes) < MIN_PASSES or time.perf_counter() + passes[-1][0] <= deadline:
            passes.append(runner.run(timed))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["pass_s"] = stats(passes)
        metrics = {
            "wall_s": record["pass_s"]["corrected"]["median"],
            "setup_s": record["setup_s"]["corrected"]["median"],
            "peak_rss_mb": peak_mb,
        }
    answers = answer_invocations(args.workload, args.seed, work)
    runner.run(answers)
    if not args.trace:
        guided, rand = pooled_gsr(args.workload, args.seed, work)
        metrics["guided_gsr"] = guided
        metrics["gsr_lift_pp"] = 100.0 * (guided - rand)
        record["random_gsr"] = rand
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        runner.problems.append(
            f"metrics {sorted(set(metrics) ^ set(units))} are not both declared and measured"
        )
    record.update(
        metrics={k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        digests=runner.digests,
    )
    return record


def report(record: dict) -> None:
    fp = record["fingerprint"]
    print(
        f"playtrace benchmark: workload {record['workload']}, seed {record['seed']}, "
        f"trace {record['trace']} (nproc {fp['nproc']}, {fp['machine']}, "
        f"Python {fp['python']}, numpy {fp['numpy']})"
    )
    print(f"outputs: {record['reference']}")
    for key in ("setup_s", "pass_s", "untraced_pass_s", "traced_pass_s"):
        if key in record:
            s = record[key]
            for kind in ("raw", "corrected"):
                q = s[kind]
                print(
                    f"  {key + ' ' + kind:<38} median {q['median']:.4f} s, "
                    f"q1 {q['q1']:.4f}, q3 {q['q3']:.4f}, n {s['n']}"
                )
    for name, m in record["metrics"].items():
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    ratio = record["failed"] / record["attempted"]
    print(
        f"  {'failed_ratio':<38} {ratio:>14.6g} ratio "
        f"({record['failed']} of {record['attempted']} CLI invocations)"
    )
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")


def record_reference(record: dict) -> None:
    if record["problems"]:
        raise SystemExit("bench: not recording digests of a run with problems")
    ref = {"fingerprint": record["fingerprint"], "digests": {}}
    if REFERENCE.is_file():
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ref["digests"].setdefault(record["workload"], {})[str(record["seed"])] = record["digests"]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    fp = fingerprint()
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = measure(args, cli, work, fp)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    if args.record_reference:
        record_reference(record)
    report(record)
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
