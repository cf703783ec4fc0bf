"""pathinv benchmark: time to a verdict on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

One process, one client, no threads: a closed loop runs the workload's
operations one after another, pass after pass, until `--seconds` of
measured time is used up (a pass is not started when the mean pass so
far would overrun). Times are scaled to a reference machine speed by a
calibration loop around every timed call. Every verdict is checked
against an answer known without pathinv; see README.md for the
workloads and metrics.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates
untraced and traced passes and prints the per-layer metrics of the
traced ones, plus the tracing overhead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from workloads import Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# set-up (import, program generation and parsing) is repeated and its
# median reported, so one slow import does not move setup_s
SETUP_REPEATS = 7

# The speed of this kind of shared machine drifts by up to 30% within
# seconds, with neighbours' load. Every timed region is therefore
# bracketed by a fixed calibration loop (benchmark code, independent of
# pathinv), and its wall time is scaled to a machine on which that loop
# takes CALIBRATION_REF_S. The loop allocates, hashes and walks small
# objects, as pathinv does; on a 2-vCPU VM it cut the spread of pass
# medians between 10-second windows from 17% to 4% (a pure arithmetic
# loop only to 9%). Per-layer times (the traced run) are not scaled.
CALIBRATION_ITEMS = 25_000
CALIBRATION_REF_S = 0.02


def calibration_s() -> float:
    t0 = perf_counter()
    table = {}
    for i in range(CALIBRATION_ITEMS):
        table[(i, i & 7)] = (i, str(i))
    total = 0
    for key, value in table.items():
        total += key[1] + len(value[1])
    return perf_counter() - t0


class Clock:
    """Times calls in wall seconds and in seconds scaled to the reference
    speed, by the mean of the calibration loops just before and after."""

    def __init__(self):
        self._last = calibration_s()
        self.raw_s = 0.0   # every timed second so far, unscaled

    def time(self, fn, *args):
        """Returns (fn's result, scaled seconds)."""
        t0 = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t0
        after = calibration_s()
        scaled = raw * CALIBRATION_REF_S * 2 / (self._last + after)
        self._last = after
        self.raw_s += raw
        return result, scaled


END_TO_END_UNITS = {
    "pass_s": "s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "smt.script_bytes":
        return "bytes"
    if name == "candidates.checked_per_found":
        return "ratio"
    return "count"


class Run:
    """One workload's operations and everything measured on them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.clock = Clock()
        self.setup_s: list[float] = []
        for _ in range(SETUP_REPEATS):
            (self.mods, self.ops), t = self.clock.time(self.set_up)
            self.setup_s.append(t)
        self.first: dict = {}          # op name -> record of its first run
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outcomes: dict = {}
        self.raw_passes: list[float] = []

    def set_up(self):
        mods = workloads.import_pathinv(SRC)
        return mods, workloads.build_ops(self.workload, self.seed, ROOT, mods)

    def one_pass(self, tracer=None) -> tuple[float, list[float], list]:
        """Run every operation once; returns (pass seconds, per-operation
        seconds, results), in scaled seconds. Only pathinv's work is timed;
        the pass time is the sum of its operations' times."""
        times, results = [], []
        raw0 = self.clock.raw_s
        for op in self.ops:
            if tracer is None:
                res, t = self.clock.time(workloads.guarded_run, op, self.mods)
            else:
                res, t = self.clock.time(tracer.operation, op.name, workloads.guarded_run,
                                         op, self.mods)
            times.append(t)
            results.append(res)
        self.raw_passes.append(self.clock.raw_s - raw0)
        self.check(results)
        return sum(times), times, results

    def check(self, results):
        """Count and check outcomes outside the timed region. The first run
        of an operation is checked independently; later runs must give a
        byte-identical record."""
        for op, res in zip(self.ops, results):
            self.attempted += 1
            problem = res.detail if res.outcome == Outcome.FAILED else ""
            if op.name not in self.first:
                self.first[op.name] = res.record
                self.outcomes[op.name] = res.outcome
                problem = problem or workloads.check_result(op, res, self.mods)
            elif res.record != self.first[op.name]:
                problem = problem or "record differs from the first pass"
            if problem:
                self.failed += 1
                self.problems.append(f"{op.name}: {problem}")

    def digest(self) -> str:
        return workloads.digest(list(self.first.values()))

    def solved_frac(self) -> float:
        return sum(o == Outcome.SOLVED for o in self.outcomes.values()) / len(self.outcomes)


def measure(run: Run, seconds: float) -> dict:
    passes, per_op = [], [[] for _ in run.ops]
    start = run.clock.raw_s
    while True:
        pass_s, times, _ = run.one_pass()
        passes.append(pass_s)
        for samples, t in zip(per_op, times):
            samples.append(t)
        used = run.clock.raw_s - start
        if used + used / len(passes) > seconds:
            break
    # each operation's time is its median over the passes; p50 and p90
    # are taken over the operations
    op_ms = [statistics.median(samples) * 1000 for samples in per_op]
    cuts = statistics.quantiles(op_ms, n=10, method="inclusive")
    verdicts = f"over {len(op_ms)} operations, each the median of {len(passes)} passes"
    notes = {"pass_s": f"median of {len(passes)} passes; "
                       f"unscaled {statistics.median(run.raw_passes):.4f} s",
             "verdict_ms.p50": verdicts,
             "verdict_ms.p90": verdicts,
             "setup_s": f"median of {len(run.setup_s)} set-ups"}
    metrics = {
        "pass_s": statistics.median(passes),
        "verdict_ms.p50": statistics.median(op_ms),
        "verdict_ms.p90": cuts[8],
        "solved_frac": run.solved_frac(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(run.setup_s),
    }
    return {name: (value, END_TO_END_UNITS[name], notes.get(name, ""))
            for name, value in metrics.items()}


def measure_traced(run: Run, seconds: float) -> dict:
    """Alternate untraced and traced passes. Per-layer times are medians
    over the traced passes; counts must repeat exactly on every one."""
    tracer = tracing.Tracer(run.mods)
    tracer.install()
    try:
        # parsing happens in set-up; trace one more parse of the workload
        run.ops = workloads.build_ops(run.workload, run.seed, ROOT, run.mods)
        parse_ms = tracer.total["frontend.parse"] * 1000
        untraced, traced, per_pass, spans = [], [], [], []
        start = run.clock.raw_s
        while True:
            tracer.uninstall()
            pass_s, _, plain = run.one_pass()
            untraced.append(pass_s)
            tracer.install()
            tracer.reset()
            pass_s, _, results = run.one_pass(tracer)
            traced.append(pass_s)
            m = tracer.metrics()
            per_pass.append(m)
            spans = tracer.spans
            if [r.record for r in plain] != [r.record for r in results]:
                run.problems.append("traced and untraced passes differ in their verdicts")
            queries = sum(r.smt_queries for r in results)
            if m["smt.queries"] != queries:
                run.problems.append(f"traced smt.queries {m['smt.queries']} != reports' {queries}")
            used = run.clock.raw_s - start
            if used + used / len(traced) > seconds:
                break
    finally:
        tracer.uninstall()
    for name in tracing.COUNT_METRICS + ("trace.spans",):
        if len({m[name] for m in per_pass}) > 1:
            run.problems.append(f"count {name} differs between traced passes")
    metrics = {name: (statistics.median(m[name] for m in per_pass), layer_unit(name), "")
               for name in per_pass[0]}
    metrics["frontend.parse_ms"] = (parse_ms, "ms", "one parse of the workload, in set-up")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s",
        f"traced minus untraced pass_s, medians of {len(traced)} passes each")
    write_spans(run, spans)
    return metrics


def write_spans(run: Run, spans):
    """The last traced pass's spans, one JSON object a line, times in
    microseconds from the pass's first span."""
    OUT.mkdir(exist_ok=True)
    t0 = min((s[4] for s in spans), default=0.0)
    path = OUT / f"spans-{run.workload}-seed{run.seed}.jsonl"
    with path.open("w") as f:
        for sid, parent, op, name, start, end in spans:
            f.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                "start_us": round((start - t0) * 1e6),
                                "end_us": round((end - t0) * 1e6)}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pathinv").is_dir() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: no pathinv sources and corpus under {ROOT}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    solver = run.mods["smt"].bundled_solver().name
    print(f"env: solver={solver} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    metrics = (measure_traced if args.trace else measure)(run, args.seconds)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<32} {value:>14.4f} {unit:<6} {note}")
    print(f"digest: {run.digest()}  ({len(run.first)} operations, time-zeroed reports)")
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
