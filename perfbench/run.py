"""
The exform benchmark.

    python3 perfbench/run.py --workload coin-matching --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One run measures one workload in this process, with one caller in a closed
loop: set-up (import of exform, input generation, anything built once) is
repeated and its median reported, then whole passes of ops run one after
the other, and every op's output is checked.  The number of passes is
``--seconds`` divided by the workload's nominal pass time, so a run of a
given length always does the same work.  With ``--trace 0`` the run prints
the end-to-end metrics, with times scaled to a reference machine speed
(see ``clock.py``).  With ``--trace 1`` it runs the ops untraced, then
traced, then untraced again, and prints the per-layer metrics per pass.
The last line of standard output is one JSON object; a record of the run
goes to ``perfbench/out``.  ``--all`` runs every workload, each in a fresh
process, and prints one table.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SECONDS = 3   # set-up repeats 3 to 7 times, until it has taken this long

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MiB"))


def _workloads():
    from perfbench import workloads
    return {w.name: w for w in (
        workloads.CoinMatching(), workloads.ExitRace(), workloads.Preemption(),
        workloads.CliStructure(OUT / "work"))}


def run_record(seed):
    """What the numbers were measured on."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(), "commit": commit, "seed": seed,
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _describe(exc):
    return "".join(traceback.format_exception_only(exc)).strip()


class Record(NamedTuple):
    number: int      # the pass
    kind: str
    begin: int       # perf_counter_ns at the start of the op
    latency: int     # ns
    problem: object  # None, or what is wrong with the output
    output: object


def measure(workload, X, state, passes, tracer, clock):
    """Run the passes' ops back to back; returns one record per op, whose
    latency leaves out the time the clock's sampling took."""
    records = []
    for number, ops in enumerate(passes):
        seen = {}
        for op in ops:
            with tracer.op(len(records)):
                stolen = clock.stolen
                begin = time.perf_counter_ns()
                try:
                    output, problem = workload.execute(X, state, op, tracer), None
                except Exception as exc:   # a crashing op is a failed op
                    output, problem = None, _describe(exc)
                latency = time.perf_counter_ns() - begin - (clock.stolen - stolen)
            if problem is None:
                try:
                    problem = workload.check(state, op, output, seen)
                except Exception as exc:   # so is one whose output breaks its check
                    problem = _describe(exc)
            seen[op] = output
            records.append(Record(number, op.kind, begin, latency, problem, output))
    return records


def scaled(records, clock):
    """Each op's latency in ms at the reference speed."""
    return [r.latency * clock.scale(r.begin, r.begin + r.latency) / 1e6
            for r in records]


def draw_passes(workload, state, seed, seconds):
    rng = random.Random(f"{workload.name}:{seed}:ops")
    count = max(1, round(seconds / workload.PASS_SECONDS))
    return [workload.pass_ops(state, rng) for _ in range(count)]


def tail(values):
    """The highest percentile with at least ten samples beyond it, and its
    label; the maximum when there are fewer than eleven samples."""
    values = sorted(values)
    n = len(values)
    if n < 11:
        return values[-1], "p100"
    return values[n - 11], f"p{100 * (n - 10) / n:.1f}"


def set_up(workload, seed, size):
    from perfbench import inputs
    X = inputs.load_exform()
    return X, workload.setup(X, random.Random(f"{workload.name}:{seed}:setup"), size)


def end_to_end(setups, records, passes, latencies):
    """The end-to-end metrics as (value, samples, note), from set-up times
    in s and op latencies in ms."""
    busy = [0.0] * len(passes)
    for r, ms in zip(records, latencies):
        busy[r.number] += ms / 1e3
    tail_ms, label = tail(latencies)
    n = len(records)
    return {
        "setup_s": (statistics.median(setups), len(setups), "median of set-ups"),
        "ops_per_s": (statistics.median(len(ops) / t for ops, t in zip(passes, busy)),
                      len(passes), "median of passes"),
        "op_p50_ms": (statistics.median(latencies), n, "ops"),
        "op_tail_ms": (tail_ms, n, f"{label} of ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        1, "process"),
    }


def untraced(workload, seed, seconds, size):
    from perfbench.clock import REFERENCE_NS, Clock
    from perfbench.spans import NullTracer
    setups = []   # (begin, ns) of each set-up
    with Clock() as clock:
        while len(setups) < 3 or (len(setups) < 7
                                  and sum(t for _, t in setups) < SETUP_SECONDS * 1e9):
            X = state = None
            gc.collect()
            stolen = clock.stolen
            begin = time.perf_counter_ns()
            X, state = set_up(workload, seed, size)
            setups.append((begin, time.perf_counter_ns() - begin - (clock.stolen - stolen)))
        passes = draw_passes(workload, state, seed, seconds)
        records = measure(workload, X, state, passes, NullTracer(), clock)
    metrics = end_to_end([t * clock.scale(b, b + t) / 1e9 for b, t in setups],
                         records, passes, scaled(records, clock))
    raw = end_to_end([t / 1e9 for _, t in setups], records, passes,
                     [r.latency / 1e6 for r in records])
    speed = statistics.median(REFERENCE_NS / c for c in clock.costs)
    return records, passes, metrics, {"unscaled": {m: v[0] for m, v in raw.items()},
                                      "machine_speed": speed}


def traced(workload, seed, seconds, size):
    from perfbench import inputs, spans
    from perfbench.clock import Clock
    # the clock stays stopped: its samples would land in the spans
    tracer, clock = spans.Tracer(), Clock()
    X = inputs.load_exform()
    tracer.install(X)
    with tracer.window(), tracer.span("bench.setup"):
        state = workload.setup(X, random.Random(f"{workload.name}:{seed}:setup"), size)
    tracer.uninstall()
    # a first untraced run of the passes warms caches up; the same passes
    # then run traced, and once more untraced for the overhead
    passes = draw_passes(workload, state, seed, seconds / 3)
    first = measure(workload, X, state, passes, spans.NullTracer(), clock)
    start = len(tracer.start)
    for key in tracer.counters:
        tracer.counters[key] = 0
    tracer.install(X)
    try:
        with tracer.window():
            records = measure(workload, X, state, passes, tracer, clock)
    finally:
        tracer.uninstall()
    plain = measure(workload, X, state, passes, spans.NullTracer(), clock)
    overhead = sum(r.latency for r in records) / sum(r.latency for r in plain) - 1
    stats = tracer.layer_stats(start)
    layers = spans.layer_metrics(stats, tracer.counters, len(passes), overhead)
    OUT.mkdir(parents=True, exist_ok=True)
    dump = OUT / f"{workload.name}-seed{seed}-spans.tsv.gz"
    tracer.dump(dump)
    # the same ops must give the same outputs with and without tracing
    mismatched = sum(not a.output == b.output == c.output
                     for a, b, c in zip(first, records, plain))
    extra = {"absent": tracer.absent, "span_dump": str(dump.relative_to(ROOT)),
             "spans": len(tracer.start), "traced_wall_s": stats["traced_ns"] / 1e9,
             "self_s": stats["self_ns"] / 1e9,
             "unspanned_s": stats["unspanned_ns"] / 1e9,
             "times_add_up": stats["adds_up"], "output_mismatches": mismatched,
             # every span name of the traced ops, per pass, by self time
             "by_span": {name: {"calls": calls / len(passes),
                                "self_s": own / 1e9 / len(passes),
                                "total_s": total / 1e9 / len(passes)}
                         for name, (calls, own, total) in sorted(
                             stats["ops"].items(), key=lambda kv: -kv[1][1])}}
    return first + records + plain, passes, layers, extra


def run(name, seed, seconds, trace, size="full"):
    """One run of one workload; returns the result record."""
    workload = _workloads()[name]
    record = {"workload": name, "size": size, "seconds": seconds,
              "trace": trace, **run_record(seed)}
    if trace:
        from perfbench.spans import METRICS
        records, passes, layers, extra = traced(workload, seed, seconds, size)
        units = {m: u for m, u, _ in METRICS}
        metrics = {m: {"value": v, "unit": units[m], "samples": len(passes),
                       "note": "in set-up" if m.endswith("setup_s") else "per pass"}
                   for m, v in layers.items()}
    else:
        records, passes, raw, extra = untraced(workload, seed, seconds, size)
        units = dict(END_TO_END)
        metrics = {m: {"value": v, "unit": units[m], "samples": k, "note": note}
                   for m, (v, k, note) in raw.items()}
    record.update(extra)
    failures = [f"{r.kind}: {r.problem}" for r in records if r.problem]
    if trace and (record["output_mismatches"] or not record["times_add_up"]):
        failures.append("traced run disagrees with the untraced run or its times")
    record.update({"passes": len(passes), "attempted": len(records),
                   "failed": len(failures), "failures": failures[:20],
                   "failed_ratio": len(failures) / len(records),
                   "metrics": metrics})
    return record


def _metric_lines(record):
    return [f"  {name:42} {m['value']:14.6g} {m['unit']:6} "
            f"({m['note']}, n={m['samples']})"
            for name, m in record["metrics"].items()]


def report(record):
    """Human-readable lines, the result file, and the last-line JSON."""
    print(f"{record['workload']} seed {record['seed']}: {record['passes']} "
          f"pass(es), {record['attempted']} ops, {record['failed']} failed "
          f"(failed_ratio {record['failed_ratio']:g}, "
          f"{record['failed']}/{record['attempted']})")
    print("\n".join(_metric_lines(record)))
    if "unscaled" in record:
        print(f"  machine speed {record['machine_speed']:.3f} of the reference; "
              "unscaled: " + ", ".join(f"{m} {v:.6g}" for m, v
                                       in record["unscaled"].items()))
    for name, span in list(record.get("by_span", {}).items())[:5]:
        print(f"  largest self time: {name} {span['self_s']:.4g} s per pass "
              f"({span['total_s']:.4g} s with its children)")
    for problem in record["failures"]:
        print(f"  FAILED {problem}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": v["value"], "unit": v["unit"]}
                    for m, v in record["metrics"].items()}}))


def run_all(args):
    """Every workload, each in a fresh process, as one table."""
    for name in _workloads():
        command = [sys.executable, __file__, "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--size", args.size]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        record = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json")
                            .read_text())
        print(f"{name}: failed_ratio {record['failed_ratio']:g} "
              f"({record['failed']}/{record['attempted']} ops)")
        print("\n".join(_metric_lines(record)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "exform" / "__init__.py").is_file():
        sys.stderr.write(f"no exform sources under {ROOT / 'src'}\n")
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.all:
        return run_all(args)
    if args.workload not in _workloads():
        parser.error(f"--workload must be one of {', '.join(_workloads())}")
    report(run(args.workload, args.seed, args.seconds, args.trace, args.size))
    return 0


if __name__ == "__main__":
    sys.exit(main())
