"""
The benchmark's own tests: every workload runs at a tiny size and prints
its metrics, tracing leaves op outputs unchanged, and every pinned
expectation is live.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import clock, run, spans, workloads  # noqa: E402

NAMES = ("coin-matching", "exit-race", "preemption", "cli-structure")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def test_spec_names_the_metrics_the_runs_print():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(spans.METRICS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_tiny_run_prints_every_metric(name, trace):
    done = bench("--workload", name, "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    assert "(failed_ratio 0," in lines[0]
    record = json.loads((ROOT / "perfbench" / "out" /
                         f"{name}-seed5-trace{trace}.json").read_text())
    for key in ("python", "nproc", "loadavg_start", "commit", "seed"):
        assert key in record
    if trace == "0":
        assert set(record["unscaled"]) == set(result["metrics"])
        assert record["machine_speed"] > 0
    assert all(m["samples"] >= 1 for m in record["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_outputs_and_times_consistent(name):
    record = run.run(name, 7, 1, 1, size="tiny")
    assert record["output_mismatches"] == 0
    assert record["times_add_up"]
    assert record["absent"] == []
    assert record["failed"] == 0


def test_overlapping_spans_do_not_add_up():
    tracer = spans.Tracer()
    with tracer.window():
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
    assert tracer.layer_stats(0)["adds_up"]
    tracer.end[0] = tracer.end[1]   # the first root now overlaps the second
    assert not tracer.layer_stats(0)["adds_up"]


def test_a_removed_name_shows_as_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("play", "gone"),))
    record = run.run("exit-race", 7, 1, 1, size="tiny")
    assert record["absent"] == ["play.gone"]
    assert record["failed"] == 0


def _flip_first_verdict():
    first = workloads.CoinMatching.CHECKS[0]
    return (first[:-1] + (not first[-1],),) + workloads.CoinMatching.CHECKS[1:]


def _shift_first_payoff():
    checks = list(workloads.CoinMatching.CHECKS)
    k = next(k for k, c in enumerate(checks) if c[0] == "payoffs")
    checks[k] = checks[k][:-1] + ((("i", (Fraction(0),)), ("j", (Fraction(0),))),)
    return tuple(checks)


WRONG = [
    ("coin-matching", workloads.CoinMatching, "CHECKS", _flip_first_verdict()),
    ("coin-matching", workloads.CoinMatching, "CHECKS", _shift_first_payoff()),
    ("exit-race", workloads.ExitRace, "THRESHOLD", Fraction(1, 3)),
    ("exit-race", workloads.ExitRace, "PAYOFF", Fraction(9, 5)),
    ("preemption", workloads.Preemption, "SPLIT", Fraction(1, 4)),
    ("preemption", workloads.Preemption, "TILTS", ((0, 0), (1, 1), (2, 2), (3, 4))),
    ("cli-structure", workloads.CliStructure, "VALIDATE",
     {"valid": True, "perfect_recall": True, "perfect_information": False}),
]


@pytest.mark.parametrize("name, owner, attr, value", WRONG,
                         ids=[f"{w[0]}-{w[2]}" for w in WRONG])
def test_a_wrong_expectation_counts_as_a_failed_op(monkeypatch, name, owner,
                                                   attr, value):
    monkeypatch.setattr(owner, attr, value)
    record = run.run(name, 9, 0.5, 0, size="tiny")
    assert record["failed"] >= 1
    assert record["failed_ratio"] > 0


def test_grid_counts_must_match_the_batch():
    check = workloads.Preemption().check
    state = {"trials": 3}
    batch = workloads.Op("batch", 1)
    grid = workloads.Op("grid", 1)
    counts = (("sole-1", 1), ("sole-2", 1), ("simultaneous", 1))
    mesh = Fraction(1, 2 ** workloads.Preemption.GRID_N)
    seen = {batch: (counts, (0, 0))}
    assert check(state, grid, (mesh, counts), seen) is None
    other = (("sole-1", 2), ("sole-2", 0), ("simultaneous", 1))
    assert check(state, grid, (mesh, other), seen) is not None


def test_clock_samples_and_scales_by_them():
    with clock.Clock() as running:
        end = time.perf_counter_ns() + 200_000_000
        while time.perf_counter_ns() < end:
            pass
    assert len(running.costs) >= 4 and running.stolen > 0
    assert running.scale(running.times[0], running.times[-1]) \
        == clock.REFERENCE_NS * len(running.costs) / sum(running.costs)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(100))) == (89, "p90.0")
    assert run.tail([3, 1, 2]) == (3, "p100")


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "preemption", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
