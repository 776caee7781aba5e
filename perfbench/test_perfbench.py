"""The benchmark's own tests: smoke runs of every workload, the
plain-dict references against the oracle, count determinism, and the
clean failure without the program under test.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from repro.core.bag import Bag
from repro.engine import evaluate

from perfbench import bench, metrics, reference
from perfbench.workloads import (
    WORKLOADS, Request, nest_group, random_graph, select_join_dedup,
    sym_diff_chain, union_dedup_cascade,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

#: Counts that must repeat exactly for a fixed seed.
COUNTS = ("engine.cache.hit_rate", "engine.cache.evictions",
          "planner.rule_firings", "engine.codegen.fused_segments",
          "engine.codegen.barrier_fallbacks", "engine.parallel.morsels",
          "engine.parallel.bytes_shipped")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(workload, seed, trace, cwd=ROOT, seconds="0.5"):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_every_metric_and_workload():
    spec = _benchmark_json()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, "closed loop, 1 client: " + cls.why)
        for name, cls in WORKLOADS.items()]
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == {
        name: (unit, better)
        for name, (unit, better, _) in metrics.PER_LAYER.items()}


def _counts(bag):
    return dict(bag.items())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_references_agree_with_the_oracle(seed):
    rng = random.Random(seed)
    data = {name: random_graph(rng, 6, 24)
            for name in ("X", "Y", "L", "R", "G", "A0", "A1", "A2")}
    counts = {name: _counts(bag) for name, bag in data.items()}
    cases = [
        (sym_diff_chain(3), reference.sym_diff_chain(
            counts["X"], counts["Y"], 3)),
        (select_join_dedup("L", "R"),
         reference.join_dedup(counts["L"], counts["R"])),
        (union_dedup_cascade(4, ["A0", "A1", "A2"]),
         reference.union_dedup_cascade(
             [counts["A0"], counts["A1"], counts["A2"]], 4)),
        (nest_group("G"), reference.nest_unnest_group(counts["G"])),
    ]
    for expr, answer in cases:
        assert _counts(evaluate(expr, data, engine="tree")) == answer


def test_a_wrong_answer_is_counted_not_filtered():
    checker = bench.Checker()
    request = Request(0, "adhoc", sym_diff_chain(1), {},
                      reference=lambda: Bag(["a"]))
    assert checker.check(request, "ok", Bag(["b"])) is True
    assert checker.wrong == 1 and not checker.correct
    shared = Request(1, "adhoc", sym_diff_chain(1), {},
                     reference=lambda: (_ for _ in ()).throw(
                         RecursionError()))
    # the reference refuses too: the governed outcome, not a failure
    assert checker.check(shared, "refused", None) is False
    assert checker.shared_refusals == 1
    # the reference answers: the refusal is a failure
    alone = Request(2, "adhoc", sym_diff_chain(1), {},
                    reference=lambda: Bag(["a"]))
    assert checker.check(alone, "refused", None) is True
    assert checker.refused == 2 and checker.shared_refusals == 1


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_checks_every_result(workload, trace, tmp_path):
    result = bench.run(workload, 3, 0.3, bool(trace), scale="smoke",
                       out_dir=str(tmp_path))
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(expected)
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
        assert value["unit"] == expected[name][0]
    if trace:
        spans = [name for name in os.listdir(tmp_path)
                 if name.startswith("trace-")]
        assert spans
    else:
        assert result["metrics"]["setup_s"]["value"] > 0
        assert result["metrics"]["latency_p50_ms"]["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly_for_a_fixed_seed(workload):
    runs = []
    for _ in range(2):
        done = _run(workload, 5, 1)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    first, second = (run["metrics"] for run in runs)
    for name in COUNTS:
        assert first[name] == second[name], name
    if workload == "bulk-serial":
        assert first["engine.parallel.morsels"]["value"] > 0
        assert first["engine.parallel.bytes_shipped"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "warm-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env=env)
    assert done.returncode != 0
    assert "{" not in done.stdout
