"""Tests of the benchmark itself, on its smoke inputs (a few seconds each).

    python3 -m pytest bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import balanced_partition, paley_blocks  # noqa: E402
from run import END_TO_END, per_layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("p", [7, 11, 19, 23])
def test_paley_blocks_form_a_symmetric_design(p):
    blocks = paley_blocks(p, random.Random(p))
    assert len(blocks) == p and {len(b) for b in blocks} == {(p - 1) // 2}
    for i in range(p):
        for j in range(i + 1, p):
            assert len(set(blocks[i]) & set(blocks[j])) == (p - 3) // 4


def test_inputs_follow_the_seed():
    assert paley_blocks(19, random.Random(5)) == paley_blocks(19, random.Random(5))
    assert paley_blocks(19, random.Random(5)) != paley_blocks(19, random.Random(6))
    halves = balanced_partition(32, random.Random(5))
    assert sorted(halves[0] + halves[1]) == list(range(32))
    assert len(halves[0]) == len(halves[1]) == 16


def test_spec_matches_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == ["paley71", "cli-pg31", "small-ladder"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == per_layer_metrics()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["paley71", "cli-pg31", "small-ladder"])
def test_smoke_run_passes_every_gate(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--trace", str(trace),
                     "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert (BENCH / "out" / f"{workload}-seed3-spans.json").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "small-ladder", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
