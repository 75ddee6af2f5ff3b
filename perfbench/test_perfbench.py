"""The benchmark's own tests, on the tiny "smoke" cases.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_what_run_reports():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s") <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = invoke("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_PASSES
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float | int) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    detail = json.loads(next(x for x in lines if x.startswith("detail "))[7:])
    assert detail["env"]["numba"] in ("absent", "present")
    assert {"python", "numpy", "blas", "nproc", "cpu", "caches"} <= set(detail["env"])


def test_traced_counts_repeat_exactly():
    counts = ("kernels.rows_classified", "kernels.bytes_computed",
              "kernels.classify_row.calls", "scheme.intersection_number_closed.calls")
    seen = []
    for seed in (1, 2):
        proc = invoke("--workload", "large_n", "--seed", str(seed), "--seconds", "0.2",
                      "--trace", "1", "--scale", "smoke")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        seen.append([metrics[c]["value"] for c in counts])
    assert seen[0] == seen[1] and all(v > 0 for v in seen[0])


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("--workload", "large_q", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(40)]
    value, percentile = run.tail(values)
    assert sum(1 for v in values if v > value) == 10
    assert percentile == 75.0


def test_compare_verdicts():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    same = [v * 1.01 for v in parent]
    noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
    for change, want in ((faster, "better"), (slower, "worse"), (same, "unchanged")):
        assert compare.verdict(parent, change, list(zip(parent, change)), 0.1)[0] == want
    assert compare.verdict(noisy, same, list(zip(noisy, same)), 0.1)[0] == "unresolved"
    assert compare.verdict(parent, faster, list(zip(parent, faster)), 0.1)[1] == 10
