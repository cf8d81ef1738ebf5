"""The benchmark's own tests: smoke runs of every workload, and proof that the checks bite.

Run from the repository root with `python3 -m pytest -q perfbench/tests`.
"""

import json
import shutil
import struct
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def flip_first_index_byte(kbq: Path) -> None:
    blob = bytearray(kbq.read_bytes())
    (length,) = struct.unpack_from("<I", blob, 4)
    manifest = json.loads(blob[8:8 + length])
    offset, _ = next(iter(manifest["tensors"].values()))["sections"]["indices"]
    blob[offset] ^= 0xFF
    kbq.write_bytes(bytes(blob))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [workloads.SINGLE, workloads.CHAIN])
def test_flipped_index_byte_raises_error_rate(workload, trace, tmp_path):
    args = Namespace(workload=workload, seed=5, seconds=1, trace=trace, smoke=True)
    result, report = run.measure(args, tmp_path, mutate_kbq=flip_first_index_byte)
    assert result["failed"] > 0 and not result["correct"]
    assert report["detail"]["error_rate"] > 0
    assert any("nearest code" in line for line in report["failures"])


def test_traced_self_times_add_up_to_wall_time(tmp_path):
    args = Namespace(workload=workloads.CHAIN, seed=2, seconds=1, trace=1, smoke=True)
    result, report = run.measure(args, tmp_path)
    assert result["correct"]
    assert report["detail"]["closure_error_s"] < 1e-6
    metrics = report["metrics"]
    assert metrics["outliers.rows_kept"] > 0 and metrics["store.kbq_bytes"] > 0


def test_outputs_and_digests_repeat_for_a_seed(tmp_path):
    args = Namespace(workload=workloads.SINGLE, seed=9, seconds=1, trace=0, smoke=True)
    first = run.measure(args, tmp_path)[1]["digests"]
    assert first == run.measure(args, tmp_path)[1]["digests"]
    assert set(first) == {"kbq", "decoded"}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(workloads.SINGLE, 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
