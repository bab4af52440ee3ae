"""The benchmark at smoke scale: it runs, measures everything and checks itself."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    command = [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), "--smoke", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_every_metric_is_printed_with_a_finite_value(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    out = bench("--seed", "3", "--ledger", str(ledger))
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in BENCHMARK["workloads"]:
        for spec in BENCHMARK["end_to_end"]:
            metric = result["metrics"][f"{workload['name']}/{spec['name']}"]
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"]) and metric["value"] > 0
            assert any(spec["name"] in line and spec["unit"] in line for line in lines[:-1])
    entries = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert [entry["workload"] for entry in entries] == [w["name"] for w in BENCHMARK["workloads"]]
    assert all(entry["seed"] == 3 and entry["smoke"] for entry in entries)


def test_traced_run_reports_every_layer_metric(tmp_path):
    trace = tmp_path / "spans.jsonl"
    out = bench("--seed", "3", "--workload", "compile-cold", "--trace", "1",
                "--trace-file", str(trace), "--ledger", str(tmp_path / "ledger.jsonl"))
    assert out.returncode == 0, out.stdout + out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    for spec in BENCHMARK["per_layer"]:
        assert math.isfinite(metrics[spec["name"]]["value"]), spec["name"]
    assert metrics["trace.coverage_pct"]["value"] >= 95.0
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert any(row.get("name") == "schedule.linear" for row in rows)
    assert "compile" in rows[-1]["by_op"]


def test_image_digest_repeats_for_a_seed(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    for _ in range(2):
        assert bench("--seed", "5", "--workload", "compile-cold", "--ledger", str(ledger)).returncode == 0
    digests = {json.loads(line)["details"]["image_digest"] for line in ledger.read_text().splitlines()}
    assert len(digests) == 1


def test_fails_without_the_toolchain_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__", "results", ".work"))
    out = bench("--seed", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip().startswith("{")
