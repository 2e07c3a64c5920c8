"""The benchmark's own smoke test, at a tiny scale.

    python3 -m pytest bench/test_smoke.py

Every metric BENCHMARK.json names must be emitted with its unit, two runs at one
seed must give one digest, and a traced run must give the same digest as an
untraced one.
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


@lru_cache(maxsize=None)
def run(workload: str, trace: int, attempt: int = 0) -> tuple[dict, str]:
    """Result JSON and digest of one smoke-scale run; ``attempt`` only keys the cache."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "0.1"]
    proc = subprocess.run(cmd + ["--trace", str(trace), "--scale", "smoke"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith(f"digest {workload} "))
    return json.loads(lines[-1]), digest


def test_spec_metrics_have_unit_and_direction():
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert metric["unit"] and metric["better"] in ("higher", "lower"), metric
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(workload, trace, kind):
    result, _ = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_and_tracing_does_not_change_it(workload):
    _, first = run(workload, 0)
    _, second = run(workload, 0, attempt=1)
    _, traced = run(workload, 1)
    assert first == second == traced != "none"


def test_traced_run_shows_the_workload_split():
    layers = {w: {k: m["value"] for k, m in run(w, 1)[0]["metrics"].items()} for w in WORKLOADS}
    assert layers["paper-grid"]["audio.clips_augmented"] == 0
    assert layers["paper-grid"]["audio.augment_clip_ms_per_audio_s"] == 0
    assert layers["augment-da"]["audio.clips_augmented"] > 0
    assert layers["augment-da"]["model.train_steps"] == 0 and layers["augment-da"]["model.train_step_n"] == 0
    assert layers["paper-grid"]["model.train_steps"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
