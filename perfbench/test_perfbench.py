"""Smoke test of the benchmark itself: tiny sweeps, no timing thresholds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checks import OutputCheck

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_GMI = dict(format="pb6b8d", demapper="mlm", snr_start=3.0, snr_stop=3.1,
                snr_step=0.1, frames=256)
TINY_BER = dict(format="pb6b8d", demapper="posd", p=2, snr_start=4.0, snr_stop=4.1,
                snr_step=0.1, target_errors=1, max_frames=64,
                ldpc="builtin:n=240,rate=0.5,seed=1")
SEED = 3  # not the default seed, so only the invariants and repeat checks apply


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and send the result files to a temporary directory."""
    for name, w in list(run.WORKLOADS.items()):
        params = TINY_GMI if w.sweep == "gmi" else TINY_BER
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(w, params=params))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "MIN_CYCLES", 2)
    return tmp_path


def test_benchmark_json_matches_the_benchmark():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_end_to_end_run_reports_every_metric(tiny, name):
    result = run.run(name, SEED, seconds=0.01, trace=False)
    line = run.contract_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())
    saved = json.loads((tiny / f"{name}-seed{SEED}-trace0.json").read_text())
    assert saved["manifest"]["seed"] == SEED
    assert saved["manifest"]["nproc"] >= 1 and saved["manifest"]["numpy"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(tiny, name):
    result = run.run(name, SEED, seconds=0.01, trace=True)
    metrics = run.contract_line(result)["metrics"]
    assert result["failed"] == 0
    assert {k: v["unit"] for k, v in metrics.items()} == run.per_layer_units()
    assert not any(result["nonrepeating_counts"].values())
    assert result["missing_hooks"] == []
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["harness.batches_used"] >= 1
    if run.WORKLOADS[name].pooled and run.usable_cores() > 1:
        assert value["harness.pool_wait_s"] > 0
    else:
        # Layer busy times plus the harness's own time make up the traced wall time.
        parts = [v for k, v in value.items() if k.endswith(".busy_s")]
        parts += [value["trace.other_layers_s"], value["harness.self_s"],
                  value["harness.pool_wait_s"]]
        assert math.isclose(sum(parts), value["trace.wall_s"], rel_tol=1e-9)
    sweep = run.WORKLOADS[name].sweep
    demapper = "mlm" if sweep == "gmi" else "posd"
    assert value[f"demap.demap_{demapper}_batch.symbols"] > 0
    assert (value["fec.ldpc_decode_ms_batch.frames"] > 0) == (sweep == "ber")


def test_corrupted_result_row_raises_error_rate(tiny, monkeypatch):
    harness, _ = run.load_program()
    real = harness.run_gmi_sweep

    def corrupted(cfg):
        rows = real(cfg)
        return [dataclasses.replace(rows[0], gmi_bits=7.5)] + rows[1:]

    monkeypatch.setattr(harness, "run_gmi_sweep", corrupted)
    result = run.run("gmi-serial", SEED, seconds=0.01, trace=False)
    line = run.contract_line(result)
    assert not line["correct"]
    assert line["failed"] >= 1 and result["error_rate"] > 0
    assert any("gmi_bits" in p for p in result["problems"])


def test_output_check_compares_bytes_and_invariants(tmp_path):
    harness, _ = run.load_program()
    cfg = harness.SimConfig(**TINY_GMI, seed=SEED)
    path = tmp_path / "gmi.csv"
    harness.emit_results(harness.run_gmi_sweep(cfg), str(path))
    text = path.read_text()
    check = OutputCheck(harness.CSV_COLUMNS)
    assert check("a", cfg, "gmi", 6, text) == 0
    assert check("b", cfg, "gmi", 6, text) == 0
    last = text.splitlines()[-1].split(",")
    last[2] = repr(float(last[2]) * 2)          # prefec_ber, still inside [0, 1]
    assert check("c", cfg, "gmi", 6, "\n".join(text.splitlines()[:-1] + [",".join(last)])) == 1
    assert check("d", cfg, "gmi", 6, "\n".join(text.splitlines()[:-1])) == 1
    assert check.attempted == 8 and check.failed == 2


def _cli(cwd: Path, seed: int, workload: str = "gmi-serial"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 2])
def test_cli_passes_output_check_at_default_and_other_seed(seed):
    out = _cli(run.ROOT, seed)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _cli(tmp_path, run.DEFAULT_SEED)
    assert out.returncode != 0
    assert "correct" not in out.stdout
