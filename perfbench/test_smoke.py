"""Smoke test of the benchmark itself: every workload at minimal size.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs one operation untraced and one traced pair. The tests
check that every metric of BENCHMARK.json is printed with its unit, that
the unranked figures are printed where they are defined, that traced self
times sum to no more than the traced wall time, and that a wrapped name
which no longer exists nulls its metrics instead of failing the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNRANKED = {"gfl1": ("gfl_acc",), "pfl2": ("gfl_acc", "pfl_acc"), "sweep": ()}


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_result(lines: list[str], result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line for line in lines)
    assert any(line.split()[:1] == ["fail_rate"] and "fraction" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    lines, result = bench(workload, 0)
    assert_result(lines, result, SPEC["end_to_end"])
    for name in UNRANKED[workload]:
        assert any(line.split()[:1] == [name] and "fraction" in line for line in lines)
    assert any(line.split()[:1] == ["digest"] for line in lines)
    assert any(line.startswith("env ") and "blas_threads=" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer(workload):
    lines, result = bench(workload, 1)
    assert_result(lines, result, SPEC["per_layer"])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    layer_self = sum(v for name, v in values.items() if name.startswith("layer."))
    assert 0.0 < layer_self <= values["trace.wall_s"] + 1e-6
    assert values["model.sgd_steps"] >= values["model.local_train_calls"] > 0


def test_missing_wrapped_name_gives_null(monkeypatch):
    """A renamed or deleted fedsim function nulls its metrics, not the run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from worker import import_fedsim

    fedsim = import_fedsim()
    gone = ("fedsim.federation", "_run_clients_renamed", "federation.clients", None)
    monkeypatch.setattr(tracing, "TARGETS", (*tracing.TARGETS, gone))
    cfg = fedsim.experiment.config_from_entries({"preset": "pfl2", "federation.rounds": "4"})
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.wrap(tracing.ROOT_SPAN, fedsim.experiment.run_single)(cfg, 1)
    figures = tracer.summarize(1)
    assert any("_run_clients_renamed" in note for note in tracer.notes)
    assert figures["layer.model_s"] is None and figures["federation.self_s"] is None
    assert figures["model.train_finetune_s"] > 0 and figures["model.sgd_steps"] > 0
    assert not hasattr(fedsim.federation._local_train, "__wrapped__")  # originals restored
