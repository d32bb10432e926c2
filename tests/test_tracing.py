"""The benchmark's span tracer over a tiny newcomer sweep.

perfbench's tracer wraps fedsim names from outside the package and
reads some counts off their arguments, such as `len()` of `evaluate`'s
4th positional argument. A renamed function or a changed call turns its
per-layer metrics null, and the benchmark's result line is then
malformed. This test catches that in the main suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from fedsim.experiment import config_from_entries, emit_report, run_sweep

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_newcomer_sweep_has_every_metric(tmp_path):
    tracing = load_tracing()
    # two cells of one round and one run; C * N = 1 makes the gfl window one round
    cfg = config_from_entries({
        "preset": "gfl2",
        "federation.rounds": "1",
        "federation.sample_rate": "0.05",
        "train.epochs": "1",
        "algo.ft_epochs": "1",
        "model.layer_split": "2",
        "newcomer": "true",
        "runs": "1",
        "sweep.algorithm": "fedavg_ft,clustered",
    })

    def operation():
        rows, errors = run_sweep(cfg)
        assert not errors
        return emit_report(rows, tmp_path, cfg, errors=errors)

    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.op = 0
        tracer.wrap(tracing.ROOT_SPAN, operation)()
    summary = tracer.summarize(1)
    assert tracer.notes == []
    assert [name for name, value in summary.items() if value is None] == []
    assert summary["model.evaluate_calls"] > 0 and summary["model.evaluate_rows"] > 0
