"""Span tracing installed from outside the package.

Wrappers replace the module-level names that fedsim's callers bind (for
example `fedsim.federation._local_train`, which the round loop looks up
at call time), so the package itself is not edited. Spans are kept in
memory as (name, start, end, parent span, operation id) and written out
once the run ends. A name that no longer exists is reported, and every
metric that depends on it becomes null, instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, attribute path, span name, count taken from (args, result)).
# A span's layer is the part of its name before the first dot.
TARGETS = (
    ("fedsim.core", "Rng.permutation", "core.permutation", None),
    ("fedsim.experiment", "generate_synthetic", "data.generate", None),
    ("fedsim.experiment", "make_partitions", "partition.make", None),
    ("fedsim.experiment", "attach_local_tests", "partition.attach", None),
    ("fedsim.experiment", "run_federation", "federation.run", None),
    ("fedsim.metrics", "run_federation", "federation.run", None),
    ("fedsim.federation", "sample_clients", "federation.sample", None),
    ("fedsim.federation", "fuse_fedavg", "federation.fuse", None),
    ("fedsim.federation", "fuse_fednova", "federation.fuse", None),
    ("fedsim.federation", "scaffold_client_variate", "federation.fuse", None),
    ("fedsim.federation", "assign_cluster", "federation.assign", None),
    ("fedsim.metrics", "assign_cluster", "federation.assign", None),
    ("fedsim.federation", "_fine_tune_data", "federation.finetune", None),
    ("fedsim.federation", "_local_train", "model.train", lambda a, r: r[1].steps),
    ("fedsim.metrics", "_local_train", "model.train", lambda a, r: r[1].steps),
    ("fedsim.federation", "evaluate", "model.evaluate", lambda a, r: len(a[3])),
    ("fedsim.metrics", "evaluate", "model.evaluate", lambda a, r: len(a[3])),
    ("fedsim.experiment", "compute_report", "metrics.report", None),
    ("fedsim.experiment", "newcomer_protocol", "metrics.newcomer", None),
    ("fedsim.experiment", "run_single", "experiment.run", None),
    ("fedsim.experiment", "run_sweep", "experiment.sweep", None),
    ("fedsim.experiment", "emit_report", "experiment.emit", None),
)
ROOT_SPAN = "bench.op"
LAYERS = ("core", "data", "partition", "model", "federation", "metrics", "experiment", "bench")

# model.train spans are split by the span that called the kernel.
_TRAIN_BY_PARENT = {"federation.finetune": "model.train_finetune", "metrics.newcomer": "model.train_newcomer"}
_TRAIN_ROUND = "model.train_round"
_TRAIN_KINDS = (_TRAIN_ROUND, *_TRAIN_BY_PARENT.values())

# metric -> (statistic, span names, span names whose wrappers it needs)
# Values are per traced operation. "self" statistics need every wrapper,
# because a missing one moves its time into its caller's self time.
_PER_OP = {
    "model.local_train_s": ("incl", _TRAIN_KINDS, ("model.train",)),
    "model.local_train_calls": ("calls", _TRAIN_KINDS, ("model.train",)),
    "model.sgd_steps": ("count", _TRAIN_KINDS, ("model.train",)),
    "model.train_round_s": ("incl", (_TRAIN_ROUND,), ("model.train", "federation.finetune")),
    "model.train_finetune_s": ("incl", ("model.train_finetune",), ("model.train", "federation.finetune")),
    "model.train_newcomer_s": ("incl", ("model.train_newcomer",), ("model.train", "metrics.newcomer")),
    "model.evaluate_s": ("incl", ("model.evaluate",), ()),
    "model.evaluate_calls": ("calls", ("model.evaluate",), ()),
    "model.evaluate_rows": ("count", ("model.evaluate",), ()),
    "core.permutation_s": ("incl", ("core.permutation",), ()),
    "core.permutation_calls": ("calls", ("core.permutation",), ()),
    "federation.self_s": ("self", ("federation.run",), ()),
    "federation.finetune_s": ("incl", ("federation.finetune",), ()),
    "federation.fuse_s": ("incl", ("federation.fuse",), ()),
    "federation.assign_s": ("incl", ("federation.assign",), ()),
    "federation.assign_calls": ("calls", ("federation.assign",), ()),
    "federation.sample_s": ("incl", ("federation.sample",), ()),
    "federation.rounds": ("calls", ("federation.sample",), ()),
    "data.generate_s": ("incl", ("data.generate",), ()),
    "partition.make_s": ("incl", ("partition.make",), ()),
    "partition.attach_s": ("incl", ("partition.attach",), ()),
    "metrics.report_s": ("incl", ("metrics.report",), ()),
    "metrics.newcomer_self_s": ("self", ("metrics.newcomer",), ()),
    "experiment.sweep_self_s": ("self", ("experiment.sweep",), ()),
    "experiment.emit_s": ("incl", ("experiment.emit",), ()),
    **{f"layer.{layer}_s": ("self", (layer,), ()) for layer in LAYERS},
}


class Tracer:
    """Collects nested spans in memory; one instance per traced run."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.missing: set[str] = set()  # span names with a wrapper not installed
        self.uncounted: set[str] = set()  # span names whose count could not be read
        self.notes: list[str] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                try:
                    rec[5] = count(args, result)
                except (AttributeError, IndexError, TypeError):
                    self.uncounted.add(name)
                    self._note(f"{name}: count unreadable from this signature; its counts are null")
            return result

        traced.__wrapped__ = fn
        return traced

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    @contextmanager
    def installed(self):
        """Install every wrapper it can find; restore the originals on exit."""
        patched = []
        for module_name, path, name, count in TARGETS:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                self._note(f"{module_name}.{path} not found; metrics built on {name} are null")
                continue
            setattr(owner, attr, self.wrap(name, original, count))
            patched.append((owner, attr, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, count in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "op": op, "count": count,
                }) + "\n")

    def summarize(self, n_ops: int) -> dict[str, float | None]:
        """Per-operation figures of the finished traced operations."""
        incl: dict[str, float] = {}
        self_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        run_ms = []
        for i, (name, start, end, parent, _, count) in enumerate(self.spans):
            if name == "model.train":
                name = _TRAIN_BY_PARENT.get(self.spans[parent][0] if parent >= 0 else "", _TRAIN_ROUND)
            elif name == "experiment.run":
                run_ms.append((end - start) * 1e3)
            dur = end - start
            for key in (name, name.split(".")[0]):
                incl[key] = incl.get(key, 0.0) + dur
                self_t[key] = self_t.get(key, 0.0) + dur - child[i]
                calls[key] = calls.get(key, 0) + 1
                counts[key] = counts.get(key, 0.0) + (count or 0)
        stats = {"incl": incl, "self": self_t, "calls": calls, "count": counts}
        any_missing = bool(self.missing)
        out: dict[str, float | None] = {}
        for metric, (stat, names, needs) in _PER_OP.items():
            wanted = set(names) | set(needs)
            if (
                (stat == "self" and any_missing)
                or wanted & self.missing
                or (stat == "count" and wanted & self.uncounted)
            ):
                out[metric] = None
                continue
            out[metric] = sum(stats[stat].get(n, 0) for n in names) / n_ops
        steps, train_s = out["model.sgd_steps"], out["model.local_train_s"]
        out["model.step_us"] = train_s / steps * 1e6 if steps and train_s is not None else None
        runs_missing = "experiment.run" in self.missing or not run_ms
        out["experiment.run_ms_p50"] = None if runs_missing else statistics.median(run_ms)
        out["experiment.run_samples"] = None if runs_missing else len(run_ms)
        out["trace.wall_s"] = incl.get(ROOT_SPAN, 0.0) / n_ops
        out["trace.ops"] = n_ops
        return out
