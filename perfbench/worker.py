"""Runs one workload in a fresh process and prints its raw figures as JSON.

run.py starts this file twice over: as a set-up probe (`--probe`), which
times a fresh interpreter's `import fedsim` plus config expansion, and as
the measuring worker, with BLAS pinned to one thread. It drives fedsim
only through `config_from_entries`, `run_single`, `run_sweep` and
`emit_report`, and never passes `workers=`.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracing import ROOT_SPAN, Tracer
from workloads import WORKLOADS, op_seed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def import_fedsim():
    """Import the checkout's own fedsim from src/, never an installed copy."""
    pkg = ROOT / "src" / "fedsim"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: {pkg} not found; run from a fedsim checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import fedsim
    import fedsim.experiment  # noqa: F401  (not imported by the package itself)

    if Path(fedsim.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported fedsim from {fedsim.__file__}, not {pkg}")
    return fedsim


@dataclasses.dataclass
class Outcome:
    """One operation: its wall time and the verdict of its output checks."""

    wall: float
    attempted: int
    failed: int
    reasons: list[str]
    digest: str = ""
    gfl: float | None = None
    pfl: float | None = None
    adjusted: float = 0.0  # wall rescaled to nominal machine speed


def _fraction(value) -> bool:
    return value is not None and math.isfinite(value) and 0.0 <= value <= 1.0


def _points(value) -> bool:
    return value is not None and math.isfinite(value) and 0.0 <= value <= 100.0


def _properties(cfg, sizes: list[int], clients_per_round: int) -> dict[str, float]:
    """Input properties a client-vectorising change depends on."""
    batch = cfg.batch_size
    batches = sum(-(-n // batch) for n in sizes)
    return {
        "workload.clients_per_round": clients_per_round,
        "workload.client_n_median": statistics.median(sizes),
        "workload.short_batch_share": sum(n % batch != 0 for n in sizes) / batches,
    }


class SingleOps:
    """One seeded `run_single` of a preset; the run is the unit of failure."""

    def __init__(self, fedsim, workload):
        self.fedsim = fedsim
        self.floor = workload.gfl_floor
        self.cfg = fedsim.experiment.config_from_entries(workload.entries)
        self.personalized = self.cfg.algorithm in fedsim.federation.PERSONALIZED_ALGORITHMS

    def prepare(self, seed: int):
        return seed

    def call(self, seed: int):
        return self.fedsim.experiment.run_single(self.cfg, seed)

    def cleanup(self, seed: int) -> None:
        pass

    def check(self, seed: int, out, wall: float) -> Outcome:
        if isinstance(out, Exception):
            return Outcome(wall, 1, 1, [f"run {seed}: {type(out).__name__}: {out}"])
        report, result, *_ = out
        reasons = []
        gfl, pfl = report.gfl_accuracy, report.pfl_accuracy
        if not _fraction(gfl):
            reasons.append(f"gfl_accuracy {gfl!r} is not a fraction")
        elif gfl < self.floor:
            reasons.append(f"gfl_accuracy {gfl:.4f} below the floor {self.floor}")
        if self.personalized and not _fraction(pfl):
            reasons.append(f"pfl_accuracy {pfl!r} is not a fraction")
        if report.fairness is not None and not _points(report.fairness):
            reasons.append(f"fairness {report.fairness!r} is not in [0, 100]")
        reasons = [f"run {seed}: {r}" for r in reasons]
        return Outcome(wall, 1, int(bool(reasons)), reasons, result.digest(), gfl=gfl, pfl=pfl)

    def properties(self, seed: int, out) -> dict[str, float]:
        partitions = out[2]
        m = self.fedsim.federation.participant_count(self.cfg.n_clients, self.cfg.sample_rate)
        return _properties(self.cfg, [p.n_train for p in partitions], m)


class SweepOps:
    """`run_sweep` plus `emit_report`; each (cell, run) pair is one attempt."""

    def __init__(self, fedsim, workload):
        self.fedsim = fedsim
        self.entries = workload.entries
        self.personalized = fedsim.federation.PERSONALIZED_ALGORITHMS

    def prepare(self, seed: int):
        cfg = self.fedsim.experiment.config_from_entries({**self.entries, "seed": str(seed)})
        OUT_DIR.mkdir(exist_ok=True)
        return cfg, Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT_DIR))

    def call(self, arg):
        cfg, out_dir = arg
        experiment = self.fedsim.experiment
        rows, errors = experiment.run_sweep(cfg)
        paths = experiment.emit_report(rows, out_dir, cfg, errors=errors)
        return rows, paths

    def cleanup(self, arg) -> None:
        shutil.rmtree(arg[1], ignore_errors=True)

    def check(self, arg, out, wall: float) -> Outcome:
        cfg = arg[0]
        expected = len(self.fedsim.experiment.sweep_cells(cfg)) * cfg.runs
        if isinstance(out, Exception):
            return Outcome(wall, expected, expected, [f"sweep: {type(out).__name__}: {out}"])
        rows, paths = out
        emitted = self.fedsim.experiment.parse_csv_rows(paths["csv"].read_text())
        if len(emitted) != len(rows):
            reason = f"results.csv holds {len(emitted)} rows, the sweep returned {len(rows)}"
            return Outcome(wall, expected, expected, [reason])
        per_run: dict[str, list] = {}
        for row in rows:
            if row.seed is not None:
                per_run.setdefault(row.run_id, []).append(row)
        reasons = []
        for run_id, run_rows in per_run.items():
            reason = self._run_fault(cfg, run_rows)
            if reason:
                reasons.append(f"{run_id}: {reason}")
        good = len(per_run) - len(reasons)
        if len(per_run) < expected:
            reasons.append(f"{expected - len(per_run)} (cell, run) pairs produced no rows")
        digest = hashlib.sha256(
            "\n".join(repr(dataclasses.astuple(r)) for r in rows).encode()
        ).hexdigest()
        return Outcome(wall, expected, max(expected - good, 0), reasons, digest)

    def _run_fault(self, cfg, run_rows) -> str:
        values = {r.metric: r.value for r in run_rows}
        required = ["gfl-accuracy"]
        if cfg.newcomer:
            required.append("newcomer-accuracy")
        if run_rows[0].algorithm in self.personalized:
            required.append("pfl-accuracy")
        if "error" in values:
            return "error row"
        for metric in required:
            if metric not in values:
                return f"no {metric} row"
        for metric, value in values.items():
            ok = _points(value) if metric == "fairness" else _fraction(value)
            if not ok:
                return f"{metric} = {value!r} out of range"
        return ""

    def properties(self, arg, out) -> dict[str, float]:
        """Regenerate the sweep's (cell, run) inputs as run_sweep seeds them."""
        cfg = arg[0]
        fedsim, experiment = self.fedsim, self.fedsim.experiment
        sizes = []
        for i, cell in enumerate(experiment.sweep_cells(cfg)):
            cell_cfg = experiment.apply_cell(cfg, cell)
            for r in range(cell_cfg.runs):
                root = fedsim.Rng(fedsim.hash64(cfg.seed, i, r))
                train, _ = fedsim.generate_synthetic(cell_cfg.synthetic, root.substream("data"))
                parts = fedsim.make_partitions(
                    train, cell_cfg.partition_spec(), root.substream("partition")
                )
                sizes.extend(p.n_train for p in parts)
        m = fedsim.federation.participant_count(cfg.n_clients, cfg.sample_rate)
        return _properties(cfg, sizes, m)


def execute(ops, seed: int, sampled: bool, tracer: Tracer | None = None,
            props: dict | None = None) -> Outcome:
    """Run one operation closed-loop; time only the call into fedsim.

    `sampled` runs the machine-speed sampler during the call, which fills
    `Outcome.adjusted`; traced operations are never sampled, so that span
    times hold no sampler time.
    """
    import reference  # not at the top: the set-up probe times numpy's import

    arg = ops.prepare(seed)
    try:
        call = ops.call if tracer is None else tracer.wrap(ROOT_SPAN, ops.call)
        first_span = len(tracer.spans) if tracer is not None else 0
        with reference.Sampler() if sampled else nullcontext() as sampler:
            start = perf_counter()
            try:
                out = call(arg)
            except Exception as exc:  # counted as a failed operation, never fatal
                out = exc
                if not isinstance(exc, ops.fedsim.FedsimError):
                    traceback.print_exc(file=sys.stderr)
            wall = perf_counter() - start
        if tracer is not None:
            _, span_start, span_end, *_ = tracer.spans[first_span]
            wall = span_end - span_start
        outcome = ops.check(arg, out, wall)
        outcome.adjusted = sampler.adjust(wall) if sampled else wall
        if props is not None and not isinstance(out, Exception):
            props.update(ops.properties(arg, out))
    finally:
        ops.cleanup(arg)
    return outcome


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def measure(fedsim, workload, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    ops = (SweepOps if workload.kind == "sweep" else SingleOps)(fedsim, workload)
    min_ops = 1 if smoke else workload.min_ops
    tracer = Tracer() if traced else None
    # The warm-up repeats op 0 untimed: lazy set-up finishes before timing,
    # and its digest must equal the timed op 0's (determinism check).
    warm = None if smoke else execute(ops, op_seed(seed, 0), sampled=False)
    props: dict = {}
    plain: list[Outcome] = []
    traced_out: list[Outcome] = []
    start = perf_counter()
    while len(plain) < min_ops or perf_counter() - start < seconds:
        i = len(plain)
        # input properties come from the first operation that succeeds
        plain.append(execute(ops, op_seed(seed, i), not traced, props=None if props else props))
        if tracer is not None:
            tracer.op = i
            with tracer.installed():
                traced_out.append(execute(ops, op_seed(seed, i), False, tracer))
    mismatches = []
    if warm is not None and warm.digest != plain[0].digest:
        mismatches.append("op 0 gave a different digest on its repeat")
    for i, (a, b) in enumerate(zip(plain, traced_out)):
        if a.digest != b.digest:
            mismatches.append(f"op {i} gave a different digest when traced")
    head = plain[:min_ops]
    gfl = [o.gfl for o in head if o.gfl is not None]
    pfl = [o.pfl for o in head if o.pfl is not None]
    result = {
        "walls": [o.wall for o in plain],
        "walls_adjusted": [o.adjusted for o in plain],
        "attempted": sum(o.attempted for o in plain + traced_out),
        "failed": sum(o.failed for o in plain + traced_out),
        "reasons": [r for o in plain + traced_out for r in o.reasons],
        "mismatches": mismatches,
        "digest": hashlib.sha256("\n".join(o.digest for o in head).encode()).hexdigest(),
        "digest_ops": len(head),
        "gfl_acc": statistics.fmean(gfl) if gfl else None,
        "pfl_acc": statistics.fmean(pfl) if pfl else None,
        "properties": props,
        "peak_rss_mb": peak_rss_mb(),
        "env": environment(seed),
    }
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.dump(spans_path)
        layers = tracer.summarize(len(traced_out))
        # pairs run back to back on one seed, so each ratio sees one machine speed
        ratios = [t.wall / p.wall for p, t in zip(plain, traced_out)]
        layers["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
        result.update(layers=layers, notes=tracer.notes, spans=str(spans_path.relative_to(ROOT)))
    return result


def probe(workload) -> dict:
    start = perf_counter()
    fedsim = import_fedsim()
    fedsim.experiment.config_from_entries(workload.entries)
    setup = perf_counter() - start
    import reference  # after timing: it imports numpy

    reference.loop_s(reference.SAMPLE_STEPS)  # first pass pays numpy's lazy set-up
    return {"setup_s": setup, "adjusted_s": setup * reference.speed(300)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.probe:
        print(json.dumps(probe(workload)))
        return 0
    fedsim = import_fedsim()
    print(json.dumps(measure(fedsim, workload, args.seed, args.seconds, args.trace, args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
