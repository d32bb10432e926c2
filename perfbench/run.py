"""fedsim benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload gfl1 --seed 1 --seconds 30 --trace 0

Run from the root of a fedsim checkout. The workloads (gfl1, pfl2, sweep)
are defined in workloads.py and the metrics, with their units, in the
checkout's BENCHMARK.json. With `--trace 0` it prints the end-to-end
metrics, measured untraced; with `--trace 1` the per-layer metrics, from a
run that alternates untraced and traced operations on the same seeds.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Set-up time is the median over several fresh interpreters, each timing
`import fedsim` plus config expansion. The workload itself runs in one
further process with BLAS pinned to one thread, so load stays at one
process and at most nproc threads. Both times are rescaled by the
reference loop in reference.py to a nominal machine speed; the raw
medians are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEADLINE_S = 175.0
SETUP_PROBES = 7
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args: list[str], deadline: float, env: dict | None = None) -> dict:
    """Run worker.py with `args`; return the JSON object it printed last."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting the worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _timing_note(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    text = f"median of {len(values)}"
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[pct - 1]
            return f"{text}, p{pct} {q:.4f}"
    return text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation, one set-up probe, no warm-up (for the smoke test)")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fedsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not a fedsim checkout with BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(1 if args.smoke else SETUP_PROBES):
                setups.append(_worker([*common, "--probe"], deadline))
        flags = ["--seconds", str(args.seconds)]
        flags += ["--trace"] if args.trace else []
        flags += ["--smoke"] if args.smoke else []
        raw = _worker([*common, *flags], deadline, env={**os.environ, **BLAS_ENV})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    values = dict(raw.get("properties", {}))
    values.update(raw.get("layers", {}))
    notes = {}
    if setups:
        values["setup_s"] = statistics.median(s["adjusted_s"] for s in setups)
        raw_setup = statistics.median(s["setup_s"] for s in setups)
        notes["setup_s"] = f"median of {len(setups)} fresh interpreters; raw {raw_setup:.4f} s"
    values["wall_s"] = statistics.median(raw["walls_adjusted"])
    notes["wall_s"] = (
        _timing_note(raw["walls_adjusted"])
        + f" operations; raw median {statistics.median(raw['walls']):.4f} s"
    )
    values["peak_rss_mb"] = raw["peak_rss_mb"]

    attempts = "(cell, run) pairs" if WORKLOADS[args.workload].kind == "sweep" else "runs"
    env = " ".join(f"{k}={v}" for k, v in raw["env"].items())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"env {env} blas_env={BLAS_ENV['OPENBLAS_NUM_THREADS']}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values and not args.trace:
            print(f"perfbench: no value for metric {m['name']}", file=sys.stderr)
            return 1
        # a per-layer figure that could not be measured is null, with a note
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {m['name']:28s} {shown:>12s} {m['unit']:9s} {notes.get(m['name'], '')}")
    # Unranked figures, kept out of BENCHMARK.json: fail_rate is 0 by design,
    # so a bound relative to it means nothing; accuracies are guarded by the
    # floors and the digest, and are not defined on every workload.
    fail_rate = raw["failed"] / raw["attempted"]
    print(f"  fail_rate {fail_rate:.6g} fraction ({raw['failed']} of {raw['attempted']} {attempts})")
    for name in ("gfl_acc", "pfl_acc"):
        if raw[name] is not None:
            print(f"  {name} {raw[name]:.6g} fraction (mean of the first {raw['digest_ops']} runs)")
    print(f"  digest {raw['digest']} (first {raw['digest_ops']} operations)")
    if "spans" in raw:
        print(f"  spans written to {raw['spans']}")
    for note in raw.get("notes", []):
        print(f"  note: {note}")
    for reason in raw["reasons"][:20] + raw["mismatches"]:
        print(f"  FAILED {reason}")

    print(json.dumps({
        "correct": raw["failed"] == 0 and not raw["mismatches"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
