"""Command-line entry point.

Subcommands: `partition` (emit a partition manifest), `run` (single
experiment cell), `sweep` (grid of cells), `report` (aggregate CSVs and
classify the incentive boundary). Exit codes: 0 success, 2 config
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .core import hash64
from .errors import ConfigError, FedsimError
from .experiment import (
    ExperimentConfig,
    apply_cell,
    emit_report,
    incentive_boundary,
    load_config,
    parse_csv_rows,
    run_inputs,
    run_sweep,
    sweep_cells,
)
from .partition import manifest_jsonl, manifest_lines


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="path to a key = value config file")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.add_argument("--runs", type=int, help="override the independent-run count")
    p.add_argument("--out", help="output directory")
    p.add_argument("--mnist-dir", help="directory with the four standard MNIST files")
    p.add_argument(
        "--enforce-recommended",
        action="store_true",
        help="warn when settings leave the recommended band",
    )


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    out: dict[str, str] = {}
    if args.seed is not None:
        out["seed"] = str(args.seed)
    if args.runs is not None:
        out["runs"] = str(args.runs)
    if args.mnist_dir is not None:
        out["mnist_dir"] = args.mnist_dir
        out["dataset"] = "mnist"
    if args.enforce_recommended:
        out["enforce_recommended"] = "true"
    if args.out is not None:
        out["out"] = args.out
    return out


def _out_dir(cfg: ExperimentConfig, default: str) -> Path:
    return Path(cfg.out) if cfg.out else Path(default)


def cmd_partition(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    # one manifest serves a sweep only if every cell partitions alike
    moving = [
        f"sweep.{axis}" for axis, values in cfg.sweep_axes
        if len({apply_cell(cfg, {axis: v}).partition_spec() for v in values}) > 1
    ]
    if moving:
        raise ConfigError(
            f"the sweep's cells partition differently across {', '.join(moving)}; "
            "partition writes one manifest, so give each one value"
        )
    # run 0's seed: these are the partitions that run 0 of every cell trains on
    train, _, parts = run_inputs(apply_cell(cfg, sweep_cells(cfg)[0]), hash64(cfg.seed, 0))
    out = _out_dir(cfg, "partition-out")
    out.mkdir(parents=True, exist_ok=True)
    (out / "partition.txt").write_text("\n".join(manifest_lines(parts)) + "\n")
    (out / "partition.jsonl").write_text("\n".join(manifest_jsonl(parts)) + "\n")
    hist = _class_histogram_lines(parts, train)
    (out / "class_histogram.txt").write_text("\n".join(hist) + "\n")
    print(f"wrote partition manifest for {len(parts)} clients to {out}")
    return 0


def _class_histogram_lines(parts, train) -> list[str]:
    lines = []
    for p in parts:
        classes, counts = np.unique(train.labels[p.train_indices], return_counts=True)
        body = ";".join(f"{c}:{n}" for c, n in zip(classes.tolist(), counts.tolist()))
        lines.append(f"client,{p.client_id},hist,{body}")
    return lines


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    if cfg.sweep_axes:
        raise ConfigError("config declares sweep axes; use the sweep subcommand")
    rows, errors = run_sweep(cfg)  # one cell
    out = _out_dir(cfg, "run-out")
    paths = emit_report(rows, out, cfg, errors=errors)
    for row in rows:
        if row.seed is None:
            print(f"{row.metric}: {row.value:.4f}")
    print(f"wrote {paths['csv']}")
    return 0 if not errors else 3


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    rows, errors = run_sweep(cfg)
    boundary = None
    algorithms = {r.algorithm for r in rows}
    if {"fedavg", "fedavg_ft"} <= algorithms:
        try:
            boundary = incentive_boundary(rows)
        except FedsimError:
            boundary = None
    out = _out_dir(cfg, "sweep-out")
    paths = emit_report(rows, out, cfg, boundary=boundary, errors=errors)
    print(f"wrote {len(rows)} rows to {paths['csv']}")
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rows = []
    for path in args.csv:
        rows.extend(parse_csv_rows(Path(path).read_text()))
    if not rows:
        raise ConfigError("no rows found in the given CSV files")
    boundary = incentive_boundary(rows, args.gfl_baseline, args.pfl_baseline)
    out = Path(args.out) if args.out else Path("report-out")
    paths = emit_report(rows, out, boundary=boundary)
    print(boundary.to_text(), end="")
    print(f"wrote {paths['summary']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim", description="Deterministic federated-learning simulation harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="emit a partition manifest and class histograms")
    _add_common_flags(p)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("run", help="run a single experiment cell")
    _add_common_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="run a sweep grid")
    _add_common_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="aggregate CSVs and classify the incentive boundary")
    p.add_argument("csv", nargs="+", help="results.csv files to aggregate")
    p.add_argument("--out", help="output directory")
    p.add_argument("--gfl-baseline", default="fedavg")
    p.add_argument("--pfl-baseline", default="fedavg_ft")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FedsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
