"""Experiment driver: configs, presets, sweeps, and report emission.

Configs are flat `key = value` text with `#` comment lines and dotted
keys for nested concepts, so they stay parseable without a dependency.
Named presets mirror the standard training settings at desk scale:
synthetic stand-in datasets and small dense models, with client count,
sample rate, local epochs, partitioning, and rounds kept verbatim.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import statistics
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .core import Rng, hash64
from .data import Dataset, SyntheticSpec, generate_synthetic, load_mnist_dir
from .errors import ConfigError, FedsimError, InvalidArgument
# run_federation and newcomer_protocol are not called here, but stay
# bound: perfbench/tracing.py wraps them by this module's name, and a
# name it cannot find nulls the figures built on it
from .federation import (  # noqa: F401
    PERSONALIZED_ALGORITHMS,
    FederationConfig,
    Task,
    _ClientData,
    _drive,
    _federation_task,
    participant_count,
    run_federation,
)
from .metrics import (  # noqa: F401
    NEWCOMER_FRACTION,
    MetricReport,
    _newcomer_task,
    compute_report,
    newcomer_count,
    newcomer_protocol,
)
from .model import LocalTrainSpec, ModelSpec, OptState
from .partition import PartitionSpec, attach_local_tests, make_partitions

RECOMMENDED_C_LOW = 0.1
RECOMMENDED_C_HIGH = 0.4


class RecommendedSettingsWarning(UserWarning):
    """A config strays outside the recommended experimental band."""


# key -> (ExperimentConfig attribute path, value type); the dataclasses
# hold the defaults
_KEYS: dict[str, tuple[str, type]] = {
    "preset": ("preset", str),
    "dataset": ("dataset", str),
    "mnist_dir": ("mnist_dir", str),
    "synthetic.classes": ("synthetic.n_classes", int),
    "synthetic.features": ("synthetic.n_features", int),
    "synthetic.train_per_class": ("synthetic.train_per_class", int),
    "synthetic.test_per_class": ("synthetic.test_per_class", int),
    "synthetic.separation": ("synthetic.separation", float),
    "synthetic.sigma": ("synthetic.sigma", float),
    "partition.kind": ("partition_kind", str),
    "partition.p": ("partition_p", float),
    "partition.alpha": ("partition_alpha", float),
    "partition.shards_per_client": ("partition_shards", int),
    "model.kind": ("model_kind", str),
    "model.hidden": ("model_hidden", int),
    "model.init_scale": ("model_init_scale", float),
    "model.layer_split": ("model_layer_split", int),
    "train.epochs": ("epochs", int),
    "train.batch_size": ("batch_size", int),
    "train.lr": ("lr", float),
    "train.momentum": ("momentum", float),
    "federation.clients": ("n_clients", int),
    "federation.sample_rate": ("sample_rate", float),
    "federation.rounds": ("rounds", int),
    "federation.algorithm": ("algorithm", str),
    "algo.mu": ("mu", float),
    "algo.ft_epochs": ("ft_epochs", int),
    "algo.n_clusters": ("n_clusters", int),
    "runs": ("runs", int),
    "seed": ("seed", int),
    "newcomer": ("newcomer", bool),
    "enforce_recommended": ("enforce_recommended", bool),
    "max_cells": ("max_cells", int),
    "max_clients": ("max_clients", int),
    "out": ("out", str),
}

# sweep axis -> the key it overrides; `sweep.<axis>` takes a list of that
# key's type, and this order is the cell order
SWEEP_AXES: dict[str, str] = {
    "alpha": "partition.alpha",
    "p": "partition.p",
    "E": "train.epochs",
    "C": "federation.sample_rate",
    "N": "federation.clients",
    "algorithm": "federation.algorithm",
}

CONFIG_KEYS = (*_KEYS, *(f"sweep.{axis}" for axis in SWEEP_AXES))

# Desk-scale mirrors of the published training settings: dataset and
# architecture swapped for synthetic blobs + MLP, geometry kept.
PRESETS: dict[str, dict[str, str]] = {
    "gfl1": {
        "dataset": "synthetic",
        "synthetic.classes": "10",
        "synthetic.train_per_class": "200",
        "model.kind": "mlp",
        "federation.clients": "100",
        "federation.sample_rate": "0.1",
        "train.epochs": "5",
        "partition.kind": "label-skew",
        "partition.p": "0.8",
        "federation.rounds": "100",
        "federation.algorithm": "fedavg",
    },
    "gfl2": {
        "dataset": "synthetic",
        "synthetic.classes": "20",
        "synthetic.train_per_class": "100",
        "model.kind": "mlp",
        "federation.clients": "20",
        "federation.sample_rate": "0.2",
        "train.epochs": "10",
        "partition.kind": "label-dir",
        "partition.alpha": "0.5",
        "federation.rounds": "100",
        "federation.algorithm": "fedavg",
    },
    "pfl1": {
        "dataset": "synthetic",
        "synthetic.classes": "10",
        "synthetic.train_per_class": "200",
        "model.kind": "mlp",
        "federation.clients": "100",
        "federation.sample_rate": "0.1",
        "train.epochs": "10",
        "partition.kind": "label-skew",
        "partition.p": "0.3",
        "federation.rounds": "100",
        "federation.algorithm": "fedavg_ft",
    },
    "pfl2": {
        "dataset": "synthetic",
        "synthetic.classes": "20",
        "synthetic.train_per_class": "100",
        "model.kind": "mlp",
        "federation.clients": "20",
        "federation.sample_rate": "0.2",
        "train.epochs": "10",
        "partition.kind": "label-dir",
        "partition.alpha": "0.1",
        "federation.rounds": "100",
        "federation.algorithm": "fedavg_ft",
    },
}

@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    partition_kind: str
    n_clients: int
    rounds: int
    mnist_dir: str | None = None
    synthetic: SyntheticSpec = SyntheticSpec(10, 24, 100, 40)
    partition_p: float | None = None
    partition_alpha: float | None = None
    partition_shards: int | None = None
    model_kind: str = "logreg"
    model_hidden: int = 32
    model_init_scale: float = 0.1
    model_layer_split: int = 0
    epochs: int = 10
    batch_size: int = 10
    lr: float = 0.01
    momentum: float = 0.9
    sample_rate: float = 0.1
    algorithm: str = "fedavg"
    mu: float = 0.001
    ft_epochs: int = 20
    n_clusters: int = 2
    runs: int = 3
    seed: int = 1
    newcomer: bool = False
    enforce_recommended: bool = False
    max_cells: int = 256
    max_clients: int = 200
    preset: str | None = None
    out: str | None = None
    sweep_axes: tuple[tuple[str, tuple], ...] = ()

    def __post_init__(self):
        if self.dataset not in ("synthetic", "mnist"):
            raise ConfigError(f"dataset must be synthetic or mnist, got {self.dataset!r}")
        if self.dataset == "mnist" and not self.mnist_dir:
            raise ConfigError("dataset = mnist requires mnist_dir")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        # with no local steps no client trains, and fednova rejects the run
        if self.epochs < 1:
            raise ConfigError("train.epochs must be >= 1")
        if self.n_clients > self.max_clients:
            raise ConfigError(
                f"{self.n_clients} clients exceeds the desk-scale cap of "
                f"{self.max_clients}; raise max_clients to override"
            )
        # the run builds these same objects; building them here surfaces
        # their range checks at config time rather than as error rows
        self.partition_spec()
        self.federation_config(self.seed)
        OptState(self.lr, self.momentum)
        if self.dataset == "synthetic":  # mnist dimensions are known once read
            self.model_spec(self.synthetic)
        window = participant_count(self.n_clients, self.sample_rate)
        if self.rounds < window:
            raise ConfigError(
                f"federation.rounds = {self.rounds} is shorter than the evaluation "
                f"window of {window} rounds (max(floor(C*N), 1))"
            )

    def partition_spec(self, n_clients: int | None = None) -> PartitionSpec:
        kind = self.partition_kind
        return PartitionSpec(
            kind=kind,
            n_clients=self.n_clients if n_clients is None else n_clients,
            p=self.partition_p if kind == "label-skew" else None,
            alpha=self.partition_alpha if kind in ("label-dir", "quantity-dir") else None,
            shards_per_client=self.partition_shards if kind == "random-shard" else None,
        )

    def local_train_spec(self) -> LocalTrainSpec:
        return LocalTrainSpec(epochs=self.epochs, batch_size=self.batch_size)

    def federation_config(self, seed: int) -> FederationConfig:
        return FederationConfig(
            n_clients=self.n_clients,
            sample_rate=self.sample_rate,
            rounds=self.rounds,
            local=self.local_train_spec(),
            lr=self.lr,
            momentum=self.momentum,
            algorithm=self.algorithm,
            seed=seed,
            mu=self.mu,
            ft_epochs=self.ft_epochs,
            n_clusters=self.n_clusters,
        )

    def model_spec(self, data: Dataset | SyntheticSpec) -> ModelSpec:
        return ModelSpec(
            kind=self.model_kind,
            n_features=data.n_features,
            n_classes=data.n_classes,
            hidden=self.model_hidden if self.model_kind == "mlp" else None,
            init_scale=self.model_init_scale,
            layer_split=self.model_layer_split,
        )

    def level(self) -> float | None:
        return self.partition_spec().level

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(CONFIG_KEYS):
            value = _config_value(self, key)
            if value is not None:
                lines.append(f"{key} = {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


REQUIRED_KEYS = tuple(
    next(key for key, (path, _) in _KEYS.items() if path == field.name)
    for field in dataclasses.fields(ExperimentConfig)
    if field.default is dataclasses.MISSING
)


def _config_value(cfg: ExperimentConfig, key: str):
    if key.startswith("sweep."):
        return dict(cfg.sweep_axes).get(key.removeprefix("sweep."))
    value = cfg
    for attr in _KEYS[key][0].split("."):
        value = getattr(value, attr)
    return value


def _field_changes(base, values: dict[str, object]) -> dict[str, object]:
    """Turn attribute path -> value into field -> value for `base` (a
    config, or the config class for the defaults); a dotted path replaces
    one attribute of a copy of base's nested spec."""
    changes: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {}
    for path, value in values.items():
        field, _, attr = path.partition(".")
        if attr:
            nested.setdefault(field, {})[attr] = value
        else:
            changes[field] = value
    for field, attrs in nested.items():
        changes[field] = dataclasses.replace(getattr(base, field), **attrs)
    return changes


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _convert(key: str, raw: str):
    axis = key.removeprefix("sweep.")
    is_list = axis != key
    kind = _KEYS[SWEEP_AXES[axis] if is_list else key][1]

    def scalar(text: str):
        if kind is bool:
            if text.lower() not in ("true", "false"):
                raise ValueError(text)
            return text.lower() == "true"
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError(text)
        return value

    try:
        return tuple(scalar(v.strip()) for v in raw.split(",")) if is_list else scalar(raw)
    except ValueError:
        tag = kind.__name__ + ("_list" if is_list else "")
        raise ConfigError(f"key {key!r}: expected {tag}, got {raw!r}") from None


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings, in file order; unknown keys rejected."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = value
    return out


def config_from_entries(entries: dict[str, str]) -> ExperimentConfig:
    """Expand preset, apply entries, validate, build the config."""
    merged: dict[str, str] = {}
    preset = entries.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        merged.update(PRESETS[preset])
    merged.update({k: v for k, v in entries.items() if k != "preset"})

    missing = [k for k in REQUIRED_KEYS if k not in merged]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    typed = {k: _convert(k, v) for k, v in merged.items()}
    sweep_axes = tuple(
        (axis, typed.pop(f"sweep.{axis}")) for axis in SWEEP_AXES if f"sweep.{axis}" in typed
    )
    try:
        kwargs = _field_changes(ExperimentConfig, {_KEYS[k][0]: v for k, v in typed.items()})
        cfg = ExperimentConfig(**kwargs, preset=preset, sweep_axes=sweep_axes)
        _check_recommended(cfg)
        _validate_sweep_axes(cfg)
        # each cell is a config of its own; building it runs its checks
        for cell in sweep_cells(cfg):
            apply_cell(cfg, cell)
    except (InvalidArgument, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _check_recommended(cfg: ExperimentConfig) -> None:
    if not cfg.enforce_recommended:
        return
    if not RECOMMENDED_C_LOW <= cfg.sample_rate <= RECOMMENDED_C_HIGH:
        warnings.warn(
            f"sample_rate {cfg.sample_rate} is outside the recommended band "
            f"{RECOMMENDED_C_LOW} <= C <= {RECOMMENDED_C_HIGH}",
            RecommendedSettingsWarning,
            stacklevel=3,
        )
    if cfg.runs < 3:
        warnings.warn(
            f"runs = {cfg.runs}; at least 3 independent runs are recommended",
            RecommendedSettingsWarning,
            stacklevel=3,
        )


def _validate_sweep_axes(cfg: ExperimentConfig) -> None:
    for axis, _ in cfg.sweep_axes:
        if axis == "alpha" and cfg.partition_kind not in ("label-dir", "quantity-dir"):
            raise ConfigError("sweep.alpha requires a Dirichlet partition kind")
        if axis == "p" and cfg.partition_kind != "label-skew":
            raise ConfigError("sweep.p requires partition.kind = label-skew")


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse a config file, expand its preset, apply overrides last."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries = parse_config_text(text)
    if overrides:
        for key, value in overrides.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown override key {key!r}")
            entries[key] = value
    if not entries:
        raise ConfigError(
            "config file defines no keys; required: " + ", ".join(REQUIRED_KEYS)
        )
    return config_from_entries(entries)


def apply_cell(cfg: ExperimentConfig, cell: dict[str, object]) -> ExperimentConfig:
    """Override one sweep cell's axis values on the base config."""
    for axis in cell:
        if axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}")
    values = {_KEYS[SWEEP_AXES[axis]][0]: value for axis, value in cell.items()}
    return dataclasses.replace(cfg, sweep_axes=(), **_field_changes(cfg, values))


@dataclass(frozen=True)
class ResultRow:
    run_id: str
    preset: str
    algorithm: str
    partition_kind: str
    level: float | None
    epochs: int
    sample_rate: float
    n_clients: int
    seed: int | None
    metric: str
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InvalidArgument(f"non-finite value for metric {self.metric!r}")


# results.csv has one column per ResultRow field, in field order, each
# written and read by its declared type; n_clients is headed "clients"
_CSV_FIELDS = tuple(
    (f.name, f.type.removesuffix(" | None"), f.type.endswith(" | None"))
    for f in dataclasses.fields(ResultRow)
)
CSV_COLUMNS = tuple("clients" if name == "n_clients" else name for name, _, _ in _CSV_FIELDS)
_CSV_TYPES = {"str": str, "int": int, "float": float}


def run_inputs(cfg: ExperimentConfig, seed: int, cache: dict | None = None):
    """The (train, test) pair and attached partitions that `cfg` trains on
    at `seed`.

    Data and partitions are drawn from substreams of `seed` alone, so
    configs run at one seed see the same (train, test) pair when their
    dataset matches, and the same partitions when their partition spec
    matches too. `cache` holds the pair by dataset key, and the attached
    partitions with their clients' train rows (`_ClientData`) by
    (dataset key, partition spec), so callers that pass one dict build
    each only once. Nothing downstream mutates them, so a shared entry
    gives the same result as one built here.
    """
    train, test, partitions, _ = _run_inputs(cfg, seed, cache)
    return train, test, partitions


def _input_keys(cfg: ExperimentConfig) -> tuple[tuple, tuple]:
    """The `run_inputs` cache keys of `cfg`'s (train, test) pair and of
    its partitions."""
    data_key = (cfg.dataset, cfg.synthetic if cfg.dataset == "synthetic" else cfg.mnist_dir)
    return data_key, (data_key, cfg.partition_spec())


def _run_inputs(cfg: ExperimentConfig, seed: int, cache: dict | None):
    """`run_inputs`, plus the partitions' train rows."""
    root = Rng(seed)
    inputs = {} if cache is None else cache
    data_key, parts_key = _input_keys(cfg)
    if data_key not in inputs:
        if cfg.dataset == "synthetic":
            inputs[data_key] = generate_synthetic(cfg.synthetic, root.substream("data"))
        else:
            inputs[data_key] = load_mnist_dir(cfg.mnist_dir)
    train, test = inputs[data_key]
    if parts_key not in inputs:
        partitions = make_partitions(train, parts_key[1], root.substream("partition"))
        partitions = attach_local_tests(partitions, test)
        inputs[parts_key] = partitions, _ClientData(train, partitions)
    return train, test, *inputs[parts_key]


# the `run_inputs` cache keys under which `run_sweep` lists the cells that
# train in lock-step with the next `run_single` call, under which that call
# leaves the other cells' outcomes, and under which the run keeps its
# shuffle memo (`_drive`)
_GROUP, _OUTCOMES, _SHUFFLES = "lock-step group", "lock-step outcomes", "shuffle memo"


def run_single(cfg: ExperimentConfig, seed: int, *, _inputs: dict | None = None):
    """One full pipeline pass: data, partition, federate, measure.

    `_inputs` is internal: `run_sweep` passes one `run_inputs` cache per
    run, so the cells of that run share its data and partitions. It also
    lists there the group of cells that trains in lock-step with `cfg`:
    the first call for a cell of the group trains every cell of it and
    leaves the others' outcomes in the cache, where their own calls find
    them. Alone, `cfg` is a group of one. A sweep run also keeps there the
    shuffle memo its groups' drives share; alone, a run has none and
    draws every client's shuffles.
    """
    inputs = {} if _inputs is None else _inputs
    outcomes = inputs.get(_OUTCOMES, {})
    if cfg not in outcomes:
        group = inputs.pop(_GROUP, [cfg])
        tasks = [_cell_task(cell, seed, inputs) for cell in group]
        shuffles = inputs.get(_SHUFFLES)
        outcomes = inputs[_OUTCOMES] = dict(zip(group, _drive(tasks, shuffles)))
    outcome = outcomes.pop(cfg)
    if isinstance(outcome, FedsimError):
        raise outcome
    return outcome


def _cell_task(cfg: ExperimentConfig, seed: int, inputs: dict) -> Task:
    """`run_single` of one cell as a task: its round loops, then any
    fine-tune, yield their training as jobs."""
    train, test, partitions, data = _run_inputs(cfg, seed, inputs)
    model_spec = cfg.model_spec(train)
    fed = cfg.federation_config(seed)
    newcomer_accuracy = None
    if cfg.newcomer:
        result, newcomer_accuracy = yield from _newcomer_task(
            fed, model_spec, partitions, data, test
        )
    else:
        result = yield from _federation_task(fed, model_spec, partitions, data, test)
    report = compute_report(result, fed, model_spec, partitions, test)
    report = dataclasses.replace(report, newcomer_accuracy=newcomer_accuracy)
    return report, result, partitions, model_spec, (train, test)


# Consecutive sweep cells train in lock-step while one round's call holds
# at most this many clients. Past about 20 clients a bigger stack saves no
# more time per client step, but every cell in the group keeps its state
# alive at once.
GROUP_CLIENTS = 24


def _round_clients(cfg: ExperimentConfig) -> int:
    """Clients one round of `cfg` trains: the main federation's, plus the
    trainer federation's under the newcomer protocol."""
    if cfg.algorithm == "solo":
        return cfg.n_clients
    m = participant_count(cfg.n_clients, cfg.sample_rate)
    if cfg.newcomer:
        m += participant_count(cfg.n_clients - newcomer_count(cfg.n_clients), cfg.sample_rate)
    return m


def lockstep_groups(cfgs: list[ExperimentConfig]) -> list[list[int]]:
    """Indices of consecutive cells that train in lock-step: a cell joins
    the group before it while their rounds hold at most GROUP_CLIENTS
    clients; a wider cell trains alone."""
    groups: list[list[int]] = []
    width = 0
    for i, cfg in enumerate(cfgs):
        clients = _round_clients(cfg)
        if groups and width + clients <= GROUP_CLIENTS:
            groups[-1].append(i)
            width += clients
        else:
            groups.append([i])
            width = clients
    return groups


def _metric_items(cfg: ExperimentConfig, report: MetricReport) -> list[tuple[str, float]]:
    items = [("gfl-accuracy", report.gfl_accuracy)]
    if cfg.algorithm in PERSONALIZED_ALGORITHMS and report.pfl_accuracy is not None:
        items.append(("pfl-accuracy", report.pfl_accuracy))
        if report.fairness is not None:
            items.append(("fairness", report.fairness))
    if report.newcomer_accuracy is not None:
        items.append(("newcomer-accuracy", report.newcomer_accuracy))
    return items


# one (cell, run): its seed, and its metric items or the message of the
# FedsimError it raised
RunOutcome = tuple[int, list[tuple[str, float]] | str]


def _cell_rows(
    cfg: ExperimentConfig, cell_index: int, outcomes: list[RunOutcome]
) -> tuple[list[ResultRow], list[str]]:
    """One cell's per-run and aggregate rows, from its runs' outcomes in
    run order."""
    rows: list[ResultRow] = []
    errors: list[str] = []
    common = dict(
        preset=cfg.preset or "",
        algorithm=cfg.algorithm,
        partition_kind=cfg.partition_kind,
        level=cfg.level(),
        epochs=cfg.epochs,
        sample_rate=cfg.sample_rate,
        n_clients=cfg.n_clients,
    )
    per_metric: dict[str, list[float]] = {}
    for r, (seed, outcome) in enumerate(outcomes):
        run_id = f"c{cell_index:03d}r{r}"
        if isinstance(outcome, str):
            errors.append(f"cell {cell_index} run {r}: {outcome}")
            rows.append(ResultRow(run_id=run_id, seed=seed, metric="error", value=1.0, **common))
            continue
        for metric, value in outcome:
            per_metric.setdefault(metric, []).append(value)
            rows.append(
                ResultRow(run_id=run_id, seed=seed, metric=metric, value=value, **common)
            )
    agg_id = f"c{cell_index:03d}-agg"
    for metric, values in sorted(per_metric.items()):
        mean = statistics.fmean(values)
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        rows.append(ResultRow(run_id=agg_id, seed=None, metric=f"{metric}-mean", value=mean, **common))
        rows.append(ResultRow(run_id=agg_id, seed=None, metric=f"{metric}-std", value=std, **common))
    return rows, errors


def sweep_cells(cfg: ExperimentConfig) -> list[dict[str, object]]:
    """Cartesian product of the sweep axes, in canonical axis order."""
    if not cfg.sweep_axes:
        return [{}]
    names = [a for a, _ in cfg.sweep_axes]
    value_lists = [v for _, v in cfg.sweep_axes]
    cells = [dict(zip(names, combo)) for combo in itertools.product(*value_lists)]
    if len(cells) > cfg.max_cells:
        raise ConfigError(f"sweep has {len(cells)} cells, cap is {cfg.max_cells}")
    return cells


def run_sweep(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    """Run every cell x every run; failures become error rows.

    Run r of every cell uses the seed hash64(seed, r), so the cells are
    common-random-number pairs: cells that differ only in the algorithm
    see the same data, partitions and sampled clients. The sweep
    goes run by run, and the cells of a run share its (train, test) pair
    and, per partition spec, its partitions and client rows (see
    `run_single`); each partition spec's are dropped after the last cell
    of the run that reads them, the rest when the run ends. Within a run the
    cells train in lock-step, group by group (`lockstep_groups`): each
    round, the jobs of a group's cells that share a model and training
    settings train in one stacked `_local_train` call. A client's result
    does not depend on its stack, so every (cell, run) result is
    bit-identical to `run_single` of that cell alone; a cell that
    diverges fails alone. The run's cells read the same client streams,
    so its groups share one shuffle memo (`_drive`): each shared client
    shuffle is drawn once per run and copied for the other cells, and the
    memo is dropped with the run's inputs. Rows come out cell by cell,
    run order within each cell.
    """
    cell_cfgs = [apply_cell(cfg, cell) for cell in sweep_cells(cfg)]
    groups = lockstep_groups(cell_cfgs)
    outcomes: list[list[RunOutcome]] = [[] for _ in cell_cfgs]
    for r in range(cfg.runs):
        seed = hash64(cfg.seed, r)
        inputs: dict = {_SHUFFLES: {}}
        for group in groups:
            inputs[_GROUP] = [cell_cfgs[i] for i in group]
            for i in group:
                try:
                    # only the report: the rest would keep this run's data
                    # alive into the next run
                    report = run_single(cell_cfgs[i], seed, _inputs=inputs)[0]
                except FedsimError as exc:
                    outcomes[i].append((seed, str(exc)))
                else:
                    outcomes[i].append((seed, _metric_items(cell_cfgs[i], report)))
            # drop the partitions and client rows no later cell of the run reads
            later = {_input_keys(c)[1] for c in cell_cfgs[group[-1] + 1 :]}
            for key in {_input_keys(cell_cfgs[i])[1] for i in group} - later:
                inputs.pop(key, None)
    rows: list[ResultRow] = []
    errors: list[str] = []
    for i, (cell_cfg, cell_outcomes) in enumerate(zip(cell_cfgs, outcomes)):
        rows_i, errors_i = _cell_rows(cell_cfg, i, cell_outcomes)
        rows.extend(rows_i)
        errors.extend(errors_i)
    return rows, errors


@dataclass(frozen=True)
class LevelVerdict:
    level: float
    gfl_mean: float
    pfl_mean: float
    winner: str
    neither_incentivized: bool = False


@dataclass(frozen=True)
class BoundaryReport:
    levels: tuple[LevelVerdict, ...]
    boundary: tuple[float, float] | str | None

    def to_text(self) -> str:
        lines = ["level,gfl_mean,pfl_mean,winner,neither_incentivized"]
        for v in self.levels:
            lines.append(
                f"{v.level},{v.gfl_mean:.4f},{v.pfl_mean:.4f},{v.winner},"
                f"{'yes' if v.neither_incentivized else 'no'}"
            )
        if isinstance(self.boundary, tuple):
            lines.append(f"boundary between levels {self.boundary[0]} and {self.boundary[1]}")
        elif self.boundary is None:
            lines.append("boundary: none (tie)")
        else:
            lines.append(f"boundary: {self.boundary}")
        return "\n".join(lines) + "\n"


def _mean_of(rows: list[ResultRow]) -> float:
    return statistics.fmean(r.value for r in rows)


def incentive_boundary(
    rows: list[ResultRow],
    gfl_baseline: str = "fedavg",
    pfl_baseline: str = "fedavg_ft",
) -> BoundaryReport:
    """Classify the winning approach per heterogeneity level.

    Uses the global metric of the gfl baseline against the personalized
    metric of the pfl baseline. When solo rows are present a level is
    flagged "neither incentivized" if solo comes within its own std of
    the best baseline. The boundary is the level band where the winner
    flips from personalized to global as heterogeneity decreases.
    """
    per_run = [r for r in rows if r.seed is not None and r.level is not None]
    levels = sorted({r.level for r in per_run if r.algorithm in (gfl_baseline, pfl_baseline)})
    if len(levels) < 2:
        raise InvalidArgument("need baselines across at least 2 heterogeneity levels")
    verdicts = []
    for level in levels:
        at = [r for r in per_run if r.level == level]
        gfl_rows = [r for r in at if r.algorithm == gfl_baseline and r.metric == "gfl-accuracy"]
        pfl_rows = [r for r in at if r.algorithm == pfl_baseline and r.metric == "pfl-accuracy"]
        if not gfl_rows or not pfl_rows:
            raise InvalidArgument(f"level {level}: missing a baseline")
        gfl_mean = _mean_of(gfl_rows)
        pfl_mean = _mean_of(pfl_rows)
        if pfl_mean > gfl_mean:
            winner = "pfl"
        elif gfl_mean > pfl_mean:
            winner = "gfl"
        else:
            winner = "tie"
        solo_rows = [r for r in at if r.algorithm == "solo" and r.metric == "pfl-accuracy"]
        neither = False
        if solo_rows:
            solo_mean = _mean_of(solo_rows)
            solo_std = (
                statistics.stdev(r.value for r in solo_rows) if len(solo_rows) > 1 else 0.0
            )
            neither = max(gfl_mean, pfl_mean) - solo_mean <= solo_std
        verdicts.append(LevelVerdict(level, gfl_mean, pfl_mean, winner, neither))
    boundary: tuple[float, float] | str | None
    winners = [v.winner for v in verdicts]
    if all(w == "tie" for w in winners):
        boundary = None
    elif all(w != "gfl" for w in winners):
        boundary = "beyond max level"
    elif all(w != "pfl" for w in winners):
        boundary = "below min level"
    else:
        boundary = "mixed"
        for lo, hi in zip(verdicts, verdicts[1:]):
            if lo.winner == "pfl" and hi.winner != "pfl":
                boundary = (lo.level, hi.level)
                break
    return BoundaryReport(tuple(verdicts), boundary)


def _format_cell(value, kind: str) -> str:
    if value is None:
        return ""
    if kind == "float":
        return repr(float(value))  # plain-float repr round-trips exactly
    return str(value)


def rows_to_csv_lines(rows: list[ResultRow], timestamp: str | None = None) -> list[str]:
    stamp = timestamp or datetime.now(timezone.utc).isoformat()
    lines = [f"# generated_at = {stamp}", ",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_format_cell(getattr(r, name), kind) for name, kind, _ in _CSV_FIELDS))
    return lines


def parse_csv_rows(text: str) -> list[ResultRow]:
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith(CSV_COLUMNS[0] + ","):
            continue
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ConfigError(f"bad CSV row: {line!r}")
        values = {
            name: None if nullable and not cell else _CSV_TYPES[kind](cell)
            for (name, kind, nullable), cell in zip(_CSV_FIELDS, parts)
        }
        rows.append(ResultRow(**values))
    return rows


def summary_groups(rows: list[ResultRow]) -> dict[str, dict[str, float]]:
    """Per-cell mean +/- sample std for each metric, over per-run rows."""
    grouped: dict[tuple, list[float]] = {}
    for r in rows:
        if r.seed is None or r.metric == "error":
            continue
        key = (r.algorithm, r.partition_kind, r.level, r.epochs, r.sample_rate, r.n_clients, r.metric)
        grouped.setdefault(key, []).append(r.value)
    out = {}
    for key, values in sorted(grouped.items(), key=lambda kv: str(kv[0])):
        algorithm, kind, level, epochs, c, n, metric = key
        name = f"{algorithm}|{kind}|level={level}|E={epochs}|C={c}|N={n}|{metric}"
        out[name] = {
            "mean": statistics.fmean(values),
            "std": statistics.stdev(values) if len(values) > 1 else 0.0,
            "n": len(values),
        }
    return out


def manifest_text(
    rows: list[ResultRow],
    cfg: ExperimentConfig | None = None,
    errors: list[str] | None = None,
) -> str:
    """Run manifest covering the full experimental checklist."""
    per_run = [r for r in rows if r.seed is not None]
    seeds = sorted({r.seed for r in per_run})
    runs = {r.run_id.split("r")[-1] for r in per_run if "r" in r.run_id}
    n_runs = cfg.runs if cfg is not None else len(runs)
    lines = ["run manifest", "============"]
    if cfg is not None:
        lines += [
            f"dataset: {cfg.dataset}"
            + (
                f" (classes={cfg.synthetic.n_classes}, features={cfg.synthetic.n_features},"
                f" train_per_class={cfg.synthetic.train_per_class},"
                f" test_per_class={cfg.synthetic.test_per_class},"
                f" separation={cfg.synthetic.separation}, sigma={cfg.synthetic.sigma})"
                if cfg.dataset == "synthetic"
                else f" (dir={cfg.mnist_dir})"
            ),
            f"architecture: {cfg.model_kind}"
            + (f" (hidden={cfg.model_hidden})" if cfg.model_kind == "mlp" else "")
            + f", init_scale={cfg.model_init_scale}, layer_split={cfg.model_layer_split}",
            f"clients: {cfg.n_clients}",
            f"sample_rate: {cfg.sample_rate}",
            f"local_epochs: {cfg.epochs}",
            f"batch_size: {cfg.batch_size}",
            f"communication_rounds: {cfg.rounds}",
            f"partitioning: {cfg.partition_kind} (level={cfg.level()})",
            f"algorithm: {cfg.algorithm}",
            f"optimizer: sgd (lr={cfg.lr}, momentum={cfg.momentum}, no schedule)",
            "preprocessing: features scaled to [0, 1]; no augmentation",
            f"initialization: uniform(-{cfg.model_init_scale}, {cfg.model_init_scale}) weights, zero biases",
            f"hyperparameters: mu={cfg.mu}, ft_epochs={cfg.ft_epochs}, n_clusters={cfg.n_clusters}",
            f"config_digest: {cfg.digest()}",
        ]
        if cfg.newcomer:
            lines.append(
                f"newcomer_protocol: floor({NEWCOMER_FRACTION}*N) clients are held out by seed; "
                "a trainer federation trains the other clients in lock-step with the main "
                "federation, which trains all N clients, so gfl, pfl and fairness do not depend "
                f"on newcomer; each newcomer fine-tunes for ft_epochs={cfg.ft_epochs} epochs from "
                "the trainer's model (clustered: its lowest-loss cluster) and is scored on its "
                "entire local test set"
            )
        if cfg.sweep_axes:
            axes = "; ".join(f"{a}={list(v)}" for a, v in cfg.sweep_axes)
            lines.append(f"sweep_axes: {axes}")
    lines += [
        "evaluation_metrics: global = mean accuracy over the final floor(C*N) rounds; "
        "personalized = unweighted mean of per-client accuracy on each client's entire "
        "owned-class test allocation; fairness = population std of per-client accuracies "
        "(percentage points)",
        f"independent_runs: {n_runs} ({'meets' if n_runs >= 3 else 'BELOW'} the >=3-run requirement)",
        f"seeds: {seeds} (run r of every cell shares one seed, hash64(seed, r))",
    ]
    if errors:
        lines.append("errors:")
        lines += [f"  - {e}" for e in errors]
    return "\n".join(lines) + "\n"


def emit_report(
    rows: list[ResultRow],
    out_dir: str | Path,
    cfg: ExperimentConfig | None = None,
    boundary: BoundaryReport | None = None,
    errors: list[str] | None = None,
    timestamp: str | None = None,
) -> dict[str, Path]:
    """Write results.csv, manifest.txt, and summary.json under out_dir."""
    if not rows:
        raise InvalidArgument("no rows to emit")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "csv": out / "results.csv",
            "manifest": out / "manifest.txt",
            "summary": out / "summary.json",
        }
        paths["csv"].write_text("\n".join(rows_to_csv_lines(rows, timestamp)) + "\n")
        paths["manifest"].write_text(manifest_text(rows, cfg, errors))
        paths["summary"].write_text(
            json.dumps(summary_groups(rows), indent=2, sort_keys=True) + "\n"
        )
        if boundary is not None:
            paths["boundary"] = out / "boundary.txt"
            paths["boundary"].write_text(boundary.to_text())
    except OSError as exc:
        raise FedsimError(f"cannot write report under {out}: {exc}") from exc
    return paths
