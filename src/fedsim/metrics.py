"""Evaluation metrics over completed runs.

Global accuracy is averaged over the final floor(C*N) rounds rather
than read off a single round; personalized accuracy is the unweighted
mean over all clients, each evaluated on its entire local test set
(every server test sample of a class the client owns, never a random
subset). Fairness is the spread of those per-client accuracies.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import Rng
from .data import Dataset, allocate_local_test
from .errors import InvalidArgument
from .federation import (
    FederationConfig,
    RunResult,
    assign_cluster,
    participant_count,
    run_federation,
)
from .model import LocalTrainSpec, ModelSpec, OptState, _local_train, evaluate
from .partition import ClientPartition

_EPS = 1e-9
NEWCOMER_FRACTION = 0.2


@dataclass(frozen=True)
class Provenance:
    seed: int
    config_digest: str
    runs_averaged: int = 1


@dataclass(frozen=True)
class MetricReport:
    gfl_accuracy: float
    window: int
    provenance: Provenance
    pfl_accuracy: float | None = None
    fairness: float | None = None
    newcomer_accuracy: float | None = None
    per_client_accuracies: dict[int, float] | None = None


def gfl_metric(round_accuracies, sample_rate: float, n_clients: int) -> float:
    """Mean global accuracy over the last max(floor(C*N), 1) rounds."""
    window = participant_count(n_clients, sample_rate)
    accs = list(round_accuracies)
    if len(accs) < window:
        raise InvalidArgument(
            f"need at least {window} round accuracies, got {len(accs)}"
        )
    return float(np.mean(accs[-window:]))


def pfl_metric(per_client_accuracies, n_clients: int) -> float:
    """Unweighted mean of every client's local-test accuracy."""
    accs = dict(per_client_accuracies)
    missing = [k for k in range(n_clients) if k not in accs]
    if missing:
        raise InvalidArgument(f"missing accuracies for clients {missing[:5]}")
    return float(np.mean([accs[k] for k in range(n_clients)]))


def fairness_metric(per_client_accuracies) -> float:
    """Population standard deviation of local accuracies, in points.

    Accuracies come in as fractions in [0, 1]; the result is scaled by
    100 to match the percentage-point convention.
    """
    if isinstance(per_client_accuracies, dict):
        values = list(per_client_accuracies.values())
    else:
        values = list(per_client_accuracies)
    if len(values) < 2:
        raise InvalidArgument("fairness needs at least 2 clients")
    return float(np.std(values)) * 100.0


def local_test_accuracies(
    model_spec: ModelSpec,
    personal: dict[int, np.ndarray],
    partitions: list[ClientPartition],
    test: Dataset,
) -> dict[int, float]:
    """Each client's model on its entire owned-class test allocation."""
    out = {}
    for part in partitions:
        idx = (
            part.test_indices
            if part.test_indices is not None
            else allocate_local_test(test, part.owned_classes)
        )
        out[part.client_id] = evaluate(model_spec, personal[part.client_id], test, idx)
    return out


def compute_report(
    result: RunResult,
    config: FederationConfig,
    model_spec: ModelSpec,
    partitions: list[ClientPartition],
    test: Dataset,
    config_digest: str = "",
) -> MetricReport:
    """Metric bundle for one finished run."""
    window = participant_count(config.n_clients, config.sample_rate)
    gfl = gfl_metric(
        [log.global_accuracy for log in result.round_logs],
        config.sample_rate,
        config.n_clients,
    )
    pfl = fairness = None
    per_client = None
    if result.final_personal:
        per_client = local_test_accuracies(model_spec, result.final_personal, partitions, test)
        pfl = pfl_metric(per_client, config.n_clients)
        if len(per_client) >= 2:
            fairness = fairness_metric(per_client)
    return MetricReport(
        gfl_accuracy=gfl,
        window=window,
        provenance=Provenance(config.seed, config_digest),
        pfl_accuracy=pfl,
        fairness=fairness,
        per_client_accuracies=per_client,
    )


@dataclass(frozen=True)
class NewcomerResult:
    accuracy: float
    newcomer_ids: tuple[int, ...]
    per_newcomer: dict[int, float]
    trainer_result: RunResult


def newcomer_holdout(seed: int, n_clients: int) -> tuple[int, ...]:
    """Deterministic held-out client ids: floor(0.2 * N) of them."""
    h = int(math.floor(NEWCOMER_FRACTION * n_clients + _EPS))
    if h == 0:
        raise InvalidArgument(f"{n_clients} clients leave no newcomers to reserve")
    rng = Rng(seed).substream("newcomer-holdout")
    return tuple(int(i) for i in rng.sample_without_replacement(n_clients, h))


def newcomer_protocol(
    config: FederationConfig,
    model_spec: ModelSpec,
    partitions: list[ClientPartition],
    train: Dataset,
    test: Dataset,
    ft_epochs: int | None = None,
) -> NewcomerResult:
    """Reserve 20% of clients, train on the rest, adapt the newcomers.

    Newcomers receive the trained model (their best-loss cluster for
    the clustered algorithm), fine-tune locally, and are scored with
    the personalized metric semantics. Solo has no shared model to
    hand over and is rejected.
    """
    if config.algorithm == "solo":
        raise InvalidArgument("solo training produces no model for newcomers")
    if len(partitions) != config.n_clients:
        raise InvalidArgument("partitions must match config.n_clients")
    newcomers = newcomer_holdout(config.seed, config.n_clients)
    holdout = set(newcomers)
    trainer_parts = [
        dataclasses.replace(p, client_id=i)
        for i, p in enumerate(p for p in partitions if p.client_id not in holdout)
    ]
    trainer_config = dataclasses.replace(config, n_clients=len(trainer_parts))
    result = run_federation(trainer_config, model_spec, trainer_parts, train, test)

    epochs = config.ft_epochs if ft_epochs is None else ft_epochs
    local = LocalTrainSpec(epochs=epochs, batch_size=config.local.batch_size)
    opt = OptState(config.lr, config.momentum)
    root = Rng(config.seed)
    per_newcomer = {}
    by_id = {p.client_id: p for p in partitions}
    for cid in newcomers:
        part = by_id[cid]
        x = train.features[part.train_indices]
        y = train.labels[part.train_indices]
        if config.algorithm == "clustered":
            start = result.final_clusters[assign_cluster(model_spec, result.final_clusters, x, y)]
        else:
            start = result.final_global
        adapted, _ = _local_train(
            model_spec, start, x, y, local, opt, root.substream("newcomer-ft", cid)
        )
        idx = (
            part.test_indices
            if part.test_indices is not None
            else allocate_local_test(test, part.owned_classes)
        )
        per_newcomer[cid] = evaluate(model_spec, adapted, test, idx)
    accuracy = float(np.mean([per_newcomer[c] for c in newcomers]))
    return NewcomerResult(accuracy, newcomers, per_newcomer, result)
