"""Evaluation metrics over completed runs.

Global accuracy is averaged over the final floor(C*N) rounds rather
than read off a single round; personalized accuracy is the unweighted
mean over all clients, each evaluated on its entire local test set
(every server test sample of a class the client owns, never a random
subset). Fairness is the spread of those per-client accuracies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Rng
from .data import Dataset, allocate_local_test
from .errors import InvalidArgument
# run_federation and _local_train are not called here, but stay bound:
# perfbench/tracing.py wraps them by this module's name, and a name it
# cannot find nulls the figures built on it
from .federation import (  # noqa: F401
    FederationConfig,
    RunResult,
    Task,
    _ClientData,
    _federation_task,
    _Job,
    _labelled,
    _lockstep,
    _round_loop,
    _run,
    assign_cluster,
    participant_count,
    run_federation,
)
from .model import LocalTrainSpec, ModelSpec, OptState, _local_train, evaluate  # noqa: F401
from .partition import ClientPartition

_EPS = 1e-9
NEWCOMER_FRACTION = 0.2


@dataclass(frozen=True)
class MetricReport:
    gfl_accuracy: float
    window: int
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
        pfl_accuracy=pfl,
        fairness=fairness,
        per_client_accuracies=per_client,
    )


def newcomer_count(n_clients: int) -> int:
    """How many of `n_clients` clients the newcomer protocol holds out."""
    return int(math.floor(NEWCOMER_FRACTION * n_clients + _EPS))


def newcomer_holdout(seed: int, n_clients: int) -> tuple[int, ...]:
    """Deterministic held-out client ids: floor(0.2 * N) of them."""
    h = newcomer_count(n_clients)
    if h == 0:
        raise InvalidArgument(f"{n_clients} clients leave no newcomers to reserve")
    rng = Rng(seed).substream("newcomer-holdout")
    return tuple(int(i) for i in rng.sample_without_replacement(n_clients, h))


def trainer_federation(
    config: FederationConfig, partitions: list[ClientPartition], newcomers: tuple[int, ...]
) -> tuple[FederationConfig, list[int]]:
    """The newcomer protocol's trainer federation: its config, and the
    positions in `partitions` of every client outside `newcomers`, in
    order. Its client i is `partitions[positions[i]]`. Solo has no
    shared model to hand over and is rejected."""
    if config.algorithm == "solo":
        raise InvalidArgument("solo training produces no model for newcomers")
    holdout = set(newcomers)
    positions = [i for i, p in enumerate(partitions) if p.client_id not in holdout]
    return replace(config, n_clients=len(positions)), positions


def newcomer_protocol(
    config: FederationConfig,
    model_spec: ModelSpec,
    partitions: list[ClientPartition],
    train: Dataset,
    test: Dataset,
) -> tuple[RunResult, float]:
    """Reserve 20% of clients, train on the rest, adapt the newcomers.

    The main federation (all clients) and the trainer federation (all
    but the newcomers) train in lock-step. Newcomers then receive the
    trainer's model (their best-loss cluster for the clustered
    algorithm), fine-tune locally, and are scored by the personalized
    rule, `local_test_accuracies`. Returns the main federation's result,
    as `run_federation` returns it, and the newcomers' mean accuracy.
    Solo has no shared model to hand over and is rejected.
    """
    data = _ClientData(train, partitions)
    return _run(_newcomer_task(config, model_spec, partitions, data, test))


def _newcomer_task(config, model_spec, partitions, data: _ClientData, test) -> Task:
    """`newcomer_protocol` as a task; `data` holds the train rows of `partitions`.

    It steps the main federation's task and the trainer's round loop in
    lock-step, the main's own work first in each round. The trainer
    evaluates no round and hands its final pool to the newcomers."""
    newcomers = newcomer_holdout(config.seed, config.n_clients)
    trainer_config, positions = trainer_federation(config, partitions, newcomers)
    main = _federation_task(config, model_spec, partitions, data, test)
    trainer = _round_loop(trainer_config, model_spec, data.subset(positions), test, 0, "trainer")
    result, (_, pool, _, _) = yield from _lockstep([main, trainer])
    position = {p.client_id: i for i, p in enumerate(partitions)}
    xs = [data.features[position[cid]] for cid in newcomers]
    ys = [data.labels[position[cid]] for cid in newcomers]
    if config.algorithm == "clustered":
        with _labelled("newcomer assignment"):
            starts = [pool[assign_cluster(model_spec, pool, x, y)] for x, y in zip(xs, ys)]
    else:
        starts = [pool[0]] * len(newcomers)
    # every newcomer adapts in one stacked call, each on its own substream
    root = Rng(config.seed)
    [(adapted, _)] = yield [_Job(
        "newcomer fine-tune",
        model_spec,
        LocalTrainSpec(epochs=config.ft_epochs, batch_size=config.local.batch_size),
        OptState(config.lr, config.momentum),
        0.0,
        starts, xs, ys,
        [root.substream("newcomer-ft", cid) for cid in newcomers],
    )]
    parts = [partitions[position[cid]] for cid in newcomers]
    with _labelled("newcomer evaluation"):
        per_newcomer = local_test_accuracies(model_spec, dict(zip(newcomers, adapted)), parts, test)
    return result, float(np.mean([per_newcomer[c] for c in newcomers]))
