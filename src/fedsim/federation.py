"""Round protocol, fusion strategies, and the in-scope algorithms.

Global algorithms: fedavg, fedprox (proximal local objective), fednova
(normalized averaging), scaffold (control variates). Personalized:
fedavg_ft (post-hoc fine-tuning), decoupled (local classifier head),
clustered (lowest-loss cluster assignment), solo (no federation).

Within a round, clients train one after another in client-id order,
each on its own random substream, and fusion consumes them in that order.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .core import Rng
from .data import Dataset
from .errors import IncompatibleShape, InvalidArgument
from .model import (
    LocalTrainSpec,
    ModelSpec,
    OptState,
    _local_train,
    evaluate,
    forward_loss_grad,
    init_params,
)
from .partition import ClientPartition

ALGORITHMS = (
    "fedavg",
    "fedprox",
    "fednova",
    "scaffold",
    "fedavg_ft",
    "decoupled",
    "clustered",
    "solo",
)
PERSONALIZED_ALGORITHMS = frozenset({"fedavg_ft", "decoupled", "clustered", "solo"})

_EPS = 1e-9


@dataclass(frozen=True)
class FederationConfig:
    """Protocol hyperparameters plus the algorithm choice."""

    n_clients: int
    sample_rate: float
    rounds: int
    local: LocalTrainSpec
    lr: float
    momentum: float
    algorithm: str
    seed: int
    mu: float = 0.001
    ft_epochs: int = 20
    n_clusters: int = 2

    def __post_init__(self):
        if self.n_clients < 1:
            raise InvalidArgument("n_clients must be >= 1")
        if not 0.0 < self.sample_rate <= 1.0:
            raise InvalidArgument("sample_rate must be in (0, 1]")
        if self.rounds < 1:
            raise InvalidArgument("rounds must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise InvalidArgument(f"unknown algorithm {self.algorithm!r}")
        if self.mu < 0.0 or self.ft_epochs < 0:
            raise InvalidArgument("mu and ft_epochs must be >= 0")
        if self.n_clusters < 1:
            raise InvalidArgument("n_clusters must be >= 1")


@dataclass(frozen=True)
class ClientRoundStat:
    client_id: int
    n_train: int
    steps: int
    mean_loss: float


@dataclass(frozen=True)
class RoundLog:
    round: int
    selected: tuple[int, ...]
    m: int
    global_accuracy: float
    client_stats: tuple[ClientRoundStat, ...]


@dataclass
class RunResult:
    round_logs: list[RoundLog]
    final_global: np.ndarray | None
    final_personal: dict[int, np.ndarray]
    final_clusters: list[np.ndarray] | None = None

    def digest(self) -> str:
        """Stable content hash for determinism checks across processes."""
        h = hashlib.sha256()
        for log in self.round_logs:
            h.update(struct.pack("<qqd", log.round, log.m, log.global_accuracy))
            h.update(np.asarray(log.selected, dtype=np.int64).tobytes())
            for s in log.client_stats:
                h.update(struct.pack("<qqqd", s.client_id, s.n_train, s.steps, s.mean_loss))
        if self.final_global is not None:
            h.update(self.final_global.tobytes())
        for cid in sorted(self.final_personal):
            h.update(struct.pack("<q", cid))
            h.update(self.final_personal[cid].tobytes())
        if self.final_clusters is not None:
            for theta in self.final_clusters:
                h.update(theta.tobytes())
        return h.hexdigest()


def participant_count(n: int, sample_rate: float) -> int:
    """m = max(floor(C * N), 1), with a tiny epsilon guarding float C*N."""
    return max(int(math.floor(sample_rate * n + _EPS)), 1)


def sample_clients(rng: Rng, n: int, sample_rate: float) -> tuple[int, ...]:
    """Uniform without-replacement sample of m client ids, sorted."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    if not 0.0 < sample_rate <= 1.0:
        raise InvalidArgument("sample_rate must be in (0, 1]")
    m = participant_count(n, sample_rate)
    return tuple(int(i) for i in rng.sample_without_replacement(n, m))


def fuse_fedavg(updates: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Dataset-size weighted mean of client parameters: sum(n_k * theta_k) / sum(n_k)."""
    if not updates:
        raise InvalidArgument("fuse_fedavg needs at least one update")
    w = np.array([float(n) for _, n in updates])
    if np.any(w < 0.0):
        raise InvalidArgument("weights must be non-negative")
    total = float(w.sum())
    if total == 0.0:
        raise InvalidArgument("weights must not all be zero")
    # normalizing first keeps the single-update case an exact identity
    w = w / total
    shape = updates[0][0].shape
    acc = np.zeros(shape)
    for (theta, _), wk in zip(updates, w):
        if theta.shape != shape:
            raise IncompatibleShape("fuse_fedavg over mismatched shapes")
        acc += wk * theta
    return acc


def tau_effective(tau: int, momentum: float) -> float:
    """Effective local-step count under SGD momentum.

    sum_{j<tau} (1 - momentum^(tau-j)) / (1 - momentum); equals tau
    when momentum is 0.
    """
    if tau < 1:
        raise InvalidArgument("tau must be >= 1")
    if momentum == 0.0:
        return float(tau)
    geo = momentum * (1.0 - momentum**tau) / (1.0 - momentum)
    return (tau - geo) / (1.0 - momentum)


def fuse_fednova(
    updates: list[tuple[np.ndarray, int, int]],
    global_params: np.ndarray,
    momentum: float = 0.0,
) -> np.ndarray:
    """Normalized averaging of client deltas (delta = local - global).

    Each delta is normalized by its effective step count, averaged with
    dataset-size weights, then rescaled by the size-weighted mean
    effective step count. With uniform tau and zero momentum this
    reduces exactly to fedavg.
    """
    if not updates:
        raise InvalidArgument("fuse_fednova needs at least one update")
    sizes = np.array([float(u[1]) for u in updates])
    taus = [u[2] for u in updates]
    if any(t < 1 for t in taus):
        raise InvalidArgument("every client must take at least one step")
    p = sizes / sizes.sum()
    tau_eff = np.array([tau_effective(t, momentum) for t in taus])
    tau_bar = float(p @ tau_eff)
    acc = np.zeros(global_params.shape)
    for (delta, _, _), weight, te in zip(updates, p, tau_eff):
        if delta.shape != global_params.shape:
            raise IncompatibleShape("fuse_fednova over mismatched shapes")
        acc += weight * delta / te
    return global_params + tau_bar * acc


@dataclass
class ScaffoldState:
    """Server and per-client control variates (plain arrays)."""

    server: np.ndarray
    clients: dict[int, np.ndarray]

    @staticmethod
    def initial(n_params: int, client_ids) -> "ScaffoldState":
        return ScaffoldState(
            np.zeros(n_params), {int(k): np.zeros(n_params) for k in client_ids}
        )


def scaffold_client_variate(
    old_variate: np.ndarray,
    server_variate: np.ndarray,
    global_values: np.ndarray,
    local_values: np.ndarray,
    steps: int,
    lr: float,
) -> np.ndarray:
    """c_k <- c_k - c + (theta_g - theta_k) / (steps * lr)."""
    if lr <= 0.0:
        raise InvalidArgument("scaffold requires lr > 0")
    if steps == 0:
        return old_variate
    return old_variate - server_variate + (global_values - local_values) / (steps * lr)


class _ClientData:
    """Per-client train arrays resolved once per run."""

    def __init__(self, train: Dataset, partitions: list[ClientPartition]):
        self.features = [train.features[p.train_indices] for p in partitions]
        self.labels = [train.labels[p.train_indices] for p in partitions]
        self.sizes = [p.n_train for p in partitions]


def run_federation(
    config: FederationConfig,
    model_spec: ModelSpec,
    partitions: list[ClientPartition],
    train: Dataset,
    test: Dataset,
) -> RunResult:
    """Execute T communication rounds of the configured algorithm."""
    if len(partitions) != config.n_clients:
        raise InvalidArgument(
            f"config declares {config.n_clients} clients, got {len(partitions)} partitions"
        )
    data = _ClientData(train, partitions)
    root = Rng(config.seed)
    opt = OptState(config.lr, config.momentum)
    if config.algorithm == "solo":
        return _run_solo(config, model_spec, data, test, root, opt)
    if config.algorithm == "clustered":
        return _run_clustered(config, model_spec, data, test, root, opt)
    return _run_global_family(config, model_spec, data, test, root, opt)


def _with_head(global_p: np.ndarray, head: np.ndarray, boundary: int) -> np.ndarray:
    theta = global_p.copy()
    theta[boundary:] = head
    return theta


def _stats_tuple(selected, results, sizes) -> tuple[ClientRoundStat, ...]:
    return tuple(
        ClientRoundStat(k, sizes[k], results[k][1].steps, results[k][1].mean_loss)
        for k in selected
    )


def _run_global_family(config, model_spec, data, test, root, opt) -> RunResult:
    algo = config.algorithm
    global_p = init_params(model_spec, root.substream("init", 0))
    boundary = model_spec.local_boundary()
    decoupled = algo == "decoupled"
    heads = (
        {k: global_p[boundary:].copy() for k in range(config.n_clients)}
        if decoupled
        else None
    )
    scaffold = (
        ScaffoldState.initial(len(global_p), range(config.n_clients))
        if algo == "scaffold"
        else None
    )
    prox_mu = config.mu if algo == "fedprox" else 0.0
    train_spec = replace(config.local, prox_mu=prox_mu)
    test_idx = np.arange(test.n_samples)
    logs: list[RoundLog] = []

    for t in range(config.rounds):
        selected = sample_clients(
            root.substream("sample", t), config.n_clients, config.sample_rate
        )
        results = {
            k: _local_train(
                model_spec,
                _with_head(global_p, heads[k], boundary) if decoupled else global_p,
                data.features[k],
                data.labels[k],
                train_spec,
                opt,
                root.substream("client", k, t),
                scaffold.server - scaffold.clients[k] if scaffold else None,
            )
            for k in selected
        }

        if algo == "fednova":
            updates = [
                (results[k][0] - global_p, data.sizes[k], results[k][1].steps)
                for k in selected
            ]
            global_p = fuse_fednova(updates, global_p, config.momentum)
        elif algo == "scaffold":
            delta = np.zeros(len(global_p))
            variate_delta = np.zeros(len(global_p))
            for k in selected:
                local_p = results[k][0]
                delta += local_p - global_p
                new_c = scaffold_client_variate(
                    scaffold.clients[k],
                    scaffold.server,
                    global_p,
                    local_p,
                    results[k][1].steps,
                    config.lr,
                )
                variate_delta += new_c - scaffold.clients[k]
                scaffold.clients[k] = new_c
            m = len(selected)
            global_p = global_p + delta / m
            scaffold.server = scaffold.server + variate_delta / config.n_clients
        else:
            fused = fuse_fedavg([(results[k][0], data.sizes[k]) for k in selected])
            if decoupled:
                for k in selected:
                    heads[k] = results[k][0][boundary:].copy()
            global_p = fused
        model_spec.check_finite(global_p)

        acc = evaluate(model_spec, global_p, test, test_idx)
        logs.append(
            RoundLog(t, selected, len(selected), acc, _stats_tuple(selected, results, data.sizes))
        )

    personal: dict[int, np.ndarray] = {}
    if algo == "fedavg_ft":
        personal = _fine_tune_data(
            global_p, model_spec, data, config.ft_epochs, config.local.batch_size, opt, root
        )
    elif decoupled:
        personal = {k: _with_head(global_p, heads[k], boundary) for k in range(config.n_clients)}
    return RunResult(logs, global_p, personal)


def _fine_tune_data(
    global_params: np.ndarray,
    model_spec: ModelSpec,
    data: _ClientData,
    ft_epochs: int,
    batch_size: int,
    opt: OptState,
    root: Rng,
) -> dict[int, np.ndarray]:
    """Every client (all N) locally fine-tunes the global model.

    ft_epochs of the standard local loop starting from global_params;
    returns the per-client personal models. ft_epochs=0 returns
    identical copies of the global model.
    """
    spec = LocalTrainSpec(epochs=ft_epochs, batch_size=batch_size)
    return {
        k: _local_train(
            model_spec, global_params, data.features[k], data.labels[k],
            spec, opt, root.substream("ft", k),
        )[0]
        for k in range(len(data.sizes))
    }


def assign_cluster(model_spec, clusters, x, y) -> int:
    """Lowest-train-loss cluster, ties toward the lowest cluster id."""
    losses = [forward_loss_grad(model_spec, c, x, y)[0] for c in clusters]
    return int(np.argmin(losses))


def _run_clustered(config, model_spec, data, test, root, opt) -> RunResult:
    clusters = [
        init_params(model_spec, root.substream("init", j)) for j in range(config.n_clusters)
    ]
    test_idx = np.arange(test.n_samples)
    logs: list[RoundLog] = []
    for t in range(config.rounds):
        selected = sample_clients(
            root.substream("sample", t), config.n_clients, config.sample_rate
        )
        assignment = {
            k: assign_cluster(model_spec, clusters, data.features[k], data.labels[k])
            for k in selected
        }
        results = {
            k: _local_train(
                model_spec, clusters[assignment[k]], data.features[k], data.labels[k],
                config.local, opt, root.substream("client", k, t),
            )
            for k in selected
        }
        for j in range(config.n_clusters):
            members = [k for k in selected if assignment[k] == j]
            if members:
                clusters[j] = fuse_fedavg([(results[k][0], data.sizes[k]) for k in members])
                model_spec.check_finite(clusters[j])
        cluster_accs = [evaluate(model_spec, c, test, test_idx) for c in clusters]
        acc = max(cluster_accs)
        logs.append(
            RoundLog(t, selected, len(selected), acc, _stats_tuple(selected, results, data.sizes))
        )
    final_accs = [evaluate(model_spec, c, test, test_idx) for c in clusters]
    best = int(np.argmax(final_accs))
    personal = {
        k: clusters[assign_cluster(model_spec, clusters, data.features[k], data.labels[k])]
        for k in range(config.n_clients)
    }
    return RunResult(logs, clusters[best], personal, final_clusters=list(clusters))


def _run_solo(config, model_spec, data, test, root, opt) -> RunResult:
    """Local-only training: T rounds of E epochs per client, no fusion.

    Each client sees only its own partition. The per-round
    "global" accuracy is the mean of client accuracies on the server
    test set (there is no shared model).
    """
    init = init_params(model_spec, root.substream("init", 0))
    models = {k: init for k in range(config.n_clients)}
    test_idx = np.arange(test.n_samples)
    logs: list[RoundLog] = []
    for t in range(config.rounds):
        results = {
            k: _local_train(
                model_spec, models[k], data.features[k], data.labels[k],
                config.local, opt, root.substream("client", k, t),
            )
            for k in range(config.n_clients)
        }
        models = {k: results[k][0] for k in results}
        accs = [evaluate(model_spec, models[k], test, test_idx) for k in sorted(models)]
        selected = tuple(range(config.n_clients))
        logs.append(
            RoundLog(
                t, selected, len(selected), float(np.mean(accs)),
                _stats_tuple(selected, results, data.sizes),
            )
        )
    return RunResult(logs, None, models)
