"""Round protocol, fusion strategies, and the in-scope algorithms.

Global algorithms: fedavg, fedprox (proximal local objective), fednova
(normalized averaging), scaffold (control variates). Personalized:
fedavg_ft (post-hoc fine-tuning), decoupled (local classifier head),
clustered (lowest-loss cluster assignment), solo (no federation).

All of them run one round loop, `_round_loop`, over a pool of models:
one shared model, `n_clusters` for clustered, one per client for solo.
Each round it samples clients (solo takes all), maps each to its pool
slot, trains them from there, fuses each slot's members and evaluates
the pool, but only in the rounds a reported number reads: for
`run_federation`, the last max(floor(C*N), 1) rounds, the window
`gfl_metric` averages. Other rounds log no accuracy. An algorithm
changes only some steps: fedprox the train spec, scaffold the gradient
offsets and the fusion, fednova the fusion, decoupled the start (it
splices in the client's head), clustered and solo the slot, solo the
fusion (none) and the accuracy (the pool's mean, not its best). The
loop only trains and returns its final pool; `_federation_task` builds
the `RunResult` from it, with the models the personalized algorithms
keep and the final global model.

The selected clients train together in one stacked `_local_train`
call, each on its own random substream; a client's result does not
depend on which clients share the stack or their order. Fusion
consumes the results in client-id order. The loop is a task: a
generator that yields its round's job (starts, rows, substreams and
training settings) and is sent back the trained rows. `_drive` steps
any number of tasks one round at a time and trains the jobs of each
step that share a model, epochs, batch size, lr and momentum in one
call, each job's FedProx weight and SCAFFOLD offsets going to its own
clients only. `run_federation` drives one federation alone, and
`_lockstep` steps several tasks as one; a sweep drives the cells of a
run seed together, group by group (`experiment.lockstep_groups`). A
client that diverges in a merged call is recorded and the call goes
on, so the task that owns it fails, with an error naming its
federation and round, and every other task keeps its reply from that
same call.
"""

from __future__ import annotations

import bisect
import copy
import hashlib
import itertools
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Generator, NamedTuple

import numpy as np

from .core import Rng
from .data import Dataset
from .errors import FedsimError, IncompatibleShape, InvalidArgument, NumericError
from .model import (
    LocalStats,
    LocalTrainSpec,
    ModelSpec,
    OptState,
    _local_train,
    _losses,
    evaluate,
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
    global_accuracy: float | None  # None in a round whose pool was not evaluated
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
            h.update(struct.pack("<qq", log.round, log.m))
            if log.global_accuracy is not None:
                h.update(struct.pack("<d", log.global_accuracy))
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
    """Server and per-client control variates (plain arrays).

    An update replaces a variate and never writes into it, so the
    initial client variates share one zero array.
    """

    server: np.ndarray
    clients: dict[int, np.ndarray]

    @staticmethod
    def initial(n_params: int, client_ids) -> "ScaffoldState":
        zero = np.zeros(n_params)
        return ScaffoldState(np.zeros(n_params), dict.fromkeys(map(int, client_ids), zero))


def scaffold_client_variate(
    old_variate: np.ndarray,
    server_variate: np.ndarray,
    global_values: np.ndarray,
    local_values: np.ndarray,
    steps: int,
    lr: float,
    momentum: float = 0.0,
) -> np.ndarray:
    """c_k <- c_k - c + (theta_g - theta_k) / (lr * tau_effective(steps, momentum)).

    SCAFFOLD's option II divides the displacement by the distance the
    client's steps move it per unit gradient; under SGD momentum that is
    lr times the effective step count `fuse_fednova` also uses. At
    momentum 0 the divisor is steps * lr.
    """
    if lr <= 0.0:
        raise InvalidArgument("scaffold requires lr > 0")
    if steps == 0:
        return old_variate
    scale = lr * tau_effective(steps, momentum)
    return old_variate - server_variate + (global_values - local_values) / scale


class _ClientData:
    """Per-client train arrays, resolved once per (dataset, partitions)
    and shared by every federation trained on them."""

    def __init__(self, train: Dataset, partitions: list[ClientPartition]):
        self.features = [train.features[p.train_indices] for p in partitions]
        self.labels = [train.labels[p.train_indices] for p in partitions]
        self.sizes = [p.n_train for p in partitions]

    def subset(self, positions: list[int]) -> "_ClientData":
        """The clients at `positions`, numbered from 0; shares their arrays."""
        sub = copy.copy(self)
        sub.features = [self.features[k] for k in positions]
        sub.labels = [self.labels[k] for k in positions]
        sub.sizes = [self.sizes[k] for k in positions]
        return sub


def run_federation(
    config: FederationConfig,
    model_spec: ModelSpec,
    partitions: list[ClientPartition],
    train: Dataset,
    test: Dataset,
) -> RunResult:
    """Execute T communication rounds of the configured algorithm."""
    data = _ClientData(train, partitions)
    return _run(_federation_task(config, model_spec, partitions, data, test))


def _federation_task(config, model_spec, partitions, data: _ClientData, test) -> Task:
    """`run_federation` as a task; `data` holds the train rows of `partitions`.

    After the round loop it builds the result from the final pool: the
    models the personalized algorithms keep, and `final_global`, the
    last round's best model (none for solo)."""
    if len(partitions) != config.n_clients:
        raise InvalidArgument(
            f"config declares {config.n_clients} clients, got {len(partitions)} partitions"
        )
    algo, n = config.algorithm, config.n_clients
    window = participant_count(n, config.sample_rate)
    logs, pool, heads, accs = yield from _round_loop(config, model_spec, data, test, window)
    personal: dict[int, np.ndarray] = {}
    if algo == "fedavg_ft":
        opt = OptState(config.lr, config.momentum)
        with _labelled("main federation fine-tune"):
            personal = _fine_tune_data(
                pool[0], model_spec, data, config.ft_epochs, config.local.batch_size, opt,
                Rng(config.seed),
            )
    elif heads is not None:
        boundary = model_spec.local_boundary()
        personal = {k: _with_head(pool[0], heads[k], boundary) for k in range(n)}
    elif algo in ("clustered", "solo"):
        label = "main federation assignment"
        personal = {k: pool[_slot(config, model_spec, pool, data, k, label)] for k in range(n)}
    final_global = None if algo == "solo" else pool[int(np.argmax(accs))]
    return RunResult(logs, final_global, personal, pool if algo == "clustered" else None)


class _Job(NamedTuple):
    """One stacked `_local_train` call's worth of clients and its settings.

    `label` names the job in the NumericError of a diverging client,
    for example "trainer federation round 3". `prox_mu` is the FedProx
    weight of each of its clients, 0 for none.
    """

    label: str
    model_spec: ModelSpec
    spec: LocalTrainSpec
    opt: OptState
    prox_mu: float
    starts: list[np.ndarray]
    features: list[np.ndarray]
    labels: list[np.ndarray]
    rngs: list[Rng]
    grad_offsets: list[np.ndarray] | None = None


Reply = tuple[np.ndarray, LocalStats]
# A task yields the jobs of its next step, is sent back their trained rows
# and stats in that order, and returns its result. A round loop is a task
# of one job a round; a sweep cell is one task.
Task = Generator[list[_Job], list[Reply], object]


def _run(task: Task):
    """Drive one task alone: its result, or the FedsimError it raised."""
    (outcome,) = _drive([task])
    if isinstance(outcome, FedsimError):
        raise outcome
    return outcome


def _lockstep(tasks: list[Task]) -> Task:
    """The tasks advanced together as one: each step yields the jobs of
    every task still running, in task order, and it returns their
    results. An error in one task ends them all."""
    results: list = [None] * len(tasks)
    replies: dict[int, list[Reply] | None] = dict.fromkeys(range(len(tasks)))
    while True:
        jobs = _next_jobs(tasks, replies, results, ())
        if not jobs:
            return results
        trained = yield [job for task_jobs in jobs.values() for job in task_jobs]
        lo = 0
        for i, task_jobs in jobs.items():
            replies[i] = trained[lo : lo + len(task_jobs)]
            lo += len(task_jobs)
        del jobs, trained


def _drive(tasks: list[Task], shuffles: dict | None = None) -> list:
    """Advance every task one step at a time until each returns; each
    step's jobs train together (`_train_jobs`). Returns each task's
    result, or the FedsimError it raised: a failed task is dropped and
    the others go on. A task with a diverging client is closed with its
    error; a client's result does not depend on its stack, so the others
    go on bit-identical to being driven alone.

    `shuffles`, when given, is the epoch-shuffle memo every call of the
    drive shares (`_local_train`): a fresh client stream whose shuffles
    an earlier client drew, in this call or an earlier one, copies them
    instead of drawing them again. The shuffles are fixed by the stream's
    key, so the results are bit-identical either way. `run_sweep` passes
    one per run seed, whose cells read the same client streams."""
    outcomes: list = [None] * len(tasks)
    replies: dict[int, list[Reply] | None] = dict.fromkeys(range(len(tasks)))
    while replies:
        jobs = _next_jobs(tasks, replies, outcomes, FedsimError)
        replies, failed = _train_jobs(jobs, shuffles)
        del jobs
        for i, exc in failed.items():
            outcomes[i] = exc
            tasks[i].close()
            del replies[i]
    return outcomes


def _next_jobs(tasks, replies, outcomes, caught) -> dict[int, list[_Job]]:
    """Send each task its reply; return the jobs of those still running.
    A finished task's outcome is its result, or the exception of type
    `caught` it raised. Each reply is dropped once sent, so no trained
    row outlives its task's use of it."""
    jobs = {}
    for i in list(replies):
        try:
            jobs[i] = tasks[i].send(replies.pop(i))
        except StopIteration as done:
            outcomes[i] = done.value
        except caught as exc:
            outcomes[i] = exc
    return jobs


def _train_jobs(
    jobs: dict[int, list[_Job]], shuffles: dict | None
) -> tuple[dict[int, list[Reply]], dict[int, NumericError]]:
    """Train the jobs of each task, one `_local_train` call for the jobs
    that share its shared settings (model, epochs, batch size, lr and
    momentum), in the order each setting first appears, and split the
    rows and stats back per job. Also returns each task's first error:
    its first diverging client's, in call order. `shuffles` is the
    drive's shuffle memo, or None."""
    calls: dict[tuple, list[tuple[int, int]]] = {}
    for i, task_jobs in jobs.items():
        for p, job in enumerate(task_jobs):
            calls.setdefault((job.model_spec, job.spec, job.opt), []).append((i, p))
    replies = {i: [None] * len(task_jobs) for i, task_jobs in jobs.items()}
    failed: dict[int, NumericError] = {}
    for members in calls.values():
        trained, errors = _train_call([jobs[i][p] for i, p in members], shuffles)
        for (i, p), reply in zip(members, trained):
            replies[i][p] = reply
        for j, exc in errors.items():
            failed.setdefault(members[j][0], exc)
    return replies, failed


def _train_call(
    batch: list[_Job], shuffles: dict | None
) -> tuple[list[Reply], dict[int, NumericError]]:
    """One `_local_train` call over the clients of `batch`, in job order.

    Each job's FedProx weight and offsets go to its own clients only, and
    `shuffles` to the kernel as its shuffle memo. Returns each job's
    reply, and by job index the first error of each job with a diverging
    client, prefixed by its label, in the order the kernel found them.
    The jobs hold the round's Rngs and offsets, and are dropped on
    return, before the tasks fuse and evaluate.
    """
    first = batch[0]
    offsets = None
    if any(job.grad_offsets is not None for job in batch):
        offsets = [o for job in batch for o in job.grad_offsets or [None] * len(job.starts)]
    failures: dict[int, NumericError] = {}
    trained, stats = _local_train(
        first.model_spec,
        [theta for job in batch for theta in job.starts],
        [x for job in batch for x in job.features],
        [y for job in batch for y in job.labels],
        first.spec,
        first.opt,
        [rng for job in batch for rng in job.rngs],
        offsets,
        [job.prox_mu for job in batch for _ in job.starts],
        failures,
        shuffles,
    )
    ends = list(itertools.accumulate(len(job.starts) for job in batch))
    errors: dict[int, NumericError] = {}
    for k, exc in failures.items():
        j = bisect.bisect_right(ends, k)
        errors.setdefault(j, NumericError(f"{batch[j].label}: {exc}"))
    replies, lo = [], 0
    for job, hi in zip(batch, ends):
        steps = stats.client_steps[lo:hi]
        # a view would keep the whole stack alive until every job sharing
        # it has dropped its rows
        rows = trained if len(batch) == 1 else trained[lo:hi].copy()
        replies.append((rows, LocalStats(sum(steps), steps, stats.mean_losses[lo:hi])))
        lo = hi
    return replies, errors


def _with_head(global_p: np.ndarray, head: np.ndarray, boundary: int) -> np.ndarray:
    theta = global_p.copy()
    theta[boundary:] = head
    return theta


@contextmanager
def _labelled(label: str):
    """Prefix a NumericError raised inside with `label`."""
    try:
        yield
    except NumericError as exc:
        raise NumericError(f"{label}: {exc}") from exc


def _slot(config, model_spec, pool, data, k, label) -> int:
    """Client k's pool model: its lowest-loss cluster, its own (solo), or
    the shared one. A failed cluster assignment's error is prefixed by `label`."""
    if config.algorithm == "clustered":
        with _labelled(label):
            return assign_cluster(model_spec, pool, data.features[k], data.labels[k])
    return k if config.algorithm == "solo" else 0


def _fuse(config, theta, members, sizes, scaffold) -> np.ndarray:
    """Pool model `theta` fused from its members' (client id, trained
    row, steps), by fednova, scaffold, or fedavg for every other algorithm."""
    if config.algorithm == "fednova":
        updates = [(local_p - theta, sizes[k], steps) for k, local_p, steps in members]
        return fuse_fednova(updates, theta, config.momentum)
    if config.algorithm == "scaffold":
        delta = np.zeros(len(theta))
        variate_delta = np.zeros(len(theta))
        for k, local_p, steps in members:
            delta += local_p - theta
            new_c = scaffold_client_variate(
                scaffold.clients[k],
                scaffold.server,
                theta,
                local_p,
                steps,
                config.lr,
                config.momentum,
            )
            variate_delta += new_c - scaffold.clients[k]
            scaffold.clients[k] = new_c
        scaffold.server = scaffold.server + variate_delta / config.n_clients
        return theta + delta / len(members)
    return fuse_fedavg([(local_p, sizes[k]) for k, local_p, _ in members])


def _fuse_round(config, model_spec, pool, selected, slots, trained, steps, data, scaffold, label):
    """Fuse each pool model that some selected client trained, in place;
    solo's pool becomes the trained rows. A non-finite fused model
    raises NumericError prefixed by `label`; numpy's overflow warnings
    are silenced so that error is the single signal."""
    if config.algorithm == "solo":
        pool[:] = trained
        return
    members: dict[int, list] = {}
    for k, j, local_p, s in zip(selected, slots, trained, steps):
        members.setdefault(j, []).append((k, local_p, s))
    for j in sorted(members):
        with np.errstate(all="ignore"):
            pool[j] = _fuse(config, pool[j], members[j], data.sizes, scaffold)
        with _labelled(label):
            model_spec.check_finite(pool[j])


def _round_loop(config, model_spec, data, test, evaluated: int, name: str = "main") -> Task:
    """The round protocol of every algorithm over its pool of models.

    It only trains, and returns the round logs, the final pool,
    decoupled's heads (or None) and the last evaluated round's pool
    accuracies (or None). The pool is evaluated on `test` only in the
    last `evaluated` rounds; every other round logs its accuracy as
    None. `name` names the federation in its rounds' errors.
    """
    algo, n = config.algorithm, config.n_clients
    root = Rng(config.seed)
    pool = [
        init_params(model_spec, root.substream("init", j))
        for j in range(config.n_clusters if algo == "clustered" else 1)
    ]
    if algo == "solo":
        pool *= n
    boundary = model_spec.local_boundary()
    # heads are replaced, never written into, so the initial ones share one copy
    heads = dict.fromkeys(range(n), pool[0][boundary:].copy()) if algo == "decoupled" else None
    scaffold = ScaffoldState.initial(len(pool[0]), range(n)) if algo == "scaffold" else None
    prox_mu = config.mu if algo == "fedprox" else 0.0
    opt = OptState(config.lr, config.momentum)
    test_idx = range(test.n_samples)
    logs: list[RoundLog] = []
    accs = None

    for t in range(config.rounds):
        label = f"{name} federation round {t}"
        selected = (
            tuple(range(n)) if algo == "solo"
            else sample_clients(root.substream("sample", t), n, config.sample_rate)
        )
        slots = [_slot(config, model_spec, pool, data, k, label) for k in selected]
        starts = [pool[j] for j in slots]
        if heads is not None:
            starts = [_with_head(theta, heads[k], boundary) for k, theta in zip(selected, starts)]
        [(trained, stats)] = yield [_Job(
            label,
            model_spec,
            config.local,
            opt,
            prox_mu,
            starts,
            [data.features[k] for k in selected],
            [data.labels[k] for k in selected],
            [root.substream("client", k, t) for k in selected],
            [scaffold.server - scaffold.clients[k] for k in selected] if scaffold else None,
        )]
        _fuse_round(
            config, model_spec, pool, selected, slots, trained, stats.client_steps, data,
            scaffold, label,
        )
        if heads is not None:
            for k, row in zip(selected, trained):
                heads[k] = row[boundary:].copy()
        # the next round's call need not hold this one's rows
        del trained

        acc = None
        if t >= config.rounds - evaluated:
            with _labelled(label):
                accs = [evaluate(model_spec, theta, test, test_idx) for theta in pool]
            acc = float(np.mean(accs)) if algo == "solo" else max(accs)
        client_stats = tuple(
            ClientRoundStat(k, data.sizes[k], steps, loss)
            for k, steps, loss in zip(selected, stats.client_steps, stats.mean_losses)
        )
        logs.append(RoundLog(t, selected, len(selected), acc, client_stats))

    return logs, pool, heads, accs


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
    clients = range(len(data.sizes))
    trained, _ = _local_train(
        model_spec, [global_params] * len(clients), data.features, data.labels, spec, opt,
        [root.substream("ft", k) for k in clients],
    )
    return dict(zip(clients, trained))


def assign_cluster(model_spec, clusters, x, y) -> int:
    """Lowest-train-loss cluster, ties toward the lowest cluster id.

    The k clusters are scored as one stack, each on all of (x, y), by
    the training loss from the forward pass alone.
    """
    return int(np.argmin(_losses(model_spec, np.array(clusters), x, y)))
