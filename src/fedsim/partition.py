"""Client data partitioning: IID plus four Non-IID mechanisms.

Every mechanism states its result as one int64 array `owner` that holds
the client id of every train row, and `_build` turns that array into
the client partitions. Each partition is therefore an exact cover of
the train index range: client index sets are pairwise disjoint and
their union is the full dataset. Clients that would end up empty are
repaired by redrawing their randomness a bounded number of times.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Rng, dirichlet_sample
from .data import Dataset, allocate_local_test
from .errors import InvalidArgument, PartitionError

_EPS = 1e-9
_MAX_REPAIR = 100

PARTITION_KINDS = ("iid", "label-skew", "label-dir", "random-shard", "quantity-dir")


@dataclass(frozen=True)
class PartitionSpec:
    """Which mechanism to run and its single level parameter."""

    kind: str
    n_clients: int
    p: float | None = None
    alpha: float | None = None
    shards_per_client: int | None = None

    def __post_init__(self):
        if self.kind not in PARTITION_KINDS:
            raise InvalidArgument(f"unknown partition kind {self.kind!r}")
        if self.n_clients < 1:
            raise InvalidArgument("n_clients must be >= 1")
        required = {
            "iid": (),
            "label-skew": ("p",),
            "label-dir": ("alpha",),
            "random-shard": ("shards_per_client",),
            "quantity-dir": ("alpha",),
        }[self.kind]
        for name in ("p", "alpha", "shards_per_client"):
            value = getattr(self, name)
            if name in required and value is None:
                raise InvalidArgument(f"{self.kind} partition requires {name}")
            if name not in required and value is not None:
                raise InvalidArgument(f"{self.kind} partition does not take {name}")
        # so a config fails at load; the partition functions keep theirs for direct callers
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise InvalidArgument(f"p must be in (0, 1], got {self.p}")
        if self.alpha is not None and self.alpha <= 0.0:
            raise InvalidArgument(f"alpha must be > 0, got {self.alpha}")
        if self.shards_per_client is not None and self.shards_per_client < 1:
            raise InvalidArgument("shards_per_client must be >= 1")

    @property
    def level(self) -> float | None:
        """Heterogeneity level for reporting (p, alpha, or shard count)."""
        if self.kind == "label-skew":
            return self.p
        if self.kind in ("label-dir", "quantity-dir"):
            return self.alpha
        if self.kind == "random-shard":
            return float(self.shards_per_client)
        return None


@dataclass(frozen=True)
class ClientPartition:
    """One client's index sets into the train and test datasets."""

    client_id: int
    train_indices: np.ndarray
    owned_classes: frozenset[int]
    test_indices: np.ndarray | None = None

    def __post_init__(self):
        idx = np.sort(np.asarray(self.train_indices, dtype=np.int64))
        if idx.size == 0:
            raise InvalidArgument(f"client {self.client_id} has no train samples")
        idx.setflags(write=False)
        object.__setattr__(self, "train_indices", idx)
        object.__setattr__(self, "owned_classes", frozenset(int(c) for c in self.owned_classes))
        if self.test_indices is not None:
            t = np.asarray(self.test_indices, dtype=np.int64)
            t.setflags(write=False)
            object.__setattr__(self, "test_indices", t)

    @property
    def n_train(self) -> int:
        return int(self.train_indices.size)


def _normalized(
    client_id: int,
    train_indices: np.ndarray,
    owned_classes: frozenset[int],
    test_indices: np.ndarray | None = None,
) -> ClientPartition:
    """A partition of fields already in the form `__post_init__` gives
    them (ascending read-only int64 train indices, a frozenset of ints,
    read-only int64 test indices or None), made without normalizing
    them again."""
    part = object.__new__(ClientPartition)
    part.__dict__.update(
        client_id=client_id,
        train_indices=train_indices,
        owned_classes=owned_classes,
        test_indices=test_indices,
    )
    return part


def _build(train: Dataset, owner: np.ndarray, n: int) -> list[ClientPartition]:
    """Partitions of clients 0..n-1 from the owning client of every train row.

    Each client's train indices are a read-only view of one stable
    argsort by owner, so they are ascending as they are cut. A client
    that owns no row is an InvalidArgument, as in ClientPartition.
    """
    rows = np.argsort(owner, kind="stable").astype(np.int64, copy=False)
    rows.setflags(write=False)
    ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
    parts = []
    for cid, (start, end) in enumerate(zip([0, *ends], ends)):
        if start == end:
            raise InvalidArgument(f"client {cid} has no train samples")
        idx = rows[start:end]
        parts.append(_normalized(cid, idx, frozenset(np.unique(train.labels[idx]).tolist())))
    return parts


def attach_local_tests(
    partitions: list[ClientPartition], global_test: Dataset
) -> list[ClientPartition]:
    """Fill each partition's test indices per the owned-class rule.

    Each distinct owned-class set's indices are computed once, and the
    clients that own that set share the one read-only array. The other
    fields are taken over as they are: a partition's fields are
    normalized when it is made.
    """
    shared: dict[frozenset[int], np.ndarray] = {}
    for p in partitions:
        if p.owned_classes not in shared:
            test = shared[p.owned_classes] = allocate_local_test(global_test, p.owned_classes)
            test.setflags(write=False)
    return [
        _normalized(p.client_id, p.train_indices, p.owned_classes, shared[p.owned_classes])
        for p in partitions
    ]


def largest_remainder_counts(shares: np.ndarray, total: int) -> np.ndarray:
    """Integer counts proportional to shares, summing exactly to total.

    Ties in the fractional remainders break toward the lowest index.
    """
    shares = np.asarray(shares, dtype=np.float64)
    if not shares.sum() > 0.0:
        raise InvalidArgument("shares must have a positive sum")
    raw = shares / shares.sum() * total
    # each floor exceeds its raw value by less than _EPS, and the raw
    # values sum to total up to rounding, so base sums to less than
    # total + 1: it never overshoots, and only a deficit is dealt out
    base = np.floor(raw + _EPS).astype(np.int64)
    deficit = total - int(base.sum())
    base[np.lexsort((np.arange(len(base)), -(raw - base)))[:deficit]] += 1
    return base


def partition_iid(train: Dataset, n: int, rng: Rng) -> list[ClientPartition]:
    """Random permutation split into n near-equal parts (diff <= 1)."""
    total = train.n_samples
    if n > total:
        raise InvalidArgument(f"cannot split {total} samples across {n} clients")
    perm = rng.permutation(total)
    sizes = np.full(n, total // n, dtype=np.int64)
    sizes[: total % n] += 1
    owner = np.empty(total, dtype=np.int64)
    owner[perm] = np.repeat(np.arange(n), sizes)
    return _build(train, owner, n)


def classes_per_client(p: float, n_classes: int) -> int:
    return int(math.ceil(p * n_classes - _EPS))


def partition_label_skew(
    train: Dataset, n: int, p: float, rng: Rng
) -> list[ClientPartition]:
    """Each client owns ceil(p * n_classes) random classes.

    Each class's samples are split uniformly among its owners (sizes
    differ by at most 1). Classes no client drew are repaired by
    swapping them in for a multiply-owned class of a random client.
    """
    k = train.n_classes
    if not 0.0 < p <= 1.0:
        raise InvalidArgument(f"p must be in (0, 1], got {p}")
    if p * k < 1.0 - _EPS:
        raise InvalidArgument(f"p * n_classes = {p * k:.3f} < 1")
    cpc = classes_per_client(p, k)
    if n * cpc < k:
        raise InvalidArgument(
            f"{n} clients x {cpc} classes cannot cover {k} classes"
        )
    class_indices = [np.nonzero(train.labels == c)[0] for c in range(k)]

    owned = [set(rng.sample_without_replacement(k, cpc).tolist()) for _ in range(n)]
    for _ in range(_MAX_REPAIR):
        _repair_class_coverage(owned, k, rng)
        owner = _split_classes_among_owners(class_indices, owned, n, rng)
        empties = np.nonzero(np.bincount(owner, minlength=n) == 0)[0]
        if empties.size == 0:
            return _build(train, owner, n)
        # a client can come up empty only when its classes have more
        # owners than samples; redraw just that client's class set
        for i in empties:
            owned[i] = set(rng.sample_without_replacement(k, cpc).tolist())
    raise PartitionError("label-skew repair failed after 100 redraws")


def _repair_class_coverage(owned: list[set[int]], k: int, rng: Rng) -> None:
    counts = [0] * k
    for s in owned:
        for c in s:
            counts[c] += 1
    uncovered = sorted(c for c in range(k) if counts[c] == 0)
    attempts = 0
    while uncovered:
        attempts += 1
        if attempts > 100 * k:
            raise PartitionError("class coverage repair did not converge")
        c = uncovered[0]
        i = rng.randbelow(len(owned))
        removable = sorted(d for d in owned[i] if counts[d] >= 2)
        if not removable:
            continue
        d = removable[rng.randbelow(len(removable))]
        owned[i].remove(d)
        owned[i].add(c)
        counts[d] -= 1
        counts[c] += 1
        uncovered = sorted(x for x in range(k) if counts[x] == 0)


def _split_classes_among_owners(
    class_indices: list[np.ndarray], owned: list[set[int]], n: int, rng: Rng
) -> np.ndarray:
    """Owner array splitting each class's shuffled rows among its owners,
    taken in a random order, with sizes that differ by at most 1 (the
    earlier owners get the larger). Every class has an owner:
    `_repair_class_coverage` runs first."""
    owner = np.empty(sum(idx.size for idx in class_indices), dtype=np.int64)
    for c, idx in enumerate(class_indices):
        owners = np.array([i for i in range(n) if c in owned[i]])
        shuffled = idx[rng.permutation(idx.size)]
        order = rng.permutation(owners.size)
        base, extra = divmod(idx.size, owners.size)
        owner[shuffled] = np.repeat(owners[order], base + (np.arange(owners.size) < extra))
    return owner


def partition_label_dir(
    train: Dataset, n: int, alpha: float, rng: Rng
) -> list[ClientPartition]:
    """Dirichlet(alpha) class proportions per client.

    Class c's samples are split in proportion to each client's c-th
    coordinate using largest-remainder rounding, giving an exact cover
    per class. Empty clients redraw their proportion vector.
    """
    if alpha <= 0.0:
        raise InvalidArgument(f"alpha must be > 0, got {alpha}")
    k = train.n_classes
    vectors = np.vstack([dirichlet_sample(rng, alpha, k) for _ in range(n)])
    class_indices = [np.nonzero(train.labels == c)[0] for c in range(k)]
    rows = np.concatenate([idx[rng.permutation(idx.size)] for idx in class_indices])

    for _ in range(_MAX_REPAIR):
        # counts[c, i]: how many of class c's rows client i gets
        counts = np.array([
            largest_remainder_counts(vectors[:, c], idx.size) for c, idx in enumerate(class_indices)
        ])
        empties = np.nonzero(counts.sum(axis=0) == 0)[0]
        if empties.size == 0:
            # class by class, the shuffled rows go to clients 0..n-1 in turn
            owner = np.empty(rows.size, dtype=np.int64)
            owner[rows] = np.repeat(np.tile(np.arange(n), k), counts.ravel())
            return _build(train, owner, n)
        for i in empties:
            vectors[i] = dirichlet_sample(rng, alpha, k)
    raise PartitionError("label-dir repair failed after 100 redraws")


def largest_valid_shards_per_client(total: int, n: int, requested: int) -> int:
    for spc in range(requested, 0, -1):
        if total % (n * spc) == 0:
            return spc
    return 0


def partition_random_shard(
    train: Dataset, n: int, shards_per_client: int, rng: Rng
) -> list[ClientPartition]:
    """Label-sort, cut into n * shards_per_client equal shards, deal."""
    if shards_per_client < 1:
        raise InvalidArgument("shards_per_client must be >= 1")
    total = train.n_samples
    n_shards = n * shards_per_client
    if total % n_shards != 0:
        suggestion = largest_valid_shards_per_client(total, n, shards_per_client)
        raise InvalidArgument(
            f"{total} samples not divisible into {n_shards} shards; "
            f"largest valid shards_per_client is {suggestion}"
        )
    shard_size = total // n_shards
    order = np.argsort(train.labels, kind="stable")
    deal = rng.permutation(n_shards)
    # client i is dealt shards deal[i * spc : (i + 1) * spc], so shard s
    # goes to client argsort(deal)[s] // spc
    owner = np.empty(total, dtype=np.int64)
    owner[order] = np.repeat(np.argsort(deal) // shards_per_client, shard_size)
    return _build(train, owner, n)


def partition_quantity_dir(
    train: Dataset, n: int, alpha: float, rng: Rng
) -> list[ClientPartition]:
    """One Dirichlet(alpha) draw over clients sets sample quantities.

    Labels stay IID (random permutation); only the per-client counts
    skew. Zero-count clients redraw their gamma component.
    """
    if alpha <= 0.0:
        raise InvalidArgument(f"alpha must be > 0, got {alpha}")
    total = train.n_samples
    if n > total:
        raise InvalidArgument(f"cannot split {total} samples across {n} clients")
    gammas = np.array([rng.gamma(alpha) for _ in range(n)])
    for _ in range(_MAX_REPAIR):
        if gammas.sum() <= 0.0:
            gammas = np.array([rng.gamma(alpha) for _ in range(n)])
            continue
        counts = largest_remainder_counts(gammas, total)
        zeros = np.nonzero(counts == 0)[0]
        if zeros.size == 0:
            owner = np.empty(total, dtype=np.int64)
            owner[rng.permutation(total)] = np.repeat(np.arange(n), counts)
            return _build(train, owner, n)
        for i in zeros:
            gammas[i] = rng.gamma(alpha)
    raise PartitionError("quantity-dir repair failed after 100 redraws")


def make_partitions(train: Dataset, spec: PartitionSpec, rng: Rng) -> list[ClientPartition]:
    """Dispatch on spec.kind."""
    if spec.kind == "iid":
        return partition_iid(train, spec.n_clients, rng)
    if spec.kind == "label-skew":
        return partition_label_skew(train, spec.n_clients, spec.p, rng)
    if spec.kind == "label-dir":
        return partition_label_dir(train, spec.n_clients, spec.alpha, rng)
    if spec.kind == "random-shard":
        return partition_random_shard(train, spec.n_clients, spec.shards_per_client, rng)
    return partition_quantity_dir(train, spec.n_clients, spec.alpha, rng)


def manifest_lines(partitions: list[ClientPartition]) -> list[str]:
    """Text manifest: one `client,...` line per client."""
    lines = []
    for p in partitions:
        classes = ";".join(str(c) for c in sorted(p.owned_classes))
        test_n = int(p.test_indices.size) if p.test_indices is not None else 0
        lines.append(
            f"client,{p.client_id},classes,{classes},train_n,{p.n_train},test_n,{test_n}"
        )
    return lines


def manifest_jsonl(partitions: list[ClientPartition]) -> list[str]:
    """JSON-lines manifest with explicit index arrays."""
    lines = []
    for p in partitions:
        lines.append(
            json.dumps(
                {
                    "client": p.client_id,
                    "classes": sorted(p.owned_classes),
                    "train_indices": p.train_indices.tolist(),
                    "test_indices": (
                        p.test_indices.tolist() if p.test_indices is not None else None
                    ),
                },
                separators=(",", ":"),
            )
        )
    return lines
