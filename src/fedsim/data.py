"""Dataset container, synthetic blob generation, and IDX ingestion."""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Rng
from .errors import (
    IdxFormatError,
    IdxIoError,
    InconsistentPairError,
    InvalidArgument,
)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus integer labels.

    Features are float64 in [0, 1]; labels are class ids in
    [0, n_classes). A train split must contain every declared class.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    split: str = "train"

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labs = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or labs.ndim != 1 or feats.shape[0] != labs.shape[0]:
            raise InvalidArgument(
                f"features {feats.shape} and labels {labs.shape} do not align"
            )
        if labs.size and (labs.min() < 0 or labs.max() >= self.n_classes):
            raise InvalidArgument("label outside [0, n_classes)")
        if feats.size and (feats.min() < 0.0 or feats.max() > 1.0):
            raise InvalidArgument("features must lie in [0, 1]")
        if self.split not in ("train", "test"):
            raise InvalidArgument(f"unknown split {self.split!r}")
        if self.split == "train":
            present = np.unique(labs)
            if len(present) != self.n_classes:
                missing = sorted(set(range(self.n_classes)) - set(present.tolist()))
                raise InvalidArgument(f"train split missing classes {missing}")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian class-blob generator settings.

    Class c is centered at `separation * e_(c mod n_features)`; noise is
    isotropic with std `sigma`; samples are clipped to [0, 1].
    """

    n_classes: int
    n_features: int
    train_per_class: int
    test_per_class: int
    separation: float = 0.8
    sigma: float = 0.35

    def __post_init__(self):
        if self.n_classes < 1 or self.n_features < 1:
            raise InvalidArgument("n_classes and n_features must be >= 1")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise InvalidArgument("per-class sample counts must be >= 1")
        if self.separation <= 0.0 or self.sigma < 0.0:
            raise InvalidArgument("separation must be > 0 and sigma >= 0")


def class_centroids(spec: SyntheticSpec) -> np.ndarray:
    """Deterministic (n_classes, n_features) centroid matrix."""
    c = np.zeros((spec.n_classes, spec.n_features))
    k = np.arange(spec.n_classes)
    c[k, k % spec.n_features] = spec.separation
    return np.clip(c, 0.0, 1.0)


def generate_synthetic(spec: SyntheticSpec, rng: Rng) -> tuple[Dataset, Dataset]:
    """Build (train, test) blob datasets with exact per-class counts."""
    centroids = class_centroids(spec)
    out = []
    for split, per_class in (("train", spec.train_per_class), ("test", spec.test_per_class)):
        rows = []
        labels = []
        for k in range(spec.n_classes):
            noise = rng.normal(per_class * spec.n_features)
            noise = noise.reshape(per_class, spec.n_features) * spec.sigma
            rows.append(np.clip(centroids[k] + noise, 0.0, 1.0))
            labels.append(np.full(per_class, k, dtype=np.int64))
        out.append(
            Dataset(np.vstack(rows), np.concatenate(labels), spec.n_classes, split)
        )
    return out[0], out[1]


def _open_maybe_gz(path: str | Path):
    p = Path(path)
    if p.suffix == ".gz":
        return gzip.open(p, "rb")
    return open(p, "rb")


def _read_exact(f, n: int, path) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise IdxIoError(f"{path}: truncated, wanted {n} bytes, got {len(data)}")
    return data


def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Parse a big-endian IDX image/label pair into a Dataset.

    Pixel bytes are scaled by 1/255 into features. Class count is the
    max label + 1. The returned split tag is "train"; callers relabel
    test files via dataclasses.replace.
    """
    with _open_maybe_gz(images_path) as f:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"{images_path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        pixels = _read_exact(f, n * rows * cols, images_path)
    with _open_maybe_gz(labels_path) as f:
        magic, n_labels = struct.unpack(">II", _read_exact(f, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        if n_labels != n:
            raise InconsistentPairError(
                f"images declare {n} samples but labels declare {n_labels}"
            )
        raw_labels = _read_exact(f, n, labels_path)
    feats = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    feats = feats.reshape(n, rows * cols)
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    n_classes = int(labels.max()) + 1 if n else 1
    return Dataset(feats, labels, n_classes, "train")


def save_idx(ds: Dataset, images_path: str | Path, labels_path: str | Path) -> None:
    """Write a Dataset as an IDX pair, quantizing features to uint8.

    Lossless round trip only when every feature is a multiple of 1/255
    (true for anything loaded via load_idx).
    """
    pixels = np.rint(ds.features * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, ds.n_samples, ds.n_features, 1))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, ds.n_samples))
        f.write(ds.labels.astype(np.uint8).tobytes())


MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def load_mnist_dir(mnist_dir: str | Path) -> tuple[Dataset, Dataset]:
    """Load the four standard MNIST files (optionally .gz) from a dir."""
    import dataclasses

    out = {}
    for split, (img, lab) in MNIST_FILES.items():
        img_path = _find_file(Path(mnist_dir), img)
        lab_path = _find_file(Path(mnist_dir), lab)
        ds = load_idx(img_path, lab_path)
        out[split] = dataclasses.replace(ds, split=split)
    return out["train"], out["test"]


def _find_file(d: Path, name: str) -> Path:
    for candidate in (d / name, d / (name + ".gz")):
        if candidate.exists():
            return candidate
    raise IdxIoError(f"missing {name}[.gz] under {d}")


def allocate_local_test(global_test: Dataset, owned_classes) -> np.ndarray:
    """Indices of ALL test samples whose label is an owned class.

    Every client owning the same class set receives the identical
    (deterministic, exhaustive) index set; no random sub-sampling.
    """
    owned = sorted(set(int(c) for c in owned_classes))
    if not owned:
        raise InvalidArgument("owned_classes must be non-empty")
    if owned[0] < 0 or owned[-1] >= global_test.n_classes:
        raise InvalidArgument(f"class id outside [0, {global_test.n_classes})")
    table = np.zeros(global_test.n_classes, dtype=bool)
    table[owned] = True
    return np.flatnonzero(table[global_test.labels]).astype(np.int64, copy=False)
