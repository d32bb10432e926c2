"""Differentiable classifiers with analytic gradients and local SGD.

Two model families share one flat-parameter representation: multinomial
logistic regression and a one-hidden-layer ReLU MLP. Losses are mean
cross-entropy, optionally augmented with a proximal L2 pull toward an
anchor vector. The local-training loop mirrors the per-round client
procedure: reshuffle each epoch, split into batches, step with SGD
momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Rng
from .data import Dataset
from .errors import InvalidArgument, NumericError

MODEL_KINDS = ("logreg", "mlp")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    n_features: int
    n_classes: int
    hidden: int | None = None
    init_scale: float = 0.1
    layer_split: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidArgument(f"unknown model kind {self.kind!r}")
        if self.n_features < 1 or self.n_classes < 2:
            raise InvalidArgument("need n_features >= 1 and n_classes >= 2")
        if self.kind == "mlp" and (self.hidden is None or self.hidden < 1):
            raise InvalidArgument("mlp requires hidden >= 1")
        if not math.isfinite(self.init_scale) or self.init_scale < 0.0:
            raise InvalidArgument("init_scale must be finite and >= 0")
        if not 0 <= self.layer_split < len(self._view_plan):
            raise InvalidArgument("layer_split must be < segment count")

    @cached_property
    def _view_plan(self) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
        """(name, start, stop, shape) of each segment in the flat vector."""
        f, k, h = self.n_features, self.n_classes, self.hidden
        if self.kind == "logreg":
            shapes = [("w", (f, k)), ("b", (k,))]
        else:
            shapes = [("w1", (f, h)), ("b1", (h,)), ("w2", (h, k)), ("b2", (k,))]
        plan, start = [], 0
        for name, shape in shapes:
            stop = start + math.prod(shape)
            plan.append((name, start, stop, shape))
            start = stop
        return tuple(plan)

    def n_params(self) -> int:
        return self._view_plan[-1][2]

    def local_boundary(self) -> int:
        """Offset where the trailing `layer_split` local segments begin."""
        if self.layer_split == 0:
            return self.n_params()
        return self._view_plan[-self.layer_split][1]

    def check_finite(self, theta: np.ndarray) -> None:
        """Raise NumericError naming the first segment of `theta` with a NaN or Inf."""
        if not np.isfinite(theta).all():
            name = next(
                name for name, start, stop, _ in self._view_plan
                if not np.isfinite(theta[start:stop]).all()
            )
            raise NumericError(f"non-finite value in segment {name}")


@dataclass(frozen=True)
class OptState:
    """SGD-with-momentum hyperparameters; velocity starts at zero per call."""

    lr: float
    momentum: float

    def __post_init__(self):
        if self.lr <= 0.0:
            raise InvalidArgument("learning rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidArgument("momentum must be in [0, 1)")


@dataclass(frozen=True)
class LocalTrainSpec:
    epochs: int
    batch_size: int
    prox_mu: float = 0.0

    def __post_init__(self):
        if self.epochs < 0:
            raise InvalidArgument("epochs must be >= 0")
        if self.batch_size < 1:
            raise InvalidArgument("batch_size must be >= 1")
        if self.prox_mu < 0.0:
            raise InvalidArgument("prox_mu must be >= 0")


def init_params(spec: ModelSpec, rng: Rng) -> np.ndarray:
    """Uniform(-init_scale, init_scale) weights, zero biases."""
    theta = np.zeros(spec.n_params())
    for name, start, stop, _ in spec._view_plan:
        if name.startswith("w"):
            theta[start:stop] = (rng.uniform(stop - start) * 2.0 - 1.0) * spec.init_scale
    return theta


def _unpack(spec: ModelSpec, theta: np.ndarray) -> list[np.ndarray]:
    """Per-segment views of a flat vector, shaped for the maths."""
    return [theta[start:stop].reshape(shape) for _, start, stop, shape in spec._view_plan]


def _logits(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    if spec.kind == "logreg":
        w, b = _unpack(spec, theta)
        return x @ w + b
    w1, b1, w2, b2 = _unpack(spec, theta)
    hidden = np.maximum(x @ w1 + b1, 0.0)
    return hidden @ w2 + b2


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the logits, computed in place in `z`."""
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    return z


def forward_loss_grad(
    spec: ModelSpec,
    theta: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    anchor: np.ndarray | None = None,
    prox_mu: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy (+ prox term) and its exact gradient.

    `theta` and `anchor` are flat parameter arrays; `y` holds integer
    class ids. A non-finite loss or gradient raises NumericError naming
    the first bad parameter segment. The gradient is a new array.
    """
    if x.shape[0] == 0:
        raise InvalidArgument("batch must be non-empty")
    if (anchor is not None) != (prox_mu > 0.0):
        raise InvalidArgument("anchor must be supplied iff prox_mu > 0")
    grad = np.empty_like(theta)
    # non-finite values are detected explicitly; silence numpy's overflow
    # warnings so the NumericError is the single signal
    with np.errstate(all="ignore"):
        loss = _loss_grad_into(
            spec, theta, _unpack(spec, theta), grad, _unpack(spec, grad), x, y, anchor, prox_mu
        )
    return loss, grad


def _loss_grad_into(
    spec: ModelSpec,
    theta: np.ndarray,
    views: list[np.ndarray],
    grad: np.ndarray,
    grad_views: list[np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    anchor: np.ndarray | None,
    prox_mu: float,
) -> float:
    """forward_loss_grad without its argument checks, writing into `grad`.

    `views` and `grad_views` are `_unpack` of `theta` and `grad`. Callers
    hold the checks' conditions (non-empty batch, anchor iff prox_mu > 0)
    and silence numpy's floating-point warnings.
    """
    n = x.shape[0]
    rows = np.arange(n)
    # `a` is the input of the output layer (w, b): x itself for logreg
    if spec.kind == "logreg":
        w, b = views
        a = x
    else:
        w1, b1, w, b = views
        pre = x @ w1
        pre += b1
        a = np.maximum(pre, 0.0)
    z = a @ w
    z += b
    dz = _softmax(z)
    p_true = dz[rows, y]
    dz[rows, y] -= 1.0
    dz /= n
    gw, gb = grad_views[-2:]
    np.matmul(a.T, dz, out=gw)
    np.add.reduce(dz, axis=0, out=gb)
    if spec.kind == "mlp":
        dh = dz @ w.T
        dh *= pre > 0.0
        gw1, gb1 = grad_views[:2]
        np.matmul(x.T, dh, out=gw1)
        np.add.reduce(dh, axis=0, out=gb1)
    # the floor avoids log(0) for saturated probabilities; the sign flip
    # after the sum is exact, so this is the mean of -log p
    loss = float(-np.add.reduce(np.log(np.maximum(p_true, 1e-300))) / n)
    if prox_mu > 0.0:
        diff = theta - anchor
        loss += 0.5 * prox_mu * float(diff @ diff)
        grad += prox_mu * diff
    if not math.isfinite(loss) or not np.isfinite(grad).all():
        # name the first bad segment of the gradient, else of the parameters
        spec.check_finite(grad)
        spec.check_finite(theta)
        raise NumericError("non-finite loss")
    return loss


@dataclass(frozen=True)
class LocalStats:
    steps: int
    mean_loss: float


def _local_train(
    spec: ModelSpec,
    params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    train: LocalTrainSpec,
    opt: OptState,
    rng: Rng,
    grad_offset: np.ndarray | None = None,
) -> tuple[np.ndarray, LocalStats]:
    """Copy `params` and run E epochs of batched SGD with momentum.

    Each epoch reshuffles and splits into batches of `batch_size`; the
    short remainder batch is kept. E=0 returns the copy unchanged.
    `grad_offset`, when given, is added to every batch gradient (the
    control-variate correction hook). Velocity starts at zero. Non-finite
    parameters raise NumericError naming the first bad segment.
    """
    n = labels.shape[0]
    if n == 0:
        raise InvalidArgument("client data must be non-empty")
    # theta and the gradient buffer are only updated in place, so their
    # segment views stay valid for the whole call
    theta = params.copy()
    vel = np.zeros_like(theta)
    grad = np.empty_like(theta)
    views, grad_views = _unpack(spec, theta), _unpack(spec, grad)
    anchor = params if train.prox_mu > 0.0 else None
    prox_mu, batch, lr, momentum = train.prox_mu, train.batch_size, opt.lr, opt.momentum
    steps = 0
    loss_total = 0.0
    # as in forward_loss_grad, NumericError is the single signal of overflow
    with np.errstate(all="ignore"):
        for _ in range(train.epochs):
            order = rng.permutation(n)
            # one gather per epoch; each batch is then a contiguous slice
            xs, ys = features[order], labels[order]
            for start in range(0, n, batch):
                stop = start + batch
                loss = _loss_grad_into(
                    spec, theta, views, grad, grad_views, xs[start:stop], ys[start:stop],
                    anchor, prox_mu,
                )
                if grad_offset is not None:
                    grad += grad_offset
                vel *= momentum
                vel += grad
                theta -= lr * vel
                steps += 1
                loss_total += loss
    # 0.0 rather than NaN for the no-step case keeps logs comparable
    mean_loss = loss_total / steps if steps else 0.0
    spec.check_finite(theta)
    return theta, LocalStats(steps, mean_loss)


def evaluate(spec: ModelSpec, params: np.ndarray, data: Dataset, index_set) -> float:
    """Fraction of indexed samples whose argmax score equals the label.

    Argmax ties break toward the lowest class id.
    """
    idx = np.asarray(index_set, dtype=np.int64)
    if idx.size == 0:
        raise InvalidArgument("index set must be non-empty")
    logits = _logits(spec, params, data.features[idx])
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == data.labels[idx]))
