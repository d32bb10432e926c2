"""Differentiable classifiers with analytic gradients and local SGD.

Two model families share one flat-parameter representation: multinomial
logistic regression and a one-hidden-layer ReLU MLP. Losses are mean
cross-entropy, optionally augmented with a proximal L2 pull toward an
anchor vector. The local-training loop mirrors the per-round client
procedure: reshuffle each epoch, split into batches, step with SGD
momentum. It trains a list of clients at once as one parameter stack,
with results bit-identical to training each client alone.
"""

from __future__ import annotations

import itertools
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
    """Per-segment views of a flat vector or a (c, P) stack, shaped for the maths."""
    lead = theta.shape[:-1]
    return [
        theta[..., start:stop].reshape(lead + shape) for _, start, stop, shape in spec._view_plan
    ]


def _logits(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    if spec.kind == "logreg":
        w, b = _unpack(spec, theta)
        return x @ w + b
    w1, b1, w2, b2 = _unpack(spec, theta)
    hidden = np.maximum(x @ w1 + b1, 0.0)
    return hidden @ w2 + b2


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of the logits, computed in place in `z`."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
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
    losses, grad = _stacked_loss_grad(
        spec, theta[None], x[None], y[None], None if anchor is None else anchor[None], prox_mu
    )
    return float(losses[0]), grad[0]


def _stacked_loss_grad(spec, theta, x, y, anchor, prox_mu) -> tuple[np.ndarray, np.ndarray]:
    """`_loss_grad_into` on a (c, P) stack into a new gradient stack, checked."""
    grad = np.empty_like(theta)
    # non-finite values are detected explicitly; silence numpy's overflow
    # warnings so the NumericError is the single signal
    with np.errstate(all="ignore"):
        losses = _loss_grad_into(
            spec, theta, _unpack(spec, theta), grad, _unpack(spec, grad), x, y, anchor, prox_mu
        )
    _check_step(spec, losses, grad, theta)
    return losses, grad


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
) -> np.ndarray:
    """Each client's loss and gradient for a stack of c clients on r rows each.

    `theta`, `grad` and `anchor` are (c, P) stacks, `views` and
    `grad_views` the `_unpack` of `theta` and `grad`, `x` is (c, r, F)
    and `y` (c, r). Writes the gradients into `grad` and returns the c
    losses. A stacked matmul makes, slice by slice, the BLAS call the
    2D product makes, and every reduction runs within one client, so
    each client's numbers equal a c = 1 call bit for bit. A caller may
    run a client on zero-padded rows to share a common r, but must not
    keep that client's result: the padded rows enter its loss, gradient
    and divisor, and padding changes the BLAS kernel and tiling, and
    with them the rounding. Callers hold forward_loss_grad's argument
    checks, silence numpy's floating-point warnings and run
    `_check_step`.
    """
    c, r = y.shape
    # `a` is the input of the output layer (w, b): x itself for logreg
    if spec.kind == "logreg":
        w, b = views
        a = x
    else:
        w1, b1, w, b = views
        pre = x @ w1
        pre += b1[:, None]
        a = np.maximum(pre, 0.0)
    z = a @ w
    z += b[:, None]
    dz = _softmax(z)
    # flat offsets of each (client, sample) pair's true-class entry
    true_class = np.arange(0, dz.size, dz.shape[-1])
    true_class += y.reshape(-1)
    dz_flat = dz.reshape(-1)
    p_true = dz_flat.take(true_class)
    dz_flat[true_class] = p_true - 1.0
    dz /= r
    gw, gb = grad_views[-2:]
    np.matmul(a.transpose(0, 2, 1), dz, out=gw)
    np.add.reduce(dz, axis=1, out=gb)
    if spec.kind == "mlp":
        dh = dz @ w.transpose(0, 2, 1)
        dh *= pre > 0.0
        gw1, gb1 = grad_views[:2]
        np.matmul(x.transpose(0, 2, 1), dh, out=gw1)
        np.add.reduce(dh, axis=1, out=gb1)
    # the floor avoids log(0) for saturated probabilities; the sign flip
    # after each client's sum is exact, so this is the mean of -log p
    losses = -np.add.reduce(np.log(np.maximum(p_true.reshape(c, r), 1e-300)), axis=1) / r
    if prox_mu > 0.0:
        diff = theta - anchor
        for i, d in enumerate(diff):
            losses[i] += 0.5 * prox_mu * float(d @ d)
        grad += prox_mu * diff
    return losses


def _check_step(spec: ModelSpec, losses: np.ndarray, grad: np.ndarray, theta: np.ndarray) -> None:
    """Raise NumericError for the first client of a stack with a non-finite
    loss or gradient, naming its first bad gradient segment, else its
    first bad parameter segment."""
    if np.isfinite(grad).all() and np.isfinite(losses).all():
        return
    i = int(np.argmin(np.isfinite(grad).all(axis=1) & np.isfinite(losses)))
    spec.check_finite(grad[i])
    spec.check_finite(theta[i])
    raise NumericError("non-finite loss")


@dataclass(frozen=True)
class LocalStats:
    """What one `_local_train` call did; per-client fields in input order."""

    steps: int  # SGD steps summed over the call's clients
    client_steps: tuple[int, ...]
    mean_losses: tuple[float, ...]


def _local_train(
    spec: ModelSpec,
    starts: list[np.ndarray],
    features: list[np.ndarray],
    labels: list[np.ndarray],
    train: LocalTrainSpec,
    opt: OptState,
    rngs: list[Rng],
    grad_offsets: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, LocalStats]:
    """Train m clients, each from its own start, by E epochs of batched SGD with momentum.

    Client k trains a copy of `starts[k]` on `features[k]`, `labels[k]`.
    Each of its epochs draws a shuffle from `rngs[k]` and splits it into
    batches of `batch_size`; the short remainder batch is kept.
    `grad_offsets[k]`, when given, is added to each of its batch
    gradients (the control-variate correction hook). Velocity starts at
    zero. Returns the (m, P) trained parameters in input order and the
    call's stats; E=0 returns copies of the starts.

    The clients step in lock-step as one stack, longest schedule first,
    so those still training are always a prefix of it. Each client's
    current shuffled epoch sits at its own offset in one zero-filled
    buffer, padded to whole batches, so every batch is a window of
    `batch_size` rows. Each step makes one stacked `_loss_grad_into`
    call on the windows of all active clients. A client whose batch is
    short, the last of an epoch with r rows, is then stepped again on
    its r true rows, with the other clients of the same r, and that
    result replaces the padded one. The momentum update runs once on
    the prefix. A client's result is bit-identical to training it
    alone, whatever the other clients or their order. A non-finite
    loss, gradient or result raises NumericError naming the first bad
    segment.
    """
    m = len(starts)
    sizes = [len(y) for y in labels]
    if not m or min(sizes) == 0:
        raise InvalidArgument("client data must be non-empty")
    batch, prox_mu, lr, momentum = train.batch_size, train.prox_mu, opt.lr, opt.momentum
    per_epoch = [-(-n // batch) for n in sizes]
    # a stable sort: clients with equal schedules keep their input order
    order = sorted(range(m), key=lambda k: -per_epoch[k])
    theta = np.array([starts[k] for k in order], dtype=np.float64)
    vel = np.zeros_like(theta)
    grad = np.empty_like(theta)
    anchor = theta.copy() if prox_mu > 0.0 else None
    offsets = None if grad_offsets is None else np.array([grad_offsets[k] for k in order])
    sizes = [sizes[k] for k in order]
    per_epoch = [per_epoch[k] for k in order]
    steps = [train.epochs * b for b in per_epoch]
    data = [(features[k], labels[k], rngs[k]) for k in order]
    # each client's epoch buffer starts at bases[i]; rows past its n_i stay zero
    bases = [0, *itertools.accumulate(b * batch for b in per_epoch)]
    xs = np.zeros((bases[-1], features[0].shape[1]))
    ys = np.zeros(bases[-1], dtype=np.int64)
    lows = np.zeros(m, dtype=np.intp)
    window = np.arange(batch)
    loss_sum = np.zeros(m)
    active = m
    # as in forward_loss_grad, NumericError is the single signal of overflow
    with np.errstate(all="ignore"):
        for step in range(steps[0]):
            if not step or steps[active - 1] <= step:
                while steps[active - 1] <= step:
                    active -= 1
                # views of the clients still training, updated only in place
                t_a, g_a, v_a, l_a = theta[:active], grad[:active], vel[:active], loss_sum[:active]
                views, grad_views = _unpack(spec, t_a), _unpack(spec, g_a)
                anc_a = None if anchor is None else anchor[:active]
                o_a = None if offsets is None else offsets[:active]
            short: dict[int, list[int]] = {}  # row count r < batch -> clients
            for i in range(active):
                j = step % per_epoch[i]
                if j == 0:
                    x_all, y_all, rng = data[i]
                    shuffle = rng.permutation(sizes[i])
                    xs[bases[i] : bases[i] + sizes[i]] = x_all[shuffle]
                    ys[bases[i] : bases[i] + sizes[i]] = y_all[shuffle]
                lows[i] = bases[i] + j * batch
                rows = sizes[i] - j * batch
                if rows < batch:
                    short.setdefault(rows, []).append(i)
            rows_at = lows[:active, None] + window
            x, y = xs[rows_at], ys[rows_at]
            step_loss = _loss_grad_into(spec, t_a, views, g_a, grad_views, x, y, anc_a, prox_mu)
            for rows, sel in short.items():
                t = theta[sel]
                g = np.empty_like(t)
                anc = None if anchor is None else anchor[sel]
                step_loss[sel] = _loss_grad_into(
                    spec, t, _unpack(spec, t), g, _unpack(spec, g),
                    x[sel, :rows], y[sel, :rows], anc, prox_mu,
                )
                grad[sel] = g
            _check_step(spec, step_loss, g_a, t_a)
            if o_a is not None:
                g_a += o_a
            v_a *= momentum
            v_a += g_a
            # the gradients are spent, so their buffer takes lr * velocity
            np.multiply(v_a, lr, out=g_a)
            t_a -= g_a
            l_a += step_loss
    position = sorted(range(m), key=order.__getitem__)  # stack row of each input
    out = theta[position]
    for row in out:
        spec.check_finite(row)
    # 0.0 rather than NaN for the no-step case keeps logs comparable
    mean_losses = tuple(float(loss_sum[i]) / steps[i] if steps[i] else 0.0 for i in position)
    return out, LocalStats(sum(steps), tuple(steps[i] for i in position), mean_losses)


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
