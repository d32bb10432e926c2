"""Differentiable classifiers with analytic gradients and local SGD.

Two model families share one flat-parameter representation: multinomial
logistic regression and a one-hidden-layer ReLU MLP. Losses are mean
cross-entropy, optionally augmented with a proximal L2 pull toward an
anchor vector. The local-training loop mirrors the per-round client
procedure: reshuffle each epoch, split into batches, step with SGD
momentum. It trains a list of clients at once as one parameter stack,
with results bit-identical to training each client alone. The network
is written once, in `_forward`: training, evaluation and cluster
assignment all run it, and assignment reads the training loss without
forming a gradient.
"""

from __future__ import annotations

import bisect
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
        """Raise NumericError naming the first segment of `theta` with a NaN
        or Inf."""
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

    def __post_init__(self):
        if self.epochs < 0:
            raise InvalidArgument("epochs must be >= 0")
        if self.batch_size < 1:
            raise InvalidArgument("batch_size must be >= 1")


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


def _forward(
    spec: ModelSpec, views: list[np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The network: the output layer's input and the logits.

    `views` is the `_unpack` of one flat vector, with `x` (n, F), or of
    a (c, P) stack, with `x` (c, r, F) or an (n, F) shared by every
    model. The output layer's input is `x` itself for logreg and the
    ReLU hidden layer for mlp. Each layer is built in place, one array
    per layer: evaluation is the memory peak of most runs.
    """
    if spec.kind == "logreg":
        w, b = views
        a = x
    else:
        w1, b1, w, b = views
        a = x @ w1
        a += b1[..., None, :]
        np.maximum(a, 0.0, out=a)
    z = a @ w
    z += b[..., None, :]
    return a, z


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of the logits, computed in place in `z`."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _true_class_log_p(z: np.ndarray, true_class: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax the logits `z` in place; return each row's true-class
    probability and its log, the loss term, at the flat offsets
    `true_class`. The floor on p avoids log(0) for saturated rows."""
    p_true = _softmax(z).reshape(-1).take(true_class)
    return p_true, np.log(np.maximum(p_true, 1e-300))


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
    theta = theta[None]
    grad = np.empty_like(theta)
    true_class = np.arange(0, len(y) * spec.n_classes, spec.n_classes)
    true_class += y
    # non-finite values are detected explicitly; silence numpy's overflow
    # warnings so the NumericError is the single signal
    with np.errstate(all="ignore"):
        losses = _loss_grad_into(
            spec, _unpack(spec, theta), grad, _unpack(spec, grad), x[None], true_class, None
        )
        if anchor is not None:
            _add_prox(theta, grad, losses, slice(0, 1), anchor[None], np.array([prox_mu]))
        _check_step(spec, losses, grad, theta)
    return float(losses[0]), grad[0]


def _losses(spec: ModelSpec, stack: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each model's mean cross-entropy on all of (x, y), for a (c, P) stack.

    The losses `_loss_grad_into` returns for these full windows, bit for
    bit, with no gradient formed. A non-finite loss raises NumericError
    naming the model's first bad segment.
    """
    c, r = len(stack), len(y)
    true_class = np.arange(0, c * r * spec.n_classes, spec.n_classes)
    true_class += np.tile(y, c)
    with np.errstate(all="ignore"):
        _, log_p = _true_class_log_p(_forward(spec, _unpack(spec, stack), x)[1], true_class)
        losses = -np.add.reduce(log_p.reshape(c, r), axis=1) / float(r)
    finite = np.isfinite(losses)
    if not finite.all():
        spec.check_finite(stack[np.argmin(finite)])
        raise NumericError("non-finite loss")
    return losses


def _loss_grad_into(
    spec: ModelSpec,
    views: list[np.ndarray],
    grad: np.ndarray,
    grad_views: list[np.ndarray],
    x: np.ndarray,
    true_class: np.ndarray,
    counts: np.ndarray | None,
) -> np.ndarray:
    """Each client's cross-entropy and its gradient for a stack of c
    clients on r-row windows.

    `grad` is a (c, P) stack, `views` and `grad_views` the `_unpack` of
    the parameter stack and of `grad`, and `x` is
    (c, r, F). `true_class` holds, for each of the c * r window rows in
    order, the flat offset of its class's entry in a (c, r, K) array of
    scores: the row's index times K plus its class id. With `counts`
    None every window is a full batch. Otherwise client i's batch is
    the first `counts[i]` rows of its window (`counts` is a float
    array); the rows after them are padding, and their output-layer
    error and log-probability are set to 0, so they add nothing. The
    loss and gradient are means over `counts[i]` rows, or over r:
    dividing by an array entry that holds r equals dividing by r bit
    for bit. Writes the gradients into `grad` and returns the c losses.

    A stacked matmul makes, slice by slice, the BLAS call the 2D
    product makes, and every reduction runs within one client, so each
    client's numbers equal a c = 1 call on the same window bit for bit.
    A padded window equals its true rows alone only to rounding,
    because BLAS tiles the longer product differently. Callers hold
    forward_loss_grad's argument checks, add any proximal term
    (`_add_prox`), silence numpy's floating-point warnings and run
    `_check_step`.
    """
    c, r = x.shape[:2]
    # `dz` holds the logits, then in place their softmax, then the
    # output layer's error
    a, dz = _forward(spec, views, x)
    p_true, log_p = _true_class_log_p(dz, true_class)
    dz.reshape(-1)[true_class] = p_true - 1.0
    log_p = log_p.reshape(c, r)
    if counts is None:
        counts = float(r)
        dz /= counts
    else:
        padded = np.arange(r) >= counts[:, None]
        dz[padded] = 0.0
        log_p[padded] = 0.0
        dz /= counts[:, None, None]
    gw, gb = grad_views[-2:]
    np.matmul(a.transpose(0, 2, 1), dz, out=gw)
    np.add.reduce(dz, axis=1, out=gb)
    if spec.kind == "mlp":
        dh = dz @ views[-2].transpose(0, 2, 1)
        # the ReLU ran in place, so its mask is read off its output:
        # a > 0 exactly where its input was, NaN included
        dh *= a > 0.0
        gw1, gb1 = grad_views[:2]
        np.matmul(x.transpose(0, 2, 1), dh, out=gw1)
        np.add.reduce(dh, axis=1, out=gb1)
    # the sign flip after each client's sum is exact, so this is the mean of -log p
    return -np.add.reduce(log_p, axis=1) / counts


def _add_prox(
    theta: np.ndarray,
    grad: np.ndarray,
    losses: np.ndarray,
    rows,
    anchor: np.ndarray,
    mus: np.ndarray,
) -> None:
    """Add FedProx's term to the stack `rows` (a slice or an index array):
    row i's loss gains 0.5 * mu * |theta_i - anchor|^2 and its gradient
    mu * (theta_i - anchor), with its own anchor and mu from `anchor`
    and `mus`, which hold one entry per selected row."""
    diff = theta[rows] - anchor
    # each (1, P) @ (P, 1) slice is the BLAS dot product `d @ d` makes
    losses[rows] += 0.5 * mus * np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
    grad[rows] += mus[:, None] * diff


def _check_step(
    spec: ModelSpec,
    losses: np.ndarray,
    grad: np.ndarray,
    theta: np.ndarray,
    clients: list[int] | None = None,
    failures: dict[int, NumericError] | None = None,
) -> None:
    """Find each client of a stack with a non-finite loss or gradient, in
    stack order, and name its first bad parameter segment, else its
    first bad gradient segment. A non-finite parameter spreads into every
    gradient segment through the backward pass, so the parameters are
    checked first. With `failures` None the first such client's
    NumericError is raised. Otherwise it is recorded there under
    `clients[i]` for stack row i (under i when `clients` is None),
    unless that client already has one. Callers silence numpy's
    floating-point warnings."""
    # a finite sum proves every entry finite; a sum of finite entries that
    # overflows goes on to the exact test below, which passes it
    if math.isfinite(np.add.reduce(grad, axis=None) + np.add.reduce(losses)):
        return
    for i in np.flatnonzero(~(np.isfinite(grad).all(axis=1) & np.isfinite(losses))).tolist():
        try:
            spec.check_finite(theta[i])
            spec.check_finite(grad[i])
            raise NumericError("non-finite loss")
        except NumericError as error:
            if failures is None:
                raise
            failures.setdefault(i if clients is None else clients[i], error)


def _leading_rows(rows: list[int], active: int) -> tuple[int, slice | np.ndarray]:
    """How many of the ascending stack `rows` fall in the first `active`
    rows, and those rows: as a slice when they are the stack's first
    rows, which indexes as a view, else as an index array."""
    n = bisect.bisect_left(rows, active)
    return n, slice(0, n) if not n or rows[n - 1] == n - 1 else np.array(rows[:n])


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
    grad_offsets: list[np.ndarray | None] | None = None,
    prox_mus: list[float] | None = None,
    failures: dict[int, NumericError] | None = None,
    shuffles: dict[tuple, np.ndarray] | None = None,
) -> tuple[np.ndarray, LocalStats]:
    """Train m clients, each from its own start, by E epochs of batched SGD with momentum.

    Client k trains a copy of `starts[k]` on `features[k]`, `labels[k]`.
    Each of its epochs takes a shuffle drawn from `rngs[k]` and splits it
    into batches of `batch_size`; the short remainder batch is kept. Its loss
    carries FedProx's proximal pull toward its start with weight
    `prox_mus[k]` when that list is given; a weight of 0 adds none.
    `grad_offsets[k]`, when the list is given and the entry is not None,
    is added to each of its batch gradients (the control-variate
    correction hook). Velocity starts at zero. Returns
    the (m, P) trained parameters in input order and the call's stats;
    E=0 returns copies of the starts. Epochs, batch size, learning rate
    and momentum are shared by every client of the call.

    The whole call is laid out before its first step. The clients' rows
    sit one after another in one array, followed by one zero row. Each
    client draws all E of its shuffles from its own `Rng` up front, in
    one `Rng.shuffles` call: its next n * E raw words, of which epoch e
    sorts the e-th n. With the internal `shuffles` memo, the shuffles of
    a client whose `Rng` has read no word are fixed by its key (seed,
    stream, n, E): when the memo holds that key they are copied from it
    and the `Rng` is left unread (callers pass fresh substreams and draw
    no more from them), and otherwise they are drawn and stored there as
    an (E, n) int32 array, read-only. Any other `Rng` draws as without a
    memo. The shuffles fill one row-index schedule in which client i
    has E epochs, each padded to whole batches with slots that point at
    the zero row, so its batch at step s is the `batch_size` slots at
    `s * batch_size` past its base.

    The clients step in lock-step as one stack, longest schedule first,
    so those still training are always a prefix of it. Each step makes
    one stacked `_loss_grad_into` call on the windows of all active
    clients, and one momentum update on the prefix. A client whose
    batch is short, the last of an epoch with r rows, steps on its
    zero-padded window with its r true rows counted: the padding is
    masked out and the loss and gradient are means over r. This equals
    the step on the r rows alone to rounding, not bit for bit. A
    client's result is bit-identical to training it alone, whatever the
    other clients or their order. A non-finite loss, gradient or result
    raises NumericError naming the first bad segment (`_check_step`).
    With the internal `failures` dict, the call instead completes and
    records there each diverging client's first error by input position,
    in the order found, the one it raises trained alone: every reduction
    stays within one client, so its NaN reaches no other.

    The proximal term and the offsets go only to the stack rows of the
    clients that have them, by row index, or by a slice when those are
    the stack's first rows; their anchors and offsets are stored for
    them alone. A zero offset in the other rows would not be neutral,
    because -0.0 + 0.0 is +0.0. A call in which no client has either
    takes no extra step.
    """
    m = len(starts)
    sizes = [len(y) for y in labels]
    if not m or min(sizes) == 0:
        raise InvalidArgument("client data must be non-empty")
    batch, lr, momentum = train.batch_size, opt.lr, opt.momentum
    per_epoch = [-(-n // batch) for n in sizes]
    # a stable sort: clients with equal schedules keep their input order
    order = sorted(range(m), key=lambda k: -per_epoch[k])
    theta = np.array([starts[k] for k in order], dtype=np.float64)
    vel = np.zeros_like(theta)
    grad = np.empty_like(theta)
    mus = prox_mus or [0.0] * m
    # ascending stack rows of the clients with a proximal term or an offset
    prox_rows = [i for i, k in enumerate(order) if mus[k] > 0.0]
    anchor = theta[prox_rows]
    prox_weights = np.array([mus[order[i]] for i in prox_rows])
    given = grad_offsets or [None] * m
    offset_rows = [i for i, k in enumerate(order) if given[k] is not None]
    offsets = np.array([given[order[i]] for i in offset_rows])
    sizes = [sizes[k] for k in order]
    per_epoch = [per_epoch[k] for k in order]
    steps = [train.epochs * b for b in per_epoch]
    x_all = np.concatenate(
        [features[k] for k in order] + [np.zeros((1, features[0].shape[1]))], dtype=np.float64
    )
    y_all = np.concatenate([labels[k] for k in order] + [np.zeros(1, dtype=np.int64)])
    firsts = [0, *itertools.accumulate(sizes)]  # client i's first row in x_all
    bases = [0, *itertools.accumulate(s * batch for s in steps)]  # its first schedule slot
    sched = np.full(bases[-1], len(x_all) - 1, dtype=np.int32)
    for i, k in enumerate(order):
        n, rng = sizes[i], rngs[k]
        epochs = sched[bases[i] : bases[i + 1]].reshape(train.epochs, per_epoch[i] * batch)
        # a stream that has read no word draws shuffles fixed by its key, n and E
        key = (rng.seed, rng.stream, n, train.epochs)
        fresh = shuffles is not None and not rng._blocks
        if fresh and key in shuffles:
            epochs[:, :n] = shuffles[key]
        else:
            epochs[:, :n] = rng.shuffles(n, train.epochs)
            if fresh:
                shuffles[key] = drawn = epochs[:, :n].copy()
                drawn.setflags(write=False)
        epochs[:, :n] += firsts[i]
    # every client's true row count on each step where some still-training
    # client's batch is short, the last of an epoch
    at = np.arange(steps[0])[:, None]
    pe = np.array(per_epoch)
    tails = np.array(sizes) % batch
    is_short = (at % pe == pe - 1) & (tails > 0) & (at < train.epochs * pe)
    short_steps = np.flatnonzero(is_short.any(axis=1))
    true_rows = dict(zip(short_steps.tolist(), np.where(is_short[short_steps], tails, float(batch))))
    # schedule slots of each window row at step 0, and the flat offset of
    # each window row in a (m, batch_size, K) stack of class scores
    slots = (np.array(bases[:-1])[:, None] + np.arange(batch)).reshape(-1)
    row_offsets = np.arange(0, m * batch * spec.n_classes, spec.n_classes)
    window = (batch, x_all.shape[1])
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
                n_prox, prox_a = _leading_rows(prox_rows, active)
                n_off, off_a = _leading_rows(offset_rows, active)
                s_a, r_a = slots[: active * batch], row_offsets[: active * batch]
            rows = sched.take(s_a + step * batch)
            x = x_all.take(rows, axis=0).reshape(active, *window)
            true_class = y_all.take(rows)
            true_class += r_a
            counts = true_rows[step][:active] if step in true_rows else None
            step_loss = _loss_grad_into(spec, views, g_a, grad_views, x, true_class, counts)
            if n_prox:
                _add_prox(t_a, g_a, step_loss, prox_a, anchor[:n_prox], prox_weights[:n_prox])
            _check_step(spec, step_loss, g_a, t_a, order, failures)
            if n_off:
                g_a[off_a] += offsets[:n_off]
            v_a *= momentum
            v_a += g_a
            # the gradients are spent, so their buffer takes lr * velocity
            np.multiply(v_a, lr, out=g_a)
            t_a -= g_a
            l_a += step_loss
        position = sorted(range(m), key=order.__getitem__)  # stack row of each input
        out = theta[position]
        # a non-finite result, checked in input order, is named by its first bad segment
        _check_step(spec, np.zeros(m), out, out, None, failures)
    # 0.0 rather than NaN for the no-step case keeps logs comparable
    mean_losses = tuple(float(loss_sum[i]) / steps[i] if steps[i] else 0.0 for i in position)
    return out, LocalStats(sum(steps), tuple(steps[i] for i in position), mean_losses)


def evaluate(spec: ModelSpec, params: np.ndarray, data: Dataset, index_set) -> float:
    """Fraction of indexed samples whose argmax score equals the label.

    Argmax ties break toward the lowest class id. A `range` of
    consecutive rows inside the set is read as views, with no copy.
    Non-finite logits raise NumericError naming the first bad parameter
    segment, else "non-finite logits" (a finite model whose logits
    overflow).
    """
    if isinstance(index_set, range) and index_set.step == 1 and (
        0 <= index_set.start <= index_set.stop <= data.n_samples
    ):
        rows, n_rows = slice(index_set.start, index_set.stop), len(index_set)
    else:
        rows = np.asarray(index_set, dtype=np.int64)
        n_rows = rows.size
    if n_rows == 0:
        raise InvalidArgument("index set must be non-empty")
    with np.errstate(all="ignore"):
        _, logits = _forward(spec, _unpack(spec, params), data.features[rows])
        # one sum flags a NaN or Inf; a sum that overflows on finite logits
        # is checked in full
        if not np.isfinite(np.add.reduce(logits, axis=None)) and not np.isfinite(logits).all():
            spec.check_finite(params)
            raise NumericError("non-finite logits")
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == data.labels[rows]))
