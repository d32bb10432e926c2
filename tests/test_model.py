import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import balanced_dataset
from fedsim.core import Rng
from fedsim.errors import InvalidArgument, NumericError
from fedsim.model import (
    LocalTrainSpec,
    ModelSpec,
    OptState,
    _check_step,
    _local_train,
    evaluate,
    forward_loss_grad,
    _unpack,
    init_params,
)

LOGREG = ModelSpec("logreg", n_features=4, n_classes=3)
MLP = ModelSpec("mlp", n_features=4, n_classes=3, hidden=5)
# 24 features, 32 hidden units and 10 classes, as in the gfl1 and pfl1 presets
LOGREG_10 = ModelSpec("logreg", n_features=24, n_classes=10)
MLP_10 = ModelSpec("mlp", n_features=24, n_classes=10, hidden=32)


def random_batch(rng: Rng, n: int, spec: ModelSpec):
    x = rng.uniform(n * spec.n_features).reshape(n, spec.n_features)
    y = np.array([rng.randbelow(spec.n_classes) for _ in range(n)], dtype=np.int64)
    return x, y


def finite_difference_grad(spec, theta, batch, anchor, prox_mu, h=1e-5):
    """Central differences around every coordinate; the independent oracle."""
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        plus = theta.copy()
        plus[i] += h
        minus = theta.copy()
        minus[i] -= h
        lp, _ = forward_loss_grad(spec, plus, *batch, anchor, prox_mu)
        lm, _ = forward_loss_grad(spec, minus, *batch, anchor, prox_mu)
        grad[i] = (lp - lm) / (2 * h)
    return grad


def train_one(spec, params, x, y, local, opt, rng, grad_offset=None, prox_mu=0.0):
    """(parameters, steps, mean loss) of one client trained alone by the kernel."""
    offsets = None if grad_offset is None else [grad_offset]
    out, stats = _local_train(
        spec, [params], [x], [y], local, opt, [rng], offsets, prox_mus=[prox_mu]
    )
    assert out.shape == (1, len(params)) and stats.steps == stats.client_steps[0]
    return out[0], stats.client_steps[0], stats.mean_losses[0]


def train(spec, params, batch, local, opt, rng, grad_offset=None):
    """Parameters after one client's local training through the kernel."""
    return train_one(spec, params, *batch, local, opt, rng, grad_offset)[0]


def reference_loss_grad(spec, theta, x, y, anchor, prox_mu, rows=None):
    """Mean cross-entropy (+ prox term) and gradient in plain 2D numpy.

    Written apart from the package's stacked kernel, with the same
    floating-point operations in the same order. Only the first `rows`
    rows (all by default) count: the error and log-probability of the
    rest are set to 0, and the means are over `rows`.
    """
    n = x.shape[0]
    r = n if rows is None else rows
    segments = [theta[start:stop].reshape(shape) for _, start, stop, shape in spec._view_plan]
    if spec.kind == "logreg":
        w, b = segments
        a = x
    else:
        w1, b1, w, b = segments
        pre = x @ w1 + b1
        a = np.maximum(pre, 0.0)
    z = a @ w + b
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(p)
    onehot[np.arange(n), y] = 1.0
    dz = p - onehot
    dz[r:] = 0.0
    dz /= r
    parts = [(a.T @ dz).ravel(), dz.sum(axis=0)]
    if spec.kind == "mlp":
        dh = (dz @ w.T) * (pre > 0.0)
        parts = [(x.T @ dh).ravel(), dh.sum(axis=0), *parts]
    grad = np.concatenate(parts)
    log_p = np.log(np.maximum(p[np.arange(n), y], 1e-300))
    log_p[r:] = 0.0
    loss = float(-log_p.sum() / r)
    if prox_mu > 0.0:
        diff = theta - anchor
        loss += 0.5 * prox_mu * float(diff @ diff)
        grad += prox_mu * diff
    return loss, grad


def padded_reference_loss_grad(spec, theta, x, y, anchor, prox_mu, batch):
    """The kernel's maths for one client's batch of r <= `batch` rows.

    The rows are zero-padded to a `batch`-row window, as the kernel's
    row-index schedule pads them, and only the r true rows count. The kernel
    must equal it bit for bit.
    """
    r = len(y)
    x_pad = np.zeros((batch, x.shape[1]))
    x_pad[:r] = x
    y_pad = np.zeros(batch, dtype=np.int64)
    y_pad[:r] = y
    return reference_loss_grad(spec, theta, x_pad, y_pad, anchor, prox_mu, rows=r)


def reference_train(spec, params, x, y, local, opt, rng, offset, padded, prox_mu=0.0):
    """(parameters, mean loss) of a plain loop of momentum SGD over the
    reference loss, with fresh arrays and out-of-place momentum; each
    batch zero-padded to `batch_size` rows when `padded`."""
    theta = params.copy()
    vel = np.zeros_like(theta)
    anchor = params if prox_mu > 0.0 else None
    losses = []
    for order in rng.shuffles(len(y), local.epochs):
        for start in range(0, len(y), local.batch_size):
            idx = order[start : start + local.batch_size]
            if padded:
                loss, grad = padded_reference_loss_grad(
                    spec, theta, x[idx], y[idx], anchor, prox_mu, local.batch_size
                )
            else:
                loss, grad = reference_loss_grad(spec, theta, x[idx], y[idx], anchor, prox_mu)
            grad = grad + offset
            vel = opt.momentum * vel + grad
            theta -= opt.lr * vel
            losses.append(loss)
    assert len(losses) == local.epochs * -(-len(y) // local.batch_size)
    return theta, sum(losses) / len(losses)


class TestInit:
    def test_zero_scale_gives_zero_vector(self):
        spec = ModelSpec("logreg", 4, 3, init_scale=0.0)
        assert np.all(init_params(spec, Rng(1)) == 0.0)

    def test_logreg_layout_shapes(self):
        assert init_params(LOGREG, Rng(2)).shape == (15,)
        assert [(name, stop - start) for name, start, stop, _ in LOGREG._view_plan] == [
            ("w", 12),
            ("b", 3),
        ]

    def test_mlp_layout_shapes(self):
        assert init_params(MLP, Rng(2)).shape == (43,)
        assert [(name, stop - start) for name, start, stop, _ in MLP._view_plan] == [
            ("w1", 20),
            ("b1", 5),
            ("w2", 15),
            ("b2", 3),
        ]

    def test_biases_zero_weights_bounded(self):
        spec = ModelSpec("mlp", 4, 3, hidden=5, init_scale=0.05)
        w1, b1, w2, b2 = _unpack(spec, init_params(spec, Rng(3)))
        assert np.all(b1 == 0.0) and np.all(b2 == 0.0)
        assert np.all(np.abs(w1) <= 0.05) and np.all(np.abs(w2) <= 0.05)

    def test_deterministic(self):
        a = init_params(MLP, Rng(4))
        b = init_params(MLP, Rng(4))
        assert np.array_equal(a, b)


class TestCheckFinite:
    def test_names_the_bad_segment(self):
        theta = init_params(MLP, Rng(5))
        MLP.check_finite(theta)
        _, start, stop, _ = MLP._view_plan[1]  # b1
        theta[start + 2] = np.nan
        theta[-1] = np.inf  # b2, a later segment
        with pytest.raises(NumericError, match=r"non-finite value in segment b1$"):
            MLP.check_finite(theta)

    @pytest.mark.parametrize("scale", [np.inf, np.nan, -0.1])
    def test_init_scale_must_be_finite_and_non_negative(self, scale):
        with pytest.raises(InvalidArgument, match="init_scale"):
            ModelSpec("logreg", 4, 3, init_scale=scale)


class TestForwardLossGrad:
    def test_zero_params_uniform_softmax(self):
        x, y = random_batch(Rng(5), 16, LOGREG)
        zero = np.zeros(LOGREG.n_params())
        loss, grad = forward_loss_grad(LOGREG, zero, x, y)
        assert loss == pytest.approx(np.log(3), abs=1e-12)
        # with uniform softmax, bias gradient for class c is mean(1/3 - onehot_c)
        onehot = np.zeros((16, 3))
        onehot[np.arange(16), y] = 1.0
        expected_gb = (1.0 / 3.0 - onehot).mean(axis=0)
        assert np.allclose(grad[12:], expected_gb, atol=1e-12)

    def test_prox_zero_at_anchor(self):
        x, y = random_batch(Rng(6), 8, LOGREG)
        theta = init_params(LOGREG, Rng(7))
        plain_loss, plain_grad = forward_loss_grad(LOGREG, theta, x, y)
        prox_loss, prox_grad = forward_loss_grad(LOGREG, theta, x, y, anchor=theta, prox_mu=0.5)
        assert prox_loss == pytest.approx(plain_loss, abs=1e-15)
        assert np.allclose(prox_grad, plain_grad, atol=1e-15)

    def test_anchor_required_iff_prox(self):
        x, y = random_batch(Rng(6), 4, LOGREG)
        theta = init_params(LOGREG, Rng(7))
        with pytest.raises(InvalidArgument):
            forward_loss_grad(LOGREG, theta, x, y, anchor=None, prox_mu=0.1)
        with pytest.raises(InvalidArgument):
            forward_loss_grad(LOGREG, theta, x, y, anchor=theta, prox_mu=0.0)

    def test_gradient_matches_finite_differences(self):
        # 50 random (model, batch, prox) instances vs the central
        # finite-difference oracle at h=1e-5.
        meta = Rng(8)
        for trial in range(50):
            spec = LOGREG if trial % 2 == 0 else MLP
            theta = init_params(
                ModelSpec(spec.kind, 4, 3, hidden=spec.hidden, init_scale=0.5),
                Rng(100 + trial),
            )
            batch = random_batch(meta, 2 + meta.randbelow(6), spec)
            if trial % 3 == 0:
                anchor = init_params(
                    ModelSpec(spec.kind, 4, 3, hidden=spec.hidden, init_scale=0.5),
                    Rng(200 + trial),
                )
                prox = 0.2
            else:
                anchor, prox = None, 0.0
            _, grad = forward_loss_grad(spec, theta, *batch, anchor, prox)
            fd = finite_difference_grad(spec, theta, batch, anchor, prox)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5, f"trial {trial}: rel err {rel}"

    def test_softmax_probabilities_normalized(self):
        from fedsim.model import _forward, _softmax

        x, _ = random_batch(Rng(9), 32, MLP)
        params = init_params(MLP, Rng(10))
        probs = _softmax(_forward(MLP, _unpack(MLP, params), x)[1])
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)

    def test_numeric_error_names_segment(self):
        x, y = random_batch(Rng(11), 4, LOGREG)
        # large enough that the matmul overflows to inf in the forward pass
        huge = np.full(15, 1e308)
        with pytest.raises(NumericError, match="segment"):
            forward_loss_grad(LOGREG, huge, x, y)

    @pytest.mark.parametrize(
        "spec, segment, start",
        [(spec, name, start) for spec in (LOGREG, MLP) for name, start, _, _ in spec._view_plan],
        ids=lambda v: v.kind if isinstance(v, ModelSpec) else str(v),
    )
    def test_nan_parameter_names_its_segment(self, spec, segment, start):
        # a NaN anywhere spreads into every gradient segment, so the
        # name has to come from the parameters
        x, y = random_batch(Rng(14), 6, spec)
        theta = init_params(spec, Rng(15))
        theta[start] = np.nan
        with pytest.raises(NumericError, match=f"non-finite value in segment {segment}$"):
            forward_loss_grad(spec, theta, x, y)

    def test_overflow_raises_no_runtime_warning(self):
        x, y = random_batch(Rng(11), 4, LOGREG)
        # two biases at 1e308 against a zero anchor: a finite gradient
        # whose sum overflows, and a loss that overflows
        theta = np.zeros(15)
        theta[-2:] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="segment"):
                forward_loss_grad(LOGREG, np.full(15, 1e308), x, y)
            with pytest.raises(NumericError, match="non-finite loss"):
                forward_loss_grad(LOGREG, theta, x, y, anchor=np.zeros(15), prox_mu=1.0)

    def test_returned_gradient_not_reused(self):
        theta = init_params(MLP, Rng(12))
        x1, y1 = random_batch(Rng(13), 6, MLP)
        x2, y2 = random_batch(Rng(14), 6, MLP)
        _, g1 = forward_loss_grad(MLP, theta, x1, y1)
        kept = g1.copy()
        _, g2 = forward_loss_grad(MLP, theta, x2, y2)
        assert not np.shares_memory(g1, g2)
        assert np.array_equal(g1, kept)
        assert not np.array_equal(g1, g2)

    def test_empty_batch_rejected(self):
        theta = init_params(LOGREG, Rng(13))
        with pytest.raises(InvalidArgument):
            forward_loss_grad(LOGREG, theta, np.zeros((0, 4)), np.zeros(0, dtype=int))


class TestCheckStep:
    """The per-step finiteness check on a (c, P) gradient stack."""

    def test_finite_gradient_whose_sum_overflows_passes(self):
        theta = np.zeros((2, MLP.n_params()))
        grad = np.zeros_like(theta)
        grad[1, :2] = 1e308
        with np.errstate(all="ignore"):
            _check_step(MLP, np.zeros(2), grad, theta)

    def test_nan_names_its_segment(self):
        theta = np.zeros((3, MLP.n_params()))
        grad = np.zeros_like(theta)
        _, start, _, _ = MLP._view_plan[2]  # w2
        grad[1, start] = np.nan
        grad[2, 0] = np.nan  # a later client, in w1
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match=r"segment w2$"):
                _check_step(MLP, np.zeros(3), grad, theta)

    def test_non_finite_loss_alone_raises(self):
        theta = np.zeros((2, MLP.n_params()))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="non-finite loss"):
                _check_step(MLP, np.array([0.5, np.inf]), np.zeros_like(theta), theta)


class TestSgdStep:
    """Single SGD steps of the local-training kernel."""

    def test_plain_sgd_without_momentum(self):
        params = init_params(LOGREG, Rng(14))
        x, y = random_batch(Rng(15), 8, LOGREG)
        _, grad = forward_loss_grad(LOGREG, params, x, y)
        # one full-batch epoch is one step on a reshuffled copy of the batch
        new = train(LOGREG, params, (x, y), LocalTrainSpec(1, 8), OptState(0.1, 0.0), Rng(1))
        assert np.allclose(new, params - 0.1 * grad, atol=1e-15)

    def test_zero_grad_zero_velocity_no_move(self):
        # a one-sample batch has no reshuffle, so an offset of minus its
        # gradient cancels it exactly; velocity starts at zero
        params = init_params(LOGREG, Rng(16))
        x, y = random_batch(Rng(15), 1, LOGREG)
        _, grad = forward_loss_grad(LOGREG, params, x, y)
        new = train(LOGREG, params, (x, y), LocalTrainSpec(1, 1), OptState(0.1, 0.9), Rng(1), -grad)
        assert np.array_equal(new, params)

    def test_two_momentum_steps_hand_unrolled(self):
        # E=2 full-batch epochs: v1 = g0, p1 = p0 - eta*v1;
        # v2 = 0.9*v1 + g1, p2 = p1 - eta*v2.
        params = init_params(LOGREG, Rng(17))
        x, y = random_batch(Rng(18), 12, LOGREG)
        eta, beta = 0.05, 0.9
        _, g0 = forward_loss_grad(LOGREG, params, x, y)
        p1 = params - eta * g0
        _, g1 = forward_loss_grad(LOGREG, p1, x, y)
        expected = p1 - eta * (beta * g0 + g1)
        out = train(LOGREG, params, (x, y), LocalTrainSpec(2, 12), OptState(eta, beta), Rng(2))
        assert np.allclose(out, expected, atol=1e-14)

    def test_loss_descent_small_step(self):
        # One eta=1e-3 full-batch step must not increase the loss.
        meta = Rng(19)
        for trial in range(50):
            spec = LOGREG if trial % 2 else MLP
            params = init_params(
                ModelSpec(spec.kind, 4, 3, hidden=spec.hidden, init_scale=0.3),
                Rng(300 + trial),
            )
            x, y = random_batch(meta, 16, spec)
            loss0, _ = forward_loss_grad(spec, params, x, y)
            new = train(spec, params, (x, y), LocalTrainSpec(1, 16), OptState(1e-3, 0.0), Rng(trial))
            loss1, _ = forward_loss_grad(spec, new, x, y)
            assert loss1 <= loss0 + 1e-12


class TestClientUpdate:
    """A client's full local update through the local-training kernel."""

    def _data(self, n=20, spec=LOGREG, seed=21):
        return random_batch(Rng(seed), n, spec)

    def test_zero_epochs_identity(self):
        params = init_params(LOGREG, Rng(20))
        out, steps, mean_loss = train_one(
            LOGREG, params, *self._data(), LocalTrainSpec(0, 4), OptState(0.1, 0.9), Rng(1)
        )
        assert np.array_equal(out, params)
        assert (steps, mean_loss) == (0, 0.0)

    def test_single_full_batch_epoch_equals_one_step(self):
        x, y = self._data()
        params = init_params(LOGREG, Rng(22))
        out = train(LOGREG, params, (x, y), LocalTrainSpec(1, 50), OptState(0.05, 0.0), Rng(2))
        _, grad = forward_loss_grad(LOGREG, params, x, y)
        assert np.allclose(out, params - 0.05 * grad, atol=1e-15)

    def test_deterministic_rerun(self):
        x, y = self._data()
        params = init_params(LOGREG, Rng(23))
        opt = OptState(0.05, 0.9)
        a = train(LOGREG, params, (x, y), LocalTrainSpec(5, 4), opt, Rng(99))
        b = train(LOGREG, params, (x, y), LocalTrainSpec(5, 4), opt, Rng(99))
        assert np.array_equal(a, b)

    def _check_reference_loop(self, spec, prox_mu, n, batch=5):
        """The kernel is bit-identical to the padded 2D reference loop,
        and equals the loop over the true rows alone to rounding."""
        x, y = self._data(n=n, spec=spec)
        params = init_params(spec, Rng(25))
        offset = Rng(26).uniform(len(params)) * 0.01
        local, opt = LocalTrainSpec(3, batch), OptState(0.05, 0.9)
        out, steps, mean_loss = train_one(spec, params, x, y, local, opt, Rng(4), offset, prox_mu)
        assert steps == 3 * -(-n // batch)

        theta, loss = reference_train(
            spec, params, x, y, local, opt, Rng(4), offset, padded=True, prox_mu=prox_mu
        )
        assert np.array_equal(out, theta)
        assert mean_loss == loss
        theta, loss = reference_train(
            spec, params, x, y, local, opt, Rng(4), offset, padded=False, prox_mu=prox_mu
        )
        np.testing.assert_allclose(out, theta, rtol=1e-12, atol=0.0)
        assert mean_loss == pytest.approx(loss, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spec", [LOGREG, MLP], ids=["logreg", "mlp"])
    @pytest.mark.parametrize("prox_mu", [0.0, 0.3])
    def test_matches_reference_loop(self, spec, prox_mu):
        self._check_reference_loop(spec, prox_mu, n=23)  # remainder batches of 3 rows

    @pytest.mark.parametrize("spec", [LOGREG, MLP], ids=["logreg", "mlp"])
    def test_single_row_remainder_matches_reference_loop(self, spec):
        # a one-row product goes through gemv rather than gemm
        self._check_reference_loop(spec, 0.3, n=21)

    @pytest.mark.parametrize("spec", [LOGREG_10, MLP_10], ids=["logreg-24-10", "mlp-24-32-10"])
    @pytest.mark.parametrize("prox_mu", [0.0, 0.3])
    @pytest.mark.parametrize("n", range(11, 20))
    def test_ten_class_remainders_match_reference_loop(self, spec, prox_mu, n):
        # B = 10 gives each remainder r = 1..9 once, on the layer where
        # the zero-padded short batch rounds differently from its true rows
        self._check_reference_loop(spec, prox_mu, n, batch=10)

    def test_diverging_lr_raises_numeric_error(self):
        x, y = self._data()
        params = init_params(LOGREG, Rng(27))
        before = params.copy()
        with pytest.raises(NumericError, match=r"segment (w|b)\b"):
            train_one(LOGREG, params, x, y, LocalTrainSpec(5, 4), OptState(1e308, 0.9), Rng(5))
        assert np.array_equal(params, before)

    def test_short_remainder_batch_kept(self):
        x, y = self._data(n=10)
        params = init_params(LOGREG, Rng(24))
        out, steps, _ = train_one(
            LOGREG, params, x, y, LocalTrainSpec(1, 4), OptState(0.05, 0.0), Rng(3)
        )
        assert steps == 3  # 4 + 4 + 2
        assert not np.array_equal(out, params)


class TestStacking:
    """One `_local_train` call over m clients equals m one-client calls."""

    @staticmethod
    def _clients(sizes, kind, n_classes, with_offsets, seed):
        spec = ModelSpec(kind, 24, n_classes, hidden=32 if kind == "mlp" else None, init_scale=0.5)
        data = [random_batch(Rng(seed, k), n, spec) for k, n in enumerate(sizes)]
        starts = [init_params(spec, Rng(seed, 100 + k)) for k in range(len(sizes))]
        offsets = (
            [Rng(seed, 200 + k).uniform(spec.n_params()) * 0.01 for k in range(len(sizes))]
            if with_offsets
            else None
        )
        return spec, data, starts, offsets

    @staticmethod
    def _stacked(spec, data, starts, offsets, local, opt, seed, order, prox_mu):
        """One call over the clients in `order`, each on its own stream."""
        return _local_train(
            spec, [starts[k] for k in order], [data[k][0] for k in order],
            [data[k][1] for k in order], local, opt, [Rng(seed, 300 + k) for k in order],
            None if offsets is None else [offsets[k] for k in order],
            prox_mus=[prox_mu] * len(order),
        )

    def _check(self, sizes, kind, n_classes, prox_mu, with_offsets, seed, epochs=2):
        spec, data, starts, offsets = self._clients(sizes, kind, n_classes, with_offsets, seed)
        local, opt = LocalTrainSpec(epochs, 10), OptState(0.05, 0.9)
        m = len(sizes)
        out, stats = self._stacked(spec, data, starts, offsets, local, opt, seed, range(m), prox_mu)
        assert out.shape == (m, spec.n_params())
        for k in range(m):
            alone, steps, mean_loss = train_one(
                spec, starts[k], *data[k], local, opt, Rng(seed, 300 + k),
                None if offsets is None else offsets[k], prox_mu,
            )
            assert np.array_equal(out[k], alone), f"client {k} (n={sizes[k]})"
            assert (stats.client_steps[k], stats.mean_losses[k]) == (steps, mean_loss)
        assert stats.steps == sum(stats.client_steps)
        # reversing the input order only reverses the output rows
        rev, rev_stats = self._stacked(
            spec, data, starts, offsets, local, opt, seed, range(m)[::-1], prox_mu
        )
        assert np.array_equal(rev, out[::-1])
        assert rev_stats.client_steps == stats.client_steps[::-1]
        assert rev_stats.mean_losses == stats.mean_losses[::-1]

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 35), min_size=1, max_size=6),
        kind=st.sampled_from(["logreg", "mlp"]),
        n_classes=st.sampled_from([10, 20]),
        prox_mu=st.sampled_from([0.0, 0.3]),
        with_offsets=st.booleans(),
        seed=st.integers(0, 2**16),
        epochs=st.sampled_from([1, 2, 3]),
    )
    def test_stack_equals_one_client_at_a_time(
        self, sizes, kind, n_classes, prox_mu, with_offsets, seed, epochs
    ):
        self._check(sizes, kind, n_classes, prox_mu, with_offsets, seed, epochs)

    @pytest.mark.parametrize("kind", ["logreg", "mlp"])
    @pytest.mark.parametrize("n_classes", [10, 20])
    @pytest.mark.parametrize("prox_mu", [0.0, 0.3])
    def test_every_remainder_in_one_stack(self, kind, n_classes, prox_mu):
        # n = 1..35 with B = 10 gives every remainder 1..9 and full batches
        self._check(list(range(1, 36)), kind, n_classes, prox_mu, True, 7)

    @settings(max_examples=60, deadline=None)
    @given(
        clients=st.lists(
            st.tuples(st.integers(1, 35), st.sampled_from([0.0, 0.05, 0.3]), st.booleans()),
            min_size=1, max_size=7,
        ),
        kind=st.sampled_from(["logreg", "mlp"]),
        seed=st.integers(0, 2**16),
        epochs=st.sampled_from([1, 2]),
    )
    def test_per_client_prox_and_offsets_equal_each_alone(self, clients, kind, seed, epochs):
        # each client has its own FedProx weight (0: none) and its own
        # offset or none, in one stack; whichever stack rows carry them,
        # each client equals itself trained alone with just its own
        sizes = [n for n, _, _ in clients]
        spec, data, starts, offsets = self._clients(sizes, kind, 10, True, seed)
        offsets = [o if has else None for o, (_, _, has) in zip(offsets, clients)]
        mus = [mu for _, mu, _ in clients]
        opt = OptState(0.05, 0.9)
        out, stats = _local_train(
            spec, starts, [x for x, _ in data], [y for _, y in data], LocalTrainSpec(epochs, 10),
            opt, [Rng(seed, 300 + k) for k in range(len(sizes))], offsets, mus,
        )
        for k, mu in enumerate(mus):
            alone, steps, mean_loss = train_one(
                spec, starts[k], *data[k], LocalTrainSpec(epochs, 10), opt,
                Rng(seed, 300 + k), offsets[k], mu,
            )
            assert np.array_equal(out[k], alone), f"client {k}"
            assert (stats.client_steps[k], stats.mean_losses[k]) == (steps, mean_loss)

    def test_diverging_client_is_named_by_input_position(self):
        # the stack trains the longest schedule first, yet the failure is
        # keyed by the diverging client's position in the input
        spec, data, starts, _ = self._clients([4, 30, 12], "logreg", 10, False, 2)
        failures = {}
        with np.errstate(all="ignore"):
            _local_train(
                spec, starts, [x for x, _ in data], [y for _, y in data], LocalTrainSpec(2, 10),
                OptState(0.05, 0.9), [Rng(2, k) for k in range(3)], None, [0.0, 0.0, 1e300],
                failures,
            )
        assert list(failures) == [2]

    @pytest.mark.parametrize("kind", ["logreg", "mlp"])
    def test_diverging_clients_leave_the_others_as_alone(self, kind):
        # a long client (35 rows, 12 steps) at mu 1e100 diverges at step 3
        # and a short one (4 rows, 3 steps) at mu 1e300 at step 2, beside
        # two healthy clients: the call completes, the healthy rows and
        # stats equal each client alone, and each diverging client is
        # recorded once, in first-failure order, with the error it raises
        # alone
        sizes, mus = [30, 35, 12, 4], [0.0, 1e100, 0.0, 1e300]
        spec, data, starts, _ = self._clients(sizes, kind, 10, False, 2)
        local, opt = LocalTrainSpec(3, 10), OptState(0.05, 0.9)
        failures = {}
        with np.errstate(all="ignore"):
            out, stats = _local_train(
                spec, starts, [x for x, _ in data], [y for _, y in data], local, opt,
                [Rng(2, k) for k in range(4)], None, mus, failures,
            )
        assert list(failures) == [3, 1]
        for k, mu in enumerate(mus):
            if k in failures:
                with pytest.raises(NumericError) as err:
                    train_one(spec, starts[k], *data[k], local, opt, Rng(2, k), None, mu)
                assert str(failures[k]) == str(err.value)
            else:
                alone, steps, mean_loss = train_one(
                    spec, starts[k], *data[k], local, opt, Rng(2, k), None, mu
                )
                assert np.array_equal(out[k], alone), f"client {k}"
                assert (stats.client_steps[k], stats.mean_losses[k]) == (steps, mean_loss)
        # without a dict the call raises the first client's error
        with pytest.raises(NumericError) as err:
            _local_train(
                spec, starts, [x for x, _ in data], [y for _, y in data], local, opt,
                [Rng(2, k) for k in range(4)], None, mus,
            )
        assert str(err.value) == str(failures[3])

    def test_each_stream_ends_after_its_epoch_shuffles(self):
        # each client's stream ends after the n * E words of its shuffles
        sizes, epochs = [7, 23, 10], 3
        spec, data, starts, _ = self._clients(sizes, "mlp", 10, False, 5)
        rngs = [Rng(5, 300 + k) for k in range(len(sizes))]
        _local_train(
            spec, starts, [x for x, _ in data], [y for _, y in data], LocalTrainSpec(epochs, 10),
            OptState(0.05, 0.9), rngs,
        )
        for k, n in enumerate(sizes):
            fresh = Rng(5, 300 + k)
            fresh.shuffles(n, epochs)
            assert rngs[k].uniform() == fresh.uniform(), f"client {k} (n={n})"

    def test_empty_client_rejected(self):
        spec, data, starts, _ = self._clients([4, 3], "logreg", 10, False, 1)
        with pytest.raises(InvalidArgument, match="non-empty"):
            _local_train(
                spec, starts, [data[0][0], data[1][0][:0]], [data[0][1], data[1][1][:0]],
                LocalTrainSpec(1, 10), OptState(0.05, 0.9), [Rng(1), Rng(2)],
            )


class TestShuffleMemo:
    """A call given a shuffle memo copies the epoch shuffles of a fresh
    stream that an earlier client drew, and equals the memo-less call."""

    @staticmethod
    def _call(clients, kind, seed, epochs, shuffles, rngs=None):
        # clients: (stream, n) pairs; equal streams are one substream
        sizes = [n for _, n in clients]
        spec, data, starts, _ = TestStacking._clients(sizes, kind, 10, False, seed)
        rngs = rngs or [Rng(seed, 300 + stream) for stream, _ in clients]
        return _local_train(
            spec, starts, [x for x, _ in data], [y for _, y in data], LocalTrainSpec(epochs, 10),
            OptState(0.05, 0.9), rngs, shuffles=shuffles,
        )

    # a broken memo fails in several ways at once, and shrinking every one
    # of them takes minutes; one shrunk failure is enough
    @settings(max_examples=40, deadline=None, report_multiple_bugs=False)
    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from([1, 2]),
                st.lists(
                    st.tuples(st.integers(0, 2), st.sampled_from([1, 7, 20])),
                    min_size=1, max_size=6,
                ),
            ),
            min_size=2, max_size=2,
        ),
        kind=st.sampled_from(["logreg", "mlp"]),
        seed=st.integers(0, 2**16),
    )
    def test_duplicate_fresh_streams_equal_the_memo_less_calls(self, calls, kind, seed):
        # duplicates within a call and across the two calls sharing one memo
        memo = {}
        for epochs, clients in calls:
            out, stats = self._call(clients, kind, seed, epochs, memo)
            ref, ref_stats = self._call(clients, kind, seed, epochs, None)
            assert np.array_equal(out, ref)
            assert stats == ref_stats
        keys = {(seed, 300 + s, n, e) for e, clients in calls for s, n in clients}
        assert set(memo) == keys

    def test_entries_are_the_streams_shuffles_keyed_by_n_and_epochs(self):
        # one stream at two sizes, then at another epoch count: three entries
        memo = {}
        self._call([(0, 7), (0, 20), (0, 7)], "logreg", 3, 1, memo)
        self._call([(0, 7)], "logreg", 3, 2, memo)
        assert list(memo) == [(3, 300, 20, 1), (3, 300, 7, 1), (3, 300, 7, 2)]
        for (seed, stream, n, epochs), shuffles in memo.items():
            fresh = Rng(seed, stream)
            drawn = fresh.shuffles(n, epochs)
            assert shuffles.dtype == np.int32 and not shuffles.flags.writeable
            assert np.array_equal(shuffles, drawn)

    def test_a_stream_that_has_drawn_is_neither_served_nor_stored(self):
        def used():
            rng = Rng(3, 300)
            rng.uniform()
            return rng

        ref, ref_stats = self._call([(0, 7)], "mlp", 3, 1, None, [used()])
        # served the fresh stream's shuffles, it would train as the fresh one
        fresh = self._call([(0, 7)], "mlp", 3, 1, None)[0]
        assert not np.array_equal(ref, fresh)
        memo = {}
        self._call([(0, 7)], "mlp", 3, 1, memo)
        [(key, drawn)] = memo.items()
        out, stats = self._call([(0, 7)], "mlp", 3, 1, memo, [used()])
        assert np.array_equal(out, ref) and stats == ref_stats
        assert list(memo) == [key] and memo[key] is drawn
        empty = {}
        self._call([(0, 7)], "mlp", 3, 1, empty, [used()])
        assert empty == {}


class TestEvaluate:
    def test_zero_params_tie_breaks_to_class_zero(self):
        train, _ = balanced_dataset(n_classes=4, per_class=25, n_features=6)
        spec = ModelSpec("logreg", 6, 4, init_scale=0.0)
        zero = init_params(spec, Rng(1))
        acc = evaluate(spec, zero, train, np.arange(train.n_samples))
        assert acc == pytest.approx(0.25)  # share of the tie-break class

    def test_perfect_separation_scores_one(self):
        from fedsim.data import SyntheticSpec, generate_synthetic

        # near-noiseless blobs on distinct axes; scoring class c by its
        # axis coordinate is a perfect classifier
        spec_data = SyntheticSpec(3, 6, 30, 40, separation=10.0, sigma=0.05)
        _, test = generate_synthetic(spec_data, Rng(42))
        spec = ModelSpec("logreg", 6, 3)
        w = np.zeros((6, 3))
        for c in range(3):
            w[c, c] = 10.0
        params = np.concatenate([w.ravel(), np.zeros(3)])
        assert evaluate(spec, params, test, np.arange(test.n_samples)) == 1.0

    def test_additive_over_disjoint_index_sets(self):
        train, _ = balanced_dataset(n_classes=3, per_class=20, n_features=6, seed=9)
        spec = ModelSpec("logreg", 6, 3)
        params = init_params(spec, Rng(30))
        a = np.arange(0, 25)
        b = np.arange(25, 60)
        acc_a = evaluate(spec, params, train, a)
        acc_b = evaluate(spec, params, train, b)
        acc_all = evaluate(spec, params, train, np.arange(60))
        assert acc_all == pytest.approx((25 * acc_a + 35 * acc_b) / 60, abs=1e-12)

    def test_empty_index_set_rejected(self):
        train, _ = balanced_dataset(n_classes=3, per_class=5, n_features=6)
        spec = ModelSpec("logreg", 6, 3)
        with pytest.raises(InvalidArgument):
            evaluate(spec, init_params(spec, Rng(31)), train, np.array([], dtype=int))
        with pytest.raises(InvalidArgument):
            evaluate(spec, init_params(spec, Rng(31)), train, range(4, 4))

    @pytest.mark.parametrize("segment, value", [(0, np.nan), (1, np.inf), (3, -np.inf)])
    def test_non_finite_parameters_name_their_segment(self, segment, value):
        _, test = balanced_dataset(n_classes=10, per_class=5, n_features=24, seed=32)
        params = init_params(MLP_10, Rng(3))
        name, start, _, _ = MLP_10._view_plan[segment]
        params[start] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=rf"^non-finite value in segment {name}$"):
                evaluate(MLP_10, params, test, range(test.n_samples))

    def test_finite_model_with_overflowing_logits_raises(self):
        _, test = balanced_dataset(n_classes=10, per_class=5, n_features=24, seed=32)
        params = np.full(LOGREG_10.n_params(), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^non-finite logits$"):
                evaluate(LOGREG_10, params, test, range(test.n_samples))

    def test_finite_logits_whose_sum_overflows_are_scored(self):
        # every logit is 1e308, so their sum overflows, but none is
        # non-finite: the argmax ties break to class 0
        _, test = balanced_dataset(n_classes=10, per_class=5, n_features=24, seed=32)
        params = np.zeros(LOGREG_10.n_params())
        _, start, stop, _ = LOGREG_10._view_plan[1]  # b
        params[start:stop] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc = evaluate(LOGREG_10, params, test, range(test.n_samples))
        assert acc == pytest.approx(0.1)

    @pytest.mark.parametrize("spec", [LOGREG_10, MLP_10], ids=lambda s: s.kind)
    def test_range_equals_index_array(self, spec):
        # a range is read as views of the set, an index array as a copy
        _, test = balanced_dataset(n_classes=10, per_class=5, n_features=24, seed=32)
        n = test.n_samples
        for seed in range(5):
            params = init_params(spec, Rng(seed)) * 20.0
            for lo, hi in ((0, n), (0, 1), (17, 233), (n - 1, n)):
                got = evaluate(spec, params, test, range(lo, hi))
                assert got == evaluate(spec, params, test, np.arange(lo, hi))
        stepped = range(3, n, 7)
        assert evaluate(spec, params, test, stepped) == evaluate(spec, params, test, list(stepped))
