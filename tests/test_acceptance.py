"""Acceptance suite: every shipped criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The trend criteria share one batch of federated runs (module
fixture); the whole module is budgeted to finish well inside 15 minutes
on a small desktop.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import trainer_fine_tuned
from fedsim.core import Rng, dirichlet_sample, hash64
from fedsim.data import SyntheticSpec, generate_synthetic
from fedsim.federation import (
    FederationConfig,
    fuse_fedavg,
    fuse_fednova,
    participant_count,
    run_federation,
)
from fedsim.metrics import compute_report, gfl_metric, newcomer_holdout, newcomer_protocol
from fedsim.model import LocalTrainSpec, ModelSpec, forward_loss_grad, init_params
from fedsim.partition import (
    PartitionSpec,
    attach_local_tests,
    classes_per_client,
    make_partitions,
)

_T0 = time.monotonic()

# Frozen desk-scale setting for the trend criteria: blobs hard enough
# that client drift hurts, an MLP so fused models disagree, a step
# size scaled for 40-round runs, and a 1000-sample test set so the
# round-accuracy window is not dominated by evaluation noise.
SYNTH = SyntheticSpec(10, 16, 100, 100, separation=0.8, sigma=0.35)
MODEL = ModelSpec("mlp", 16, 10, hidden=32, init_scale=0.1)
LR, MOMENTUM, BATCH = 0.05, 0.9, 10
TREND_SEED_BASE = 88001


def ok(num: int, message: str) -> None:
    print(f"\nPASS criterion {num:02d}: {message}")


def trend_run(alpha: float, seed: int, algorithm: str, epochs: int, sample_rate: float):
    root = Rng(seed)
    train, test = generate_synthetic(SYNTH, root.substream("data"))
    parts = attach_local_tests(
        make_partitions(train, PartitionSpec("label-dir", 50, alpha=alpha), root.substream("partition")),
        test,
    )
    cfg = FederationConfig(
        n_clients=50, sample_rate=sample_rate, rounds=40,
        local=LocalTrainSpec(epochs=epochs, batch_size=BATCH),
        lr=LR, momentum=MOMENTUM, algorithm=algorithm, seed=seed, ft_epochs=20,
    )
    result = run_federation(cfg, MODEL, parts, train, test)
    return compute_report(result, cfg, MODEL, parts, test)


@pytest.fixture(scope="module")
def heterogeneity_runs():
    """N=50, C=0.1, E=10, T=40, R=3 at alpha in {1.0, 0.3, 0.1, 0.05}.

    fedavg_ft's round trajectory is bit-identical to fedavg's (the
    fine-tune phase runs after the rounds; see the protocol-identity
    criterion), so one run per (alpha, seed) yields both the global
    and the personalized metric.
    """
    t0 = time.monotonic()
    table = {}
    for alpha in (1.0, 0.3, 0.1, 0.05):
        gfl, pfl = [], []
        for r in range(3):
            seed = hash64(TREND_SEED_BASE, int(alpha * 1000), r)
            report = trend_run(alpha, seed, "fedavg_ft", epochs=10, sample_rate=0.1)
            gfl.append(report.gfl_accuracy)
            pfl.append(report.pfl_accuracy)
        table[alpha] = (float(np.mean(gfl)), float(np.mean(pfl)))
    return table, time.monotonic() - t0


def test_criterion_01_partition_exactness(ten_class_data):
    t0 = time.monotonic()
    train, _ = ten_class_data
    assert train.n_samples == 1000 and train.n_classes == 10
    meta = Rng(610)
    shard_choices = [(10, 2), (20, 5), (5, 4), (25, 2), (10, 10), (4, 5), (50, 4)]
    checked = 0
    for mechanism in ("iid", "label-skew", "label-dir", "random-shard", "quantity-dir"):
        for trial in range(40):
            rng = Rng(hash64("acc1", mechanism, trial))
            if mechanism == "iid":
                spec = PartitionSpec("iid", 2 + meta.randbelow(49))
            elif mechanism == "label-skew":
                p = [0.2, 0.3, 0.5, 0.8, 1.0][meta.randbelow(5)]
                n = 10 + meta.randbelow(31)
                spec = PartitionSpec("label-skew", n, p=p)
            elif mechanism == "label-dir":
                spec = PartitionSpec("label-dir", 2 + meta.randbelow(39), alpha=0.05 + meta.uniform() * 2)
            elif mechanism == "random-shard":
                n, spc = shard_choices[meta.randbelow(len(shard_choices))]
                spec = PartitionSpec("random-shard", n, shards_per_client=spc)
            else:
                spec = PartitionSpec("quantity-dir", 2 + meta.randbelow(39), alpha=0.1 + meta.uniform() * 2)
            parts = make_partitions(train, spec, rng)
            all_idx = np.concatenate([p.train_indices for p in parts])
            assert len(all_idx) == 1000, f"{mechanism}: union misses samples"
            assert len(np.unique(all_idx)) == 1000, f"{mechanism}: overlapping clients"
            if mechanism == "label-skew":
                want = classes_per_client(spec.p, 10)
                assert all(len(p.owned_classes) == want for p in parts)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 200
    assert elapsed < 10.0, f"partition exactness took {elapsed:.1f}s"
    ok(1, f"partition exactness: 5 mechanisms x 40 specs, exact cover ({elapsed:.1f}s)")


def test_criterion_02_dirichlet_statistics():
    t0 = time.monotonic()
    rng = Rng(20240617)
    draws = np.empty((10_000, 10))
    for i in range(10_000):
        p = dirichlet_sample(rng, 0.5, 10)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-9
        draws[i] = p
    # Var of one coordinate: a(a0-a)/(a0^2(a0+1)) with a=0.5, a0=5.
    se = math.sqrt(0.015 / 10_000)
    dev = np.abs(draws.mean(axis=0) - 0.1)
    assert np.all(dev < 3 * se), f"max dev {dev.max():.2e} vs 3se {3*se:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"dirichlet statistics took {elapsed:.1f}s"
    ok(2, f"dirichlet moments within 3 standard errors; simplex exact ({elapsed:.1f}s)")


def test_criterion_03_gradient_oracle():
    t0 = time.monotonic()
    meta = Rng(611)
    for trial in range(50):
        kind = "logreg" if trial % 2 == 0 else "mlp"
        spec = ModelSpec(kind, 4, 3, hidden=5 if kind == "mlp" else None, init_scale=0.5)
        theta = init_params(spec, Rng(hash64("acc3", trial)))
        n = 2 + meta.randbelow(6)
        x = meta.uniform(n * 4).reshape(n, 4)
        y = np.array([meta.randbelow(3) for _ in range(n)])
        if trial % 3 == 0:
            anchor = init_params(spec, Rng(hash64("acc3-anchor", trial)))
            prox = 0.2
        else:
            anchor, prox = None, 0.0
        _, grad = forward_loss_grad(spec, theta, x, y, anchor, prox)
        h = 1e-5
        fd = np.zeros_like(theta)
        for i in range(len(theta)):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += h
            minus[i] -= h
            lp, _ = forward_loss_grad(spec, plus, x, y, anchor, prox)
            lm, _ = forward_loss_grad(spec, minus, x, y, anchor, prox)
            fd[i] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-5, f"trial {trial}: relative error {rel:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"
    ok(3, f"50 analytic gradients match central differences <= 1e-5 ({elapsed:.1f}s)")


def test_criterion_04_fusion_oracle():
    meta = Rng(612)
    for _ in range(100):
        k = 1 + meta.randbelow(6)
        vecs = [meta.uniform(4) * 4 - 2 for _ in range(k)]
        sizes = [1 + meta.randbelow(60) for _ in range(k)]
        fused = fuse_fedavg(list(zip(vecs, sizes)))
        total = sum(sizes)
        for i in range(4):
            brute = sum(v[i] * s for v, s in zip(vecs, sizes)) / total
            assert abs(fused[i] - brute) <= 1e-12
    # fednova with uniform tau and zero momentum is exactly fedavg
    for _ in range(100):
        k = 1 + meta.randbelow(5)
        g = meta.uniform(4)
        locals_ = [meta.uniform(4) * 2 - 1 for _ in range(k)]
        sizes = [1 + meta.randbelow(40) for _ in range(k)]
        tau = 1 + meta.randbelow(9)
        deltas = [(l - g, s, tau) for l, s in zip(locals_, sizes)]
        nova = fuse_fednova(deltas, g, momentum=0.0)
        avg = fuse_fedavg(list(zip(locals_, sizes)))
        assert np.all(np.abs(nova - avg) <= 1e-12)
    ok(4, "fedavg fusion matches brute force; fednova reduces to fedavg at uniform tau")


def _identity_setup():
    root = Rng(613)
    synth = SyntheticSpec(5, 8, 40, 20)
    train, test = generate_synthetic(synth, root.substream("data"))
    parts = attach_local_tests(
        make_partitions(train, PartitionSpec("iid", 8), root.substream("partition")), test
    )
    model = ModelSpec("logreg", 8, 5)
    base = FederationConfig(
        n_clients=8, sample_rate=0.5, rounds=4,
        local=LocalTrainSpec(epochs=2, batch_size=10),
        lr=0.05, momentum=0.9, algorithm="fedavg", seed=614,
    )
    return train, test, parts, model, base


def test_criterion_05_protocol_identities():
    train, test, parts, model, base = _identity_setup()
    runs = {
        name: run_federation(dataclasses.replace(base, algorithm=name, **kw), model, parts, train, test)
        for name, kw in (
            ("fedavg", {}),
            ("fedprox", {"mu": 0.0}),
            ("decoupled", {}),  # model.layer_split == 0
            ("clustered", {"n_clusters": 1}),
        )
    }
    assert runs["fedprox"].digest() == runs["fedavg"].digest()
    assert runs["decoupled"].round_logs == runs["fedavg"].round_logs
    assert np.array_equal(runs["decoupled"].final_global, runs["fedavg"].final_global)
    assert runs["clustered"].round_logs == runs["fedavg"].round_logs
    assert np.array_equal(runs["clustered"].final_global, runs["fedavg"].final_global)
    # scaffold from zero variates, one full-batch step, equal sizes
    one_step = dataclasses.replace(
        base, rounds=1, local=LocalTrainSpec(epochs=1, batch_size=1000), momentum=0.0
    )
    scaf = run_federation(dataclasses.replace(one_step, algorithm="scaffold"), model, parts, train, test)
    avg = run_federation(one_step, model, parts, train, test)
    assert np.all(np.abs(scaf.final_global - avg.final_global) <= 1e-12)
    ok(5, "fedprox(0), decoupled(0), clustered(1) and single-step scaffold all match fedavg")


_DIGEST_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from test_acceptance import determinism_digest
print(determinism_digest())
"""


def determinism_digest() -> str:
    root = Rng(615)
    synth = SyntheticSpec(5, 8, 60, 20)
    train, test = generate_synthetic(synth, root.substream("data"))
    parts = attach_local_tests(
        make_partitions(train, PartitionSpec("label-dir", 20, alpha=0.3), root.substream("partition")),
        test,
    )
    model = ModelSpec("logreg", 8, 5)
    cfg = FederationConfig(
        n_clients=20, sample_rate=0.25, rounds=20,
        local=LocalTrainSpec(epochs=2, batch_size=10),
        lr=0.05, momentum=0.9, algorithm="fedavg", seed=616,
    )
    return run_federation(cfg, model, parts, train, test).digest()


def test_criterion_06_determinism_across_processes():
    root = Rng(615)
    synth = SyntheticSpec(5, 8, 60, 20)
    train, test = generate_synthetic(synth, root.substream("data"))
    parts = attach_local_tests(
        make_partitions(train, PartitionSpec("label-dir", 20, alpha=0.3), root.substream("partition")),
        test,
    )
    model = ModelSpec("logreg", 8, 5)
    cfg = FederationConfig(
        n_clients=20, sample_rate=0.25, rounds=20,
        local=LocalTrainSpec(epochs=2, batch_size=10),
        lr=0.05, momentum=0.9, algorithm="fedavg", seed=616,
    )
    digest = run_federation(cfg, model, parts, train, test).digest()
    assert run_federation(cfg, model, parts, train, test).digest() == digest
    import pathlib

    here = str(pathlib.Path(__file__).parent)
    other_process = subprocess.run(
        [sys.executable, "-c", _DIGEST_SNIPPET.format(src=here)],
        capture_output=True, text=True, check=True,
    )
    assert other_process.stdout.strip() == digest
    ok(6, "20-client 20-round run bit-identical on rerun and across processes")


def test_criterion_07_definition1_window():
    assert participant_count(100, 0.1) == 10
    assert participant_count(20, 0.2) == 4
    assert participant_count(5, 0.01) == 1
    # the metric actually averages over exactly that many rounds
    accs = [0.0] * 30 + [1.0] * 10
    assert gfl_metric(accs, 0.1, 100) == 1.0
    assert gfl_metric([0.2] * 16 + [0.6] * 4, 0.2, 20) == pytest.approx(0.6)
    assert gfl_metric([0.1, 0.9], 0.01, 5) == pytest.approx(0.9)
    ok(7, "Definition-1 window floor(C*N) verified for (0.1,100), (0.2,20), (0.01,5)")


def test_criterion_08_heterogeneity_trend(heterogeneity_runs):
    table, elapsed = heterogeneity_runs
    seq = [table[a][0] for a in (1.0, 0.3, 0.1, 0.05)]  # descending alpha
    violations = [seq[i + 1] - seq[i] for i in range(3) if seq[i + 1] > seq[i]]
    assert len(violations) <= 1, f"gfl sequence {seq} rises more than once"
    assert all(v <= 0.01 for v in violations), f"violation above 0.01: {violations}"
    assert elapsed < 300.0, f"trend runs took {elapsed:.0f}s"
    levels = {a: round(table[a][0], 3) for a in (1.0, 0.3, 0.1, 0.05)}
    ok(8, f"fedavg gfl non-increasing as alpha falls: {levels} ({elapsed:.0f}s)")


def test_criterion_09_incentive_flip(heterogeneity_runs):
    table, _ = heterogeneity_runs
    gap_low = table[0.05][1] - table[0.05][0]
    gap_high = table[1.0][1] - table[1.0][0]
    assert gap_low >= 0.03, f"pFL advantage at alpha=0.05 is {gap_low:+.3f}, need >= 0.03"
    assert gap_high < 0.01, f"gap at alpha=1.0 is {gap_high:+.3f}, need < 0.01 or reversed"
    ok(9, f"incentive flips: pFL-gFL gap {gap_low:+.3f} at alpha=0.05, {gap_high:+.3f} at alpha=1.0")


def test_criterion_10_sample_rate_mitigation():
    t0 = time.monotonic()
    means = {}
    for c in (0.05, 0.4):
        vals = []
        for r in range(3):
            seed = hash64(TREND_SEED_BASE + 1, int(c * 100), r)
            vals.append(trend_run(0.1, seed, "fedavg", epochs=5, sample_rate=c).gfl_accuracy)
        means[c] = float(np.mean(vals))
    elapsed = time.monotonic() - t0
    diff = means[0.4] - means[0.05]
    assert diff >= 0.02, f"C=0.4 vs C=0.05 improvement {diff:+.3f}, need >= 0.02"
    assert elapsed < 300.0, f"sample-rate runs took {elapsed:.0f}s"
    ok(10, f"raising C 0.05->0.4 lifts gfl accuracy by {diff:+.3f} ({elapsed:.0f}s)")


def test_criterion_11_newcomer_protocol():
    ids = newcomer_holdout(617, 100)
    assert len(ids) == 20
    assert ids == newcomer_holdout(617, 100)
    assert len(set(ids) | set(range(100))) == 100  # ids are valid clients
    trainers = set(range(100)) - set(ids)
    assert len(trainers) == 80 and not (trainers & set(ids))

    # duplicated-client check: a newcomer with a trainer's exact data
    # must land within 0.05 of that trainer's personalized accuracy
    root = Rng(618)
    synth = SyntheticSpec(5, 8, 40, 40)
    train, test = generate_synthetic(synth, root.substream("data"))
    model = ModelSpec("logreg", 8, 5)
    diffs = []
    for seed in (1, 2, 3):
        base = attach_local_tests(
            make_partitions(train, PartitionSpec("label-dir", 5, alpha=0.3), Rng(seed)), test
        )
        cfg = FederationConfig(
            n_clients=5, sample_rate=0.4, rounds=6,
            local=LocalTrainSpec(epochs=2, batch_size=10),
            lr=0.05, momentum=0.9, algorithm="fedavg_ft", seed=seed, ft_epochs=5,
        )
        holdout = newcomer_holdout(seed, 5)[0]
        twin = (holdout + 1) % 5
        parts = [
            dataclasses.replace(base[twin], client_id=holdout) if p.client_id == holdout else p
            for p in base
        ]
        # one newcomer, so the mean newcomer accuracy is the holdout's
        _, newcomer_acc = newcomer_protocol(cfg, model, parts, train, test)
        twin_model = trainer_fine_tuned(cfg, model, parts, train, test)[twin]
        from fedsim.metrics import local_test_accuracies

        twin_acc = local_test_accuracies(
            model, {twin: twin_model}, [p for p in parts if p.client_id == twin], test
        )[twin]
        diffs.append(abs(newcomer_acc - twin_acc))
    mean_diff = float(np.mean(diffs))
    assert mean_diff <= 0.05, f"duplicated-client gap {mean_diff:.3f} exceeds 0.05"
    ok(11, f"newcomer protocol: 20/100 held out, duplicate-client gap {mean_diff:.3f}")


def test_criterion_12_suite_runtime():
    elapsed = time.monotonic() - _T0
    assert elapsed < 900.0, f"acceptance suite took {elapsed:.0f}s, budget is 900s"
    ok(12, f"acceptance suite finished in {elapsed:.0f}s (< 900s)")
