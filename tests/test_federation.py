import dataclasses
import warnings

import numpy as np
import pytest

from conftest import balanced_dataset, loop_output, trainer_alone
from fedsim import federation, metrics
from fedsim.core import Rng
from fedsim.errors import IncompatibleShape, InvalidArgument, NumericError
from fedsim.experiment import config_from_entries, run_single
from fedsim.federation import (
    FederationConfig,
    ScaffoldState,
    _ClientData,
    _drive,
    _fine_tune_data,
    _round_loop,
    _run,
    assign_cluster,
    fuse_fedavg,
    fuse_fednova,
    participant_count,
    run_federation,
    sample_clients,
    scaffold_client_variate,
    tau_effective,
)
from fedsim.metrics import (
    local_test_accuracies,
    newcomer_holdout,
    newcomer_protocol,
    pfl_metric,
)
from fedsim.model import (
    LocalTrainSpec,
    ModelSpec,
    OptState,
    _local_train,
    evaluate,
    forward_loss_grad,
    init_params,
)
from fedsim.partition import (
    ClientPartition,
    PartitionSpec,
    attach_local_tests,
    make_partitions,
    partition_iid,
)

def pv(*values):
    return np.array(values, dtype=np.float64)


def small_setup(n_clients=8, seed=101, kind="label-dir", alpha=0.3, per_class=40):
    train, test = balanced_dataset(n_classes=5, per_class=per_class, n_features=8, seed=seed)
    spec = PartitionSpec(kind, n_clients, alpha=alpha) if kind == "label-dir" else PartitionSpec(kind, n_clients)
    parts = attach_local_tests(make_partitions(train, spec, Rng(seed).substream("p")), test)
    model = ModelSpec("logreg", 8, 5)
    return train, test, parts, model


def config(algorithm, n_clients=8, rounds=5, seed=7, **kw):
    return FederationConfig(
        n_clients=n_clients,
        sample_rate=kw.pop("sample_rate", 0.5),
        rounds=rounds,
        local=kw.pop("local", LocalTrainSpec(epochs=2, batch_size=10)),
        lr=kw.pop("lr", 0.05),
        momentum=kw.pop("momentum", 0.9),
        algorithm=algorithm,
        seed=seed,
        **kw,
    )


class TestSampleClients:
    def test_typical_benchmark_setting(self):
        assert len(sample_clients(Rng(1), 100, 0.1)) == 10

    def test_floor_with_minimum_one(self):
        assert len(sample_clients(Rng(2), 5, 0.1)) == 1

    def test_full_participation_each_once(self):
        got = sample_clients(Rng(3), 100, 1.0)
        assert sorted(got) == list(range(100))

    @pytest.mark.parametrize(
        "c,n,m",
        [
            (0.1, 100, 10),
            (0.2, 20, 4),
            (0.01, 5, 1),
            (0.3, 50, 15),
            (0.29, 100, 29),
            # fractional products must floor, not round or ceil
            (0.15, 30, 4),
            (0.45, 10, 4),
            (0.99, 2, 1),
        ],
    )
    def test_window_sizes(self, c, n, m):
        assert participant_count(n, c) == m


class TestFuseFedavg:
    def test_equal_sizes_plain_average(self):
        out = fuse_fedavg([(pv(1, 2, 3), 10), (pv(3, 4, 5), 10)])
        assert out.tolist() == [2.0, 3.0, 4.0]

    def test_size_weighted(self):
        out = fuse_fedavg([(pv(0, 0, 0), 1), (pv(4, 4, 4), 3)])
        assert out.tolist() == [3.0, 3.0, 3.0]

    def test_single_participant(self):
        assert np.array_equal(fuse_fedavg([(pv(7, 8, 9), 5)]), pv(7, 8, 9))

    def test_brute_force_oracle_100_instances(self):
        # independent elementwise python-loop oracle
        meta = Rng(404)
        for _ in range(100):
            k = 1 + meta.randbelow(6)
            vecs = [pv(*(meta.uniform() for _ in range(3))) for _ in range(k)]
            sizes = [1 + meta.randbelow(50) for _ in range(k)]
            got = fuse_fedavg(list(zip(vecs, sizes)))
            total = sum(sizes)
            for i in range(3):
                expected = sum(v[i] * s for v, s in zip(vecs, sizes)) / total
                assert abs(got[i] - expected) <= 1e-12

    def test_layout_preserved(self):
        out = fuse_fedavg([(pv(1, 2, 3), 2), (pv(4, 5, 6), 1)])
        assert out.shape == (3,) and out.dtype == np.float64


class TestFuseFednova:
    def test_uniform_tau_no_momentum_equals_fedavg(self):
        g = pv(1, 1, 1)
        locals_ = [pv(2, 3, 4), pv(0, 1, 2)]
        deltas = [l - g for l in locals_]
        nova = fuse_fednova([(deltas[0], 10, 4), (deltas[1], 30, 4)], g, momentum=0.0)
        avg = fuse_fedavg([(locals_[0], 10), (locals_[1], 30)])
        assert np.all(np.abs(nova - avg) <= 1e-12)

    def test_single_client_full_delta(self):
        g = pv(1, 1, 1)
        delta = pv(0.5, -0.5, 2.0)
        out = fuse_fednova([(delta, 17, 3)], g)
        assert np.allclose(out, g + delta, atol=1e-15)

    def test_two_client_hand_oracle(self):
        # sizes (1, 3), taus (1, 2), momentum 0:
        # p = (0.25, 0.75); tau_bar = 0.25*1 + 0.75*2 = 1.75
        # out = g + tau_bar * (0.25*d1/1 + 0.75*d2/2)
        g = pv(0, 0, 0)
        d1, d2 = pv(1, 0, 2), pv(0, 4, -2)
        out = fuse_fednova([(d1, 1, 1), (d2, 3, 2)], g, momentum=0.0)
        expected = 1.75 * (0.25 * d1 + 0.375 * d2)
        assert np.allclose(out, expected, atol=1e-15)

    def test_tau_effective_momentum_formula(self):
        # sum_{j<tau}(1 - m^(tau-j)) / (1 - m) hand-evaluated for tau=3, m=0.5:
        # ((1-0.5^3) + (1-0.5^2) + (1-0.5)) / 0.5 = (0.875+0.75+0.5)/0.5 = 4.25
        assert tau_effective(3, 0.5) == pytest.approx(4.25, abs=1e-12)
        assert tau_effective(5, 0.0) == 5.0

    def test_zero_steps_rejected(self):
        with pytest.raises(InvalidArgument):
            fuse_fednova([(pv(1, 2, 3), 5, 0)], pv(0, 0, 0))

    def test_shape_mismatch(self):
        with pytest.raises(IncompatibleShape):
            fuse_fednova([(pv(1, 2), 5, 1)], pv(0, 0, 0))


class TestScaffold:
    def test_variate_update_formula(self):
        old = np.array([0.0, 1.0])
        server = np.array([0.5, 0.5])
        g = np.array([1.0, 1.0])
        l = np.array([0.0, 2.0])
        got = scaffold_client_variate(old, server, g, l, steps=2, lr=0.25)
        # c - cs + (g - l)/(2*0.25) = [-0.5, 0.5] + [2, -2] = [1.5, -1.5]
        assert got.tolist() == [1.5, -1.5]

    def test_lr_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            scaffold_client_variate(np.zeros(2), np.zeros(2), np.ones(2), np.zeros(2), 1, 0.0)

    def test_zero_variate_single_step_equals_fedavg_round(self):
        # equal client sizes so uniform and size-weighted fusion agree
        train, test, parts, model = small_setup(n_clients=5, kind="iid", per_class=40)
        local = LocalTrainSpec(epochs=1, batch_size=100)  # one full-batch step
        scaf = config("scaffold", n_clients=5, rounds=1, local=local, momentum=0.0)
        avg = dataclasses.replace(scaf, algorithm="fedavg")
        r_scaf = run_federation(scaf, model, parts, train, test)
        r_avg = run_federation(avg, model, parts, train, test)
        assert np.all(
            np.abs(r_scaf.final_global - r_avg.final_global) <= 1e-12
        )

    def test_identical_clients_keep_zero_correction(self):
        # Duplicated client data + full-batch steps: every client's
        # variate equals the server variate, so the effective
        # correction stays ~0 and scaffold keeps matching fedavg.
        train, test = balanced_dataset(n_classes=5, per_class=20, n_features=8, seed=55)
        idx = np.arange(train.n_samples)
        owned = frozenset(range(5))
        parts = [ClientPartition(k, idx.copy(), owned) for k in range(4)]
        local = LocalTrainSpec(epochs=1, batch_size=train.n_samples)
        cfg = config(
            "scaffold", n_clients=4, rounds=1, sample_rate=1.0, local=local, momentum=0.0
        )
        model = ModelSpec("logreg", 8, 5)
        result = run_federation(cfg, model, parts, train, test)
        # reconstruct the state by replaying: correction = server - client variate
        state = _replay_scaffold_state(cfg, model, parts, train, test)
        for k in range(4):
            assert np.linalg.norm(state.server - state.clients[k]) < 1e-8
        assert result.final_global is not None

    def test_variate_mean_identity_over_rounds(self):
        # After every round the server variate equals the mean of all
        # client variates (the update rule preserves it algebraically).
        train, test, parts, model = small_setup(n_clients=6, kind="iid")
        cfg = config("scaffold", n_clients=6, rounds=4, sample_rate=0.5, momentum=0.0)
        states = _replay_scaffold_states_per_round(cfg, model, parts, train, test)
        for state in states:
            mean_variate = sum(state.clients.values()) / len(state.clients)
            assert np.linalg.norm(mean_variate - state.server) <= 1e-9

    def test_momentum_variates_keep_scaffold_near_fedavg(self):
        # Under the default momentum of 0.9 a variate divided by steps * lr
        # instead of lr * tau_effective is about 10x too large, and scaffold
        # then fell to 0.16 mean gfl accuracy against fedavg's 0.50 here.
        def mean_gfl(algorithm):
            accs = []
            for seed in (7, 8, 9):
                cfg = config_from_entries({
                    "preset": "gfl2", "partition.alpha": "0.1", "federation.rounds": "30",
                    "federation.algorithm": algorithm,
                })
                accs.append(run_single(cfg, seed)[0].gfl_accuracy)
            return float(np.mean(accs))

        assert mean_gfl("scaffold") >= mean_gfl("fedavg") - 0.05


def _replay_scaffold_state(cfg, model, parts, train, test):
    states = _replay_scaffold_states_per_round(cfg, model, parts, train, test)
    return states[-1]


def _replay_scaffold_states_per_round(cfg, model, parts, train, test):
    """Independent re-implementation of the scaffold bookkeeping."""
    data = _ClientData(train, parts)
    root = Rng(cfg.seed)
    opt = OptState(cfg.lr, cfg.momentum)
    global_p = init_params(model, root.substream("init", 0))
    state = ScaffoldState.initial(len(global_p), range(cfg.n_clients))
    states = []
    for t in range(cfg.rounds):
        selected = sample_clients(root.substream("sample", t), cfg.n_clients, cfg.sample_rate)
        delta = np.zeros(len(global_p))
        variate_delta = np.zeros(len(global_p))
        for k in selected:
            offset = state.server - state.clients[k]
            # one client per call, as an independent check on the stacked round
            trained, stats = _local_train(
                model, [global_p], [data.features[k]], [data.labels[k]], cfg.local, opt,
                [root.substream("client", k, t)], [offset],
            )
            out = trained[0]
            new_c = scaffold_client_variate(
                state.clients[k], state.server, global_p, out,
                stats.steps, cfg.lr, cfg.momentum,
            )
            delta += out - global_p
            variate_delta += new_c - state.clients[k]
            state.clients[k] = new_c
        global_p = global_p + delta / len(selected)
        state.server = state.server + variate_delta / cfg.n_clients
        states.append(ScaffoldState(state.server.copy(), {k: v.copy() for k, v in state.clients.items()}))
    return states


class TestProtocolIdentities:
    def test_fedprox_mu_zero_is_fedavg(self):
        train, test, parts, model = small_setup()
        prox = config("fedprox", mu=0.0)
        avg = dataclasses.replace(prox, algorithm="fedavg", mu=0.001)
        r1 = run_federation(prox, model, parts, train, test)
        r2 = run_federation(avg, model, parts, train, test)
        assert r1.digest() == r2.digest()

    def test_fedprox_mu_positive_differs(self):
        train, test, parts, model = small_setup()
        prox = config("fedprox", mu=0.5)
        avg = dataclasses.replace(prox, algorithm="fedavg")
        r1 = run_federation(prox, model, parts, train, test)
        r2 = run_federation(avg, model, parts, train, test)
        assert r1.digest() != r2.digest()

    def test_decoupled_split_zero_is_fedavg(self):
        train, test, parts, model = small_setup()
        dec = config("decoupled")
        avg = dataclasses.replace(dec, algorithm="fedavg")
        r1 = run_federation(dec, model, parts, train, test)
        r2 = run_federation(avg, model, parts, train, test)
        assert r1.round_logs == r2.round_logs
        assert np.array_equal(r1.final_global, r2.final_global)

    def test_clustered_single_cluster_is_fedavg(self):
        train, test, parts, model = small_setup()
        clu = config("clustered", n_clusters=1)
        avg = dataclasses.replace(clu, algorithm="fedavg", n_clusters=2)
        r1 = run_federation(clu, model, parts, train, test)
        r2 = run_federation(avg, model, parts, train, test)
        assert r1.round_logs == r2.round_logs
        assert np.array_equal(r1.final_global, r2.final_global)

    def test_fedavg_ft_rounds_match_fedavg(self):
        train, test, parts, model = small_setup()
        ft = config("fedavg_ft", ft_epochs=2)
        avg = dataclasses.replace(ft, algorithm="fedavg")
        r1 = run_federation(ft, model, parts, train, test)
        r2 = run_federation(avg, model, parts, train, test)
        assert r1.round_logs == r2.round_logs
        assert np.array_equal(r1.final_global, r2.final_global)
        assert len(r1.final_personal) == 8 and not r2.final_personal

    def test_fednova_equal_clients_matches_fedavg(self):
        # Equal sizes give equal step counts, so the common effective
        # step count cancels and normalized averaging equals fedavg
        # even with momentum.
        train, test, parts, model = small_setup(n_clients=5, kind="iid", per_class=40)
        nova = config("fednova", n_clients=5, rounds=4)
        avg = dataclasses.replace(nova, algorithm="fedavg")
        r1 = run_federation(nova, model, parts, train, test)
        r2 = run_federation(avg, model, parts, train, test)
        assert np.allclose(r1.final_global, r2.final_global, atol=1e-12)

    def test_fednova_unequal_sizes_diverges_from_fedavg(self):
        train, test, parts, model = small_setup(n_clients=8, kind="label-dir")
        nova = config("fednova")
        avg = dataclasses.replace(nova, algorithm="fedavg")
        r1 = run_federation(nova, model, parts, train, test)
        r2 = run_federation(avg, model, parts, train, test)
        assert not np.array_equal(r1.final_global, r2.final_global)


class TestRunFederation:
    def test_degenerate_single_client(self):
        # T=1, C=1, N=1 is one local update followed by identity fusion
        train, test, parts, model = small_setup(n_clients=1, kind="iid")
        local = LocalTrainSpec(epochs=2, batch_size=10)
        cfg = config("fedavg", n_clients=1, rounds=1, sample_rate=1.0, local=local)
        result = run_federation(cfg, model, parts, train, test)
        root = Rng(cfg.seed)
        start = init_params(model, root.substream("init", 0))
        x = train.features[parts[0].train_indices]
        y = train.labels[parts[0].train_indices]
        expected, _ = _local_train(
            model, [start], [x], [y], local, OptState(cfg.lr, cfg.momentum),
            [root.substream("client", 0, 0)],
        )
        assert np.array_equal(result.final_global, expected[0])

    def test_round_log_shape(self):
        train, test, parts, model = small_setup()
        cfg = config("fedavg", rounds=3)
        result = run_federation(cfg, model, parts, train, test)
        assert len(result.round_logs) == 3
        for log in result.round_logs:
            assert log.m == len(log.selected) == 4
            assert 0.0 <= log.global_accuracy <= 1.0
            assert len(log.client_stats) == 4

    def test_partition_count_mismatch(self):
        train, test, parts, model = small_setup()
        cfg = config("fedavg", n_clients=9)
        with pytest.raises(InvalidArgument):
            run_federation(cfg, model, parts, train, test)
        # the newcomer protocol, the other public way in, checks it too
        with pytest.raises(InvalidArgument, match="declares 9 clients, got 8 partitions"):
            newcomer_protocol(cfg, model, parts, train, test)

    def test_same_seed_same_digest(self):
        train, test, parts, model = small_setup()
        cfg = config("scaffold", momentum=0.0)
        a = run_federation(cfg, model, parts, train, test)
        b = run_federation(cfg, model, parts, train, test)
        assert a.digest() == b.digest()

    def test_solo_trains_every_client_locally(self):
        train, test, parts, model = small_setup(n_clients=4)
        cfg = config("solo", n_clients=4, rounds=3)
        result = run_federation(cfg, model, parts, train, test)
        assert result.final_global is None
        assert set(result.final_personal) == set(range(4))
        for log in result.round_logs:
            assert log.selected == (0, 1, 2, 3)
            # training budget: E epochs per round for every client
            for stat in log.client_stats:
                assert stat.steps == cfg.local.epochs * -(-stat.n_train // 10)

    def test_clustered_two_modes_separates(self):
        # Two client groups backed by disjoint class halves: with two
        # server models available, each group's clients should end up
        # assigned away from at least one shared fit.
        train, test = balanced_dataset(n_classes=4, per_class=50, n_features=8, seed=500)
        low = np.nonzero(train.labels < 2)[0]
        high = np.nonzero(train.labels >= 2)[0]
        parts = []
        for k in range(4):
            src = low if k < 2 else high
            parts.append(
                ClientPartition(
                    k,
                    src[k % 2 :: 2],
                    frozenset({0, 1} if k < 2 else {2, 3}),
                )
            )
        model = ModelSpec("logreg", 8, 4)
        cfg = config("clustered", n_clients=4, rounds=8, sample_rate=1.0, n_clusters=2)
        result = run_federation(cfg, model, parts, train, test)
        assert result.final_clusters is not None and len(result.final_clusters) == 2
        assert set(result.final_personal) == set(range(4))
        groups = {
            tuple(sorted(k for k in range(4) if result.final_personal[k] is c))
            for c in result.final_clusters
        }
        # same-group clients share a personal model
        assert groups == {(0, 1), (2, 3)}

    def test_every_algorithm_preserves_layout(self):
        # every model a run returns is a finite flat float64 vector in
        # the layout ModelSpec describes
        from fedsim.federation import ALGORITHMS

        train, test, parts, model = small_setup(n_clients=4, kind="iid")
        for algo in ALGORITHMS:
            cfg = config(algo, n_clients=4, rounds=2, momentum=0.0)
            result = run_federation(cfg, model, parts, train, test)
            models = [*result.final_personal.values(), *(result.final_clusters or [])]
            if result.final_global is not None:
                models.append(result.final_global)
            assert models, algo
            for theta in models:
                assert theta.dtype == np.float64 and theta.shape == (model.n_params(),)
                assert np.isfinite(theta).all()

    def test_decoupled_personal_models_differ_in_head(self):
        train, test, parts, _ = small_setup()
        model = ModelSpec("logreg", 8, 5, layer_split=1)
        cfg = config("decoupled", rounds=4)
        result = run_federation(cfg, model, parts, train, test)
        boundary = model.local_boundary()
        bodies = {k: p[:boundary].tobytes() for k, p in result.final_personal.items()}
        assert len(set(bodies.values())) == 1  # shared global body
        heads = {k: p[boundary:].tobytes() for k, p in result.final_personal.items()}
        assert len(set(heads.values())) > 1  # personal heads


LOCKSTEP_ALGORITHMS = (
    "fedavg", "fedprox", "fednova", "scaffold", "fedavg_ft", "decoupled", "clustered",
)


def lockstep_results(monkeypatch) -> list:
    """The (main result, trainer loop output) pair of each newcomer
    protocol run, as its lock-step of the two returns it."""
    seen = []

    def recording(tasks):
        results = yield from federation._lockstep(tasks)
        seen.append(results)
        return results

    monkeypatch.setattr(metrics, "_lockstep", recording)
    return seen


class TestLockStep:
    """In the newcomer protocol, the main and trainer federations share
    each round's stacked call, and each equals training it alone."""

    @pytest.mark.parametrize("algorithm", LOCKSTEP_ALGORITHMS)
    def test_each_result_equals_its_federation_alone(self, algorithm, monkeypatch):
        train, test, parts, _ = small_setup(n_clients=10)
        model = ModelSpec("mlp", 8, 5, hidden=6, layer_split=2)
        cfg = config(algorithm, n_clients=10, rounds=4, sample_rate=0.3, mu=0.05, ft_epochs=2)
        main_alone = run_federation(cfg, model, parts, train, test)
        trainer_ref = trainer_alone(cfg, model, parts, train, test)

        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return _local_train(*args, **kwargs)

        monkeypatch.setattr(federation, "_local_train", counting)
        seen = lockstep_results(monkeypatch)
        result, _ = newcomer_protocol(cfg, model, parts, train, test)
        [(main, trainer)] = seen
        assert result is main and main.digest() == main_alone.digest()
        assert loop_output(trainer) == loop_output(trainer_ref)
        # one call per round holding both federations' clients (3 + 2),
        # the main federation's fine-tune of all 10 clients for fedavg_ft
        # (the trainer fine-tunes none), then the 2 newcomers' adaptation
        assert calls[: cfg.rounds] == [5] * cfg.rounds
        assert calls[cfg.rounds :] == ([10] if algorithm == "fedavg_ft" else []) + [2]

    def test_diverging_trainer_raises_its_own_error(self):
        # Every client holds one batch except one with three. At lr 1e200
        # one step leaves finite parameters and the second overflows, so
        # only a federation that samples the long client diverges in
        # training. At seed 0 the trainer federation samples it in round 0
        # and the main one does not. The main one's finite model still
        # overflows its logits when evaluated.
        seed = 0
        trainers = [k for k in range(10) if k not in newcomer_holdout(seed, 10)]
        long_client = trainers[sample_clients(Rng(seed).substream("sample", 0), 8, 0.2)[0]]
        assert long_client not in sample_clients(Rng(seed).substream("sample", 0), 10, 0.2)
        train, test = balanced_dataset(n_classes=5, per_class=40, n_features=8, seed=3)
        parts, start = [], 0
        for k in range(10):
            idx = np.arange(start, start + (30 if k == long_client else 10))
            parts.append(ClientPartition(k, idx, frozenset(train.labels[idx].tolist())))
            start += len(idx)
        model = ModelSpec("mlp", 8, 5, hidden=6)
        cfg = config(
            "fedavg", n_clients=10, rounds=1, seed=seed, sample_rate=0.2, lr=1e200,
            local=LocalTrainSpec(epochs=1, batch_size=10),
        )
        with np.errstate(all="ignore"):
            _run(_round_loop(cfg, model, _ClientData(train, parts), test, 0))  # trains finite
            with pytest.raises(NumericError, match="^main federation round 0: non-finite logits$"):
                run_federation(cfg, model, parts, train, test)
            with pytest.raises(NumericError) as alone:
                trainer_alone(cfg, model, parts, train, test)
            with pytest.raises(NumericError) as together:
                newcomer_protocol(cfg, model, parts, train, test)
        assert str(together.value) == str(alone.value)
        # the error names the federation and the round it diverged in
        assert str(together.value) == "trainer federation round 0: non-finite value in segment w1"

    def test_mixed_loops_in_one_drive_equal_each_alone(self, monkeypatch):
        # Five algorithms, at E = 1 and E = 2, advance through one `_drive`.
        # Each round makes one call per epoch count, holding every loop's
        # clients with that count, and each result equals its loop alone.
        train, test, parts, _ = small_setup(n_clients=10)
        model = ModelSpec("mlp", 8, 5, hidden=6, layer_split=2)
        data = _ClientData(train, parts)
        cfgs = [
            config(
                algorithm, n_clients=10, rounds=4, seed=7 + i, sample_rate=0.3, mu=0.05,
                local=LocalTrainSpec(epochs=epochs, batch_size=10),
            )
            for i, (algorithm, epochs) in enumerate(
                [("fedprox", 1), ("fednova", 2), ("scaffold", 1), ("decoupled", 2), ("clustered", 1)]
            )
        ]

        def loops():
            return [_round_loop(cfg, model, data, test, 2) for cfg in cfgs]

        alone = [loop_output(_run(loop)) for loop in loops()]
        calls = []

        def counting(*args, **kwargs):
            calls.append((args[4].epochs, len(args[1])))
            return _local_train(*args, **kwargs)

        monkeypatch.setattr(federation, "_local_train", counting)
        together = _drive(loops())
        assert [loop_output(out) for out in together] == alone
        assert calls == [(1, 9), (2, 6)] * 4

    def test_merged_divergence_fails_only_its_loop(self, monkeypatch):
        # fedprox at an absurd mu diverges in the call it shares with
        # fedavg and scaffold. The call goes on without it, so the other
        # two equal their loops alone.
        train, test, parts, model = small_setup(n_clients=10)
        data = _ClientData(train, parts)
        cfgs = [
            config(algorithm, n_clients=10, rounds=3, sample_rate=0.3, mu=1e300)
            for algorithm in ("fedavg", "fedprox", "scaffold")
        ]

        def loops():
            return [_round_loop(cfg, model, data, test, 2) for cfg in cfgs]

        alone = [loop_output(_run(loop)) for loop in loops()[::2]]
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return _local_train(*args, **kwargs)

        monkeypatch.setattr(federation, "_local_train", counting)
        with np.errstate(all="ignore"):
            together = _drive(loops())
        assert [loop_output(together[0]), loop_output(together[2])] == alone
        assert isinstance(together[1], NumericError)
        assert str(together[1]) == "main federation round 0: non-finite value in segment w"
        # round 0 merged, with no second pass; later rounds merge the two left
        assert calls == [9, 6, 6]

    def test_solo_with_newcomers_rejected_before_training(self, monkeypatch):
        train, test, parts, model = small_setup(n_clients=10)
        cfg = config("solo", n_clients=10)

        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting solo")

        monkeypatch.setattr(federation, "_local_train", no_training)
        with pytest.raises(InvalidArgument, match="solo training produces no model"):
            newcomer_protocol(cfg, model, parts, train, test)


def evaluation_schedule(monkeypatch, test):
    """The number of `federation.evaluate` calls after each `_local_train`
    call, in call order: one entry per round, then one per fine-tune and
    one for the newcomers' adaptation."""
    counts = []

    def training(*args, **kwargs):
        counts.append(0)
        return _local_train(*args, **kwargs)

    def counting(*args, **kwargs):
        # perfbench reads the row count as len() of the 4th positional argument
        assert len(args[3]) == test.n_samples and not kwargs
        counts[-1] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(federation, "_local_train", training)
    monkeypatch.setattr(federation, "evaluate", counting)
    return counts


class TestEvaluationSchedule:
    """The pool is evaluated only in the rounds a reported number reads."""

    @pytest.mark.parametrize("algorithm, pool", [("fedavg", 1), ("clustered", 3), ("solo", 10)])
    def test_main_evaluates_its_gfl_window(self, algorithm, pool, monkeypatch):
        train, test, parts, model = small_setup(n_clients=10)
        cfg = config(algorithm, n_clients=10, rounds=7, sample_rate=0.3, n_clusters=3)
        window = participant_count(cfg.n_clients, cfg.sample_rate)
        assert window == 3
        counts = evaluation_schedule(monkeypatch, test)
        result = run_federation(cfg, model, parts, train, test)
        assert counts == [0] * 4 + [pool] * 3
        accs = [log.global_accuracy for log in result.round_logs]
        assert [acc is None for acc in accs] == [True] * 4 + [False] * 3
        assert all(0.0 <= acc <= 1.0 for acc in accs[-window:])

    def test_window_covering_every_round_evaluates_each(self, monkeypatch):
        # test_round_log_shape's run: a window of 4 rounds over 3
        train, test, parts, model = small_setup()
        cfg = config("fedavg", rounds=3)
        assert participant_count(cfg.n_clients, cfg.sample_rate) >= cfg.rounds
        counts = evaluation_schedule(monkeypatch, test)
        result = run_federation(cfg, model, parts, train, test)
        assert counts == [1] * 3
        assert all(log.global_accuracy is not None for log in result.round_logs)

    @pytest.mark.parametrize("algorithm", LOCKSTEP_ALGORITHMS)
    def test_trainer_evaluates_no_round(self, algorithm, monkeypatch):
        train, test, parts, model = small_setup(n_clients=10)
        cfg = config(algorithm, n_clients=10, rounds=4, sample_rate=0.3, ft_epochs=1)
        counts = evaluation_schedule(monkeypatch, test)
        main_alone = run_federation(cfg, model, parts, train, test)
        alone = list(counts)
        counts.clear()
        seen = lockstep_results(monkeypatch)
        newcomer_protocol(cfg, model, parts, train, test)
        [(main, (trainer_logs, _, _, trainer_accs))] = seen
        # the same evaluations, though the trainer's clients share every round's call
        assert counts[: cfg.rounds] == alone[: cfg.rounds]
        assert sum(counts) == sum(alone)
        assert main.round_logs == main_alone.round_logs
        assert [log.global_accuracy for log in trainer_logs] == [None] * cfg.rounds
        assert trainer_accs is None


class TestErrorLabels:
    """A failed cluster assignment or newcomer scoring names its
    federation and its round or phase."""

    @staticmethod
    def failing_after(n, calls):
        def assign(*args):
            calls.append(args)
            if len(calls) > n:
                raise NumericError("non-finite loss")
            return assign_cluster(*args)

        return assign

    def test_assignment_errors_name_their_round_or_phase(self, monkeypatch):
        train, test, parts, model = small_setup(n_clients=10)
        cfg = config("clustered", n_clients=10, rounds=2, sample_rate=0.3)
        # 3 assignments a round; after both rounds, all 10 clients' at the end
        for n, label in ((3, "main federation round 1"), (6, "main federation assignment")):
            calls = []
            monkeypatch.setattr(federation, "assign_cluster", self.failing_after(n, calls))
            with pytest.raises(NumericError, match=f"^{label}: non-finite loss$"):
                run_federation(cfg, model, parts, train, test)
            assert len(calls) == n + 1
        monkeypatch.setattr(federation, "assign_cluster", assign_cluster)
        monkeypatch.setattr(metrics, "assign_cluster", self.failing_after(0, []))
        with pytest.raises(NumericError, match="^newcomer assignment: non-finite loss$"):
            newcomer_protocol(cfg, model, parts, train, test)

    def test_newcomer_scoring_error_names_its_phase(self, monkeypatch):
        train, test, parts, model = small_setup(n_clients=10)

        def failing(*args):
            raise NumericError("non-finite logits")

        # newcomers are scored through metrics.evaluate, the rounds through federation's
        monkeypatch.setattr(metrics, "evaluate", failing)
        with pytest.raises(NumericError, match="^newcomer evaluation: non-finite logits$"):
            newcomer_protocol(config("fedavg", n_clients=10), model, parts, train, test)


class TestFineTune:
    def test_zero_epochs_identity(self):
        train, test, parts, model = small_setup(n_clients=4, kind="iid")
        start = init_params(model, Rng(1))
        data = _ClientData(train, parts)
        personal = _fine_tune_data(start, model, data, 0, 10, OptState(0.05, 0.9), Rng(2))
        assert all(np.array_equal(personal[k], start) for k in range(4))

    def test_deterministic(self):
        train, test, parts, model = small_setup(n_clients=4, kind="iid")
        start = init_params(model, Rng(1))
        data = _ClientData(train, parts)
        opt = OptState(0.05, 0.9)
        a = _fine_tune_data(start, model, data, 3, 10, opt, Rng(5))
        b = _fine_tune_data(start, model, data, 3, 10, opt, Rng(5))
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_identical_data_and_stream_identical_models(self):
        train, test, parts, model = small_setup(n_clients=4, kind="iid")
        start = init_params(model, Rng(1))
        opt = OptState(0.05, 0.9)
        x = train.features[parts[0].train_indices]
        y = train.labels[parts[0].train_indices]
        spec = LocalTrainSpec(3, 10)
        rngs = [Rng(9).substream("ft", 0), Rng(9).substream("ft", 0)]
        (a, b), _ = _local_train(model, [start, start], [x, x], [y, y], spec, opt, rngs)
        assert np.array_equal(a, b)

    def test_fine_tuning_lifts_personal_accuracy_under_skew(self):
        # the personalization premise: under label skew, locally tuned
        # models beat the shared global model on local test data
        train, test = balanced_dataset(n_classes=10, per_class=60, n_features=16, seed=77)
        parts = attach_local_tests(
            make_partitions(train, PartitionSpec("label-skew", 10, p=0.2), Rng(3)), test
        )
        model = ModelSpec("logreg", 16, 10)
        cfg = FederationConfig(
            n_clients=10, sample_rate=0.3, rounds=15,
            local=LocalTrainSpec(epochs=5, batch_size=10),
            lr=0.05, momentum=0.9, algorithm="fedavg_ft", seed=13, ft_epochs=20,
        )
        result = run_federation(cfg, model, parts, train, test)
        personal_acc = pfl_metric(
            local_test_accuracies(model, result.final_personal, parts, test), 10
        )
        global_models = {k: result.final_global for k in range(10)}
        global_acc = pfl_metric(
            local_test_accuracies(model, global_models, parts, test), 10
        )
        assert personal_acc >= global_acc


ASSIGN_SPECS = {
    "logreg": ModelSpec("logreg", 8, 5, init_scale=0.5),
    "mlp": ModelSpec("mlp", 8, 5, hidden=6, init_scale=0.5),
}


class TestAssignCluster:
    """IFCA's assignment: the cluster with the lowest training loss on the client's rows."""

    @staticmethod
    def _client(trial, n=23):
        train, _ = balanced_dataset(n_classes=5, per_class=20, n_features=8, seed=50 + trial)
        rows = Rng(trial).sample_without_replacement(len(train.labels), n)
        return train.features[rows], train.labels[rows]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["logreg", "mlp"])
    def test_argmin_of_training_losses(self, kind, k):
        spec = ASSIGN_SPECS[kind]
        picks = []
        for trial in range(12):
            clusters = [init_params(spec, Rng(1000 * trial + j)) for j in range(k)]
            x, y = self._client(trial)
            losses = [forward_loss_grad(spec, theta, x, y)[0] for theta in clusters]
            picks.append(federation.assign_cluster(spec, clusters, x, y))
            assert picks[-1] == int(np.argmin(losses))
        assert len(set(picks)) == k  # every cluster wins some client

    @pytest.mark.parametrize("kind", ["logreg", "mlp"])
    def test_duplicate_clusters_tie_toward_lowest_id(self, kind):
        spec = ASSIGN_SPECS[kind]
        x, y = self._client(0)
        a, b = init_params(spec, Rng(1)), init_params(spec, Rng(2))
        loss_a, loss_b = (forward_loss_grad(spec, theta, x, y)[0] for theta in (a, b))
        worse, best = (a, b) if loss_a > loss_b else (b, a)
        assert federation.assign_cluster(spec, [worse, best, best.copy()], x, y) == 1
        assert federation.assign_cluster(spec, [best, worse, best.copy()], x, y) == 0
        assert federation.assign_cluster(spec, [worse, worse.copy(), worse.copy()], x, y) == 0

    @pytest.mark.parametrize(
        "kind, segment, start",
        [(kind, *plan[:2]) for kind, spec in ASSIGN_SPECS.items() for plan in spec._view_plan],
    )
    def test_nan_weight_raises_naming_its_segment(self, kind, segment, start):
        spec = ASSIGN_SPECS[kind]
        x, y = self._client(0)
        clusters = [init_params(spec, Rng(j)) for j in range(3)]
        clusters[1][start] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"non-finite value in segment {segment}$"):
                federation.assign_cluster(spec, clusters, x, y)

    @pytest.mark.parametrize("kind", ["logreg", "mlp"])
    def test_forms_no_gradient(self, kind, monkeypatch):
        spec = ASSIGN_SPECS[kind]
        x, y = self._client(1)
        clusters = [init_params(spec, Rng(j)) for j in range(3)]
        expected = int(np.argmin([forward_loss_grad(spec, theta, x, y)[0] for theta in clusters]))

        def no_gradient(*args, **kwargs):
            raise AssertionError("cluster assignment ran the gradient kernel")

        monkeypatch.setattr("fedsim.model._loss_grad_into", no_gradient)
        assert federation.assign_cluster(spec, clusters, x, y) == expected
