import dataclasses

import numpy as np
import pytest

from conftest import balanced_dataset
from fedsim.core import Rng
from fedsim.errors import IncompatibleShape, InvalidArgument
from fedsim.federation import (
    FederationConfig,
    ScaffoldState,
    _ClientData,
    _fine_tune_data,
    fuse_fedavg,
    fuse_fednova,
    participant_count,
    run_federation,
    sample_clients,
    scaffold_client_variate,
    tau_effective,
)
from fedsim.metrics import local_test_accuracies, pfl_metric
from fedsim.model import LocalTrainSpec, ModelSpec, OptState, _local_train, init_params
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
            out, stats = _local_train(
                model, global_p, data.features[k], data.labels[k], cfg.local, opt,
                root.substream("client", k, t), offset,
            )
            new_c = scaffold_client_variate(
                state.clients[k], state.server, global_p, out,
                stats.steps, cfg.lr,
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
            model, start, x, y, local, OptState(cfg.lr, cfg.momentum),
            root.substream("client", 0, 0),
        )
        assert np.array_equal(result.final_global, expected)

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
        a, _ = _local_train(model, start, x, y, spec, opt, Rng(9).substream("ft", 0))
        b, _ = _local_train(model, start, x, y, spec, opt, Rng(9).substream("ft", 0))
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
