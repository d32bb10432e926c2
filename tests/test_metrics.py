import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import balanced_dataset, trainer_fine_tuned
from fedsim import federation
from fedsim.core import Rng
from fedsim.errors import InvalidArgument
from fedsim.experiment import config_from_entries, run_single
from fedsim.federation import FederationConfig, run_federation
from fedsim.metrics import (
    compute_report,
    fairness_metric,
    gfl_metric,
    local_test_accuracies,
    newcomer_holdout,
    newcomer_protocol,
    pfl_metric,
    trainer_federation,
)
from fedsim.model import LocalTrainSpec, ModelSpec
from fedsim.partition import PartitionSpec, attach_local_tests, make_partitions


class TestGflMetric:
    def test_constant_tail(self):
        accs = [0.1] * 30 + [0.5] * 10
        assert gfl_metric(accs, 0.1, 100) == 0.5

    def test_arithmetic_oracle(self):
        # 0.40, 0.42, ..., 0.58 averaged over a window of 10 is 0.49
        accs = [0.40 + 0.02 * i for i in range(10)]
        assert gfl_metric(accs, 0.1, 100) == pytest.approx(0.49, abs=1e-12)

    @pytest.mark.parametrize("c,n,window", [(0.1, 100, 10), (0.2, 20, 4), (0.01, 5, 1)])
    def test_window_sizes(self, c, n, window):
        accs = [0.0] * (window - 1) + [1.0]
        assert gfl_metric(accs, c, n) == pytest.approx(1.0 / window)

    def test_too_short_sequence(self):
        with pytest.raises(InvalidArgument, match="10"):
            gfl_metric([0.5] * 9, 0.1, 100)

    def test_constant_sequence_any_window(self):
        for c, n in ((0.1, 100), (0.5, 10), (1.0, 3)):
            assert gfl_metric([0.37] * 20, c, n) == pytest.approx(0.37)


class TestPflMetric:
    def test_uniform(self):
        assert pfl_metric({k: 0.7 for k in range(5)}, 5) == pytest.approx(0.7)

    def test_mean_of_two(self):
        assert pfl_metric({0: 0.6, 1: 0.8}, 2) == pytest.approx(0.7)

    def test_permutation_invariant(self):
        accs = {0: 0.1, 1: 0.5, 2: 0.9}
        shuffled = {2: 0.9, 0: 0.1, 1: 0.5}
        assert pfl_metric(accs, 3) == pfl_metric(shuffled, 3)

    def test_missing_client_rejected(self):
        with pytest.raises(InvalidArgument, match="missing"):
            pfl_metric({0: 0.5, 2: 0.5}, 3)


class TestFairnessMetric:
    def test_all_equal_is_zero(self):
        assert fairness_metric([0.42] * 6) == 0.0

    def test_population_std_two_points(self):
        # accuracies 60% and 80% -> population std 10 percentage points
        assert fairness_metric([0.6, 0.8]) == pytest.approx(10.0, abs=1e-12)

    def test_translation_invariant_scale_equivariant(self):
        base = [0.2, 0.4, 0.7]
        shifted = [a + 0.1 for a in base]
        scaled = [a * 0.5 for a in base]
        assert fairness_metric(shifted) == pytest.approx(fairness_metric(base))
        assert fairness_metric(scaled) == pytest.approx(0.5 * fairness_metric(base))

    def test_permutation_invariant(self):
        assert fairness_metric([0.1, 0.9, 0.5]) == fairness_metric([0.5, 0.1, 0.9])

    def test_needs_two_clients(self):
        with pytest.raises(InvalidArgument):
            fairness_metric([0.5])

    def test_magnitude_comparable_to_published_scale(self):
        # published fairness values are single-digit percentage points
        # (e.g. 8.05); a typical skewed accuracy profile lands in that
        # range rather than at fraction scale
        accs = [0.55, 0.62, 0.71, 0.80, 0.68, 0.75]
        value = fairness_metric(accs)
        assert 1.0 < value < 20.0

    @settings(max_examples=100, deadline=None)
    @given(
        accs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30),
        shift=st.floats(-0.5, 0.5),
        scale=st.floats(0.1, 2.0),
    )
    def test_translation_and_scale_properties(self, accs, shift, scale):
        base = fairness_metric(accs)
        shifted = fairness_metric([a + shift for a in accs])
        scaled = fairness_metric([a * scale for a in accs])
        assert shifted == pytest.approx(base, abs=1e-8)
        assert scaled == pytest.approx(scale * base, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(
        constant=st.floats(0.0, 1.0),
        length=st.integers(1, 60),
        c=st.floats(0.01, 1.0),
        n=st.integers(1, 60),
    )
    def test_gfl_constant_sequence_property(self, constant, length, c, n):
        from fedsim.federation import participant_count

        window = participant_count(n, c)
        if length < window:
            with pytest.raises(InvalidArgument):
                gfl_metric([constant] * length, c, n)
        else:
            assert gfl_metric([constant] * length, c, n) == pytest.approx(constant)


def _small_federation(n_clients=5, seed=31, algorithm="fedavg_ft"):
    train, test = balanced_dataset(n_classes=5, per_class=40, n_features=8, seed=seed)
    parts = attach_local_tests(
        make_partitions(train, PartitionSpec("label-dir", n_clients, alpha=0.3), Rng(seed)),
        test,
    )
    model = ModelSpec("logreg", 8, 5)
    cfg = FederationConfig(
        n_clients=n_clients, sample_rate=0.4, rounds=4,
        local=LocalTrainSpec(epochs=2, batch_size=10),
        lr=0.05, momentum=0.9, algorithm=algorithm, seed=seed, ft_epochs=3,
    )
    return train, test, parts, model, cfg


class TestComputeReport:
    def test_report_fields(self):
        train, test, parts, model, cfg = _small_federation()
        result = run_federation(cfg, model, parts, train, test)
        report = compute_report(result, cfg, model, parts, test)
        assert report.window == 2
        assert 0.0 <= report.gfl_accuracy <= 1.0
        assert report.pfl_accuracy is not None
        assert report.fairness is not None and report.fairness >= 0.0
        assert set(report.per_client_accuracies) == set(range(5))

    def test_gfl_only_for_global_algorithms(self):
        train, test, parts, model, cfg = _small_federation(algorithm="fedavg")
        result = run_federation(cfg, model, parts, train, test)
        report = compute_report(result, cfg, model, parts, test)
        assert report.pfl_accuracy is None
        assert report.fairness is None


class TestNewcomerProtocol:
    def test_holdout_count_and_determinism(self):
        ids = newcomer_holdout(11, 100)
        assert len(ids) == 20
        assert ids == newcomer_holdout(11, 100)
        assert newcomer_holdout(12, 100) != ids

    def test_minimum_five_clients(self):
        assert len(newcomer_holdout(1, 5)) == 1
        with pytest.raises(InvalidArgument):
            newcomer_holdout(1, 4)

    def test_holdout_disjoint_from_trainers(self):
        train, test, parts, model, cfg = _small_federation()
        newcomers = newcomer_holdout(cfg.seed, cfg.n_clients)
        trainer_cfg, positions = trainer_federation(cfg, parts, newcomers)
        assert len(newcomers) == 1 and trainer_cfg.n_clients == 4
        assert {parts[i].client_id for i in positions} == set(range(5)) - set(newcomers)
        result, accuracy = newcomer_protocol(cfg, model, parts, train, test)
        # the returned result is the main federation's, over all clients
        assert result.digest() == run_federation(cfg, model, parts, train, test).digest()
        assert 0.0 <= accuracy <= 1.0

    def test_solo_rejected(self):
        train, test, parts, model, cfg = _small_federation(algorithm="fedavg_ft")
        import dataclasses

        solo = dataclasses.replace(cfg, algorithm="solo")
        with pytest.raises(InvalidArgument):
            newcomer_protocol(solo, model, parts, train, test)

    def test_run_single_rejects_solo_newcomers_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting solo")

        monkeypatch.setattr(federation, "_local_train", no_training)
        cfg = config_from_entries({
            "preset": "gfl2", "federation.algorithm": "solo", "newcomer": "true",
        })
        with pytest.raises(InvalidArgument, match="solo training produces no model"):
            run_single(cfg, 1)

    def test_duplicated_client_matches_trainer(self):
        # A newcomer whose data duplicates a trainer's must score close
        # to that trainer's personalized accuracy (same start model,
        # same data, only the shuffle stream differs).
        train, test = balanced_dataset(n_classes=5, per_class=40, n_features=8, seed=91)
        model = ModelSpec("logreg", 8, 5)
        diffs = []
        for seed in (1, 2, 3):
            base = attach_local_tests(
                make_partitions(train, PartitionSpec("label-dir", 5, alpha=0.3), Rng(seed)),
                test,
            )
            cfg = FederationConfig(
                n_clients=5, sample_rate=0.4, rounds=4,
                local=LocalTrainSpec(epochs=2, batch_size=10),
                lr=0.05, momentum=0.9, algorithm="fedavg_ft", seed=seed, ft_epochs=5,
            )
            holdout = newcomer_holdout(seed, 5)[0]
            twin = (holdout + 1) % 5  # a trainer to mirror
            import dataclasses

            parts = [
                dataclasses.replace(base[twin], client_id=holdout)
                if p.client_id == holdout
                else p
                for p in base
            ]
            # one newcomer, so the mean newcomer accuracy is the holdout's
            _, newcomer_acc = newcomer_protocol(cfg, model, parts, train, test)
            trainer_personal = local_test_accuracies(
                model,
                {twin: trainer_fine_tuned(cfg, model, parts, train, test)[twin]},
                [p for p in parts if p.client_id == twin],
                test,
            )[twin]
            diffs.append(abs(newcomer_acc - trainer_personal))
        assert float(np.mean(diffs)) <= 0.05

