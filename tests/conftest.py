import numpy as np
import pytest

from fedsim.core import Rng
from fedsim.data import Dataset, SyntheticSpec, generate_synthetic
from fedsim.federation import _ClientData, _round_loop, _run, trainer_federation
from fedsim.metrics import newcomer_holdout


def balanced_dataset(
    n_classes: int = 10,
    per_class: int = 100,
    n_features: int = 24,
    seed: int = 1234,
    test_per_class: int = 40,
) -> tuple[Dataset, Dataset]:
    spec = SyntheticSpec(
        n_classes=n_classes,
        n_features=n_features,
        train_per_class=per_class,
        test_per_class=test_per_class,
    )
    return generate_synthetic(spec, Rng(seed).substream("data"))


@pytest.fixture(scope="session")
def ten_class_data() -> tuple[Dataset, Dataset]:
    """Balanced 1000-sample 10-class set shared by partition tests."""
    return balanced_dataset()


def labels_only_dataset(labels: list[int], n_classes: int, n_features: int = 2) -> Dataset:
    """Dataset whose features are unused; handy for index bookkeeping tests."""
    labels_arr = np.asarray(labels, dtype=np.int64)
    feats = np.tile(np.linspace(0.1, 0.9, n_features), (len(labels), 1))
    return Dataset(feats, labels_arr, n_classes, "train")


def trainer_alone(config, model_spec, partitions, train, test):
    """The newcomer protocol's trainer federation trained on its own, not
    in lock-step with the main one: the reference for the lock-step run.
    Its round loop is driven alone and, as in the lock-step run,
    evaluates no round."""
    newcomers = newcomer_holdout(config.seed, config.n_clients)
    trainer_config, positions = trainer_federation(config, partitions, newcomers)
    data = _ClientData(train, [partitions[i] for i in positions])
    return _run(_round_loop(trainer_config, model_spec, data, test, 0, "trainer"))
