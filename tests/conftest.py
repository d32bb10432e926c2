import numpy as np
import pytest

from fedsim.core import Rng
from fedsim.data import Dataset, SyntheticSpec, generate_synthetic
from fedsim.federation import _ClientData, _fine_tune_data, _round_loop, _run
from fedsim.metrics import newcomer_holdout, trainer_federation
from fedsim.model import OptState


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
    evaluates no round. Returns the loop's (logs, pool, heads, accs)."""
    newcomers = newcomer_holdout(config.seed, config.n_clients)
    trainer_config, positions = trainer_federation(config, partitions, newcomers)
    data = _ClientData(train, [partitions[i] for i in positions])
    return _run(_round_loop(trainer_config, model_spec, data, test, 0, "trainer"))


def loop_output(out):
    """A round loop's (logs, pool, heads, accs) in a form `==` compares
    bit for bit."""
    logs, pool, heads, accs = out
    heads = None if heads is None else {k: h.tobytes() for k, h in heads.items()}
    return logs, [theta.tobytes() for theta in pool], heads, accs


def trainer_fine_tuned(config, model_spec, partitions, train, test):
    """Each trainer client's model, by client id, after a fedavg_ft
    fine-tune of the trainer federation's final model over the trainer's
    clients: the personalized model a newcomer that duplicates a trainer
    is compared with."""
    _, pool, _, _ = trainer_alone(config, model_spec, partitions, train, test)
    _, positions = trainer_federation(
        config, partitions, newcomer_holdout(config.seed, config.n_clients)
    )
    trainers = [partitions[i] for i in positions]
    personal = _fine_tune_data(
        pool[0], model_spec, _ClientData(train, trainers), config.ft_epochs,
        config.local.batch_size, OptState(config.lr, config.momentum), Rng(config.seed),
    )
    return {p.client_id: personal[i] for i, p in enumerate(trainers)}
