"""Deterministic desk-scale federated learning simulation harness."""

from .core import Rng, dirichlet_sample, hash64
from .data import Dataset, SyntheticSpec, allocate_local_test, generate_synthetic, load_idx
from .errors import (
    ConfigError,
    FedsimError,
    IncompatibleShape,
    InvalidArgument,
    NumericError,
    PartitionError,
)
from .federation import (
    ALGORITHMS,
    FederationConfig,
    RunResult,
    fuse_fedavg,
    fuse_fednova,
    run_federation,
    sample_clients,
)
from .metrics import (
    MetricReport,
    compute_report,
    fairness_metric,
    gfl_metric,
    newcomer_protocol,
    pfl_metric,
)
from .model import (
    LocalTrainSpec,
    ModelSpec,
    OptState,
    evaluate,
    forward_loss_grad,
    init_params,
)
from .partition import ClientPartition, PartitionSpec, make_partitions

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ClientPartition",
    "ConfigError",
    "Dataset",
    "FederationConfig",
    "FedsimError",
    "IncompatibleShape",
    "InvalidArgument",
    "LocalTrainSpec",
    "MetricReport",
    "ModelSpec",
    "NumericError",
    "OptState",
    "PartitionError",
    "PartitionSpec",
    "Rng",
    "RunResult",
    "SyntheticSpec",
    "allocate_local_test",
    "compute_report",
    "dirichlet_sample",
    "evaluate",
    "fairness_metric",
    "forward_loss_grad",
    "fuse_fedavg",
    "fuse_fednova",
    "generate_synthetic",
    "gfl_metric",
    "hash64",
    "init_params",
    "load_idx",
    "make_partitions",
    "newcomer_protocol",
    "pfl_metric",
    "run_federation",
    "sample_clients",
]
