"""The benchmark's workloads: config entries, pinned sizes and output floors.

Every workload is a closed loop: one caller in one process runs one
operation at a time and starts the next only after the previous one
returned. Round counts, epochs and repetition counts are pinned here and
are the same on every commit; only the workload seed varies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

SWEEP_ALGORITHMS = ("fedprox", "fednova", "scaffold", "decoupled", "clustered")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "single": one seeded run_single; "sweep": run_sweep + emit_report
    entries: dict[str, str]
    # Every run completes at least this many operations; accuracies and
    # digests are taken over exactly these, so they compare across
    # commits whatever the speed.
    min_ops: int
    # A run fails when its gfl_accuracy is below this. Pinned together
    # with the round count in `entries`, and above chance (1/classes).
    gfl_floor: float | None = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="gfl1",
            kind="single",
            entries={"preset": "gfl1", "federation.rounds": "30"},
            min_ops=8,
            # 10 classes, chance 0.1; the lowest of 120 seeds scored 0.22 at 30 rounds
            gfl_floor=0.15,
        ),
        Workload(
            name="pfl2",
            kind="single",
            entries={"preset": "pfl2", "federation.rounds": "20"},
            min_ops=4,
            # 20 classes, chance 0.05; the lowest of 40 seeds scored 0.37 at 20 rounds
            gfl_floor=0.25,
        ),
        Workload(
            name="sweep",
            kind="sweep",
            entries={
                "preset": "gfl2",
                "federation.rounds": "10",
                "train.epochs": "1",
                "algo.ft_epochs": "5",
                # at layer_split 0 decoupled is exactly fedavg
                "model.layer_split": "2",
                "newcomer": "true",
                "runs": "2",
                "sweep.alpha": "0.1,1.0",
                # solo is left out: the newcomer protocol rejects it by design
                "sweep.algorithm": ",".join(SWEEP_ALGORITHMS),
            },
            min_ops=2,
        ),
    )
}


def op_seed(seed: int, index: int) -> int:
    """Seed of operation `index` in a run with workload seed `seed`."""
    digest = hashlib.sha256(f"perfbench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
