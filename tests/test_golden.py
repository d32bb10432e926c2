"""Golden run digests and metric values.

Every other determinism test compares runs with each other, so a change
to the random stream or to floating-point evaluation order would pass
them. These cases pin the exact `RunResult.digest()` and `MetricReport`
values of one seed per algorithm. A change that is meant to alter
results re-pins them on purpose and says so in its change notes.

Geometry: the `gfl2` preset reduced to 10 rounds and 2 local epochs,
5 fine-tune epochs, `model.layer_split = 2` (so `decoupled` keeps a
real local head) and the newcomer protocol on for every algorithm but
`solo`, which rejects it; plus `pfl2`/`fedavg_ft` at 10 rounds. These
have 20 classes and an evaluation window of 4 rounds. `gfl1`/`fedavg`
and `pfl1`/`fedavg_ft` at 10 rounds pin the 10-class output layer;
their window is 10 rounds. A short batch is stepped on its window
zero-padded to the batch size, with the padding masked out, so each
digest pins the rounding of those padded products, which differs from
that of the true rows alone.

The values were computed with numpy 2.4 on OpenBLAS (x86-64). A BLAS
that orders its sums differently can round differently and fail here.
"""

from __future__ import annotations

import hashlib

import pytest

from fedsim.experiment import config_from_entries, run_single

# (preset, algorithm, seed) ->
#   (digest, gfl, pfl, fairness, newcomer, per-client accuracy hash, window)
GOLDEN = {
    ("gfl2", "fedavg", 7): (
        "5a0270285ff3d1624e55e5126c57850d27e2cd418e61567829ac5d19c5db2ec7",
        0.1059375, None, None, 0.08569318753142283, None, 4,
    ),
    ("gfl2", "fedprox", 7): (
        "35df08b472d9a06a7b7319c10050fa69128cb50cb6cdae87f72789f02628df5e",
        0.1059375, None, None, 0.08569318753142283, None, 4,
    ),
    ("gfl2", "fednova", 7): (
        "362ba31517304d086d0d5811dc2db6331f422e0e0be6863697bb2e5c8d52963b",
        0.08625, None, None, 0.0853255404725993, None, 4,
    ),
    ("gfl2", "scaffold", 7): (
        "5a78d353a64e1f87dfd02ef7a2de22f4662378f93bbb639c8249c6215c5317ea",
        0.09343749999999999, None, None, 0.07503142282554048, None, 4,
    ),
    ("gfl2", "fedavg_ft", 7): (
        "87431a50a45d6a2752718ff5f8fe58a8492055a13ba40e5c15be9e3f34caecfc",
        0.1059375, 0.08158448062085832, 2.630895417126987, 0.08569318753142283,
        "8be5cf67e6e4bc70", 4,
    ),
    ("gfl2", "decoupled", 7): (
        "185deab4a075e95c15ba052f4aab729d697d5d0689e1067fcdf652934dd930ca",
        0.060937500000000006, 0.07758098819824825, 2.185342972185103, 0.07944318753142282,
        "40f604251b9b7bef", 4,
    ),
    ("gfl2", "clustered", 7): (
        "9c57ca5cc6959ae704fa5aea0df2a1f8dcf8757c275f86dbb115b40f500fb3b2",
        0.081875, 0.07411021898637997, 3.1960849830689897, 0.0755121920563097,
        "0d84b71db4c6e017", 4,
    ),
    ("gfl2", "solo", 7): (
        "015d0c14f2de8d41c48067e6d126299240ce5c6a869667272bd1d810e0a26801",
        0.06528125000000001, 0.09535552340031829, 3.465237683872081, None,
        "4eb12aacc7555426", 4,
    ),
    ("pfl2", "fedavg_ft", 7): (
        "5be4d4e09e006b96be2dc7141b07ac3e821c1030a77a5afacebf677e6a766174",
        0.201875, 0.5282931547619047, 7.308382399527637, None,
        "24dc4924d3b196bf", 4,
    ),
    ("gfl1", "fedavg", 7): (
        "f879bf32aee0320790ddc86311504cb3e086d9be7e58715c31a3e2f75e594d36",
        0.14075000000000001, None, None, None, None, 10,
    ),
    ("pfl1", "fedavg_ft", 7): (
        "d8a7d4db5e925e7c1aba8f02342d914f50e9f503fab23a3bc27f5da17575bac7",
        0.17225000000000001, 0.6855, 12.841782932633961, None, "652ac367db7494a0", 10,
    ),
}


def _entries(preset: str, algorithm: str) -> dict[str, str]:
    entries = {"preset": preset, "federation.algorithm": algorithm, "federation.rounds": "10"}
    if preset == "gfl2":
        entries.update({
            "train.epochs": "2",
            "algo.ft_epochs": "5",
            "model.layer_split": "2",
            "newcomer": "false" if algorithm == "solo" else "true",
        })
    return entries


def _per_client_hash(accuracies: dict[int, float] | None) -> str | None:
    if accuracies is None:
        return None
    return hashlib.sha256(repr(sorted(accuracies.items())).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_run(case):
    preset, algorithm, seed = case
    report, result, *_ = run_single(config_from_entries(_entries(preset, algorithm)), seed)
    got = (
        result.digest(),
        report.gfl_accuracy,
        report.pfl_accuracy,
        report.fairness,
        report.newcomer_accuracy,
        _per_client_hash(report.per_client_accuracies),
        report.window,
    )
    assert got == GOLDEN[case], (
        f"golden drift for preset={preset} algorithm={algorithm} seed={seed}: "
        f"new digest {got[0]}, new values {got[1:]!r}"
    )


# (algorithm, extra entries) on the gfl2 geometry above at 4 rounds and
# 1 local epoch, for settings the per-algorithm goldens do not reach:
# momentum 0 for every algorithm, decoupled at layer_split 1, clustered
# at 1 and 3 clusters, fedprox at a second mu and solo at C = 0.1
SETTING_CASES = (
    *((algorithm, {"train.momentum": "0"}) for algorithm in (
        "fedavg", "fedprox", "fednova", "scaffold", "fedavg_ft", "decoupled", "clustered", "solo",
    )),
    ("decoupled", {"model.layer_split": "1"}),
    ("clustered", {"algo.n_clusters": "1"}),
    ("clustered", {"algo.n_clusters": "3"}),
    ("fedprox", {"algo.mu": "0.05"}),
    ("solo", {"federation.sample_rate": "0.1"}),
)
SETTINGS_GOLDEN = "49ae34cf687f43d3208f319f975cb8a6a257ed731d35f2af2dbae61d80de1a33"


def test_golden_settings():
    combined = hashlib.sha256()
    for algorithm, extra in SETTING_CASES:
        entries = {**_entries("gfl2", algorithm), "federation.rounds": "4", "train.epochs": "1"}
        entries.update(extra)
        report, result, *_ = run_single(config_from_entries(entries), 7)
        combined.update(result.digest().encode())
        combined.update(repr((
            report.gfl_accuracy,
            report.pfl_accuracy,
            report.fairness,
            report.newcomer_accuracy,
            _per_client_hash(report.per_client_accuracies),
        )).encode())
    assert combined.hexdigest() == SETTINGS_GOLDEN, f"golden drift: new digest {combined.hexdigest()}"
