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
and `pfl1`/`fedavg_ft` at 10 rounds pin the 10-class output layer,
whose short-batch products round differently when zero-padded; their
window is 10 rounds.

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
        "172ee258f712791595c4538ec86884701fbe0e056088f7d8e65022e85dba8113",
        0.1059375, None, None, 0.08569318753142283, None, 4,
    ),
    ("gfl2", "fedprox", 7): (
        "f7a3a7ab83bc9ac8876af46c708eaf3d09d4971e234db5ffbf1463c0df502637",
        0.1059375, None, None, 0.08569318753142283, None, 4,
    ),
    ("gfl2", "fednova", 7): (
        "6c4a3a77daf8445f2a83707399ab6f832d5863a5e20e37b3c4d0f711b79931c6",
        0.08625, None, None, 0.0853255404725993, None, 4,
    ),
    ("gfl2", "scaffold", 7): (
        "75cae8556e2fe59e30f47d0b97931a20dae69079a2f8f78e11965c08b475e449",
        0.0534375, None, None, 0.08429958521870287, None, 4,
    ),
    ("gfl2", "fedavg_ft", 7): (
        "7be74ef271e311bf5996430f4ebd71aba2860163fadf0fd2c55aad2b8289b8ea",
        0.1059375, 0.08158448062085832, 2.630895417126987, 0.08569318753142283,
        "8be5cf67e6e4bc70", 4,
    ),
    ("gfl2", "decoupled", 7): (
        "9916781ef15d44f2b0f59bb0292d72c397ecc47eddb7e231c62a07d5db6c4ae3",
        0.060937500000000006, 0.07758098819824825, 2.185342972185103, 0.07944318753142282,
        "40f604251b9b7bef", 4,
    ),
    ("gfl2", "clustered", 7): (
        "8117874147302efe98dd42e2dba8cd4c1c5897e660e855f6b90bfb7dde722f09",
        0.081875, 0.07411021898637997, 3.1960849830689897, 0.0755121920563097,
        "0d84b71db4c6e017", 4,
    ),
    ("gfl2", "solo", 7): (
        "527736e84886c5ef63e2eaf8ac63ba1a909231bac672464dc6dfe3d692c1006e",
        0.06528125000000001, 0.09535552340031829, 3.465237683872081, None,
        "4eb12aacc7555426", 4,
    ),
    ("pfl2", "fedavg_ft", 7): (
        "f4ff7086faafe0b81ebf6f789a73e379a63ec7228ffe9cf89ababa1219e3d1fe",
        0.201875, 0.5282931547619047, 7.308382399527637, None,
        "24dc4924d3b196bf", 4,
    ),
    ("gfl1", "fedavg", 7): (
        "6ef4762b10891ad44a52dd0565fcc230d3b9e99fc1cac401efcd5e3237dc66fa",
        0.14075000000000001, None, None, None, None, 10,
    ),
    ("pfl1", "fedavg_ft", 7): (
        "1c091c7cfdc3ad03539e4f5130ba8342b398dac7dfffc8e587221173bd578a57",
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
