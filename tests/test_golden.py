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
        "c52ed793d0622982226c7dd97346b30c53990344b4ba5e3194489f92cf6c34c0",
        0.10593749999999999, None, None, 0.07686965811965812, None, 4,
    ),
    ("gfl2", "fedprox", 7): (
        "062e03e172b4be2770d59812b04ccbacc7255f8225752fe47f54cb22dace4b72",
        0.10593749999999999, None, None, 0.07686965811965812, None, 4,
    ),
    ("gfl2", "fednova", 7): (
        "c7e387365df9a70b62ec012aac875d0a3b5687449a9e9cd6fcf22acf6226ea37",
        0.090625, None, None, 0.08017848164906989, None, 4,
    ),
    ("gfl2", "scaffold", 7): (
        "274475fba061edf20ac1438765f012d8c0c6bf14b17cdb2bfdc75c4e22b64217",
        0.1021875, None, None, 0.06878142282554048, None, 4,
    ),
    ("gfl2", "fedavg_ft", 7): (
        "052a09ff5679245ca7734e7181e58da3cf2e90c65b9bc63ac56e0d460f6a52ba",
        0.10593749999999999, 0.07589524338750345, 2.3450509375897535, 0.07686965811965812,
        "a6b6cb1d402f8528", 4,
    ),
    ("gfl2", "decoupled", 7): (
        "fc64c8a10d98ce0faf81e3e717d06f1c23687eef3f848fc8c993d5ca11a9caa7",
        0.0640625, 0.0804270432869504, 2.52331797898352, 0.0676784816490699,
        "7438c1c2e5f0a3d8", 4,
    ),
    ("gfl2", "clustered", 7): (
        "10ff244926e3eb3409ce7d42396667fc7604be45719ff206f0b4e4e5fc03aa76",
        0.09593750000000001, 0.0821652795733678, 3.2723954533621002, 0.07701106083459025,
        "1c7aba4ea0b0c255", 4,
    ),
    ("gfl2", "solo", 7): (
        "fa3d86342d0a7a7dc4ded84a8bb587086ff04a0137943db0f1dc7058c9e7ee1f",
        0.066859375, 0.09599155487937415, 3.582284506279189, None, "be3b0b99d1a8ec15", 4,
    ),
    ("pfl2", "fedavg_ft", 7): (
        "7f6f211c68add80bc12c7c309de96064f3b80f023f98da2383936b4333e3d44c",
        0.2046875, 0.5242986111111112, 7.550693466862142, None, "7aa0689f44f4eacf", 4,
    ),
    ("gfl1", "fedavg", 7): (
        "b8e0e7b013b47a2af5ffd38f01bfe725de21d3b08932c87b1f0900bf04cc3417",
        0.11474999999999999, None, None, None, None, 10,
    ),
    ("pfl1", "fedavg_ft", 7): (
        "7c4186bf69fe6a4bf0dfa3c69323fac4797b9cf19f0550391047ddf7ec3423de",
        0.17075, 0.6673333333333333, 12.71519213819088, None, "c5a0d5927d5ed595", 10,
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
SETTINGS_GOLDEN = "abaa0db5b850c7957580626e2279a618d59045c9aaf5078b83e02b4468933c38"


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
