import json
import struct

import pytest

from fedsim.cli import main
from fedsim.core import hash64
from fedsim.errors import ConfigError
from fedsim.experiment import (
    apply_cell,
    config_from_entries,
    load_config,
    parse_csv_rows,
    run_inputs,
    run_single,
    run_sweep,
    sweep_cells,
)


def write_idx_dir(root, n_train=60, n_test=20, side=4, n_classes=3, seed=5):
    """Fake MNIST-layout directory: four standard IDX files."""
    from fedsim.core import Rng

    rng = Rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    for split, n, img_name, lab_name in (
        ("train", n_train, "train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("test", n_test, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    ):
        labels = bytes(i % n_classes for i in range(n))
        pixels = bytes(rng.randbelow(256) for _ in range(n * side * side))
        (root / img_name).write_bytes(struct.pack(">IIII", 0x803, n, side, side) + pixels)
        (root / lab_name).write_bytes(struct.pack(">II", 0x801, n) + labels)
    return root

TINY = """
dataset = synthetic
synthetic.classes = 5
synthetic.features = 8
synthetic.train_per_class = 30
synthetic.test_per_class = 10
partition.kind = label-dir
partition.alpha = 0.3
federation.clients = 5
federation.rounds = 3
federation.sample_rate = 0.4
federation.algorithm = fedavg
train.epochs = 1
runs = 2
seed = 9
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY)
    return path


class TestPartitionCommand:
    def test_emits_manifest_and_histograms(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "parts"
        assert main(["partition", str(cfg_path), "--out", str(out)]) == 0
        manifest = (out / "partition.txt").read_text().splitlines()
        assert len(manifest) == 5
        assert manifest[0].startswith("client,0,classes,")
        jsonl = (out / "partition.jsonl").read_text().splitlines()
        assert json.loads(jsonl[0])["client"] == 0
        hist = (out / "class_histogram.txt").read_text().splitlines()
        assert hist[0].startswith("client,0,hist,")

    def test_manifest_holds_run_zeros_partitions(self, cfg_path, tmp_path):
        out = tmp_path / "parts"
        assert main(["partition", str(cfg_path), "--out", str(out)]) == 0
        written = [json.loads(line) for line in (out / "partition.jsonl").read_text().splitlines()]
        cfg = load_config(cfg_path)
        _, _, partitions, *_ = run_single(cfg, hash64(cfg.seed, 0))
        assert [w["client"] for w in written] == [p.client_id for p in partitions]
        assert [w["train_indices"] for w in written] == [p.train_indices.tolist() for p in partitions]

    def test_sweep_sharing_one_partition_spec_writes_run_zeros(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        # a one-value axis still moves every cell off the base config's alpha
        path.write_text(TINY + "sweep.alpha = 1.0\nsweep.algorithm = fedavg,fedprox\nsweep.E = 1,2\n")
        out = tmp_path / "parts"
        assert main(["partition", str(path), "--out", str(out)]) == 0
        written = [json.loads(line) for line in (out / "partition.jsonl").read_text().splitlines()]
        cfg = load_config(path)
        for cell in sweep_cells(cfg):
            _, _, partitions = run_inputs(apply_cell(cfg, cell), hash64(cfg.seed, 0))
            assert [w["train_indices"] for w in written] == [p.train_indices.tolist() for p in partitions]

    @pytest.mark.parametrize(
        "lines, named",
        [
            ("sweep.alpha = 0.1,1.0\n", "sweep.alpha"),
            ("sweep.N = 5,6\nsweep.E = 1,2\n", "sweep.N"),
            ("sweep.alpha = 0.1,1.0\nsweep.N = 5,6\n", "sweep.alpha, sweep.N"),
            ("partition.kind = label-skew\npartition.p = 0.5\nsweep.p = 0.5,1\n", "sweep.p"),
        ],
    )
    def test_sweep_over_partition_axes_is_config_error(self, lines, named, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY + lines)
        out = tmp_path / "parts"
        assert main(["partition", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"config error: the sweep's cells partition differently across {named}; "
            "partition writes one manifest, so give each one value\n"
        )
        assert not out.exists()


class TestRunCommand:
    def test_single_cell_outputs(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "gfl-accuracy-mean" in captured
        assert (out / "results.csv").exists()
        assert (out / "manifest.txt").exists()
        assert (out / "summary.json").exists()

    def test_seed_override_changes_results(self, cfg_path, tmp_path):
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        main(["run", str(cfg_path), "--out", str(out1), "--seed", "1"])
        main(["run", str(cfg_path), "--out", str(out2), "--seed", "2"])
        main(["run", str(cfg_path), "--out", str(out3), "--seed", "1"])
        strip = lambda p: (p / "results.csv").read_text().splitlines()[1:]
        assert strip(out1) != strip(out2)
        assert strip(out1) == strip(out3)

    def test_run_is_the_one_cell_sweep(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        rows = parse_csv_rows((out / "results.csv").read_text())
        assert rows == run_sweep(load_config(cfg_path))[0]
        assert sorted({r.seed for r in rows if r.seed is not None}) == sorted(
            hash64(9, r) for r in range(2)
        )

    def test_identical_rows_across_processes(self, cfg_path, tmp_path):
        import subprocess
        import sys

        out1 = tmp_path / "inproc"
        main(["run", str(cfg_path), "--out", str(out1)])
        out2 = tmp_path / "subproc"
        subprocess.run(
            [sys.executable, "-m", "fedsim.cli", "run", str(cfg_path), "--out", str(out2)],
            check=True, capture_output=True,
        )
        strip = lambda p: (p / "results.csv").read_text().splitlines()[1:]
        assert strip(out1) == strip(out2)


class TestMnistDir:
    def test_partition_and_run_against_idx_directory(self, tmp_path, capsys):
        mnist = write_idx_dir(tmp_path / "mnist")
        cfg = tmp_path / "mnist.cfg"
        cfg.write_text(
            "dataset = mnist\n"
            "partition.kind = label-skew\n"
            "partition.p = 0.67\n"
            "federation.clients = 4\n"
            "federation.rounds = 2\n"
            "federation.sample_rate = 0.5\n"
            "train.epochs = 1\n"
            "runs = 1\n"
        )
        out = tmp_path / "parts"
        code = main(
            ["partition", str(cfg), "--mnist-dir", str(mnist), "--out", str(out)]
        )
        assert code == 0
        manifest = (out / "partition.txt").read_text().splitlines()
        assert len(manifest) == 4
        total = sum(int(line.split(",")[5]) for line in manifest)
        assert total == 60  # exact cover of the fake train set

        run_out = tmp_path / "run"
        assert main(["run", str(cfg), "--mnist-dir", str(mnist), "--out", str(run_out)]) == 0
        assert "gfl-accuracy-mean" in capsys.readouterr().out


class TestSweepAndReport:
    def test_sweep_then_report(self, tmp_path, capsys):
        text = TINY + "sweep.alpha = 0.1,1.0\nsweep.algorithm = fedavg,fedavg_ft\nruns = 1\nalgo.ft_epochs = 2\n"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        assert (out / "boundary.txt").exists()
        rep = tmp_path / "rep"
        code = main(["report", str(out / "results.csv"), "--out", str(rep)])
        assert code == 0
        assert "boundary" in capsys.readouterr().out
        assert (rep / "summary.json").exists()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("definitely_not_a_key = 1\n")
        assert main(["run", str(bad)]) == 2

    def test_empty_config_is_2(self, tmp_path):
        empty = tmp_path / "empty.cfg"
        empty.write_text("\n")
        assert main(["run", str(empty)]) == 2

    def test_runtime_failure_is_3(self, tmp_path, monkeypatch):
        # mnist dataset with a missing directory fails at runtime
        monkeypatch.chdir(tmp_path)  # default out dir is cwd-relative
        text = TINY + "dataset = mnist\nmnist_dir = /nonexistent-path\n"
        cfg = tmp_path / "mnist.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 3
        # the failure is still recorded as an error row in the report
        assert "error" in (tmp_path / "run-out" / "results.csv").read_text()

    def test_lockstep_divergence_names_federation_and_round(self, tmp_path, monkeypatch):
        # fedprox diverges in the round call it shares with fedavg: only
        # its runs fail, and the error says where
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY + "algo.mu = 1e300\nsweep.algorithm = fedavg,fedprox\n")
        assert main(["sweep", str(cfg)]) == 3
        manifest = (tmp_path / "sweep-out" / "manifest.txt").read_text()
        assert "  - cell 1 run 0: main federation round 0: non-finite value in segment w\n" in manifest
        rows = parse_csv_rows((tmp_path / "sweep-out" / "results.csv").read_text())
        assert {r.metric for r in rows if r.algorithm == "fedprox"} == {"error"}
        assert "error" not in {r.metric for r in rows if r.algorithm == "fedavg"}

    def test_sweep_axes_rejected_by_run(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY + "sweep.E = 1,2\n")
        assert main(["run", str(cfg)]) == 2

    def test_missing_config_file_is_2(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.cfg")]) == 2

    def test_missing_report_csv_is_3(self, tmp_path):
        assert main(["report", str(tmp_path / "missing.csv")]) == 3

    @pytest.mark.parametrize(
        "key,value",
        [
            ("train.lr", "0"),
            ("train.momentum", "1.5"),
            ("train.batch_size", "0"),
            ("train.epochs", "-1"),
            ("train.epochs", "0"),
            ("federation.rounds", "0"),
            ("federation.sample_rate", "0"),
            ("algo.n_clusters", "0"),
            ("model.kind", "cnn"),
            ("model.init_scale", "-1"),
            ("model.layer_split", "9"),
            ("synthetic.classes", "1"),
            ("synthetic.sigma", "-1"),
            ("federation.rounds", "1"),
            ("algo.mu", "nan"),
            ("train.lr", "nan"),
            ("synthetic.sigma", "nan"),
            ("model.init_scale", "inf"),
            ("partition.alpha", "inf"),
        ],
    )
    def test_out_of_range_value_is_config_error(self, key, value, tmp_path, monkeypatch):
        with pytest.raises(ConfigError):
            config_from_entries({"preset": "gfl2", key: value})
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY + f"{key} = {value}\n")
        assert main(["run", str(cfg)]) == 2
        assert not (tmp_path / "run-out").exists()

    @pytest.mark.parametrize(
        "lines",
        [
            "partition.alpha = -1\n",
            "sweep.alpha = -1\n",
            "partition.kind = label-skew\npartition.p = 1.5\n",
            "partition.kind = label-skew\npartition.p = 0.5\nsweep.p = 0.5,1.5\n",
            "partition.kind = random-shard\npartition.shards_per_client = 0\n",
        ],
    )
    def test_out_of_range_partition_level_is_config_error(self, lines, tmp_path, monkeypatch):
        # rejected when the config loads, not as an error row of every run
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY + lines)
        assert main(["sweep", str(cfg)]) == 2
        assert not (tmp_path / "sweep-out").exists()

    @pytest.mark.parametrize("command", ["run", "partition", "sweep"])
    def test_workers_flag_rejected(self, command, cfg_path):
        with pytest.raises(SystemExit) as exc:
            main([command, str(cfg_path), "--workers", "2"])
        assert exc.value.code == 2
