import dataclasses
import json
import re
import statistics
import warnings
from pathlib import Path

import pytest

from fedsim.core import hash64
from fedsim.data import SyntheticSpec
from fedsim.errors import ConfigError, InvalidArgument
from fedsim.experiment import (
    _KEYS,
    CONFIG_KEYS,
    SWEEP_AXES,
    BoundaryReport,
    ExperimentConfig,
    RecommendedSettingsWarning,
    ResultRow,
    _cell_rows,
    _metric_items,
    apply_cell,
    config_from_entries,
    emit_report,
    incentive_boundary,
    load_config,
    lockstep_groups,
    manifest_text,
    parse_csv_rows,
    rows_to_csv_lines,
    run_single,
    run_sweep,
    summary_groups,
    sweep_cells,
)

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


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_round_trip_basic(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TINY))
        assert cfg.n_clients == 5
        assert cfg.partition_alpha == 0.3
        assert cfg.runs == 2
        assert cfg.epochs == 1

    def test_preset_pfl1_expands(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "preset = pfl1\n"))
        assert cfg.n_clients == 100
        assert cfg.sample_rate == 0.1
        assert cfg.epochs == 10
        assert cfg.partition_kind == "label-skew"
        assert cfg.partition_p == 0.3
        assert cfg.rounds == 100
        assert cfg.algorithm == "fedavg_ft"

    def test_preset_overridable(self, tmp_path):
        # pfl1 averages the last floor(0.1 * 100) = 10 rounds
        cfg = load_config(write_config(tmp_path, "preset = pfl1\nfederation.rounds = 12\n"))
        assert cfg.rounds == 12
        assert cfg.n_clients == 100

    def test_empty_file_lists_required_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="dataset.*partition.kind.*federation.clients"):
            load_config(write_config(tmp_path, "# nothing here\n"))

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config(write_config(tmp_path, TINY + "learning_rate = 3\n"))

    def test_type_mismatch_reports_expected_type(self, tmp_path):
        with pytest.raises(ConfigError, match="expected int"):
            load_config(write_config(tmp_path, TINY + "federation.rounds = soon\n"))
        with pytest.raises(ConfigError, match="expected float"):
            load_config(write_config(tmp_path, TINY + "train.lr = inf\n"))

    def test_recommended_band_warning(self, tmp_path):
        text = TINY + "federation.sample_rate = 0.5\nenforce_recommended = true\nruns = 3\n"
        with pytest.warns(RecommendedSettingsWarning, match="0.1 <= C <= 0.4"):
            load_config(write_config(tmp_path, text))

    def test_run_count_warning(self, tmp_path):
        text = TINY + "enforce_recommended = true\n"  # TINY has runs = 2
        with pytest.warns(RecommendedSettingsWarning, match="at least 3"):
            load_config(write_config(tmp_path, text))

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# comment\n\n" + TINY
        assert load_config(write_config(tmp_path, text)).seed == 9

    def test_overrides_win(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TINY), {"seed": "123"})
        assert cfg.seed == 123

    def test_mnist_requires_dir(self):
        with pytest.raises(ConfigError, match="mnist_dir"):
            config_from_entries(
                {
                    "dataset": "mnist",
                    "partition.kind": "iid",
                    "federation.clients": "5",
                    "federation.rounds": "3",
                }
            )

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_config(write_config(tmp_path, "preset = gfl9\n"))

    def test_client_cap_configurable(self, tmp_path):
        # 500 clients at C = 0.4 average the last 200 rounds
        text = TINY + "federation.clients = 500\nfederation.rounds = 200\n"
        with pytest.raises(ConfigError, match="cap"):
            load_config(write_config(tmp_path, text))
        cfg = load_config(write_config(tmp_path, text + "max_clients = 600\n"))
        assert cfg.n_clients == 500


class TestSweep:
    def test_cell_product(self, tmp_path):
        text = TINY + "sweep.alpha = 0.05,0.1,0.3,1.0\nsweep.E = 1,10\n"
        cfg = load_config(write_config(tmp_path, text))
        cells = sweep_cells(cfg)
        assert len(cells) == 8
        derived = apply_cell(cfg, cells[0])
        assert derived.partition_alpha == 0.05
        assert derived.epochs == 1

    def test_axis_validation(self, tmp_path):
        text = TINY + "sweep.p = 0.2,0.4\n"  # p needs label-skew
        with pytest.raises(ConfigError, match="label-skew"):
            load_config(write_config(tmp_path, text))

    def test_cell_cap(self, tmp_path):
        text = TINY + "sweep.E = 1,2,3,4\n"
        cfg = load_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="cap"):
            sweep_cells(dataclasses.replace(cfg, max_cells=3))
        with pytest.raises(ConfigError, match="cap"):
            load_config(write_config(tmp_path, text + "max_cells = 3\n"))

    @pytest.mark.parametrize(
        "axis,values,match",
        [
            ("N", "5,0", "n_clients must be >= 1"),
            ("N", "5,300", "cap"),
            ("C", "0.4,0", r"sample_rate must be in \(0, 1\]"),
            ("C", "0.4,1.5", r"sample_rate must be in \(0, 1\]"),
            ("algorithm", "fedavg,fedsgd", "unknown algorithm 'fedsgd'"),
            # TINY runs 3 rounds: C = 1.0 over 5 clients averages 5
            ("C", "0.4,1.0", "evaluation window of 5 rounds"),
            ("N", "5,10", "evaluation window of 4 rounds"),
            ("E", "1,0", r"train.epochs must be >= 1"),
        ],
    )
    def test_every_cell_checked_at_load(self, axis, values, match, tmp_path):
        text = TINY + f"sweep.{axis} = {values}\n"
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path, text))

    def test_single_cell_runs_and_aggregates(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TINY))
        rows, errors = run_sweep(cfg)
        assert errors == []
        per_run = [r for r in rows if r.seed is not None]
        seeds = {r.seed for r in per_run}
        assert len(seeds) == 2  # distinct seed per run
        agg = [r for r in rows if r.seed is None]
        metrics = {r.metric for r in agg}
        assert "gfl-accuracy-mean" in metrics and "gfl-accuracy-std" in metrics

    def test_sweep_cell_count_exact_no_skips(self, tmp_path):
        text = TINY + "sweep.E = 1,2\nruns = 1\n"
        cfg = load_config(write_config(tmp_path, text))
        rows, _ = run_sweep(cfg)
        run_ids = {r.run_id for r in rows if r.seed is not None}
        assert run_ids == {"c000r0", "c001r0"}

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TINY))
        rows1, _ = run_sweep(cfg)
        rows2, _ = run_sweep(cfg)
        lines1 = rows_to_csv_lines(rows1, timestamp="T")
        lines2 = rows_to_csv_lines(rows2, timestamp="T")
        # identical excluding the timestamp header (fixed here anyway)
        assert lines1[1:] == lines2[1:]

    def test_failed_cell_becomes_error_row_and_sweep_continues(self, tmp_path):
        # solo cannot serve newcomers, so that cell fails while the
        # fedavg_ft cell still completes
        text = TINY + "newcomer = true\nsweep.algorithm = fedavg_ft,solo\nruns = 1\nalgo.ft_epochs = 2\n"
        cfg = load_config(write_config(tmp_path, text))
        rows, errors = run_sweep(cfg)
        assert len(errors) == 1 and "solo" in errors[0]
        error_rows = [r for r in rows if r.metric == "error"]
        assert len(error_rows) == 1
        assert error_rows[0].algorithm == "solo"
        ok_rows = [r for r in rows if r.algorithm == "fedavg_ft" and r.metric == "newcomer-accuracy"]
        assert len(ok_rows) == 1

    def test_row_fields_round_trip_through_config(self, tmp_path):
        text = TINY + "sweep.alpha = 0.1,0.3\nruns = 1\n"
        cfg = load_config(write_config(tmp_path, text))
        rows, _ = run_sweep(cfg)
        row = next(r for r in rows if r.seed is not None)
        rebuilt = load_config(
            write_config(tmp_path, TINY, name="rebuilt.cfg"),
            {
                "partition.alpha": str(row.level),
                "train.epochs": str(row.epochs),
                "federation.sample_rate": str(row.sample_rate),
                "federation.clients": str(row.n_clients),
                "federation.algorithm": row.algorithm,
            },
        )
        assert rebuilt.partition_alpha == row.level
        assert rebuilt.epochs == row.epochs
        assert rebuilt.n_clients == row.n_clients
        assert rebuilt.algorithm == row.algorithm


class TestCommonRandomNumbers:
    def test_cells_of_a_run_share_seed_data_and_clients(self, tmp_path):
        text = TINY + "sweep.algorithm = fedavg,fedprox\n"
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.runs == 2
        cells = sweep_cells(cfg)
        rows, errors = run_sweep(cfg)
        assert errors == []
        seed_of = {r.run_id: r.seed for r in rows if r.seed is not None}
        for r in range(cfg.runs):
            seed = seed_of[f"c000r{r}"]
            assert seed_of[f"c001r{r}"] == seed == hash64(cfg.seed, r)
            (_, fedavg, fedavg_parts, *_), (_, fedprox, fedprox_parts, *_) = (
                run_single(apply_cell(cfg, cell), seed) for cell in cells
            )
            assert [p.train_indices.tolist() for p in fedavg_parts] == [
                p.train_indices.tolist() for p in fedprox_parts
            ]
            assert [log.selected for log in fedavg.round_logs] == [
                log.selected for log in fedprox.round_logs
            ]
        assert seed_of["c000r0"] != seed_of["c000r1"]

    def test_shared_inputs_match_uncached_runs(self, monkeypatch):
        # every (cell, run) pair of the benchmark's sweep, newcomers included
        from fedsim import federation, metrics

        assigned = []

        def counted(assign):
            def counting(*args):
                assigned.append(args)
                return assign(*args)

            return counting

        for module in (federation, metrics):
            monkeypatch.setattr(module, "assign_cluster", counted(module.assign_cluster))
        cfg = config_from_entries(BENCH_SWEEP)
        rows, errors = run_sweep(cfg)
        # per clustered (cell, run): 10 rounds of 4 main and 3 trainer
        # clients, then the main federation's 20 clients and the 4
        # newcomers; the trainer assigns none after its rounds
        clustered_runs = 2 * cfg.runs  # 2 alphas
        assert len(assigned) == clustered_runs * (10 * (4 + 3) + 20 + 4) == 376
        assigned.clear()
        expected: list[ResultRow] = []
        for i, cell in enumerate(sweep_cells(cfg)):
            cell_cfg = apply_cell(cfg, cell)
            outcomes = []
            for r in range(cfg.runs):
                seed = hash64(cfg.seed, r)
                report, *_ = run_single(cell_cfg, seed)
                outcomes.append((seed, _metric_items(cell_cfg, report)))
            expected += _cell_rows(cell_cfg, i, outcomes)[0]
        assert errors == []
        assert rows == expected
        assert len(assigned) == 376  # the cells alone assign the same clients

    def test_inputs_built_once_per_run_and_partition_spec(self, tmp_path, monkeypatch):
        import fedsim.experiment as experiment

        calls = {"generate_synthetic": 0, "make_partitions": 0, "attach_local_tests": 0}

        def counting(name):
            original = getattr(experiment, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(experiment, name, counting(name))
        # 2 alphas are 2 partition specs; E does not change the partitions
        text = TINY + "sweep.alpha = 0.1,0.3\nsweep.E = 1,2\n"
        cfg = load_config(write_config(tmp_path, text))
        rows, errors = run_sweep(cfg)
        assert errors == [] and len({r.run_id for r in rows if r.seed is not None}) == 8
        assert calls == {"generate_synthetic": 2, "make_partitions": 4, "attach_local_tests": 4}


def make_row(algorithm, level, metric, value, seed=1):
    return ResultRow(
        run_id="x", preset="", algorithm=algorithm, partition_kind="label-dir",
        level=level, epochs=10, sample_rate=0.1, n_clients=50, seed=seed,
        metric=metric, value=value,
    )


class TestIncentiveBoundary:
    def _rows(self, gfl_by_level, pfl_by_level, solo_by_level=None):
        rows = []
        for level, values in gfl_by_level.items():
            rows += [make_row("fedavg", level, "gfl-accuracy", v, seed=i) for i, v in enumerate(values)]
        for level, values in pfl_by_level.items():
            rows += [make_row("fedavg_ft", level, "pfl-accuracy", v, seed=i) for i, v in enumerate(values)]
        if solo_by_level:
            for level, values in solo_by_level.items():
                rows += [make_row("solo", level, "pfl-accuracy", v, seed=i) for i, v in enumerate(values)]
        return rows

    def test_crossover_band(self):
        rows = self._rows(
            {0.05: [0.30], 0.1: [0.45], 0.5: [0.62], 1.0: [0.70]},
            {0.05: [0.80], 0.1: [0.60], 0.5: [0.55], 1.0: [0.50]},
        )
        report = incentive_boundary(rows)
        assert report.boundary == (0.1, 0.5)
        winners = {v.level: v.winner for v in report.levels}
        assert winners == {0.05: "pfl", 0.1: "pfl", 0.5: "gfl", 1.0: "gfl"}

    def test_pfl_wins_everywhere(self):
        rows = self._rows({0.1: [0.3], 1.0: [0.4]}, {0.1: [0.8], 1.0: [0.9]})
        assert incentive_boundary(rows).boundary == "beyond max level"

    def test_identical_means_tie(self):
        rows = self._rows({0.1: [0.5], 1.0: [0.5]}, {0.1: [0.5], 1.0: [0.5]})
        report = incentive_boundary(rows)
        assert report.boundary is None
        assert all(v.winner == "tie" for v in report.levels)

    def test_solo_flags_neither(self):
        rows = self._rows(
            {0.05: [0.30], 1.0: [0.70]},
            {0.05: [0.50], 1.0: [0.60]},
            solo_by_level={0.05: [0.49, 0.51], 1.0: [0.30, 0.31]},
        )
        report = incentive_boundary(rows)
        by_level = {v.level: v for v in report.levels}
        assert by_level[0.05].neither_incentivized
        assert not by_level[1.0].neither_incentivized

    def test_missing_baseline_rejected(self):
        rows = self._rows({0.1: [0.5], 1.0: [0.6]}, {0.1: [0.7]})
        with pytest.raises(InvalidArgument):
            incentive_boundary(rows)

    def test_single_level_rejected(self):
        rows = self._rows({0.1: [0.5]}, {0.1: [0.7]})
        with pytest.raises(InvalidArgument):
            incentive_boundary(rows)


class TestEmitReport:
    def _rows(self):
        return [
            make_row("fedavg", 0.1, "gfl-accuracy", v, seed=i)
            for i, v in enumerate([0.4, 0.5, 0.6])
        ]

    def test_csv_column_order_and_round_trip(self, tmp_path):
        paths = emit_report(self._rows(), tmp_path / "out")
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert lines[0].startswith("# generated_at =")
        assert lines[1] == "run_id,preset,algorithm,partition_kind,level,epochs,sample_rate,clients,seed,metric,value"
        parsed = parse_csv_rows((tmp_path / "out" / "results.csv").read_text())
        assert parsed == self._rows()

    def test_csv_text_pinned(self):
        """Exact text of a None level, an error row and an aggregate (seed None) row."""
        common = dict(
            preset="gfl1", algorithm="fedavg", partition_kind="iid", level=None, epochs=2,
            sample_rate=0.1, n_clients=50,
        )
        rows = [
            ResultRow(run_id="c000r0", seed=12345678901234567890, metric="gfl-accuracy", value=0.625, **common),
            ResultRow(run_id="c000r1", seed=7, metric="error", value=1.0, **common),
            ResultRow(
                run_id="c001-agg", preset="", algorithm="fedavg_ft", partition_kind="label-dir",
                level=0.3, epochs=10, sample_rate=0.25, n_clients=5, seed=None,
                metric="pfl-accuracy-std", value=1 / 3,
            ),
        ]
        lines = rows_to_csv_lines(rows, timestamp="2026-01-01T00:00:00+00:00")
        assert lines == [
            "# generated_at = 2026-01-01T00:00:00+00:00",
            "run_id,preset,algorithm,partition_kind,level,epochs,sample_rate,clients,seed,metric,value",
            "c000r0,gfl1,fedavg,iid,,2,0.1,50,12345678901234567890,gfl-accuracy,0.625",
            "c000r1,gfl1,fedavg,iid,,2,0.1,50,7,error,1.0",
            "c001-agg,,fedavg_ft,label-dir,0.3,10,0.25,5,,pfl-accuracy-std,0.3333333333333333",
        ]
        assert parse_csv_rows("\n".join(lines)) == rows

    def test_summary_mean_and_sample_std(self, tmp_path):
        emit_report(self._rows(), tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        (key,) = summary.keys()
        assert summary[key]["mean"] == pytest.approx(0.5)
        assert summary[key]["std"] == pytest.approx(statistics.stdev([0.4, 0.5, 0.6]))
        assert summary[key]["std"] == pytest.approx(0.1)

    def test_manifest_checklist_fields(self, tmp_path):
        cfg = config_from_entries(
            {
                "dataset": "synthetic",
                "partition.kind": "label-dir",
                "partition.alpha": "0.1",
                "federation.clients": "50",
                "federation.rounds": "40",
                "runs": "3",
            }
        )
        text = manifest_text(self._rows(), cfg)
        for needle in (
            "local_epochs", "sample_rate", "clients: 50", "partitioning: label-dir",
            "communication_rounds: 40", "dataset: synthetic", "architecture",
            "evaluation_metrics", "seeds", "independent_runs: 3 (meets",
            "optimizer", "initialization",
        ):
            assert needle in text, needle

    @pytest.mark.parametrize("newcomer", [False, True])
    def test_manifest_defines_newcomer_protocol_only_with_newcomers(self, newcomer):
        cfg = config_from_entries(
            {
                "dataset": "synthetic",
                "partition.kind": "iid",
                "federation.clients": "5",
                "federation.rounds": "3",
                "algo.ft_epochs": "7",
                "newcomer": str(newcomer).lower(),
            }
        )
        lines = [
            line for line in manifest_text(self._rows(), cfg).splitlines()
            if line.startswith("newcomer_protocol: ")
        ]
        assert len(lines) == newcomer
        if newcomer:
            for needle in (
                "floor(0.2*N) clients are held out by seed", "in lock-step",
                "trains all N clients", "do not depend on newcomer", "ft_epochs=7",
                "the trainer's model", "entire local test set",
            ):
                assert needle in lines[0], needle

    def test_manifest_flags_too_few_runs(self):
        cfg = config_from_entries(
            {
                "dataset": "synthetic",
                "partition.kind": "iid",
                "federation.clients": "5",
                "federation.rounds": "3",
                "runs": "1",
            }
        )
        assert "BELOW" in manifest_text(self._rows(), cfg)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(InvalidArgument):
            emit_report([], tmp_path / "out")

    def test_unwritable_path_raises(self, tmp_path):
        from fedsim.errors import FedsimError

        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(FedsimError, match="cannot write"):
            emit_report(self._rows(), blocker / "nested")


class TestRunSingle:
    def test_newcomer_metric_attached(self, tmp_path):
        text = TINY + "newcomer = true\n"
        cfg = load_config(write_config(tmp_path, text))
        import dataclasses

        cfg = dataclasses.replace(cfg, algorithm="fedavg_ft", ft_epochs=2)
        report, result, parts, model, _ = run_single(cfg, seed=5)
        assert report.newcomer_accuracy is not None
        assert 0.0 <= report.newcomer_accuracy <= 1.0

    def test_digest_stable(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TINY))
        assert cfg.digest() == load_config(write_config(tmp_path, TINY)).digest()
        other = load_config(write_config(tmp_path, TINY), {"seed": "10"})
        assert cfg.digest() != other.digest()


class TestLockStepSweep:
    """The cells of a sweep run train in lock-step, group by group, and
    each (cell, run) equals `run_single` of that cell alone."""

    def test_every_cell_run_equals_run_single_alone(self, monkeypatch):
        import fedsim.experiment as experiment

        cfg = config_from_entries(BENCH_SWEEP)
        seen = {}
        original = experiment.run_single

        def recording(cell_cfg, seed, **kwargs):
            seen[cell_cfg, seed] = out = original(cell_cfg, seed, **kwargs)
            return out

        monkeypatch.setattr(experiment, "run_single", recording)
        _, errors = run_sweep(cfg)
        assert errors == [] and len(seen) == len(sweep_cells(cfg)) * cfg.runs
        for (cell_cfg, seed), (report, result, *_) in seen.items():
            alone_report, alone_result, *_ = original(cell_cfg, seed)
            assert result.digest() == alone_result.digest()
            assert report == alone_report

    def test_one_call_per_round_per_group(self, monkeypatch):
        from fedsim import federation

        cfg = config_from_entries(BENCH_SWEEP)
        cells = [apply_cell(cfg, cell) for cell in sweep_cells(cfg)]
        # 7 clients a round per cell (4 main, 3 trainer), at most 24 a call
        assert lockstep_groups(cells) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        calls = []
        original = federation._local_train

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(federation, "_local_train", counting)
        run_sweep(cfg)
        # each group: 10 rounds, then its cells' 4-newcomer fine-tunes in one call
        per_run = ([21] * 10 + [12]) * 3 + [7] * 10 + [4]
        assert calls == per_run * cfg.runs

    def test_a_cell_wider_than_a_group_trains_alone(self):
        cfg = config_from_entries(
            {"preset": "gfl2", "federation.clients": "30", "sweep.algorithm": "fedavg,solo,fedprox,fednova"}
        )
        cells = [apply_cell(cfg, cell) for cell in sweep_cells(cfg)]
        # 6 clients a round each; solo trains all 30
        assert lockstep_groups(cells) == [[0], [1], [2, 3]]

    def test_diverging_cell_fails_alone(self, tmp_path):
        # fedprox at an absurd mu diverges in a call it shares with fedavg
        text = TINY + "algo.mu = 1e300\n"
        both = load_config(write_config(tmp_path, text + "sweep.algorithm = fedavg,fedprox\n"))
        rows, errors = run_sweep(both)
        assert errors == [
            f"cell 1 run {r}: main federation round 0: non-finite value in segment w"
            for r in range(both.runs)
        ]
        assert {r.metric for r in rows if r.algorithm == "fedprox"} == {"error"}
        alone, _ = run_sweep(load_config(write_config(tmp_path, text, name="fedavg.cfg")))
        assert [r for r in rows if r.algorithm == "fedavg"] == alone

    @pytest.mark.parametrize("group_clients", [24, 3])
    def test_a_second_algorithm_draws_no_more_shuffles(self, tmp_path, monkeypatch, group_clients):
        # the cells of a run read the same client and newcomer streams, so
        # a second algorithm copies every shuffle the first one drew, in its
        # group or, at 3 clients a group, in a group of its own
        import fedsim.experiment as experiment
        from fedsim.core import Rng

        monkeypatch.setattr(experiment, "GROUP_CLIENTS", group_clients)
        calls = []
        original = Rng.shuffles

        def counting(rng, n, count):
            calls.append(n)
            return original(rng, n, count)

        monkeypatch.setattr(Rng, "shuffles", counting)
        text = TINY + "newcomer = true\nsweep.alpha = 0.3\n"
        run_sweep(load_config(write_config(tmp_path, text, name="one.cfg")))
        one = len(calls)
        calls.clear()
        two = load_config(write_config(tmp_path, text + "sweep.algorithm = fedavg,fedprox\n"))
        cells = [apply_cell(two, cell) for cell in sweep_cells(two)]
        assert len(lockstep_groups(cells)) == (1 if group_clients == 24 else 2)
        run_sweep(two)
        assert len(calls) == one > 0

    def test_fedavg_ft_fine_tune_divergence_names_its_phase(self, tmp_path):
        # at this lr the rounds stay finite and every fine-tune overflows
        text = TINY + "federation.algorithm = fedavg_ft\ntrain.lr = 5e307\n"
        cfg = load_config(write_config(tmp_path, text))
        _, errors = run_sweep(cfg)
        assert errors == [
            f"cell 0 run {r}: main federation fine-tune: non-finite value in segment w"
            for r in range(cfg.runs)
        ]

    def test_overflowing_evaluation_is_an_error_row(self, tmp_path):
        # at this lr and seed run 0's clusters stay finite, but their
        # logits overflow when round 2 evaluates them
        text = TINY + "federation.algorithm = clustered\ntrain.lr = 5e307\nseed = 11\n"
        cfg = load_config(write_config(tmp_path, text))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows, errors = run_sweep(cfg)
        assert errors == ["cell 0 run 0: main federation round 2: non-finite logits"]
        assert [r.metric for r in rows if r.run_id == "c000r0"] == ["error"]

    @pytest.mark.parametrize("entries, diverging", [
        ("newcomer = true\ntrain.lr = 5e307\nsweep.algorithm = fedavg,fedavg_ft,clustered\n", 6),
        # scaffold's fusion overflows
        ("train.lr = 5e307\nseed = 19\nsweep.algorithm = scaffold,solo\n", 2),
        # a newcomer's adapted model overflows its logits when scored
        ("newcomer = true\nseed = 18\ntrain.lr = 1e307\nsweep.algorithm = scaffold\n", 1),
    ])
    def test_every_divergence_names_its_federation_or_phase(self, tmp_path, entries, diverging):
        cfg = load_config(write_config(tmp_path, TINY + entries))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, errors = run_sweep(cfg)
        assert len(errors) == diverging
        phase = (
            r"(main|trainer) federation round \d+|main federation (fine-tune|assignment)"
            r"|newcomer (fine-tune|assignment|evaluation)"
        )
        for error in errors:
            assert re.fullmatch(rf"cell \d run \d: ({phase}): non-finite .+", error), error


# The entries of the benchmark's sweep workload (perfbench/workloads.py)
# at workload seed 3.
BENCH_SWEEP = {
    "preset": "gfl2",
    "federation.rounds": "10",
    "train.epochs": "1",
    "algo.ft_epochs": "5",
    "model.layer_split": "2",
    "newcomer": "true",
    "runs": "2",
    "sweep.alpha": "0.1,1.0",
    "sweep.algorithm": "fedprox,fednova,scaffold,decoupled,clustered",
    "seed": "3",
}

# Every config key set to a non-default value; sweep.p is added after
# loading because it needs label-skew while sweep.alpha needs label-dir.
EVERY_KEY = {
    "preset": "pfl1",
    "dataset": "synthetic",
    "mnist_dir": "idx",
    "synthetic.classes": "7",
    "synthetic.features": "9",
    "synthetic.train_per_class": "11",
    "synthetic.test_per_class": "5",
    "synthetic.separation": "0.6",
    "synthetic.sigma": "0.2",
    "partition.kind": "label-dir",
    "partition.p": "0.5",
    "partition.alpha": "0.3",
    "partition.shards_per_client": "3",
    "model.kind": "mlp",
    "model.hidden": "12",
    "model.init_scale": "0.05",
    "model.layer_split": "1",
    "train.epochs": "2",
    "train.batch_size": "8",
    "train.lr": "0.02",
    "train.momentum": "0.5",
    "federation.clients": "30",
    "federation.sample_rate": "0.3",
    "federation.rounds": "12",
    "federation.algorithm": "fedprox",
    "algo.mu": "0.01",
    "algo.ft_epochs": "4",
    "algo.n_clusters": "3",
    "runs": "4",
    "seed": "17",
    "newcomer": "true",
    "enforce_recommended": "true",
    "max_cells": "500",
    "max_clients": "150",
    "out": "res",
    "sweep.alpha": "0.1,1.0",
    "sweep.E": "1,2",
    "sweep.C": "0.1,0.2",
    "sweep.N": "10,20",
    "sweep.algorithm": "fedavg,fedavg_ft",
}


class TestConfigDigestGolden:
    """`config_digest` goes into every manifest: pin it."""

    @pytest.mark.parametrize(
        "preset,digest",
        [
            ("gfl1", "57e8695d1285"),
            ("gfl2", "6bc422e0d940"),
            ("pfl1", "6ca370a65b7b"),
            ("pfl2", "3377344b6605"),
        ],
    )
    def test_presets(self, preset, digest):
        assert config_from_entries({"preset": preset}).digest() == digest

    def test_benchmark_sweep_and_cells(self):
        cfg = config_from_entries(BENCH_SWEEP)
        assert cfg.digest() == "fcdff18d403f"
        assert [apply_cell(cfg, cell).digest() for cell in sweep_cells(cfg)] == [
            "34eb22610dc8", "dbb4b2388875", "ee2a406f10cc", "e177c5f9408b",
            "49992ae78a74", "4eb74e892f5b", "4e212ab793cb", "884f52d5659b",
            "88071a35ebcb", "a065e1cc15f6",
        ]

    def test_every_key(self):
        import dataclasses

        cfg = config_from_entries(EVERY_KEY)
        cfg = dataclasses.replace(cfg, sweep_axes=cfg.sweep_axes + (("p", (0.2, 0.5)),))
        assert len(cfg.canonical_text().splitlines()) == 41
        assert cfg.digest() == "66b4b6fd4c25"


# Valid base entries; each key of KEY_VALUES alone still gives a valid config.
ROUND_TRIP_BASE = {
    "dataset": "synthetic",
    "mnist_dir": "idx",
    "partition.kind": "iid",
    "partition.p": "0.5",
    "partition.alpha": "0.3",
    "partition.shards_per_client": "2",
    "federation.clients": "10",
    "federation.rounds": "3",
}

# A value per key that differs from the base config, written as
# canonical_text writes it.
KEY_VALUES = {
    **{k: v for k, v in EVERY_KEY.items() if not k.startswith("sweep.")},
    "dataset": "mnist",
    "mnist_dir": "idx2",
    "partition.kind": "label-dir",
    "partition.p": "0.4",
    "partition.alpha": "0.2",
    "partition.shards_per_client": "3",
    "federation.clients": "12",
    "federation.rounds": "4",
}


def _attribute(cfg, path):
    for attr in path.split("."):
        cfg = getattr(cfg, attr)
    return cfg


class TestKeyTable:
    def test_values_cover_every_key(self):
        assert set(KEY_VALUES) == set(_KEYS)

    def test_every_field_has_exactly_one_key(self):
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        fields.remove("sweep_axes")
        fields.remove("synthetic")
        fields += [f"synthetic.{f.name}" for f in dataclasses.fields(SyntheticSpec)]
        assert sorted(path for path, _ in _KEYS.values()) == sorted(fields)

    @pytest.mark.parametrize("key", sorted(_KEYS))
    def test_key_lands_on_its_attribute(self, key):
        path, kind = _KEYS[key]
        base = config_from_entries(ROUND_TRIP_BASE)
        cfg = config_from_entries({**ROUND_TRIP_BASE, key: KEY_VALUES[key]})
        value = _attribute(cfg, path)
        assert type(value) is kind
        assert value != _attribute(base, path)
        line = f"{key} = {KEY_VALUES[key]}"
        assert line in cfg.canonical_text().splitlines()
        assert line not in base.canonical_text().splitlines()

    @pytest.mark.parametrize("axis", list(SWEEP_AXES))
    def test_axis_sets_its_key_field(self, axis):
        key = SWEEP_AXES[axis]
        by_key = config_from_entries({**ROUND_TRIP_BASE, key: KEY_VALUES[key]})
        base = config_from_entries(ROUND_TRIP_BASE)
        value = _attribute(by_key, _KEYS[key][0])
        assert apply_cell(base, {axis: value}) == by_key

    def test_sweep_key_takes_list_of_axis_key_type(self):
        cfg = config_from_entries(
            {**ROUND_TRIP_BASE, "sweep.E": "1, 3", "sweep.algorithm": "fedavg, solo"}
        )
        assert cfg.sweep_axes == (("E", (1, 3)), ("algorithm", ("fedavg", "solo")))
        with pytest.raises(ConfigError, match="expected int_list"):
            config_from_entries({**ROUND_TRIP_BASE, "sweep.N": "4,many"})
        with pytest.raises(ConfigError, match="expected float_list"):
            config_from_entries({**ROUND_TRIP_BASE, "sweep.C": "0.2,nan"})

    def test_unknown_axis_rejected(self):
        base = config_from_entries(ROUND_TRIP_BASE)
        with pytest.raises(ConfigError, match="unknown sweep axis 'lr'"):
            apply_cell(base, {"lr": 0.1})


def test_readme_config_reference_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config reference", 1)[1].split("\n#", 1)[0]
    documented = set()
    for line in table.splitlines():
        if not line.startswith("| `"):
            continue
        # `a.b` / `.c` is shorthand for a.b and a.c
        names = re.findall(r"`([^`]+)`", line.split("|")[1])
        prefix = names[0].split(".")[0]
        documented.update(prefix + n if n.startswith(".") else n for n in names)
    assert documented == set(CONFIG_KEYS)
