"""End-to-end CLI workflow: ``learn`` writes a model, ``apply`` on a
fresh sample of the same dataset reproduces the standardizer's cell
changes exactly, and ``consolidate`` can emit models as a by-product."""

import pytest

from repro.cli import main
from repro.data.io import read_csv_clustered
from repro.datagen import DATASETS
from repro.pipeline.consolidate import GoldenRecordCreation
from repro.pipeline.oracle import GroundTruthOracle
from repro.pipeline.standardize import Standardizer
from repro.serve import ApplyEngine, ModelBundle

SCALE = "0.05"
SEED = "3"
BUDGET = "25"


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "address.model.json"
    code = main(
        [
            "learn",
            "--dataset",
            "Address",
            "--scale",
            SCALE,
            "--seed",
            SEED,
            "--budget",
            BUDGET,
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestLearnApply:
    def test_learn_writes_a_loadable_model(self, model_path):
        # `learn` writes the one-column bundle of its model.
        [model] = ModelBundle.load(model_path).models.values()
        assert model.groups_confirmed > 0
        assert model.provenance["seed"] == 3
        assert model.provenance["dataset"] == "Address"

    def test_apply_reproduces_learner_exactly(self, model_path, tmp_path):
        out = tmp_path / "standardized.csv"
        code = main(
            [
                "apply",
                "--model",
                str(model_path),
                "--dataset",
                "Address",
                "--scale",
                SCALE,
                "--seed",
                SEED,
                "--out",
                str(out),
            ]
        )
        assert code == 0

        # Re-run the learner on an identical fresh table and compare
        # the applied CSV cell-for-cell.
        dataset = DATASETS["Address"](scale=float(SCALE), seed=int(SEED))
        table = dataset.fresh_table()
        standardizer = Standardizer(table, dataset.column)
        oracle = GroundTruthOracle(
            dataset.canonical, standardizer.store, seed=int(SEED)
        )
        standardizer.run(oracle, int(BUDGET))

        applied = read_csv_clustered(out)
        assert applied.column_values(dataset.column) == (
            table.column_values(dataset.column)
        )

    def test_apply_flat_csv_uses_engine(self, model_path, tmp_path):
        import csv

        source = tmp_path / "flat.csv"
        with open(source, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["address"])
            writer.writerow(["9th E Avenue, 33990 CA"])
        out = tmp_path / "flat_out.csv"
        code = main(
            [
                "apply",
                "--model",
                str(model_path),
                "--input",
                str(source),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_apply_requires_a_model_source(self):
        with pytest.raises(SystemExit):
            main(["apply", "--dataset", "Address", "--scale", SCALE])


class TestSeedDeterminism:
    def test_unseeded_runs_print_their_seed(self, capsys):
        assert main(["stats", "--dataset", "JournalTitle", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "seed:" in out and "--seed" in out

    def test_seeded_runs_do_not_print_a_pick(self, capsys):
        assert (
            main(
                [
                    "stats",
                    "--dataset",
                    "JournalTitle",
                    "--scale",
                    "0.03",
                    "--seed",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "picked at random" not in out

    def test_learn_records_printed_seed(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert (
            main(
                [
                    "learn",
                    "--dataset",
                    "JournalTitle",
                    "--scale",
                    "0.03",
                    "--budget",
                    "5",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        printed_seed = int(out.split("seed: ")[1].split()[0])
        [model] = ModelBundle.load(path).models.values()
        assert model.provenance["seed"] == printed_seed


class TestConsolidateEmitsModels:
    def test_collect_models(self):
        dataset = DATASETS["JournalTitle"](scale=0.03, seed=1)
        table = dataset.fresh_table()

        def oracle_factory(standardizer):
            return GroundTruthOracle(
                dataset.canonical, standardizer.store, seed=1
            )

        creation = GoldenRecordCreation(
            table,
            oracle_factory,
            budget_per_column=5,
            collect_models=True,
            dataset_name=dataset.name,
        )
        report = creation.run()
        assert set(report.models) == set(table.columns)
        model = report.models[dataset.column]
        assert model.name == f"{dataset.name}-{dataset.column}"
        assert model.groups_confirmed == (
            report.logs[dataset.column].groups_approved
        )
        # The by-product model is immediately servable.
        engine = ApplyEngine(model)
        assert isinstance(engine.transform("anything"), str)

    def test_models_off_by_default(self):
        dataset = DATASETS["JournalTitle"](scale=0.03, seed=1)
        creation = GoldenRecordCreation(
            dataset.fresh_table(),
            lambda s: GroundTruthOracle(dataset.canonical, s.store, seed=1),
            budget_per_column=2,
        )
        assert creation.run().models == {}
