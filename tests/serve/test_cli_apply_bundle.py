"""``repro apply`` reads a bundle registry too: ``--column`` picks the
bundled model to apply, and a missing or unknown column is an error
that lists the bundle's columns — except that a one-column bundle
needs no ``--column``."""

import pytest

from repro.cli import main
from repro.data.io import read_csv_records, write_csv_records
from repro.data.table import Record
from repro.serve import ApplyEngine, BundleRegistry, build_bundle

NAME = "gold"


@pytest.fixture
def bundle_registry(learned_model, identity_model, tmp_path):
    registry = BundleRegistry(tmp_path / "reg")
    registry.save(
        build_bundle(
            {"address": learned_model, "title": identity_model}, name=NAME
        )
    )
    return registry


@pytest.fixture
def csv_input(changing_values, tmp_path):
    path = tmp_path / "in.csv"
    write_csv_records(
        [
            Record(f"r{i}", {"address": value, "title": "x"})
            for i, value in enumerate(changing_values)
        ],
        path,
    )
    return path


def apply_args(registry, csv_input, *extra):
    return [
        "apply", "--registry", str(registry.root), "--name", NAME,
        "--input", str(csv_input), *extra,
    ]


def test_column_selects_the_bundled_model(
    bundle_registry, csv_input, learned_model, changing_values, tmp_path
):
    out = tmp_path / "out.csv"
    code = main(
        apply_args(
            bundle_registry, csv_input, "--column", "address",
            "--out", str(out),
        )
    )
    assert code == 0
    standardized = [r.values["address"] for r in read_csv_records(out)]
    assert standardized == ApplyEngine(learned_model).apply_values(
        changing_values
    )
    assert standardized != changing_values


@pytest.mark.parametrize("extra", [[], ["--column", "nope"]])
def test_missing_or_unknown_column_lists_the_columns(
    bundle_registry, csv_input, extra
):
    with pytest.raises(SystemExit) as exc:
        main(apply_args(bundle_registry, csv_input, *extra))
    message = str(exc.value)
    assert "['address', 'title']" in message
    assert "--column" in message


def test_one_column_bundle_needs_no_column(
    learned_model, csv_input, changing_values, tmp_path
):
    """A one-column bundle (what ``repro stream --dataset`` publishes)
    applies like the bare model it replaced."""
    registry = BundleRegistry(tmp_path / "one")
    registry.save(build_bundle({"address": learned_model}, name=NAME))
    out = tmp_path / "out.csv"
    assert main(apply_args(registry, csv_input, "--out", str(out))) == 0
    standardized = [r.values["address"] for r in read_csv_records(out)]
    assert standardized == ApplyEngine(learned_model).apply_values(
        changing_values
    )
    assert standardized != changing_values
