"""Registries with legacy ``vN.index.json`` files still work.

Earlier releases published a precompiled apply index next to every
version.  ``data/legacy_registry`` is a registry one of them wrote,
with one valid index (``v1.index.json``) and one torn one
(``v2.index.json``).  Reload now always compiles from the model, so
those files must change nothing: listing, loading, ``repro apply`` and
``--follow`` serving answer byte-identically to the same registry with
the index files deleted, and new publishes write no index at all.
"""

import asyncio
import csv
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.serve import ModelRegistry, ModelSource

from harness import ServeClient, start_test_server, wait_for_version

LEGACY = Path(__file__).parent / "data" / "legacy_registry"
NAME = "addr"
VALUES = ["St", "Street", "Ave", "12 Ave", "Rd", "Road", "9 St Rd", "x"]


def copy_registry(destination, versions=(1, 2), legacy=True):
    """A copy of the legacy registry holding ``versions``, with or
    without their ``vN.index.json`` files."""
    directory = destination / NAME
    directory.mkdir(parents=True, exist_ok=True)
    for version in versions:
        names = [f"v{version}.json"]
        if legacy:
            names.append(f"v{version}.index.json")
        for name in names:
            shutil.copy(LEGACY / NAME / name, directory / name)
    return destination


@pytest.fixture
def registries(tmp_path):
    return (
        copy_registry(tmp_path / "legacy"),
        copy_registry(tmp_path / "clean", legacy=False),
    )


def test_fixture_holds_one_valid_and_one_torn_index():
    json.loads((LEGACY / NAME / "v1.index.json").read_text("utf-8"))
    with pytest.raises(ValueError):
        json.loads((LEGACY / NAME / "v2.index.json").read_text("utf-8"))


def test_list_and_load_ignore_index_files(registries):
    legacy, clean = (ModelRegistry(root) for root in registries)
    assert legacy.catalog() == clean.catalog() == {NAME: [1, 2]}
    for version in (1, 2, None):
        assert (
            legacy.load(NAME, version).to_dict()
            == clean.load(NAME, version).to_dict()
        )


def test_cli_apply_is_byte_identical(registries, tmp_path):
    source = tmp_path / "in.csv"
    with open(source, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["address"])
        writer.writerows([value] for value in VALUES)

    def apply(*model_args):
        out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}.csv"
        args = ["apply", *model_args, "--input", str(source)]
        assert main(args + ["--out", str(out)]) == 0
        return out.read_bytes()

    for version in ("1", "2"):
        legacy, clean = (
            apply("--registry", str(root), "--name", NAME,
                  "--model-version", version)
            for root in registries
        )
        assert legacy == clean
        # ``--model FILE`` used to look for the index next to the file.
        by_file = (
            apply("--model", str(root / NAME / f"v{version}.json"))
            for root in registries
        )
        assert next(by_file) == next(by_file) == legacy
    assert b"St." in legacy and b"Rd." in legacy


def test_follow_serving_is_byte_identical(tmp_path):
    async def serve(root, legacy):
        copy_registry(root, versions=(1,), legacy=legacy)
        registry = ModelRegistry(root)
        server = await start_test_server(
            ModelSource(registry=registry, name=NAME),
            poll_interval=0.01,
        )
        try:
            async with await ServeClient.connect(*server.address) as client:
                replies = [await client.rpc(op="apply", values=VALUES)]
                copy_registry(root, versions=(2,), legacy=legacy)
                await wait_for_version(server, 2)
                replies.append(await client.rpc(op="apply", values=VALUES))
                stats = await client.rpc(op="stats")
        finally:
            await server.stop()
        assert [reply["version"] for reply in replies] == [1, 2]
        assert stats["serve"]["load_errors"] == 0
        return [json.dumps(reply, sort_keys=True) for reply in replies]

    legacy = asyncio.run(serve(tmp_path / "legacy", legacy=True))
    clean = asyncio.run(serve(tmp_path / "clean", legacy=False))
    assert legacy == clean


def test_save_writes_no_index_file(registries):
    legacy_root, _ = registries
    registry = ModelRegistry(legacy_root)
    path = registry.save(registry.load(NAME, 1), NAME)
    assert path.name == "v3.json"
    assert sorted(p.name for p in (legacy_root / NAME).iterdir()) == [
        "v1.index.json",
        "v1.json",
        "v2.index.json",
        "v2.json",
        "v3.json",
    ]
