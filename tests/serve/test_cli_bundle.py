"""``repro serve`` serves a multi-column bundle with no extra flag: the
artifact's ``kind`` says it is a bundle, both behind ``--registry`` and
as a ``--model`` file."""

import asyncio
import os
import subprocess
import sys

import pytest

from repro.serve import BundleApplyEngine, ModelBundle, ModelRegistry

from harness import REPO_ROOT, ServeClient, spawn_cli_server, stop_cli_server

NAME = "golden"


@pytest.fixture(scope="module")
def bundle_registry(tmp_path_factory):
    """A registry written by a small ``repro stream --columns`` run."""
    root = tmp_path_factory.mktemp("bundles") / "reg"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    subprocess.run(
        [
            sys.executable, "-m", "repro", "stream",
            "--columns", "address,title", "--scale", "0.06", "--seed", "6",
            "--batches", "2", "--budget", "5", "--no-engine",
            "--registry", str(root), "--name", NAME,
        ],
        check=True,
        capture_output=True,
        env=env,
        timeout=120,
    )
    return ModelRegistry(root)


def _serve_and_check(args, bundle, golden):
    """Start ``repro serve`` with ``args``; check its version reply and
    one record apply against the offline bundle engine."""
    offline = BundleApplyEngine(bundle)
    values = {
        column: sorted(
            member.lhs
            for group in model.groups
            for member in group.members
        )[0]
        for column, model in bundle.models.items()
    }
    proc, host, port = spawn_cli_server(args)
    try:

        async def scenario():
            async with await ServeClient.connect(host, port) as client:
                version = await client.rpc(op="version")
                assert version["mode"] == "bundle"
                assert version["columns"] == bundle.columns
                reply = await client.rpc(op="apply", record=values)
                assert reply["ok"], reply
                assert reply["record"] == offline.apply_record(values)
                assert reply["record"] != values
                subscribed = await client.rpc(op="subscribe")
                assert subscribed["ok"] is golden
                assert (await client.rpc(op="shutdown"))["ok"]

        asyncio.run(scenario())
        assert proc.wait(timeout=30) == 0
    finally:
        stop_cli_server(proc)


def test_registry_bundle_serves_in_bundle_mode(bundle_registry):
    path = bundle_registry.path(NAME)
    # The stream's golden delta log next to the bundle is tailed by
    # default, so subscriptions work without --golden-log.
    _serve_and_check(
        ["--registry", str(bundle_registry.root), "--name", NAME],
        ModelBundle.load(path),
        golden=True,
    )


def test_bundle_model_file_serves_in_bundle_mode(bundle_registry):
    path = bundle_registry.path(NAME)
    _serve_and_check(
        ["--model", str(path)], ModelBundle.load(path), golden=False
    )
