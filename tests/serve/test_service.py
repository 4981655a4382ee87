"""The stdio transport of ``repro serve`` (``ServeServer.serve_lines``):
JSON-lines protocol tests over in-memory streams, hot swaps between
requests, and real ``repro serve`` processes fed on stdin — plus the
byte-for-byte equivalence of the stdio and TCP transports."""

import asyncio
import io
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.serve import (
    ApplyEngine,
    BundleApplyEngine,
    ModelBundle,
    ModelRegistry,
    ModelSource,
    ServeServer,
    TransformationModel,
    as_bundle,
    build_bundle,
    load_artifact,
)
from repro.serve.server import GoldenTable, encode_reply

from harness import REPO_ROOT, ServeClient

BUNDLE_NAME = "gold"


@pytest.fixture
def server(learned_model):
    return ServeServer(ModelSource(model=learned_model))


def run_session(server, *requests):
    lines = "\n".join(
        r if isinstance(r, str) else json.dumps(r) for r in requests
    )
    out = io.BytesIO()
    served = server.serve_lines(io.BytesIO((lines + "\n").encode()), out)
    responses = [
        json.loads(line) for line in out.getvalue().splitlines()
    ]
    return served, responses


def answer(server, request):
    """The one reply to a one-request session."""
    _, (response,) = run_session(server, request)
    return response


class TestProtocol:
    def test_ping(self, server):
        _, (response,) = run_session(server, {"op": "ping"})
        assert response == {"ok": True, "pong": True, "version": 1}

    def test_apply_single_value(self, server):
        _, (response,) = run_session(
            server, {"op": "apply", "value": "anything"}
        )
        assert response["ok"] is True
        assert isinstance(response["value"], str)

    def test_apply_batch_counts_changes(self, server):
        _, (response,) = run_session(
            server, {"op": "apply", "values": ["zzz", "zzz"]}
        )
        assert response["ok"] is True
        assert response["values"] == ["zzz", "zzz"]
        assert response["changed"] == 0

    def test_stats_reports_model_identity(self, server, learned_model):
        _, (version, stats) = run_session(
            server, {"op": "version"}, {"op": "stats"}
        )
        assert version["name"] == learned_model.name
        assert version["groups"] == learned_model.groups_confirmed
        assert "rows" in stats["engine"][learned_model.column]

    @pytest.mark.parametrize(
        "wrap", [lambda m: m, as_bundle], ids=["model", "bundle"]
    )
    def test_value_and_values_take_one_tier_path_each(
        self, learned_model, wrap
    ):
        """``value`` is the column engine's ``transform`` and ``values``
        its ``apply_values``, whatever artifact is served: the served
        counters equal an offline engine's driven the same way."""
        server = ServeServer(ModelSource(model=wrap(learned_model)))
        values = ["9th St", "Elm", "9th St"]
        _, (_, _, stats) = run_session(
            server,
            {"op": "apply", "value": "9th St"},
            {"op": "apply", "values": values},
            {"op": "stats"},
        )
        offline = ApplyEngine(learned_model)
        offline.transform("9th St")
        offline.apply_values(values)
        assert stats["engine"] == {
            learned_model.column: offline.stats().as_dict()
        }

    def test_value_and_values_requests_all_count_as_rows(self, learned_model):
        server = ServeServer(ModelSource(model=learned_model))
        _, (_, _, stats) = run_session(
            server,
            {"op": "apply", "value": "9th St"},
            {"op": "apply", "values": ["9th St", "Elm", "9th St"]},
            {"op": "stats"},
        )
        engine = stats["engine"][learned_model.column]
        assert engine["rows"] == 4
        assert engine["unique_values"] == 3

    def test_value_requests_reach_the_apply_metrics(self, learned_model):
        from repro.obs import MemorySink, Obs

        obs = Obs(sink=MemorySink())
        source = ModelSource(model=learned_model, obs=obs)
        server = ServeServer(source, obs=obs)
        run_session(server, {"op": "apply", "value": "9th St"})
        column = learned_model.column
        stats = source.current()[1].stats()[column]
        assert any(stats.values())
        for name, value in stats.items():
            counter = obs.metrics.counter(f"apply.{name}", column=column)
            assert counter.value == value, name

    def test_shutdown_stops_the_loop(self, server):
        served, responses = run_session(
            server, {"op": "shutdown"}, {"op": "ping"}
        )
        assert served == 1
        assert responses == [{"ok": True, "bye": True}]

    def test_default_op_is_apply(self, server):
        _, (response,) = run_session(server, {"value": "x"})
        assert response["ok"] is True


class TestRobustness:
    def test_bad_json_keeps_serving(self, server):
        served, responses = run_session(
            server, "this is not json", {"op": "ping"}
        )
        assert served == 2
        assert responses[0]["ok"] is False
        assert responses[1] == {"ok": True, "pong": True, "version": 1}

    def test_non_object_request_rejected(self, server):
        _, (response,) = run_session(server, json.dumps([1, 2]))
        assert response["ok"] is False

    def test_unknown_op_rejected(self, server):
        assert answer(server, {"op": "explode"})["ok"] is False

    def test_apply_without_payload_rejected(self, server):
        assert answer(server, {"op": "apply"})["ok"] is False

    def test_non_string_values_rejected(self, server):
        response = answer(server, {"op": "apply", "values": ["ok", 7]})
        assert response["ok"] is False

    def test_blank_lines_skipped(self, server):
        served, responses = run_session(server, "", {"op": "ping"}, "")
        assert served == 1
        assert len(responses) == 1


class TestStdioTransport:
    def test_replies_have_sorted_keys_and_echo_ids(self, server):
        out = io.BytesIO()
        server.serve_lines([b'{"id": "a", "op": "ping"}\n'], out)
        assert out.getvalue() == (
            b'{"id": "a", "ok": true, "pong": true, "version": 1}\n'
        )

    def test_shutdown_mid_input_stops_the_loop(self, server):
        served, responses = run_session(
            server,
            {"op": "ping"},
            {"op": "shutdown"},
            {"op": "ping"},
            {"op": "ping"},
        )
        assert served == 2
        assert responses[-1] == {"ok": True, "bye": True}

    def test_subscribe_needs_listen(self, server):
        assert answer(server, {"op": "subscribe"}) == {
            "ok": False,
            "error": "subscribe needs --listen",
        }

    def test_unknown_ops_share_one_metric_series(self, server):
        requests = [{"op": f"x{i}"} for i in range(1000)]
        _, responses = run_session(server, *requests, {"op": "metrics"})
        assert responses[7]["error"] == "unknown op: 'x7'"
        series = [
            key
            for key in server.obs.metrics.snapshot()
            if key.startswith("serve.ops")
        ]
        assert sorted(series) == [
            "serve.ops{op=metrics}",
            "serve.ops{op=unknown}",
        ]
        unknown = server.obs.metrics.counter("serve.ops", op="unknown")
        assert unknown.value == 1000
        assert "x7" not in responses[-1]["prometheus"]

    def test_metrics_snapshot_flushed_at_eof(self, learned_model):
        from repro.obs import MemorySink, Obs

        sink = MemorySink()
        server = ServeServer(
            ModelSource(model=learned_model), obs=Obs(sink=sink)
        )
        run_session(server, {"op": "ping"})
        (snapshot,) = [r for r in sink.rows if r["type"] == "snapshot"]
        assert snapshot["metrics"]["serve.replies{ok=true}"] == 1

    def test_bundle_record_and_column_apply(self, learned_model):
        column = learned_model.column
        bundle = build_bundle({column: learned_model}, name="golden")
        offline = BundleApplyEngine(bundle)
        server = ServeServer(ModelSource(model=bundle))
        _, (version, record, one, many) = run_session(
            server,
            {"op": "version"},
            {"op": "apply", "record": {column: "9th St", "city": "NYC"}},
            {"op": "apply", "column": column, "value": "9th St"},
            {"op": "apply", "column": column, "values": ["9th St", "Elm"]},
        )
        assert "mode" not in version
        assert version["groups"] == bundle.groups_confirmed
        assert record["record"] == offline.apply_record(
            {column: "9th St", "city": "NYC"}
        )
        engine = offline.engine(column)
        assert one["value"] == engine.apply_values(["9th St"])[0]
        assert many["values"] == engine.apply_values(["9th St", "Elm"])

    def test_hot_swap_between_requests(
        self, learned_model, identity_model, changing_values, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "reg")
        registry.save(learned_model, "address")
        server = ServeServer(
            ModelSource(registry=registry, name="address"),
            poll_interval=0.05,
        )
        apply = {"op": "apply", "values": changing_values}

        def script():
            yield (json.dumps(apply) + "\n").encode()
            registry.save(identity_model, "address")
            time.sleep(0.1)
            yield (json.dumps(apply) + "\n").encode()

        out = io.BytesIO()
        server.serve_lines(script(), out)
        before, after = map(json.loads, out.getvalue().splitlines())
        assert before["version"] == 1
        assert before["values"] == ApplyEngine(learned_model).apply_values(
            changing_values
        )
        assert after["version"] == 2
        assert after["values"] == changing_values
        assert server._m_reloads.value == 1


def cli_session(args, script, monkeypatch):
    """Run ``repro serve <args>`` in-process on the stdio transport,
    reading request lines from the ``script`` generator."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=script))
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["serve", *args]) == 0
    return [json.loads(line) for line in out.buffer.getvalue().splitlines()]


def test_pinned_version_never_swaps(
    learned_model, identity_model, changing_values, tmp_path, monkeypatch
):
    registry = ModelRegistry(tmp_path / "reg")
    registry.save(learned_model, "address")
    ping = b'{"op": "ping"}\n'

    def script():
        yield ping
        registry.save(identity_model, "address")
        time.sleep(0.05)
        yield ping

    replies = cli_session(
        [
            "--registry", str(registry.root), "--name", "address",
            "--model-version", "1", "--poll-interval", "0.01",
        ],
        script(),
        monkeypatch,
    )
    assert [reply["version"] for reply in replies] == [1, 1]


def run_cli(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        env=env,
        timeout=120,
        **kwargs,
    )


def test_real_stdin_from_a_regular_file(learned_model, tmp_path):
    model = learned_model.save(tmp_path / "m.json")
    requests = tmp_path / "reqs.jsonl"
    requests.write_text(
        '{"op": "ping"}\n\n{"op": "apply", "value": "9th St"}\n'
        '{"op": "ping"}',  # an unterminated last line is still answered
        encoding="utf-8",
    )
    with open(requests, "rb") as stdin:
        proc = run_cli(["serve", "--model", str(model)], stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    replies = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [reply["ok"] for reply in replies] == [True, True, True]
    assert replies[1]["value"] == ApplyEngine(learned_model).transform(
        "9th St"
    )
    assert b"served 3 requests" in proc.stderr


def test_cli_serves_the_golden_model_file_like_its_engine():
    """The checked-in model file an early build wrote serves as its
    one-column bundle: column-less replies are byte-equal to the bare
    model's engine."""
    golden = REPO_ROOT / "tests" / "serve" / "data" / "golden_model.json"
    engine = ApplyEngine(TransformationModel.load(golden))
    values = ["9th", "42nd", "5 St", "untouched"]
    requests = [{"op": "apply", "value": v} for v in values]
    requests.append({"op": "apply", "values": values})
    proc = run_cli(
        ["serve", "--model", str(golden)],
        input="".join(json.dumps(r) + "\n" for r in requests).encode(),
    )
    assert proc.returncode == 0, proc.stderr
    outputs = [engine.transform(v) for v in values]
    expected = [
        encode_reply({"ok": True, "value": out, "version": 1})
        for out in outputs
    ]
    expected.append(
        encode_reply(
            {
                "ok": True,
                "values": engine.apply_values(values),
                "changed": sum(o != v for o, v in zip(outputs, values)),
                "version": 1,
            }
        )
    )
    assert proc.stdout == b"".join(expected)


def test_closed_stdin_is_eof(learned_model, tmp_path):
    model = learned_model.save(tmp_path / "m.json")
    proc = run_cli(
        ["serve", "--model", str(model)],
        stdin=subprocess.DEVNULL,
        preexec_fn=lambda: os.close(0),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b""
    assert b"served 0 requests" in proc.stderr


@pytest.fixture(scope="module")
def stream_registry(tmp_path_factory):
    """A registry written by a small ``repro stream --columns`` run:
    a bundle plus the golden delta log next to it."""
    root = tmp_path_factory.mktemp("stdio_bundles") / "reg"
    proc = run_cli(
        [
            "stream",
            "--columns", "address,title", "--scale", "0.06", "--seed", "6",
            "--batches", "2", "--budget", "5", "--no-engine",
            "--registry", str(root), "--name", BUNDLE_NAME,
        ]
    )
    assert proc.returncode == 0, proc.stderr
    return ModelRegistry(root)


def sample_record(bundle):
    return {
        column: sorted(
            member.lhs for group in model.groups for member in group.members
        )[0]
        for column, model in bundle.models.items()
    }


def test_cli_stdio_serves_a_stream_bundle(stream_registry):
    bundle = ModelBundle.load(stream_registry.path(BUNDLE_NAME))
    record = sample_record(bundle)
    requests = "".join(
        json.dumps(r) + "\n"
        for r in (
            {"op": "version"},
            {"op": "apply", "record": record},
            {"op": "shutdown"},
        )
    )
    proc = run_cli(
        [
            "serve", "--registry", str(stream_registry.root),
            "--name", BUNDLE_NAME,
        ],
        input=requests.encode(),  # a pipe
    )
    assert proc.returncode == 0, proc.stderr
    version, reply, bye = map(json.loads, proc.stdout.splitlines())
    assert "mode" not in version
    assert version["version"] == stream_registry.versions(BUNDLE_NAME)[-1]
    assert reply["record"] == BundleApplyEngine(bundle).apply_record(record)
    assert reply["record"] != record
    assert bye == {"ok": True, "bye": True}


def test_cli_stdio_serves_a_one_column_stream(tmp_path):
    """A ``repro stream --dataset`` registry holds one-column bundles:
    column-less applies answer like the bare model single-column
    streams used to publish, and ``lookup`` (no fusion, so no delta
    log) finds nothing."""
    root = tmp_path / "reg"
    proc = run_cli(
        [
            "stream", "--dataset", "Address", "--scale", "0.05",
            "--seed", "7", "--batches", "2", "--budget", "20",
            "--no-engine", "--registry", str(root), "--name", "addr",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    bundle = ModelBundle.load(ModelRegistry(root).path("addr"))
    assert bundle.columns == ["address"]
    value = sample_record(bundle)["address"]
    requests = "".join(
        json.dumps(r) + "\n"
        for r in (
            {"op": "apply", "value": value},
            {"op": "lookup", "key": "k0"},
            {"op": "shutdown"},
        )
    )
    proc = run_cli(
        ["serve", "--registry", str(root), "--name", "addr"],
        input=requests.encode(),
    )
    assert proc.returncode == 0, proc.stderr
    apply, lookup, _bye = map(json.loads, proc.stdout.splitlines())
    engine = BundleApplyEngine(bundle).engine("address")
    assert apply["ok"] and apply["value"] == engine.transform(value)
    assert apply["value"] != value
    assert lookup["ok"] and lookup["found"] is False


def equivalence_script(column, values, record, key):
    """Every op whose reply carries no timings, as raw request lines."""
    requests = [
        {"op": "ping", "id": 1},
        {"op": "version"},
        {"op": "apply", "value": values[0]},
        {"op": "apply", "values": values},
        {"op": "apply", "column": column, "value": values[0], "id": "c"},
        {"op": "apply", "column": column, "values": values},
        {"op": "apply", "column": "nope", "value": values[0]},
        {"op": "apply", "record": record},
        {"op": "apply", "values": [values[0], 7]},
        {"op": "lookup", "key": key},
        {"op": "lookup", "key": "no-such-key"},
        {"op": "frobnicate"},
    ]
    lines = [json.dumps(r).encode() + b"\n" for r in requests]
    lines[3:3] = [b"this is not json\n", b"[1, 2]\n"]
    return lines + [b'{"op": "shutdown"}\n']


def stdio_replies(server, lines):
    out = io.BytesIO()
    server.serve_lines(lines, out)
    return out.getvalue().splitlines(keepends=True)


def tcp_replies(server, lines):
    async def scenario():
        await server.start("127.0.0.1", 0)
        try:
            async with await ServeClient.connect(*server.address) as client:
                replies = []
                for line in lines:
                    await client.send_raw(line)
                    replies.append(
                        await asyncio.wait_for(client.reader.readline(), 10)
                    )
                return replies
        finally:
            await server.stop()

    return asyncio.run(scenario())


def test_stdio_and_tcp_replies_are_byte_equal_over_a_model_file(
    learned_model, changing_values, tmp_path
):
    path = learned_model.save(tmp_path / "m.json")
    lines = equivalence_script(
        learned_model.column,
        changing_values[:3],
        {learned_model.column: changing_values[0]},
        "any-key",
    )
    stdio = stdio_replies(
        ServeServer(ModelSource(model=load_artifact(path))), lines
    )
    tcp = tcp_replies(
        ServeServer(ModelSource(model=load_artifact(path))), lines
    )
    assert len(stdio) == len(lines)
    assert stdio == tcp


def test_stdio_and_tcp_replies_are_byte_equal_over_a_bundle_registry(
    stream_registry,
):
    bundle = ModelBundle.load(stream_registry.path(BUNDLE_NAME))
    record = sample_record(bundle)
    column = bundle.columns[0]
    golden_log = stream_registry.root / BUNDLE_NAME / "golden-deltas.jsonl"
    table = GoldenTable(golden_log)
    table.refresh()
    key = sorted(table.records)[0]
    lines = equivalence_script(column, [record[column], "Elm"], record, key)

    def fresh_server():
        return ServeServer(
            ModelSource(registry=stream_registry, name=BUNDLE_NAME),
            golden=GoldenTable(golden_log),
        )

    stdio = stdio_replies(fresh_server(), lines)
    tcp = tcp_replies(fresh_server(), lines)
    assert len(stdio) == len(lines)
    assert stdio == tcp
    lookup = json.loads(stdio[11])
    assert lookup["found"] and lookup["record"] == table.lookup(key)
