"""The registry poller's swap rule: served versions only move forwards.

``ModelSource.refresh`` walks the registry newest-first down to the
served version and swaps in the first loadable artifact it meets.
Checked here under racing threads and under a registry that tears
files and hides its newest versions from listings.
"""

import sys
import tempfile
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ModelRegistry, ModelSource, TransformationModel

THREADS = 8
PUBLISHES = 30


def test_concurrent_refresh_never_moves_backwards(
    learned_model, identity_model, tmp_path
):
    registry = ModelRegistry(tmp_path / "reg")
    registry.save(learned_model, "addr")
    source = ModelSource(registry=registry, name="addr")
    source.current()
    published = threading.Event()
    traces = [[] for _ in range(THREADS)]

    def poll(trace):
        while True:
            # Read the flag first: the refresh after it sees every
            # publish, so each thread ends on the last version.
            done = published.is_set()
            source.refresh()
            trace.append(source.current()[0])
            if done:
                return

    def publish():
        for i in range(PUBLISHES):
            registry.save(identity_model if i % 2 else learned_model, "addr")
        published.set()

    threads = [
        threading.Thread(target=poll, args=(trace,), daemon=True)
        for trace in traces
    ] + [threading.Thread(target=publish, daemon=True)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    last = registry.versions("addr")[-1]
    assert last == PUBLISHES + 1
    for trace in traces:
        assert trace == sorted(trace), "a refresh moved backwards"
        assert trace[-1] == last
    assert source.load_errors == 0


class GlitchyRegistry(ModelRegistry):
    """A registry whose listings can hide the newest ``hide`` versions
    (a lagging directory listing, slow NFS)."""

    hide = 0

    def versions(self, name):
        found = super().versions(name)
        return found[: len(found) - self.hide] if self.hide else found


TORN = [b'{"kind": "repro', b"", b"[1, 2]", b'{"kind": "other"}']

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("good")),
        st.tuples(st.just("torn"), st.sampled_from(TORN)),
        st.tuples(st.just("hide"), st.integers(0, 3)),
        st.tuples(st.just("refresh")),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(ops=OPS)
def test_swaps_only_forward_under_a_glitchy_registry(identity_model, ops):
    payload = identity_model.to_dict()
    with tempfile.TemporaryDirectory() as root:
        registry = GlitchyRegistry(root)
        directory = registry.root / "m"
        loadable = {}  # version -> whether its file loads

        def publish_good():
            version = max(loadable, default=0) + 1
            payload["name"] = f"v{version}"
            TransformationModel.from_dict(payload).save(
                directory / f"v{version}.json"
            )
            loadable[version] = True

        publish_good()
        source = ModelSource(registry=registry, name="m")
        served = source.current()[0]
        assert served == 1
        errors = 0
        for op in ops:
            if op[0] == "good":
                publish_good()
            elif op[0] == "torn":
                version = max(loadable) + 1
                (directory / f"v{version}.json").write_bytes(op[1])
                loadable[version] = False
            elif op[0] == "hide":
                registry.hide = op[1]
            else:
                listed = sorted(loadable)
                visible = listed[: len(listed) - registry.hide]
                expected = served
                for version in reversed(visible):
                    if version <= served:
                        break
                    if loadable[version]:
                        expected = version
                        break
                    errors += 1
                source.refresh()
                version, engine = source.current()
                assert version >= served, "served version moved backwards"
                assert version == expected
                assert engine.bundle.name == f"v{version}"
                assert source.load_errors == errors
                served = version
