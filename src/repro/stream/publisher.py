"""Model publication with hot reload for live consumers.

:class:`ModelPublisher` is the bridge between the streaming learner and
the serve layer: each time a batch confirms novel groups, the
cumulative model is published as the next version of its registry name
(atomic write-to-temp + rename, see :mod:`repro.serve.registry`) and
every subscribed :class:`~repro.serve.engine.ApplyEngine` is
hot-reloaded in place — the next batch's fast path immediately speaks
the newest model, with no process restart and no engine reconstruction.

A publisher without a registry still versions in-process: subscribers
reload, nothing lands on disk.  That keeps the streaming loop usable in
tests and notebooks where persistence is noise.

Publishing is artifact-agnostic: registries and engines are duck-typed
on ``save``/``reload``, so the golden-record stream publishes one
:class:`~repro.serve.bundle.ModelBundle` per confirming batch through
the same class, and every subscribed
:class:`~repro.serve.bundle.BundleApplyEngine` hot-reloads *all*
columns atomically — no consumer ever standardizes a record with a
half-upgraded column set.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..serve.bundle import ModelBundle
from ..serve.engine import ApplyEngine
from ..serve.model import TransformationModel
from ..serve.registry import _VERSION_FILE, ModelRegistry


class ModelPublisher:
    """Publishes model (or bundle) versions and hot-reloads subscribed
    engines."""

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        name: Optional[str] = None,
    ) -> None:
        self.registry = registry
        self.name = name
        self.version = 0
        self.last_path: Optional[Path] = None
        self._subscribers: List[ApplyEngine] = []

    def subscribe(self, engine: ApplyEngine) -> None:
        """Hot-reload this engine on every subsequent publish."""
        if engine not in self._subscribers:
            self._subscribers.append(engine)

    def unsubscribe(self, engine: ApplyEngine) -> None:
        """Stop reloading this engine on publish (no-op if absent)."""
        if engine in self._subscribers:
            self._subscribers.remove(engine)

    def publish(
        self, model: Union[TransformationModel, ModelBundle]
    ) -> Tuple[int, Optional[Path]]:
        """Persist ``model`` as the next version and reload subscribers.

        Returns ``(version, path)``; ``path`` is None for in-process
        publishers.  The registry write happens *before* any engine
        reload, so a crash between the two leaves the durable state
        ahead of the served state — the safe direction (the next reload
        catches up; nothing serves a model that was never persisted).
        """
        if self.registry is not None:
            path = self.registry.save(model, self.name)
            self.last_path = path
            # The version this publisher wrote, read off the returned
            # path — re-listing the directory could pick up a rival
            # publisher's later version.
            match = _VERSION_FILE.match(path.name)
            assert match is not None, f"registry wrote {path.name!r}"
            self.version = int(match.group(1))
        else:
            path = None
            self.version += 1
        for engine in self._subscribers:
            engine.reload(model)
        return self.version, path


#: The bundle-publishing name of :class:`ModelPublisher` (one class
#: publishes models and bundles alike).
BundlePublisher = ModelPublisher
