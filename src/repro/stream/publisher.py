"""Model publication with hot reload for live consumers.

:class:`ModelPublisher` is the bridge between the streaming learner and
the serve layer: each time a batch confirms novel groups, the
cumulative :class:`~repro.serve.bundle.ModelBundle` is published as the
next version of its registry name (atomically, never over a rival
publisher's version, see :mod:`repro.serve.registry`) and every
subscribed :class:`~repro.serve.bundle.BundleApplyEngine` hot-reloads
*all* columns in place — the next batch's fast path immediately speaks
the newest bundle, with no process restart, no engine reconstruction,
and no consumer ever standardizing a record with a half-upgraded
column set.

A publisher without a registry still versions in-process: subscribers
reload, nothing lands on disk.  That keeps the streaming loop usable in
tests and notebooks where persistence is noise.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple

from ..serve.bundle import BundleApplyEngine, ModelBundle
from ..serve.registry import _VERSION_FILE, ModelRegistry


class ModelPublisher:
    """Publishes bundle versions and hot-reloads subscribed engines."""

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        name: Optional[str] = None,
    ) -> None:
        self.registry = registry
        self.name = name
        self.version = 0
        self.last_path: Optional[Path] = None
        self._subscribers: List[BundleApplyEngine] = []

    def subscribe(self, engine: BundleApplyEngine) -> None:
        """Hot-reload this engine on every subsequent publish."""
        if engine not in self._subscribers:
            self._subscribers.append(engine)

    def unsubscribe(self, engine: BundleApplyEngine) -> None:
        """Stop reloading this engine on publish (no-op if absent)."""
        if engine in self._subscribers:
            self._subscribers.remove(engine)

    def publish(self, bundle: ModelBundle) -> Tuple[int, Optional[Path]]:
        """Persist ``bundle`` as the next version and reload subscribers.

        Returns ``(version, path)``; ``path`` is None for in-process
        publishers.  The registry write happens *before* any engine
        reload, so a crash between the two leaves the durable state
        ahead of the served state — the safe direction (the next reload
        catches up; nothing serves a bundle that was never persisted).
        """
        if self.registry is not None:
            path = self.registry.save(bundle, self.name)
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
            engine.reload(bundle)
        return self.version, path


#: The publisher's older name (one class publishes bundles).
BundlePublisher = ModelPublisher
