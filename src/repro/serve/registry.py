"""A directory-backed, versioned store of model bundles.

Layout (one directory per bundle name, one JSON file per version)::

    <root>/
      address/
        v1.json
        v2.json
      journal-title/
        v1.json

Versions are monotonically increasing integers assigned at save time;
``load`` without a version returns the latest.  The registry never
mutates or deletes existing versions — a saved bundle is an immutable,
human-curated asset.  A bare single-column model file an older release
wrote loads as its one-column bundle (see
:func:`repro.serve.bundle.load_artifact`).

Publishes are atomic: the artifact is written in full to a hidden
pending file and then hard-linked to its version name, so a crash
mid-publish can never leave a truncated version file and hot-reloading
consumers (:class:`repro.serve.server.ModelSource`) may poll
``versions`` and load concurrently with a publisher.  Linking fails
when the name is taken, so publishers racing on one name each get a
distinct version instead of overwriting one another.  Files other than
``vN.json`` (such as the ``vN.index.json`` precompiled indexes older
releases wrote) are ignored.
"""

from __future__ import annotations

import os
import re
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from .model import write_synced

if TYPE_CHECKING:
    from .bundle import ModelBundle

PathLike = Union[str, Path]

_VERSION_FILE = re.compile(r"^v(\d+)\.json$")
_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


def slugify(name: str) -> str:
    """Filesystem-safe model name (lowercased, punctuation collapsed)."""
    slug = _SAFE_NAME.sub("-", name.strip().lower()).strip("-")
    return slug or "model"


class ModelRegistry:
    """Save/load :class:`~repro.serve.bundle.ModelBundle`\\ s under a
    root directory."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    # -- writing -----------------------------------------------------------

    def save(self, bundle: ModelBundle, name: Optional[str] = None) -> Path:
        """Persist ``bundle`` as the next version of ``name``.

        ``name`` defaults to the bundle's own name; returns the path of
        the written version file.  A version taken by a concurrent
        publisher since the directory was listed is skipped, never
        overwritten.
        """
        slug = slugify(name or bundle.name)
        directory = self.root / slug
        directory.mkdir(parents=True, exist_ok=True)
        # The pending name is unique and never a version name, so the
        # text is written and fsynced in place; linking publishes it.
        pending = directory / f".pending-{uuid.uuid4().hex}"
        try:
            write_synced(pending, bundle.to_json())
            version = (self.versions(slug) or [0])[-1] + 1
            while True:
                path = directory / f"v{version}.json"
                try:
                    os.link(pending, path)
                    return path
                except FileExistsError:
                    version += 1
        finally:
            pending.unlink(missing_ok=True)

    # -- reading -----------------------------------------------------------

    def names(self) -> List[str]:
        """All bundle names with at least one saved version."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and self.versions(entry.name)
        )

    def versions(self, name: str) -> List[int]:
        """Saved versions of ``name``, ascending."""
        directory = self.root / slugify(name)
        if not directory.is_dir():
            return []
        found = []
        for entry in directory.iterdir():
            match = _VERSION_FILE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def path(self, name: str, version: Optional[int] = None) -> Path:
        """Path of one version (default: latest); raises if absent."""
        slug = slugify(name)
        versions = self.versions(slug)
        if not versions:
            raise FileNotFoundError(
                f"no model named {name!r} under {self.root}"
            )
        if version is None:
            version = versions[-1]
        if version not in versions:
            raise FileNotFoundError(
                f"model {name!r} has no version {version} "
                f"(available: {versions})"
            )
        return self.root / slug / f"v{version}.json"

    def load(
        self, name: str, version: Optional[int] = None
    ) -> ModelBundle:
        """Load one version of ``name`` (default: latest)."""
        # Imported here: bundle.py imports this module for its
        # BundleRegistry alias.
        from .bundle import load_artifact

        return load_artifact(self.path(name, version))

    def catalog(self) -> Dict[str, List[int]]:
        """``{name: [versions...]}`` for everything in the registry."""
        return {name: self.versions(name) for name in self.names()}

    def __repr__(self) -> str:
        return f"ModelRegistry({str(self.root)!r})"
