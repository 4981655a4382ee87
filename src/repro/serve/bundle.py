"""Multi-column model bundles: every column's model, one artifact.

A golden-record consumer standardizes *whole records*: one
:class:`~repro.serve.model.TransformationModel` per column, applied
together.  Persisting the columns as independent registry names would
let consumers observe a half-upgraded set — column A already at the new
version while column B still serves the old one — which silently skews
any fusion computed over the mix.  A :class:`ModelBundle` removes that
window: all per-column models serialize into **one JSON artifact**,
written atomically (write-to-temp + rename, the same discipline as
:meth:`TransformationModel.save`), so readers see the old column set or
the new one, never a blend.

A bundle is the only artifact the registry, the reader and the server
know: a single-column run publishes the one-column bundle, and a bare
model file an older release wrote reads as the one-column bundle it
stands for (:func:`load_artifact`, through :func:`as_bundle`).
:class:`BundleApplyEngine` compiles a bundle into one
:class:`~repro.serve.engine.ApplyEngine` per column with a single
:meth:`~BundleApplyEngine.reload` that flips every column in one call —
the consumer-side half of the atomicity story.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .engine import ApplyEngine
from .model import (
    TransformationModel,
    encode_json,
    splice_json,
    write_text_atomic,
)
from .registry import ModelRegistry

PathLike = Union[str, Path]

#: Bump when the JSON layout changes incompatibly.
BUNDLE_SCHEMA_VERSION = 1

#: Sanity marker so arbitrary JSON files (including single-column
#: transformation models) are rejected early.
BUNDLE_KIND = "repro.model_bundle"


@dataclass
class ModelBundle:
    """Per-column transformation models published as one atomic unit.

    ``models`` preserves column order (it is the standardization order
    of the run that produced the bundle); ``provenance`` carries the
    producing run's roll-ups (batches, records, per-column questions).
    """

    name: str
    models: Dict[str, TransformationModel] = field(default_factory=dict)
    provenance: Dict = field(default_factory=dict)
    created_at: float = 0.0
    schema_version: int = BUNDLE_SCHEMA_VERSION

    # -- derived -------------------------------------------------------

    @property
    def columns(self) -> List[str]:
        """The bundled columns, in standardization order."""
        return list(self.models)

    @property
    def groups_confirmed(self) -> int:
        """Confirmed groups across every column's model."""
        return sum(m.groups_confirmed for m in self.models.values())

    def describe(self) -> str:
        """One-line human summary (CLI and registry catalogs)."""
        per_column = ", ".join(
            f"{column}: {model.groups_confirmed}"
            for column, model in self.models.items()
        )
        return (
            f"bundle {self.name!r} ({len(self.models)} columns; "
            f"groups {per_column or 'none'})"
        )

    # -- (de)serialization ---------------------------------------------

    def _head(self) -> Dict:
        """Every payload entry but the trailing ``models`` — the one
        layout :meth:`to_dict` and :meth:`to_json` share."""
        return {
            "kind": BUNDLE_KIND,
            "schema_version": self.schema_version,
            "name": self.name,
            "columns": self.columns,
            "created_at": self.created_at,
            "provenance": dict(self.provenance),
        }

    def to_dict(self) -> Dict:
        """The full versioned JSON payload :meth:`save` writes."""
        return {
            **self._head(),
            "models": {
                column: model.to_dict()
                for column, model in self.models.items()
            },
        }

    def to_json(self) -> str:
        """``encode_json(self.to_dict())``: one head per column model
        around its groups' cached texts (see
        :meth:`TransformationModel.to_json`)."""
        models = ", ".join(
            f"{encode_json(column)}: {model.to_json()}"
            for column, model in self.models.items()
        )
        return splice_json(self._head(), "models", f"{{{models}}}")

    @classmethod
    def from_dict(cls, payload: Dict) -> "ModelBundle":
        """Rebuild a bundle, rejecting foreign kinds and newer schemas."""
        kind = payload.get("kind")
        if kind != BUNDLE_KIND:
            raise ValueError(
                f"not a model bundle (kind={kind!r}, "
                f"expected {BUNDLE_KIND!r})"
            )
        version = int(payload.get("schema_version", 0))
        if version < 1 or version > BUNDLE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported bundle schema version {version} "
                f"(this build reads <= {BUNDLE_SCHEMA_VERSION})"
            )
        raw_models = payload.get("models", {})
        # The columns list pins the order; unlisted models trail it so
        # nothing a writer saved is ever dropped on a round trip.
        order = [
            c for c in payload.get("columns", ()) if c in raw_models
        ] + [c for c in raw_models if c not in payload.get("columns", ())]
        return cls(
            name=str(payload.get("name", "")),
            models={
                column: TransformationModel.from_dict(raw_models[column])
                for column in order
            },
            provenance=dict(payload.get("provenance", {})),
            created_at=float(payload.get("created_at", 0.0)),
            schema_version=version,
        )

    def save(self, path: PathLike) -> Path:
        """Write the bundle as one line of JSON, atomically.

        The line is :meth:`to_json`: ``json.dumps`` default separators
        (``", "``, ``": "``), not the compact ones.  Same writer as
        :meth:`TransformationModel.save`
        (:func:`~repro.serve.model.write_text_atomic`): a hot-reloading
        consumer polling the registry sees complete column sets only.
        """
        return write_text_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: PathLike) -> "ModelBundle":
        """Read a bundle saved by :meth:`save` (schema-checked)."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def as_bundle(
    artifact: Union[ModelBundle, TransformationModel],
) -> ModelBundle:
    """A bundle as is; a bare model as the one-column bundle it stands
    for, named after the model."""
    if isinstance(artifact, TransformationModel):
        return ModelBundle(
            name=artifact.name,
            models={artifact.column: artifact},
            created_at=artifact.created_at,
        )
    return artifact


def load_artifact(path: PathLike) -> ModelBundle:
    """Read a saved bundle, or a bare model file as its one-column
    bundle; the file's ``kind`` picks which."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    if payload.get("kind") == BUNDLE_KIND:
        return ModelBundle.from_dict(payload)
    return as_bundle(TransformationModel.from_dict(payload))


def build_bundle(
    models: Dict[str, TransformationModel],
    name: str,
    provenance: Optional[Dict] = None,
) -> ModelBundle:
    """Assemble per-column models into a publishable bundle."""
    return ModelBundle(
        name=name,
        models=dict(models),
        provenance=dict(provenance or {}),
        created_at=time.time(),
    )


#: The registry's older name (one registry class stores bundles).
BundleRegistry = ModelRegistry


class BundleApplyEngine:
    """Per-column :class:`ApplyEngine`\\ s behind one record-level API.

    ``reload`` swaps every column in one call — between two reloads a
    consumer can never standardize column A with version N+1 and column
    B with version N, which is the whole point of bundling.  Columns
    absent from a record pass through untouched.
    """

    def __init__(
        self,
        bundle: ModelBundle,
        use_programs: bool = True,
        obs=None,
    ) -> None:
        self.use_programs = use_programs
        self.obs = obs
        self.bundle = bundle
        self.engines: Dict[str, ApplyEngine] = {
            column: self._make_engine(column, model)
            for column, model in bundle.models.items()
        }

    def _make_engine(self, column: str, model) -> ApplyEngine:
        # Per-column engines share the bundle's obs context; the column
        # label keeps their apply.* counters separable in one registry.
        return ApplyEngine(
            model,
            use_programs=self.use_programs,
            obs=self.obs,
            obs_labels={"column": column},
        )

    @property
    def columns(self) -> List[str]:
        """Columns this engine standardizes."""
        return list(self.engines)

    def engine(self, column: str) -> Optional[ApplyEngine]:
        """The one-column engine, or ``None`` for unknown columns."""
        return self.engines.get(column)

    def reload(self, bundle: ModelBundle) -> None:
        """Hot-swap to a newly published bundle, all columns at once.

        Existing columns recompile in place through
        :meth:`ApplyEngine.reload`; new columns get fresh engines;
        columns the new bundle dropped stop being served.
        """
        engines: Dict[str, ApplyEngine] = {}
        for column, model in bundle.models.items():
            engine = self.engines.get(column)
            if engine is None:
                engine = self._make_engine(column, model)
            else:
                engine.reload(model)
            engines[column] = engine
        self.engines = engines
        self.bundle = bundle

    def apply_record(self, values: Dict[str, str]) -> Dict[str, str]:
        """Standardize one record's bundled columns (copy returned)."""
        out = dict(values)
        for column, engine in self.engines.items():
            if column in out:
                out[column] = engine.apply_values([out[column]])[0]
        return out

    def stats(self) -> Dict[str, Dict]:
        """Per-column engine counters (see :meth:`ApplyEngine.stats`)."""
        return {
            column: engine.stats().as_dict()
            for column, engine in self.engines.items()
        }

    def sync_obs(self) -> None:
        """Flush every column engine's counter deltas to the registry
        (see :meth:`ApplyEngine.sync_obs`)."""
        for engine in self.engines.values():
            engine.sync_obs()
