"""The persisted transformation model (versioned JSON schema).

A :class:`TransformationModel` captures everything a standardization
run learned that is worth keeping: the human-confirmed replacement
groups in confirmation order, each with its transformation
:class:`~repro.core.program.Program`, review direction, structure
signature, and the direction-resolved member replacements as they were
applied; plus the term vocabulary, the :class:`~repro.config.Config`,
and run provenance (dataset, column, seed, budget, oracle decisions,
counts).

The confirmed sequence is sufficient for two distinct consumers:

* :class:`repro.serve.replay.ModelReplayer` re-applies it with the
  Section 7.1 provenance rules and reproduces the learner's cell edits
  *exactly* on an identical table;
* :class:`repro.serve.engine.ApplyEngine` compiles it into value-level
  lookup structures for O(N) application to arbitrary new data.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..config import DEFAULT_CONFIG, Config
from ..core.program import Program
from ..core.replacement import Replacement
from ..core.structure import StructureKey
from ..core.terms import DEFAULT_VOCABULARY, TermVocabulary
from ..pipeline.oracle import FORWARD, REVERSE
from ..pipeline.standardize import StandardizationLog

PathLike = Union[str, Path]

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Sanity marker so arbitrary JSON files are rejected early.
MODEL_KIND = "repro.transformation_model"


def write_json_atomic(path: PathLike, payload: Dict) -> Path:
    """Write ``payload`` to ``path`` as one line of JSON, atomically.

    The text is encoded in one ``json.dumps`` call (CPython's C encoder;
    ``json.dump`` always runs the pure-Python one) and lands in a
    same-directory temp file, named uniquely per call, that is flushed,
    fsynced and only then renamed into place.  A crash mid-write, or
    another thread saving to the same path, can never expose a truncated
    file: readers see the old artifact or the new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, ensure_ascii=False) + "\n"
    tmp = path.with_name(f".{path.name}.tmp.{uuid.uuid4().hex}")
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


@dataclass(frozen=True)
class ConfirmedMember:
    """One direction-resolved replacement of a confirmed group."""

    lhs: str
    rhs: str
    #: had whole-value provenance at apply time (Section 3 Step 1)
    whole: bool = True
    #: had token-level provenance at apply time (Appendix A)
    token: bool = False
    #: cells the learner changed when applying it
    cells_changed: int = 0

    @property
    def replacement(self) -> Replacement:
        """The member as a core :class:`Replacement` (lhs -> rhs)."""
        return Replacement(self.lhs, self.rhs)

    def to_dict(self) -> Dict:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "whole": self.whole,
            "token": self.token,
            "cells_changed": self.cells_changed,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ConfirmedMember":
        """Rebuild a member from its :meth:`to_dict` payload."""
        return cls(
            str(payload["lhs"]),
            str(payload["rhs"]),
            bool(payload.get("whole", True)),
            bool(payload.get("token", False)),
            int(payload.get("cells_changed", 0)),
        )


@dataclass(frozen=True)
class ConfirmedGroup:
    """One approved group: program, direction, members in apply order.

    ``program`` and ``structure`` keep the *learned* orientation
    (lhs -> rhs as grouped); ``members`` are direction-resolved, i.e.
    already swapped when the reviewer approved the reverse direction.
    """

    program: Program
    direction: str  # pipeline.oracle.FORWARD | REVERSE
    members: Tuple[ConfirmedMember, ...]
    structure: Optional[StructureKey] = None

    @property
    def size(self) -> int:
        """Member count (the oracle judged the whole group at once)."""
        return len(self.members)

    def to_dict(self) -> Dict:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        return {
            "program": self.program.to_dict(),
            "direction": self.direction,
            "structure": (
                [list(side) for side in self.structure]
                if self.structure is not None
                else None
            ),
            "members": [m.to_dict() for m in self.members],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ConfirmedGroup":
        """Rebuild a group from its :meth:`to_dict` payload (validated)."""
        direction = payload.get("direction", FORWARD)
        if direction not in (FORWARD, REVERSE):
            raise ValueError(f"bad group direction: {direction!r}")
        structure = payload.get("structure")
        return cls(
            Program.from_dict(payload["program"]),
            direction,
            tuple(
                ConfirmedMember.from_dict(m)
                for m in payload.get("members", ())
            ),
            (
                tuple(tuple(str(tag) for tag in side) for side in structure)
                if structure is not None
                else None
            ),
        )


@dataclass
class TransformationModel:
    """Everything one standardization run learned, ready to persist."""

    name: str
    column: str
    groups: List[ConfirmedGroup] = field(default_factory=list)
    config: Config = DEFAULT_CONFIG
    vocabulary: TermVocabulary = DEFAULT_VOCABULARY
    #: free-form provenance: dataset, seed, budget, scale, oracle,
    #: per-step decisions, counts — anything JSON-safe.
    provenance: Dict = field(default_factory=dict)
    created_at: float = 0.0
    schema_version: int = SCHEMA_VERSION

    # -- derived -----------------------------------------------------------

    @property
    def groups_confirmed(self) -> int:
        """Confirmed groups — also the oracle questions this model cost."""
        return len(self.groups)

    @property
    def replacements_confirmed(self) -> int:
        """Total direction-resolved member replacements across groups."""
        return sum(g.size for g in self.groups)

    @property
    def cells_changed(self) -> int:
        """Cells the learner rewrote while confirming these groups."""
        return sum(m.cells_changed for g in self.groups for m in g.members)

    def describe(self) -> str:
        """One-line human summary (used by the CLI and the registry catalog)."""
        return (
            f"model {self.name!r} (column {self.column!r}): "
            f"{self.groups_confirmed} groups, "
            f"{self.replacements_confirmed} replacements, "
            f"{self.cells_changed} cells changed at learn time"
        )

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict:
        """The full versioned JSON payload :meth:`save` writes."""
        return {
            "kind": MODEL_KIND,
            "schema_version": self.schema_version,
            "name": self.name,
            "column": self.column,
            "created_at": self.created_at,
            "provenance": dict(self.provenance),
            "config": self.config.to_dict(),
            "vocabulary": self.vocabulary.to_dict(),
            "groups": [g.to_dict() for g in self.groups],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "TransformationModel":
        """Rebuild a model, rejecting foreign kinds and newer schemas."""
        kind = payload.get("kind")
        if kind != MODEL_KIND:
            raise ValueError(
                f"not a transformation model (kind={kind!r}, "
                f"expected {MODEL_KIND!r})"
            )
        version = int(payload.get("schema_version", 0))
        if version < 1 or version > SCHEMA_VERSION:
            raise ValueError(
                f"unsupported model schema version {version} "
                f"(this build reads <= {SCHEMA_VERSION})"
            )
        return cls(
            name=str(payload.get("name", "")),
            column=str(payload.get("column", "")),
            groups=[
                ConfirmedGroup.from_dict(g)
                for g in payload.get("groups", ())
            ],
            config=Config.from_dict(payload.get("config", {})),
            vocabulary=TermVocabulary.from_dict(
                payload.get("vocabulary", {})
            ),
            provenance=dict(payload.get("provenance", {})),
            created_at=float(payload.get("created_at", 0.0)),
            schema_version=version,
        )

    def save(self, path: PathLike) -> Path:
        """Write the model as compact JSON, atomically; returns the path.

        See :func:`write_json_atomic`: a crash mid-save (or mid registry
        publish) never leaves a truncated model file behind.
        """
        return write_json_atomic(path, self.to_dict())

    @classmethod
    def load(cls, path: PathLike) -> "TransformationModel":
        """Read a model saved by :meth:`save` (schema-checked)."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def build_model(
    log: StandardizationLog,
    column: str,
    name: Optional[str] = None,
    config: Config = DEFAULT_CONFIG,
    vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
    provenance: Optional[Dict] = None,
) -> TransformationModel:
    """Distill a standardization run into a persistent model.

    Only approved steps are kept (rejected groups taught us nothing
    applicable), but every step's decision lands in the provenance so
    the full review session is auditable.
    """
    groups: List[ConfirmedGroup] = []
    decisions: List[Dict] = []
    for step in log.steps:
        decisions.append(
            {
                "approved": step.decision.approved,
                "direction": step.decision.direction,
                "group_size": step.group.size,
                "cells_changed": step.cells_changed,
            }
        )
        if not step.decision.approved:
            continue
        members = tuple(
            ConfirmedMember(
                a.replacement.lhs,
                a.replacement.rhs,
                a.whole,
                a.token,
                a.cells_changed,
            )
            for a in step.applied
        )
        groups.append(
            ConfirmedGroup(
                step.group.program,
                step.decision.direction,
                members,
                step.group.structure,
            )
        )
    merged = {
        "groups_reviewed": log.groups_confirmed,
        "groups_approved": log.groups_approved,
        "cells_changed": log.cells_changed,
        "decisions": decisions,
    }
    if provenance:
        merged.update(provenance)
    return TransformationModel(
        name=name or column,
        column=column,
        groups=groups,
        config=config,
        vocabulary=vocabulary,
        provenance=merged,
        created_at=time.time(),
    )
