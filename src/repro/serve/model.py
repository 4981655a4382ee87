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
from functools import cached_property
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


def encode_json(payload) -> str:
    """``payload`` as one line of artifact JSON.

    ``json.dumps`` with its default separators (``", "`` and ``": "``)
    and non-ASCII text kept as UTF-8, in one call to CPython's C
    encoder.  Every artifact byte goes through here, so a spliced file
    (see :func:`splice_json`) equals one encode of the whole payload.
    """
    return json.dumps(payload, ensure_ascii=False)


def splice_json(head: Dict, key: str, value_text: str) -> str:
    """``encode_json({**head, key: value})`` from ``value``'s text.

    The (non-empty) head is encoded once; ``value_text``, already in
    the :func:`encode_json` layout, becomes its last entry.
    """
    return f"{encode_json(head)[:-1]}, {encode_json(key)}: {value_text}}}"


def write_synced(path: Path, text: str) -> None:
    """Create ``path`` (it must not exist) holding ``text`` and a
    newline, flushed and fsynced before returning."""
    with open(path, "x", encoding="utf-8") as handle:
        handle.write(text + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def write_text_atomic(path: PathLike, text: str) -> Path:
    """Write ``text`` to ``path`` as one line, atomically.

    The line lands in a same-directory temp file, named uniquely per
    call, that is flushed, fsynced and only then renamed into place.  A
    crash mid-write, or another thread saving to the same path, can
    never expose a truncated file: readers see the old artifact or the
    new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp.{uuid.uuid4().hex}")
    try:
        write_synced(tmp, text)
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

    @cached_property
    def json_text(self) -> str:
        """:meth:`to_dict` in the artifact layout, encoded on first use
        only: the group is immutable, and every later publish of a
        model holding it splices this text."""
        return encode_json(self.to_dict())

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

    def _head(self) -> Dict:
        """Every payload entry but the trailing ``groups`` — the one
        layout :meth:`to_dict` and :meth:`to_json` share."""
        return {
            "kind": MODEL_KIND,
            "schema_version": self.schema_version,
            "name": self.name,
            "column": self.column,
            "created_at": self.created_at,
            "provenance": dict(self.provenance),
            "config": self.config.to_dict(),
            "vocabulary": self.vocabulary.to_dict(),
        }

    def to_dict(self) -> Dict:
        """The full versioned JSON payload :meth:`save` writes."""
        return {
            **self._head(),
            "groups": [g.to_dict() for g in self.groups],
        }

    def to_json(self) -> str:
        """``encode_json(self.to_dict())``, built from the head and each
        group's cached :attr:`ConfirmedGroup.json_text`."""
        groups = ", ".join(g.json_text for g in self.groups)
        return splice_json(self._head(), "groups", f"[{groups}]")

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
        """Write the model as one line of JSON, atomically; returns the
        path.

        The line is :meth:`to_json`: ``json.dumps`` default separators
        (``", "``, ``": "``), not the compact ones.  See
        :func:`write_text_atomic`: a crash mid-save never leaves a
        truncated model file behind.
        """
        return write_text_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: PathLike) -> "TransformationModel":
        """Read a model saved by :meth:`save` (schema-checked)."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


class ModelBuilder:
    """:func:`build_model` for a log that keeps growing.

    Each step is converted once, on the first :meth:`build` that sees
    it; later builds reuse its :class:`ConfirmedGroup` (and so the
    group's encoded text) and its decision row.  The cursor follows
    the log *object*: a build over a different log (a resumed column's
    rehydrated one) starts over.  Logs only ever append steps.
    """

    def __init__(self) -> None:
        self._log: Optional[StandardizationLog] = None
        self._groups: List[ConfirmedGroup] = []
        self._decisions: List[Dict] = []
        self._cells_changed = 0

    def build(
        self,
        log: StandardizationLog,
        column: str,
        name: Optional[str] = None,
        config: Config = DEFAULT_CONFIG,
        vocabulary: TermVocabulary = DEFAULT_VOCABULARY,
        provenance: Optional[Dict] = None,
    ) -> TransformationModel:
        """The model of everything ``log`` holds (see :func:`build_model`)."""
        if log is not self._log:
            self._log, self._groups, self._decisions = log, [], []
            self._cells_changed = 0
        for step in log.steps[len(self._decisions):]:
            self._decisions.append(
                {
                    "approved": step.decision.approved,
                    "direction": step.decision.direction,
                    "group_size": step.group.size,
                    "cells_changed": step.cells_changed,
                }
            )
            self._cells_changed += step.cells_changed
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
            self._groups.append(
                ConfirmedGroup(
                    step.group.program,
                    step.decision.direction,
                    members,
                    step.group.structure,
                )
            )
        merged = {
            "groups_reviewed": len(self._decisions),
            "groups_approved": len(self._groups),
            "cells_changed": self._cells_changed,
            "decisions": list(self._decisions),
        }
        if provenance:
            merged.update(provenance)
        return TransformationModel(
            name=name or column,
            column=column,
            groups=list(self._groups),
            config=config,
            vocabulary=vocabulary,
            provenance=merged,
            created_at=time.time(),
        )


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
    return ModelBuilder().build(
        log, column, name, config, vocabulary, provenance
    )
