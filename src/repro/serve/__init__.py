"""Persistent transformation models and a high-throughput apply engine.

The standardization loop is expensive — graphs, pivot searches, and
above all *human confirmations*.  This package makes its output a
reusable asset:

* :mod:`repro.serve.model` — a versioned JSON schema for confirmed
  replacement groups, their programs, and full provenance;
* :mod:`repro.serve.registry` — a directory-backed model store with
  monotonically increasing versions per model name;
* :mod:`repro.serve.engine` — confirmed groups compiled, in time
  linear in the rules, into an exact-match hash table plus a
  per-structure-signature program index, applied columnar
  (dictionary-encoded through an intern table, once per distinct
  value) with optional multiprocessing sharding;
* :mod:`repro.serve.intern` — the value-interning table behind the
  columnar apply path;
* :mod:`repro.serve.replay` — provenance-aware re-application that
  reproduces a learning run's cell edits exactly on an identical table;
* :mod:`repro.serve.bundle` — per-column models published as one
  atomic multi-column artifact, with a record-level apply engine whose
  single ``reload`` flips every column together;
* :mod:`repro.serve.service` — a long-running JSON-lines worker
  answering transform requests over stdin/stdout;
* :mod:`repro.serve.server` — the concurrent asyncio JSON-over-TCP
  network service: hot-reloading model source, golden-record lookups
  tailed from the stream's delta log, and fault-tolerant connection
  handling (``repro serve --listen``).
"""

from .bundle import (
    BundleApplyEngine,
    BundleRegistry,
    ModelBundle,
    build_bundle,
    load_artifact,
)
from .engine import ApplyEngine, ApplyStats
from .intern import InternTable
from .model import TransformationModel, build_model
from .registry import ModelRegistry
from .replay import ModelReplayer, ReplayReport
from .server import GoldenTable, ModelSource, ServeServer, parse_listen
from .service import serve_forever

__all__ = [
    "ApplyEngine",
    "ApplyStats",
    "BundleApplyEngine",
    "BundleRegistry",
    "GoldenTable",
    "InternTable",
    "ModelBundle",
    "ModelRegistry",
    "ModelReplayer",
    "ModelSource",
    "ReplayReport",
    "ServeServer",
    "TransformationModel",
    "build_bundle",
    "build_model",
    "load_artifact",
    "parse_listen",
    "serve_forever",
]
