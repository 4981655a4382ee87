"""repro — unsupervised string transformation learning for entity
consolidation.

A full reproduction of Deng et al., "Unsupervised String Transformation
Learning for Entity Consolidation" (ICDE 2019): the FlashFill-style DSL
with affix extensions, transformation graphs, inverted-index pivot-path
search with early termination, one-shot and incremental (top-k)
grouping, structure refinement, human-in-the-loop standardization, and
the truth-discovery / entity-resolution substrates around them.

Quickstart::

    from repro import Replacement, IncrementalGrouper

    phi = [Replacement("Lee, Mary", "M. Lee"),
           Replacement("Smith, James", "J. Smith")]
    for group in IncrementalGrouper(phi).groups():
        print(group.describe())
"""

from .config import Config, DEFAULT_CONFIG
from .core.grouping import Group, GroupingOutcome, unsupervised_grouping
from .core.incremental import IncrementalGrouper
from .core.program import Program
from .core.replacement import Replacement
from .core.structure import structure_key, structure_signature
from .core.terms import DEFAULT_VOCABULARY, TermVocabulary
from .data.table import CellRef, Cluster, ClusterTable, Record
from .candidates.generate import generate_candidates
from .candidates.store import ReplacementStore
from .pipeline.oracle import (
    ApproveAllOracle,
    Decision,
    GroundTruthOracle,
    RejectAllOracle,
)
from .pipeline.standardize import StandardizationLog, Standardizer
from .serve import (
    ApplyEngine,
    ModelRegistry,
    ModelReplayer,
    TransformationModel,
    build_model,
)
from .stream import (
    DriftMonitor,
    GoldenStreamConsolidator,
    IncrementalResolver,
    IncrementalStandardizer,
    ModelPublisher,
)

__version__ = "1.2.0"

__all__ = [
    "ApplyEngine",
    "DriftMonitor",
    "GoldenStreamConsolidator",
    "IncrementalResolver",
    "IncrementalStandardizer",
    "ModelPublisher",
    "ModelRegistry",
    "ModelReplayer",
    "TransformationModel",
    "build_model",
    "CellRef",
    "Cluster",
    "ClusterTable",
    "Config",
    "DEFAULT_CONFIG",
    "DEFAULT_VOCABULARY",
    "Decision",
    "ApproveAllOracle",
    "GroundTruthOracle",
    "Group",
    "GroupingOutcome",
    "IncrementalGrouper",
    "Program",
    "Record",
    "RejectAllOracle",
    "Replacement",
    "ReplacementStore",
    "StandardizationLog",
    "Standardizer",
    "TermVocabulary",
    "generate_candidates",
    "structure_key",
    "structure_signature",
    "unsupervised_grouping",
    "__version__",
]
