"""Global configuration for the transformation-learning stack.

All knobs the paper exposes (max path length, affix functions on/off,
structure refinement, static-order truncation, sampling) live here so
that experiments can toggle them without touching algorithm code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Config:
    """Tuning parameters for graph construction and grouping.

    Defaults follow the paper: affix functions enabled (Appendix D),
    structure refinement enabled (Section 7.2), and a maximum pivot-path
    length of 6 (Section 8.2).
    """

    #: Include the ``Prefix`` / ``Suffix`` string functions (Appendix D).
    use_affix: bool = True

    #: Pre-partition candidates by structure signature (Section 7.2).
    use_structure: bool = True

    #: Maximum number of string functions in a searched path (theta in
    #: Appendix E).  The paper uses 6 in all experiments.
    max_path_length: int = 6

    #: Static-order truncation: keep at most this many position
    #: functions per position in the input string (Appendix E).
    max_position_functions: int = 2

    #: Cap on the number of occurrences of an output substring in the
    #: input string for which SubStr labels are generated.
    max_occurrences_per_edge: int = 2

    #: Cap on SubStr labels emitted per (edge, occurrence).
    max_substr_labels_per_edge: int = 8

    #: Strings longer than this never get a transformation graph (their
    #: replacements fall back to singleton groups).  Guards the
    #: O(|s|^2 |t|^2) construction.
    max_string_length: int = 80

    #: Restrict position functions to term-match boundaries of the
    #: input string (strict Appendix E static order); mid-token cuts
    #: remain expressible through the affix functions.
    boundary_positions_only: bool = True

    #: Emit ``ConstantStr`` labels only on edges aligned with the
    #: output string's term-unit boundaries (the Appendix E
    #: constant-string static order: per-character constants score
    #: worst and are dropped).  The whole-string constant label is
    #: always aligned, so every replacement keeps >= 1 consistent
    #: program.
    aligned_constants: bool = True

    #: Appendix E's frequency-scored constants: inside a structure
    #: group, alphanumeric constant content is admitted only when it
    #: recurs across members (``freqStruc`` high); separators always
    #: pass and the whole-target constant is always kept.
    scored_constants: bool = True

    #: A token is 'recurring' when it appears in at least this fraction
    #: of a structure group's targets (and in at least 2 of them).
    constant_token_min_share: float = 0.25

    #: Number of frequency-scored constant-string MatchPos terms to mine
    #: per structure group (Appendix E).  0 disables constant terms.
    constant_match_terms: int = 0

    #: Optional random-sampling size for pivot search acceleration
    #: (Appendix E).  ``None`` disables sampling.
    sample_size: Optional[int] = None

    #: Hard cap on DFS expansions per pivot search; past it the best
    #: path found so far is returned.  Bounded-work acceleration in the
    #: spirit of Appendix E; set very high to approximate exact search.
    max_search_expansions: int = 2000

    #: Enable local-threshold early termination (Section 5.2).
    local_threshold: bool = True

    #: Enable global-threshold early termination (Section 5.2).
    global_threshold: bool = True

    #: Generate token-level candidates via LCS alignment (Appendix A).
    token_level_candidates: bool = True

    #: Generate token-level candidates via Damerau-Levenshtein alignment
    #: as well (Appendix A mentions this as an alternative source).
    damerau_candidates: bool = False

    #: Random seed used anywhere randomness is permitted (sampling).
    seed: int = 0

    #: Extra literal strings always admitted as MatchPos terms.
    extra_constant_terms: Tuple[str, ...] = field(default_factory=tuple)

    def without_early_termination(self) -> "Config":
        """Variant used by the OneShot baseline in Figure 9."""
        return replace(self, local_threshold=False, global_threshold=False)

    def with_early_termination(self) -> "Config":
        """Variant used by the EarlyTerm method in Figure 9."""
        return replace(self, local_threshold=True, global_threshold=True)

    def without_affix(self) -> "Config":
        """Variant used by the NoAffix method in Figure 10."""
        return replace(self, use_affix=False)

    def to_dict(self) -> Dict:
        """JSON-safe rendering (tuples become lists)."""
        # Every field is a scalar but the tuple below, so a shallow
        # read gives what ``asdict`` would, without its deep copy.
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["extra_constant_terms"] = list(self.extra_constant_terms)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "Config":
        """Inverse of :meth:`to_dict`; unknown keys are ignored so old
        models keep loading after new knobs are added."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        if "extra_constant_terms" in kwargs:
            kwargs["extra_constant_terms"] = tuple(
                kwargs["extra_constant_terms"]
            )
        return cls(**kwargs)


#: Shared default configuration (paper settings).
DEFAULT_CONFIG = Config()
