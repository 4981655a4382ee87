"""Replacement sets and their maintenance (Section 7.1).

For every candidate replacement the store remembers *where* it was
generated so approved groups can be applied surgically ("not all 'St's
are 'Street'" — footnote 1).  Two granularities exist:

* **whole-value** candidates (Section 3, Step 1): an entry is an
  ordered cell pair ``(lhs_cell, rhs_cell)`` within one cluster.  The
  paper's ``L[lhs -> rhs]`` keeps only the lhs cell; keying by the pair
  makes the Section 7.1 update rules exact when a cluster holds several
  copies of ``lhs`` (see DESIGN.md §5).
* **token-level** candidates (Appendix A): an entry is again an
  ordered cell pair — the cell whose value contains the lhs segment
  first, its aligned cluster mate second.  Keeping the mate lets the
  reviewing oracle judge variant-ness exactly as for whole values
  (do the two cells denote the same entity?).

After a cell's value changes, all of its stale entries are dropped and
its pairings against cluster mates are re-derived.  New entries may
only land under *existing* replacement keys, preserving the paper's
"no new candidate replacements appear" invariant.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..align.damerau import alignment_segments
from ..align.lcs import aligned_segments
from ..align.tokenize import join, replace_token_run, tokens
from ..config import DEFAULT_CONFIG, Config
from ..core.replacement import Replacement
from ..data.table import CellRef, ClusterTable

CellPair = Tuple[CellRef, CellRef]

#: Ordered token-level (lhs, rhs) segments one value pair contributes.
TokenSegments = Tuple[Tuple[str, str], ...]


def derive_token_segments(
    va: str, vb: str, config: Config = DEFAULT_CONFIG
) -> TokenSegments:
    """Token-level candidate segments of one ordered value pair.

    This is the *pure* (table-free, side-effect-free) core of candidate
    generation: everything :meth:`ReplacementStore.add_cell` derives
    for a cell pair is a function of the two values and the config
    alone, which is what lets the store memoize it per ordered value
    pair.

    Returns the deduplicated ``(lhs, rhs)`` segments in derivation
    order, excluding the whole-value pair itself (the caller always
    adds that separately).
    """
    if va == vb or not va or not vb:
        return ()
    if not config.token_level_candidates:
        return ()
    ta, tb = tokens(va), tokens(vb)
    if not ta or not tb:
        return ()
    segment_pairs = aligned_segments(ta, tb)
    if config.damerau_candidates:
        segment_pairs = segment_pairs + alignment_segments(ta, tb)
    seen: Set[Tuple[str, str]] = set()
    out: List[Tuple[str, str]] = []
    for seg_a, seg_b in segment_pairs:
        lhs, rhs = join(seg_a), join(seg_b)
        if lhs == rhs or not lhs or not rhs:
            continue
        if (lhs, rhs) in seen:
            continue
        seen.add((lhs, rhs))
        if (lhs, rhs) != (va, vb):
            out.append((lhs, rhs))
    return tuple(out)


class ReplacementStore:
    """Candidate replacements of one column plus their provenance."""

    def __init__(self, table: ClusterTable, column: str, config: Config = DEFAULT_CONFIG):
        self.table = table
        self.column = column
        self.config = config
        #: whole-value provenance: replacement -> ordered cell pairs
        self.pair_entries: Dict[Replacement, Set[CellPair]] = {}
        #: token-level provenance: replacement -> (lhs cell, mate cell)
        self.token_entries: Dict[Replacement, Set[CellPair]] = {}
        #: reverse index: cell -> replacement keys it participates in
        self._by_cell: Dict[CellRef, Set[Replacement]] = {}
        #: cells whose pairings have been derived (delta-generation
        #: bookkeeping for the streaming path)
        self._indexed: Set[CellRef] = set()
        self._dead: Set[Replacement] = set()
        #: token segments by ordered value pair, derived once per store:
        #: refreshes re-pair values already aligned, and orientation
        #: matters because LCS tie-breaks depend on it
        self._segments: Dict[Tuple[str, str], TokenSegments] = {}

    # -- generation (Section 3 Step 1, Appendix A) --------------------------

    def generate(self) -> "ReplacementStore":
        """Enumerate all candidates for the column."""
        for ci in range(self.table.num_clusters):
            cells = self.table.cluster_cells(ci, self.column)
            for ai in range(len(cells)):
                for bi in range(ai + 1, len(cells)):
                    self._generate_for_pair(cells[ai], cells[bi], allow_new=True)
            self._indexed.update(cells)
        return self

    # -- incremental generation (stream path) --------------------------------

    def add_cell(self, cell: CellRef) -> int:
        """Index one new cell: pair it against the already-indexed cells
        of its cluster, allowing new candidate keys.

        This is the delta form of :meth:`generate`: calling it for every
        cell of a table (in any order) derives exactly the pairs the
        batch form derives, but a record batch arriving later only pays
        for pairs touching its own cells.

        Returns the number of candidate keys the cell *created* — zero
        means every variation the cell introduced was already known, the
        signal the stream's drift monitor feeds on.
        """
        if cell in self._indexed:
            return 0
        before = len(self.pair_entries) + len(self.token_entries)
        for mate in self.table.cluster_cells(cell.cluster, cell.column):
            if mate == cell or mate not in self._indexed:
                continue
            self._generate_for_pair(mate, cell, allow_new=True)
        self._indexed.add(cell)
        return len(self.pair_entries) + len(self.token_entries) - before

    def purge_cell(self, cell: CellRef) -> None:
        """Forget a cell entirely (it moved during a cluster merge).

        All entries referencing the cell are removed and the cell is
        un-indexed; re-add it at its new position via :meth:`add_cell`.
        """
        for r in list(self._by_cell.get(cell, ())):
            self._remove_cell_from(r, cell)
        self._by_cell.pop(cell, None)
        self._indexed.discard(cell)

    def _generate_for_pair(
        self,
        cell_a: CellRef,
        cell_b: CellRef,
        allow_new: bool,
    ) -> None:
        va = self.table.value(cell_a)
        vb = self.table.value(cell_b)
        if va == vb or not va or not vb:
            return
        self._add_pair(Replacement(va, vb), (cell_a, cell_b), allow_new)
        self._add_pair(Replacement(vb, va), (cell_b, cell_a), allow_new)
        if self.config.token_level_candidates:
            key = (va, vb)
            derived = self._segments.get(key)
            if derived is None:
                derived = self._segments[key] = derive_token_segments(
                    va, vb, self.config
                )
            for lhs, rhs in derived:
                self._add_token(
                    Replacement(lhs, rhs), (cell_a, cell_b), allow_new
                )
                self._add_token(
                    Replacement(rhs, lhs), (cell_b, cell_a), allow_new
                )

    def _add_pair(self, r: Replacement, pair: CellPair, allow_new: bool) -> None:
        entries = self.pair_entries.get(r)
        if entries is None:
            if not allow_new:
                return
            entries = set()
            self.pair_entries[r] = entries
        entries.add(pair)
        self._by_cell.setdefault(pair[0], set()).add(r)
        self._by_cell.setdefault(pair[1], set()).add(r)
        self._dead.discard(r)

    def _add_token(self, r: Replacement, pair: CellPair, allow_new: bool) -> None:
        entries = self.token_entries.get(r)
        if entries is None:
            if not allow_new:
                return
            entries = set()
            self.token_entries[r] = entries
        entries.add(pair)
        self._by_cell.setdefault(pair[0], set()).add(r)
        self._by_cell.setdefault(pair[1], set()).add(r)
        self._dead.discard(r)

    # -- queries -------------------------------------------------------------

    def replacements(self) -> List[Replacement]:
        """All live candidates (whole-value first, then token-only).

        Keys whose entries emptied (pending drain) are not live.
        """
        keys = [k for k, entries in self.pair_entries.items() if entries]
        keys.extend(
            k
            for k, entries in self.token_entries.items()
            if entries and not self.pair_entries.get(k)
        )
        return keys

    def support(self, r: Replacement) -> int:
        """Number of places the replacement applies to (its 'profit')."""
        return len(self.pair_entries.get(r, ())) + len(
            self.token_entries.get(r, ())
        )

    def cell_pairs(self, r: Replacement) -> Set[CellPair]:
        return set(self.pair_entries.get(r, ()))

    def token_pairs(self, r: Replacement) -> Set[CellPair]:
        return set(self.token_entries.get(r, ()))

    def token_cells(self, r: Replacement) -> Set[CellRef]:
        """The cells a token-level replacement would rewrite."""
        return {pair[0] for pair in self.token_entries.get(r, ())}

    def __contains__(self, r: Replacement) -> bool:
        return bool(self.pair_entries.get(r)) or bool(self.token_entries.get(r))

    def __len__(self) -> int:
        return len(self.replacements())

    # -- application (Section 7.1) --------------------------------------------

    def apply_replacement(self, r: Replacement) -> List[CellRef]:
        """Apply one approved replacement everywhere it was generated.

        Whole-value entries rewrite the lhs cell to ``rhs``; token-level
        entries rewrite the lhs segment inside the cell (token-boundary
        aware).  Returns the changed cells; collect invalidated
        candidates afterwards via :meth:`drain_dead`.
        """
        changed: List[CellRef] = []
        for lhs_cell, _rhs_cell in sorted(self.pair_entries.get(r, ())):
            if self.table.value(lhs_cell) == r.lhs:
                self.table.set_value(lhs_cell, r.rhs)
                changed.append(lhs_cell)
        for cell in sorted(self.token_cells(r)):
            value = self.table.value(cell)
            updated = replace_token_run(value, r.lhs, r.rhs)
            if updated is not None and updated != value:
                self.table.set_value(cell, updated)
                changed.append(cell)
        # Orientation symmetry, defense in depth: generation always
        # creates both orientations together, but provenance that only
        # survives under the mirrored key (its *second* cells hold
        # ``r.lhs``) supports the same rewrite.  On a symmetric store
        # every mirror cell was already handled above (the value check
        # skips it), so this pass changes nothing there.
        mirror = r.reversed()
        for cell in sorted(
            {pair[1] for pair in self.pair_entries.get(mirror, ())}
        ):
            if self.table.value(cell) == r.lhs:
                self.table.set_value(cell, r.rhs)
                changed.append(cell)
        for cell in sorted(
            {pair[1] for pair in self.token_entries.get(mirror, ())}
        ):
            value = self.table.value(cell)
            updated = replace_token_run(value, r.lhs, r.rhs)
            if updated is not None and updated != value:
                self.table.set_value(cell, updated)
                changed.append(cell)
        for cell in dict.fromkeys(changed):
            self.refresh_cell(cell)
        return changed

    def refresh_cell(self, cell: CellRef) -> None:
        """Re-derive a changed cell's candidates (Section 7.1 update).

        Stale entries referencing the cell are removed everywhere; fresh
        pairings against cluster mates are added, but only under
        already-existing keys.
        """
        for r in list(self._by_cell.get(cell, ())):
            self._remove_cell_from(r, cell)
        self._by_cell.pop(cell, None)
        for mate in self.table.cluster_cells(cell.cluster, cell.column):
            if mate == cell:
                continue
            # `allow_new=False`: rhs already lives in the cluster, so
            # every fresh pairing re-uses an existing key (Section 7.1).
            self._generate_for_pair(cell, mate, allow_new=False)

    def _remove_cell_from(self, r: Replacement, cell: CellRef) -> None:
        """Drop ``r``'s entries holding ``cell``; a mate left in none of
        ``r``'s entries leaves the reverse index under ``r``."""
        mates: List[CellRef] = []
        kept: List[Set[CellPair]] = []
        for entries in (self.pair_entries.get(r), self.token_entries.get(r)):
            if not entries:
                continue
            for pair in [p for p in entries if cell in p]:
                entries.discard(pair)
                mates.extend(other for other in pair if other != cell)
            kept.append(entries)
        if mates:
            held = {other for entries in kept for pair in entries for other in pair}
            for other in mates:
                if other not in held:
                    self._by_cell.get(other, set()).discard(r)
        if not self.pair_entries.get(r) and not self.token_entries.get(r):
            # Mark dead but keep the (empty) key: re-derivation during
            # the same refresh may legitimately revive it, and the
            # no-new-keys rule must not block that.  Truly dead keys
            # are dropped at drain time.
            self._dead.add(r)

    def drain_dead(self) -> Set[Replacement]:
        """Candidates invalidated since the last call (for the grouper).

        Emptiness is re-checked at drain time: a key that emptied
        mid-refresh but was revived by re-derivation is *not* dead.
        """
        dead = {
            r
            for r in self._dead
            if not self.pair_entries.get(r) and not self.token_entries.get(r)
        }
        for r in dead:
            self.pair_entries.pop(r, None)
            self.token_entries.pop(r, None)
        self._dead = set()
        return dead

