"""Edge labels interned where they are built (see :class:`LabelTable`)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .functions import StringFunction, label_sort_key
from .positions import BEGIN, END, ConstPos, MatchPos, PositionFunction, _static_key
from .terms import MatchContext


class LabelTable:
    """Dense int ids for edge labels: ``labels[id]`` is the label,
    ``keys[id]`` its :func:`~repro.core.functions.label_sort_key`
    (computed once) and ``ids`` maps each label back to its id.

    ``build_graph`` finds labels by small keys, never by building the
    object: a position function by ``(term slot, k, direction)``
    (``MatchPos``) or ``k`` (``ConstPos``), a ``SubStr`` by its pair of
    position ids, a ``ConstantStr`` by its text and a ``Prefix`` /
    ``Suffix`` by ``(kind, term slot, k)``.  An object is created and
    keyed only the first time its key is seen.  The table issues the
    term slots itself, so it can serve any vocabulary.

    Keys map one to one to labels, so a label found by key is appended
    without hashing the object: ``ids`` is built from ``labels`` the
    first time it is read (by :meth:`intern`, for graphs of another
    table, or by a caller) and kept up to date from then on.
    """

    def __init__(self) -> None:
        self.labels: List[StringFunction] = []
        self.keys: List[Tuple] = []
        self._ids: Optional[Dict[StringFunction, int]] = None
        #: position id -> position function, and its Appendix E order key
        self.positions: List[PositionFunction] = []
        self._position_order: List[Tuple] = []
        self._position_ids: Dict[object, int] = {}
        self._label_ids: Dict[object, int] = {}
        self._slots: Dict[object, int] = {}

    @property
    def ids(self) -> Dict[StringFunction, int]:
        """Each label's id."""
        if self._ids is None:
            self._ids = {label: lid for lid, label in enumerate(self.labels)}
        return self._ids

    def intern(self, label: StringFunction) -> int:
        """The id of ``label``, issuing one if the table has not seen it."""
        ids = self.ids
        lid = ids.get(label)
        if lid is None:
            lid = ids[label] = self._append(label)
        return lid

    def label(self, key, make, *args) -> int:
        """The id of the label ``make(*args)``, found by ``key``."""
        lid = self._label_ids.get(key)
        if lid is None:
            made = make(*args)
            lid = self._label_ids[key] = (
                self._append(made) if self._ids is None else self.intern(made)
            )
        return lid

    def _append(self, label: StringFunction) -> int:
        self.labels.append(label)
        self.keys.append(label_sort_key(label))
        return len(self.labels) - 1

    def slot(self, term) -> int:
        """The slot of ``term`` in the keys of its labels."""
        return self._slots.setdefault(term, len(self._slots))

    def _position(self, key, make, *args) -> int:
        pid = self._position_ids.get(key)
        if pid is None:
            fn = make(*args)
            pid = self._position_ids[key] = len(self.positions)
            self.positions.append(fn)
            self._position_order.append(_static_key(fn))
        return pid

    def position_ids(
        self,
        ctx: MatchContext,
        max_per_position: int = 0,
        boundaries_only: bool = False,
    ) -> Dict[int, List[int]]:
        """``P`` as position ids (see
        :func:`~repro.core.positions.position_candidates`)."""
        last = len(ctx) + 1
        table: Dict[int, List[int]] = {k: [] for k in range(1, last + 1)}
        ids, position = self._position_ids, self._position
        for term in ctx.vocabulary.all_terms:
            slot = self.slot(term)
            matches = ctx.matches(term)
            m = len(matches)
            for idx, (x, y) in enumerate(matches, start=1):
                for k in (idx, idx - m - 1):
                    key = (slot, k, BEGIN)
                    pid = ids.get(key)
                    table[x].append(
                        position(key, MatchPos, term, k, BEGIN) if pid is None else pid
                    )
                    key = (slot, k, END)
                    pid = ids.get(key)
                    table[y].append(
                        position(key, MatchPos, term, k, END) if pid is None else pid
                    )
        order = self._position_order.__getitem__
        for k, entries in table.items():
            if boundaries_only and not entries and k not in (1, last):
                continue
            for const in (k, k - last - 1):
                pid = ids.get(const)
                entries.append(position(const, ConstPos, const) if pid is None else pid)
            entries = sorted(set(entries), key=order)
            if max_per_position > 0:
                entries = entries[:max_per_position]
            table[k] = entries
        return table
