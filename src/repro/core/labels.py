"""Edge labels interned where they are built (see :class:`LabelTable`)."""

from __future__ import annotations

from typing import Dict, List, Tuple

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
    """

    def __init__(self) -> None:
        self.labels: List[StringFunction] = []
        self.keys: List[Tuple] = []
        self.ids: Dict[StringFunction, int] = {}
        #: position id -> position function, and its Appendix E order key
        self.positions: List[PositionFunction] = []
        self._position_order: List[Tuple] = []
        self._position_ids: Dict[object, int] = {}
        self._label_ids: Dict[object, int] = {}
        self._slots: Dict[object, int] = {}

    def intern(self, label: StringFunction) -> int:
        """The id of ``label``, issuing one if the table has not seen it."""
        lid = self.ids.get(label)
        if lid is None:
            lid = self.ids[label] = len(self.labels)
            self.labels.append(label)
            self.keys.append(label_sort_key(label))
        return lid

    def label(self, key, make, *args) -> int:
        """The id of the label ``make(*args)``, found by ``key``."""
        lid = self._label_ids.get(key)
        if lid is None:
            lid = self._label_ids[key] = self.intern(make(*args))
        return lid

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
        position = self._position
        for term in ctx.vocabulary.all_terms:
            slot = self.slot(term)
            matches = ctx.matches(term)
            m = len(matches)
            for idx, (x, y) in enumerate(matches, start=1):
                for k in (idx, idx - m - 1):
                    table[x].append(position((slot, k, BEGIN), MatchPos, term, k, BEGIN))
                    table[y].append(position((slot, k, END), MatchPos, term, k, END))
        order = self._position_order.__getitem__
        for k in range(1, last + 1):
            if boundaries_only and not table[k] and k not in (1, last):
                continue
            back = k - last - 1
            table[k] += (position(k, ConstPos, k), position(back, ConstPos, back))
            entries = sorted(set(table[k]), key=order)
            if max_per_position > 0:
                entries = entries[:max_per_position]
            table[k] = entries
        return table
