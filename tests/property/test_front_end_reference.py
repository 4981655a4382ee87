"""The learner's front end against plain references (hypothesis).

Candidate generation and feed construction pay once per distinct value:
:class:`~repro.core.replacement.Replacement` is a C-hashed tuple,
:func:`~repro.core.structure.partition_by_structure` computes one
signature per distinct string, and a
:class:`~repro.candidates.store.ReplacementStore` aligns each ordered
value pair once.  Each property checks one of those against the plain
computation it replaces:

* a ``Replacement`` behaves exactly like the frozen dataclass it used to
  be: equality, hash, order, ``repr``, ``reversed()``, pickling and the
  identical-sides ``ValueError``;
* the partition equals grouping by per-candidate
  :func:`~repro.core.structure.structure_key`, in key order and in
  member order;
* a store's entries equal those of a store that re-derives every pair,
  after generation and after random applies and refreshes.
"""

import pickle
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.candidates.store import ReplacementStore
from repro.core.replacement import Replacement
from repro.core.structure import partition_by_structure, structure_key
from repro.data.table import ClusterTable, Record

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@dataclass(frozen=True, order=True)
class ReferenceReplacement:
    """The frozen dataclass :class:`Replacement` used to be."""

    lhs: str
    rhs: str

    def __post_init__(self) -> None:
        if self.lhs == self.rhs:
            raise ValueError("a replacement requires two different strings")

    def reversed(self) -> "ReferenceReplacement":
        return ReferenceReplacement(self.rhs, self.lhs)

    def __repr__(self) -> str:
        return f"{self.lhs!r} -> {self.rhs!r}"


#: Every structure class plus what falls outside them: non-ASCII
#: letters and digits (``"٣".isdigit()``), tabs and punctuation.
ALPHABET = "aZ9 \t-.,éÅ٣ß"
side = st.text(alphabet=ALPHABET, max_size=5)


class TestReplacementMatchesDataclass:
    @SETTINGS
    @given(side, side, side, side)
    def test_value_semantics(self, a, b, c, d):
        if a == b:
            with pytest.raises(ValueError):
                Replacement(a, b)
            with pytest.raises(ValueError):
                ReferenceReplacement(a, b)
            return
        r, ref = Replacement(a, b), ReferenceReplacement(a, b)
        assert (r.lhs, r.rhs) == (ref.lhs, ref.rhs)
        assert hash(r) == hash(ref)
        assert repr(r) == repr(ref)
        back = r.reversed()
        assert type(back) is Replacement
        assert (back.lhs, back.rhs) == (ref.reversed().lhs, ref.reversed().rhs)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(r, protocol))
            assert type(loaded) is Replacement and loaded == r
        if c == d:
            return
        s, sref = Replacement(c, d), ReferenceReplacement(c, d)
        assert (r == s) == (ref == sref)
        assert (r != s) == (ref != sref)
        assert (r < s) == (ref < sref)
        assert (r <= s) == (ref <= sref)
        assert (r > s) == (ref > sref)
        assert (r >= s) == (ref >= sref)
        assert (hash(r) == hash(s)) == (hash(ref) == hash(sref))

    @SETTINGS
    @given(st.lists(st.tuples(side, side), max_size=12))
    def test_sorted_and_set_orders_match(self, pairs):
        pairs = [(a, b) for a, b in pairs if a != b]
        ours = [Replacement(a, b) for a, b in pairs]
        refs = [ReferenceReplacement(a, b) for a, b in pairs]
        assert [(r.lhs, r.rhs) for r in sorted(ours)] == [
            (r.lhs, r.rhs) for r in sorted(refs)
        ]
        # Equal hashes keep set iteration orders, and so every
        # set-driven order downstream, unchanged.
        assert [(r.lhs, r.rhs) for r in set(ours)] == [
            (r.lhs, r.rhs) for r in set(refs)
        ]


class TestPartitionMatchesPerCandidateKeys:
    @SETTINGS
    @given(st.lists(st.tuples(side, side), max_size=30))
    def test_same_keys_key_order_and_member_order(self, pairs):
        replacements = [Replacement(a, b) for a, b in pairs if a != b]
        reference = {}
        for r in replacements:
            reference.setdefault(structure_key(r), []).append(r)
        assert list(partition_by_structure(replacements).items()) == list(
            reference.items()
        )


class _NoMemo(dict):
    """A segment memo that never keeps anything: every pair re-derives."""

    def __setitem__(self, key, value):
        pass


WORDS = ["5", "12", "main", "st", "street", "n", "north", "ave", "Ave", "é"]
value = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)
clusters = st.lists(
    st.lists(value, min_size=2, max_size=4), min_size=1, max_size=3
)
operations = st.lists(
    st.tuples(st.sampled_from(["apply", "refresh"]), st.integers(0, 999)),
    max_size=6,
)


def _store(values, memo):
    table = ClusterTable(["v"])
    for ci, cluster in enumerate(values):
        table.add_cluster(
            f"c{ci}",
            [Record(f"r{ci}_{i}", {"v": v}) for i, v in enumerate(cluster)],
        )
    store = ReplacementStore(table, "v")
    if not memo:
        store._segments = _NoMemo()
    return store.generate()


def _entries(store):
    return (list(store.pair_entries.items()), list(store.token_entries.items()))


class TestDeriveMemoMatchesRederivation:
    @settings(SETTINGS, max_examples=40)
    @given(clusters, operations)
    def test_entries_equal_after_applies_and_refreshes(self, values, ops):
        memo, plain = _store(values, True), _store(values, False)
        assert _entries(memo) == _entries(plain)
        cells = [
            cell
            for ci in range(memo.table.num_clusters)
            for cell in memo.table.cluster_cells(ci, "v")
        ]
        for op, pick in ops:
            if op == "apply":
                live = memo.replacements()
                if not live:
                    continue
                r = live[pick % len(live)]
                assert memo.apply_replacement(r) == plain.apply_replacement(r)
                assert memo.drain_dead() == plain.drain_dead()
            else:
                memo.refresh_cell(cells[pick % len(cells)])
                plain.refresh_cell(cells[pick % len(cells)])
            assert _entries(memo) == _entries(plain)
