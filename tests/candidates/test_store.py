"""Tests for candidate generation and Section 7.1 maintenance."""

import pytest

from repro.candidates.generate import generate_candidates
from repro.align.tokenize import replace_token_run as _replace_token_segment
from repro.config import Config
from repro.core.replacement import Replacement
from repro.data.table import CellRef, ClusterTable, Record


def make_table(*clusters, column="name"):
    table = ClusterTable([column])
    for ci, values in enumerate(clusters):
        table.add_cluster(
            f"c{ci}",
            [Record(f"r{ci}_{ri}", {column: v}) for ri, v in enumerate(values)],
        )
    return table


@pytest.fixture
def paper_table():
    """Table 1's Name column."""
    return make_table(
        ["Mary Lee", "M. Lee", "Lee, Mary"],
        ["Smith, James", "James Smith", "J. Smith"],
    )


class TestGeneration:
    def test_both_directions_generated(self, paper_table):
        store = generate_candidates(paper_table, "name")
        assert Replacement("Mary Lee", "M. Lee") in store
        assert Replacement("M. Lee", "Mary Lee") in store

    def test_twelve_full_value_candidates(self, paper_table):
        """Section 3: Table 1's Name column yields 12 candidates."""
        store = generate_candidates(
            paper_table, "name", Config(token_level_candidates=False)
        )
        assert len(store.replacements()) == 12

    def test_no_candidates_across_clusters(self, paper_table):
        store = generate_candidates(paper_table, "name")
        assert Replacement("Mary Lee", "James Smith") not in store

    def test_identical_values_skipped(self):
        table = make_table(["same", "same", "other"])
        store = generate_candidates(table, "name")
        assert Replacement("same", "other") in store
        assert len(store.cell_pairs(Replacement("same", "other"))) == 2

    def test_token_level_appendix_a_example(self):
        """Appendix A: '9 St, 02141 Wisconsin' vs '9th St, 02141 WI'
        produces the four fine-grained candidates."""
        table = make_table(["9 St, 02141 Wisconsin", "9th St, 02141 WI"],
                           column="address")
        store = generate_candidates(table, "address")
        for lhs, rhs in [
            ("9", "9th"), ("9th", "9"), ("Wisconsin", "WI"), ("WI", "Wisconsin"),
        ]:
            assert Replacement(lhs, rhs) in store

    def test_token_cells_point_at_lhs_cell(self):
        table = make_table(["9 St", "9th St"], column="address")
        store = generate_candidates(table, "address")
        cells = store.token_cells(Replacement("9", "9th"))
        assert cells == {CellRef(0, 0, "address")}

    def test_support_counts_everything(self, paper_table):
        store = generate_candidates(paper_table, "name")
        assert store.support(Replacement("Mary Lee", "M. Lee")) >= 1

    def test_empty_cluster_values_ignored(self):
        table = make_table(["", "x"], column="name")
        store = generate_candidates(table, "name")
        assert len(store.replacements()) == 0


class TestApplication:
    def test_full_value_apply(self, paper_table):
        store = generate_candidates(paper_table, "name")
        changed = store.apply_replacement(Replacement("Lee, Mary", "Mary Lee"))
        assert changed == [CellRef(0, 2, "name")]
        assert paper_table.value(CellRef(0, 2, "name")) == "Mary Lee"

    def test_apply_only_at_generated_places(self):
        """Footnote 1: not every 'St' is 'Street' — replacements apply
        only where they were generated."""
        table = make_table(["9 St", "9 Street"], ["5 St", "5 Saint"],
                           column="address")
        store = generate_candidates(table, "address")
        store.apply_replacement(Replacement("St", "Street"))
        # Cluster 0's 'St' changed; cluster 1's 'St' -> 'Street' was
        # generated from the pair with 'Saint'?  No: 'St'->'Saint' and
        # 'St'->'Street' are different replacements; only the first
        # cluster generated 'St'->'Street'.
        assert table.value(CellRef(0, 0, "address")) == "9 Street"
        assert table.value(CellRef(1, 0, "address")) == "5 St"

    def test_token_level_apply(self):
        table = make_table(
            ["9 St, 02141 Wisconsin", "9th St, 02141 WI"], column="address"
        )
        store = generate_candidates(table, "address")
        store.apply_replacement(Replacement("Wisconsin", "WI"))
        assert table.value(CellRef(0, 0, "address")) == "9 St, 02141 WI"

    def test_apply_is_idempotent_when_value_changed(self, paper_table):
        store = generate_candidates(paper_table, "name")
        r = Replacement("Lee, Mary", "Mary Lee")
        store.apply_replacement(r)
        assert store.apply_replacement(r) == []


class TestSection71Maintenance:
    def test_paper_walkthrough(self, paper_table):
        """Section 7.1's worked example: after v1 -> v2 is applied,
        v1 -> v3 becomes v2 -> v3 and v2 -> v1 disappears."""
        store = generate_candidates(
            paper_table, "name", Config(token_level_candidates=False)
        )
        v1, v2, v3 = "Mary Lee", "M. Lee", "Lee, Mary"
        store.apply_replacement(Replacement(v1, v2))
        # v1 is gone from the cluster:
        assert Replacement(v2, v1) not in store
        assert Replacement(v1, v3) not in store
        # the places that generated v1 -> v3 now support v2 -> v3:
        assert CellRef(0, 0, "name") in {
            pair[0] for pair in store.cell_pairs(Replacement(v2, v3))
        }

    def test_dead_replacements_drained(self, paper_table):
        store = generate_candidates(
            paper_table, "name", Config(token_level_candidates=False)
        )
        store.apply_replacement(Replacement("Mary Lee", "M. Lee"))
        dead = store.drain_dead()
        assert Replacement("M. Lee", "Mary Lee") in dead
        assert store.drain_dead() == set()  # drained once

    def test_no_new_replacement_keys_appear(self, paper_table):
        """Section 7.1: updates only add entries under existing keys."""
        store = generate_candidates(paper_table, "name")
        before = set(store.replacements())
        store.apply_replacement(Replacement("Lee, Mary", "Mary Lee"))
        after = set(store.replacements())
        assert after <= before

    def test_values_converge_under_repeated_application(self, paper_table):
        store = generate_candidates(paper_table, "name")
        for replacement in [
            Replacement("Lee, Mary", "Mary Lee"),
            Replacement("M. Lee", "Mary Lee"),
        ]:
            store.apply_replacement(replacement)
        assert set(paper_table.cluster_values(0, "name")) == {"Mary Lee"}
        # All intra-cluster candidates of cluster 0 are gone.
        for r in store.replacements():
            pairs = store.cell_pairs(r)
            assert all(p[0].cluster != 0 for p in pairs) or not pairs


class TestTokenSegmentReplace:
    def test_replaces_whole_token_runs_only(self):
        assert _replace_token_segment("9th Stone", "St", "Street") is None

    def test_replaces_first_occurrence(self):
        assert _replace_token_segment("a b a", "a", "c") == "c b a"

    def test_multi_token_segment(self):
        assert (
            _replace_token_segment("kip irvine, tony gaddis", "tony gaddis", "t. g.")
            == "kip irvine, t. g."
        )

    def test_absent_segment(self):
        assert _replace_token_segment("a b", "z", "y") is None

    def test_longer_segment_than_value(self):
        assert _replace_token_segment("a", "a b c", "x") is None
