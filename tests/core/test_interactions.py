"""Tests for Indexer and InteractionMatrix."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from repro.core.interactions import Indexer, InteractionMatrix, bitset_contains
from repro.errors import DatasetError, UnknownUserError

from tests.oracles import interaction_keys, searchsorted_contains


@st.composite
def read_matrices(draw):
    """Dense boolean user x item read matrices with the membership edges:
    any cell count (multiples of 8 or not), the last cell set, an empty
    user row, and a user who has read all but one item."""
    n_users = draw(st.integers(1, 9))
    n_items = draw(st.integers(1, 11))
    cells = draw(
        st.lists(st.booleans(), min_size=n_users * n_items,
                 max_size=n_users * n_items)
    )
    dense = np.array(cells, dtype=bool).reshape(n_users, n_items)
    row = draw(st.integers(0, n_users - 1))
    edge = draw(st.sampled_from(["none", "last_cell", "empty_row", "all_but_one"]))
    if edge == "last_cell":
        dense[-1, -1] = True
    elif edge == "empty_row":
        dense[row] = False
    elif edge == "all_but_one":
        dense[row] = True
        dense[row, draw(st.integers(0, n_items - 1))] = False
    return dense


def matrix_of(dense: np.ndarray) -> InteractionMatrix:
    """An InteractionMatrix over exactly ``dense``'s users and items
    (empty rows and columns included)."""
    n_users, n_items = dense.shape
    return InteractionMatrix(
        Indexer(f"u{u:02d}" for u in range(n_users)),
        Indexer(range(n_items)),
        sparse.csr_matrix(dense.astype(np.float64)),
    )


class TestIndexer:
    def test_sorted_assignment(self):
        indexer = Indexer(["b", "a", "c", "a"])
        assert indexer.ids == ("a", "b", "c")
        assert indexer.index_of("b") == 1
        assert indexer.id_of(0) == "a"

    def test_contains(self):
        indexer = Indexer([1, 2])
        assert 1 in indexer and 9 not in indexer

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            Indexer(["a"]).index_of("zzz")

    def test_equality(self):
        assert Indexer([2, 1]) == Indexer([1, 2, 2])

    def test_indices_of(self):
        indexer = Indexer(["a", "b", "c"])
        assert indexer.indices_of(["c", "a"]).tolist() == [2, 0]

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(0, 50), min_size=1))
    def test_property_bijection(self, values):
        indexer = Indexer(values)
        for i in range(len(indexer)):
            assert indexer.index_of(indexer.id_of(i)) == i

    def test_indices_of_empty(self):
        result = Indexer(["a"]).indices_of([])
        assert result.dtype == np.int64 and len(result) == 0

    def test_indices_of_unknown_raises(self):
        indexer = Indexer([10, 20, 30])
        # Between two known ids, and beyond the last one (clamp path).
        with pytest.raises(KeyError):
            indexer.indices_of([10, 15])
        with pytest.raises(KeyError):
            indexer.indices_of([99])

    def test_indices_of_unsortable_ids_fall_back(self):
        # Tuple ids become a 2-D numpy array, so the searchsorted path is
        # unusable; the dict fallback must still resolve them.
        indexer = Indexer([("a", 1), ("b", 2)])
        assert indexer.indices_of([("b", 2), ("a", 1)]).tolist() == [1, 0]
        with pytest.raises(KeyError):
            indexer.indices_of([("c", 3)])

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.text(max_size=6), min_size=1, max_size=40))
    def test_property_indices_of_matches_index_of(self, values):
        indexer = Indexer(values)
        queries = list(indexer.ids) + list(reversed(indexer.ids))
        expected = [indexer.index_of(value) for value in queries]
        assert indexer.indices_of(queries).tolist() == expected


class TestInteractionMatrix:
    def test_from_pairs_counts_repeats(self):
        matrix = InteractionMatrix.from_pairs(
            [("u1", 1), ("u1", 1), ("u1", 2), ("u2", 1)]
        )
        assert matrix.n_users == 2 and matrix.n_items == 2
        assert matrix.n_interactions == 3  # distinct pairs
        counts = matrix.item_counts()
        assert counts[matrix.items.index_of(1)] == 3.0  # with multiplicity

    def test_user_items_sorted_indices(self):
        matrix = InteractionMatrix.from_pairs([("u", 5), ("u", 2), ("u", 9)])
        items = matrix.user_items(0)
        assert sorted(items.tolist()) == items.tolist()
        assert len(items) == 3

    def test_user_items_out_of_range(self):
        matrix = InteractionMatrix.from_pairs([("u", 1)])
        with pytest.raises(UnknownUserError):
            matrix.user_items(5)

    def test_history_sizes(self):
        matrix = InteractionMatrix.from_pairs(
            [("a", 1), ("a", 2), ("b", 1), ("a", 1)]
        )
        sizes = matrix.user_history_sizes()
        assert sizes[matrix.users.index_of("a")] == 2
        assert sizes[matrix.users.index_of("b")] == 1

    def test_binary_view(self):
        matrix = InteractionMatrix.from_pairs([("u", 1), ("u", 1)])
        assert matrix.binary().data.tolist() == [1.0]

    def test_positive_pairs_distinct(self):
        matrix = InteractionMatrix.from_pairs(
            [("u", 1), ("u", 1), ("v", 2)]
        )
        rows, cols = matrix.positive_pairs()
        assert len(rows) == 2

    def test_seen_bitset_marks_exactly_the_read_cells(self):
        matrix = InteractionMatrix.from_pairs(
            [("u", 3), ("u", 1), ("v", 2)]
        )
        bits = matrix.seen_bitset()
        # 2 users x 3 items = 6 cells pack into one byte; items 1, 2, 3
        # map to columns 0, 1, 2, so u reads cells 0 and 2, v reads cell 4.
        assert bits.dtype == np.uint8
        assert bits.tolist() == [0b00010101]
        cells = np.arange(matrix.n_users * matrix.n_items, dtype=np.int64)
        assert np.flatnonzero(bitset_contains(bits, cells)).tolist() == [0, 2, 4]

    def test_shared_indexers_align(self, tiny_merged):
        users = Indexer(tiny_merged.user_ids)
        items = Indexer(int(b) for b in tiny_merged.books["book_id"])
        matrix = InteractionMatrix.from_readings_table(
            tiny_merged.readings, users=users, items=items
        )
        assert matrix.n_users == len(users)
        assert matrix.n_items == len(items)

    def test_shape_mismatch_rejected(self):
        from scipy import sparse

        with pytest.raises(DatasetError):
            InteractionMatrix(
                Indexer(["u"]), Indexer([1, 2]), sparse.csr_matrix((5, 5))
            )

    def test_restrict_users(self):
        matrix = InteractionMatrix.from_pairs(
            [("a", 1), ("b", 2), ("c", 1), ("c", 2)]
        )
        sub = matrix.restrict_users(
            np.asarray([matrix.users.index_of("c"), matrix.users.index_of("a")])
        )
        assert sub.n_users == 2
        assert sub.items == matrix.items
        # Row for "a" must still contain item 1 only.
        a_items = sub.user_items(sub.users.index_of("a"))
        assert a_items.tolist() == [matrix.items.index_of(1)]
        c_items = sub.user_items(sub.users.index_of("c"))
        assert len(c_items) == 2


_LAST_CELL = np.zeros((3, 5), dtype=bool)
_LAST_CELL[-1, -1] = True
_EMPTY_ROW = np.ones((3, 7), dtype=bool)
_EMPTY_ROW[1] = False
_ALL_BUT_ONE = np.eye(5, 9, dtype=bool)
_ALL_BUT_ONE[2] = True
_ALL_BUT_ONE[2, 4] = False


class TestSeenBitset:
    @settings(deadline=None, max_examples=200)
    @given(read_matrices())
    @example(_LAST_CELL)
    @example(_EMPTY_ROW)
    @example(_ALL_BUT_ONE)
    @example(np.zeros((1, 1), dtype=bool))
    def test_membership_equals_sorted_key_searchsorted(self, dense):
        matrix = matrix_of(dense)
        bits = matrix.seen_bitset()
        n_cells = dense.size
        assert len(bits) == -(-n_cells // 8)
        cells = np.arange(n_cells, dtype=np.int64)
        expected = searchsorted_contains(interaction_keys(matrix), cells)
        assert np.array_equal(bitset_contains(bits, cells), expected)
        assert np.array_equal(expected, dense.ravel())
        # The padding bits past the last cell stay clear.
        padding = np.arange(n_cells, 8 * len(bits), dtype=np.int64)
        assert not bitset_contains(bits, padding).any()
