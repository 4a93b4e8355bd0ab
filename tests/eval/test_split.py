"""Tests for the per-user temporal split."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.merged import MergedDataset
from repro.datasets.models import (
    BOOK_GENRES_SCHEMA,
    MERGED_BOOKS_SCHEMA,
    READINGS_SCHEMA,
)
from repro.errors import EvaluationError
from repro.eval.split import SplitConfig, _cut_sizes, split_readings
from repro.tables import Table

from tests.oracles import cut, split_readings_loop


def _cut(ordered, test_fraction, val_fraction):
    """One list cut by the production :func:`_cut_sizes`."""
    n_train, n_val = _cut_sizes(
        np.asarray([len(ordered)]), np.asarray([test_fraction]), val_fraction
    )
    held = int(n_train[0] + n_val[0])
    return ordered[:int(n_train[0])], ordered[int(n_train[0]):held], ordered[held:]


class TestSplitConfigValidation:
    def test_test_fraction_bounds(self):
        with pytest.raises(EvaluationError):
            SplitConfig(test_fraction=0.0)
        with pytest.raises(EvaluationError):
            SplitConfig(test_fraction=1.0)

    def test_val_fraction_bounds(self):
        with pytest.raises(EvaluationError):
            SplitConfig(val_fraction=1.0)

    def test_order_values(self):
        with pytest.raises(EvaluationError):
            SplitConfig(order="chronological")


class TestCut:
    def test_standard_fractions(self):
        train, val, test = _cut(list(range(20)), 0.2, 0.2)
        assert len(test) == 4
        assert len(val) == 3  # 20% of the remaining 16
        assert len(train) == 13

    def test_holdouts_are_most_recent(self):
        train, val, test = _cut(list(range(10)), 0.2, 0.2)
        assert test == [8, 9]
        assert val == [7]  # 20% of the remaining 8, floored
        assert max(train) < min(val) < min(test)

    def test_tiny_list_keeps_a_training_item(self):
        train, val, test = _cut([1, 2], 0.2, 0.2)
        assert len(train) >= 1

    def test_minimum_holdout_for_three_items(self):
        train, val, test = _cut([1, 2, 3], 0.2, 0.2)
        assert len(test) == 1

    def test_no_test_for_anobii_users(self):
        train, val, test = _cut(list(range(10)), 0.0, 0.2)
        assert test == []
        assert len(val) == 2

    def test_partition_complete(self):
        items = list(range(17))
        train, val, test = _cut(items, 0.2, 0.2)
        assert sorted(train + val + test) == items

    @pytest.mark.parametrize("test_fraction", [0.0, 0.01, 0.2, 0.5, 0.99])
    @pytest.mark.parametrize("val_fraction", [0.0, 0.01, 0.2, 0.5, 0.99])
    def test_sizes_match_the_loop_cut(self, test_fraction, val_fraction):
        n = np.arange(1, 120)
        n_train, n_val = _cut_sizes(n, np.full(len(n), test_fraction), val_fraction)
        for length, train, val in zip(n.tolist(), n_train, n_val):
            expected = cut(list(range(length)), test_fraction, val_fraction)
            assert (train, val) == (len(expected[0]), len(expected[1]))


class TestSplitReadings:
    def test_only_bct_users_have_test(self, tiny_split):
        for user_index in tiny_split.test_items:
            assert str(tiny_split.users.id_of(user_index)).startswith("bct_")

    def test_every_bct_user_has_test(self, tiny_split, tiny_merged):
        assert len(tiny_split.test_items) == len(tiny_merged.bct_user_ids)

    def test_anobii_users_have_validation(self, tiny_split):
        anobii_with_val = sum(
            1
            for user in tiny_split.val_items
            if str(tiny_split.users.id_of(user)).startswith("anobii_")
        )
        assert anobii_with_val > 0

    def test_holdouts_disjoint_from_train(self, tiny_split):
        for user_index, held in list(tiny_split.test_items.items())[:50]:
            train_items = set(tiny_split.train.user_items(user_index).tolist())
            assert not train_items & set(held.tolist())
        for user_index, held in list(tiny_split.val_items.items())[:50]:
            train_items = set(tiny_split.train.user_items(user_index).tolist())
            assert not train_items & set(held.tolist())

    def test_val_test_disjoint(self, tiny_split):
        for user_index, test in tiny_split.test_items.items():
            val = tiny_split.val_items.get(user_index)
            if val is not None:
                assert not set(val.tolist()) & set(test.tolist())

    def test_test_items_are_latest_reads(self, tiny_split, tiny_merged):
        """Temporal split: every test book's first read date is >= every
        train book's first read date for that user."""
        first_date = {}
        for user, book, day in zip(
            tiny_merged.readings["user_id"],
            tiny_merged.readings["book_id"],
            tiny_merged.readings["read_date"],
        ):
            key = (str(user), int(book))
            if key not in first_date or day < first_date[key]:
                first_date[key] = day
        checked = 0
        for user_index, test in list(tiny_split.test_items.items())[:30]:
            user_id = str(tiny_split.users.id_of(user_index))
            train_items = tiny_split.train.user_items(user_index)
            train_dates = [
                first_date[(user_id, int(tiny_split.items.id_of(int(i))))]
                for i in train_items
            ]
            test_dates = [
                first_date[(user_id, int(tiny_split.items.id_of(int(i))))]
                for i in test
            ]
            assert max(train_dates) <= min(test_dates)
            checked += 1
        assert checked > 0

    def test_train_keeps_event_multiplicity(self, tiny_split, tiny_merged):
        """Re-borrowed train books contribute their full event count."""
        assert tiny_split.train.item_counts().sum() > tiny_split.train.n_interactions

    def test_random_order_split_differs(self, tiny_merged):
        temporal = split_readings(tiny_merged, SplitConfig(order="time"))
        shuffled = split_readings(
            tiny_merged, SplitConfig(order="random", seed=3)
        )
        differing = sum(
            1
            for user in temporal.test_items
            if set(temporal.test_items[user].tolist())
            != set(shuffled.test_items[user].tolist())
        )
        assert differing > 0

    def test_train_sizes(self, tiny_split):
        users = np.asarray(sorted(tiny_split.test_items))
        sizes = tiny_split.train_sizes(users)
        assert (sizes >= 1).all()


@st.composite
def merged_datasets(draw):
    """Small merged datasets: re-borrows, same-day reads, unread books,
    users from both sources, one to a few dozen readings each."""
    book_ids = sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=9)))
    n_users = draw(st.integers(1, 7))
    sources = draw(
        st.lists(st.sampled_from(["bct", "anobii"]), min_size=n_users,
                 max_size=n_users)
    )
    user_ids = [f"{source}_{u}" for u, source in enumerate(sources)]
    readings = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_users - 1),
                st.sampled_from(book_ids),
                st.integers(0, 12),
            ),
            min_size=1,
            max_size=80,
        )
    )
    epoch = np.datetime64("2020-01-01")
    readings_table = Table.from_columns(
        {
            "user_id": [user_ids[u] for u, _, _ in readings],
            "book_id": [book for _, book, _ in readings],
            "read_date": [epoch + np.timedelta64(day, "D") for _, _, day in readings],
            "source": [sources[u] for u, _, _ in readings],
        },
        schema=READINGS_SCHEMA,
    )
    books = Table.from_columns(
        {
            "book_id": book_ids,
            "author": ["a"] * len(book_ids),
            "title": ["t"] * len(book_ids),
            "plot": [""] * len(book_ids),
            "keywords": [""] * len(book_ids),
        },
        schema=MERGED_BOOKS_SCHEMA,
    )
    genres = Table.from_columns(
        {"book_id": [], "genre": [], "probability": []}, schema=BOOK_GENRES_SCHEMA
    )
    return MergedDataset(books=books, readings=readings_table, genres=genres)


class TestSplitMatchesLoopOracle:
    """The array split equals the per-user loop split exactly."""

    @settings(deadline=None, max_examples=150)
    @given(
        merged_datasets(),
        st.sampled_from(["time", "random"]),
        st.sampled_from([0.01, 0.2, 0.5, 0.9]),
        st.sampled_from([0.0, 0.2, 0.5, 0.9]),
        st.integers(0, 2**16),
    )
    def test_generated_datasets(
        self, merged, order, test_fraction, val_fraction, seed
    ):
        config = SplitConfig(
            test_fraction=test_fraction, val_fraction=val_fraction,
            order=order, seed=seed,
        )
        _assert_same_split(split_readings(merged, config),
                           split_readings_loop(merged, config))

    @pytest.mark.parametrize("order", ["time", "random"])
    def test_tiny_world(self, tiny_merged, order):
        config = SplitConfig(order=order, seed=7)
        _assert_same_split(split_readings(tiny_merged, config),
                           split_readings_loop(tiny_merged, config))


def _assert_same_split(actual, expected):
    assert actual.users == expected.users and actual.items == expected.items
    for name in ("indptr", "indices", "data"):
        got = getattr(actual.train.csr, name)
        want = getattr(expected.train.csr, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert actual.train.csr.shape == expected.train.csr.shape
    for name in ("val_items", "test_items"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert list(got) == list(want), name
        for user in want:
            assert got[user].dtype == want[user].dtype
            assert np.array_equal(got[user], want[user]), (name, user)
    assert actual.bct_user_indices.dtype == expected.bct_user_indices.dtype
    assert np.array_equal(actual.bct_user_indices, expected.bct_user_indices)
