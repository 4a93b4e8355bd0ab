"""Small, slow, obviously correct oracles for the vectorised production code.

Each function here is an earlier loop-based form of a ``src/`` routine,
kept only so tests can check the array version against an independent
implementation:

- :func:`interaction_keys` / :func:`searchsorted_contains` — the sorted
  ``user * n_items + item`` key array and its binary-search membership
  test, which the BPR sampler used before the packed seen-item bitset;
- :func:`split_readings_loop` / :func:`cut` — the per-user dict-and-sort
  form of :func:`repro.eval.split.split_readings`.
"""

from __future__ import annotations

import numpy as np

from repro.core.interactions import Indexer, InteractionMatrix
from repro.datasets.merged import MergedDataset
from repro.eval.split import DatasetSplit, SplitConfig
from repro.rng import derive_rng


def interaction_keys(matrix: InteractionMatrix) -> np.ndarray:
    """Sorted ``user * n_items + item`` keys of the read cells."""
    rows, cols = matrix.positive_pairs()
    return np.sort(rows * np.int64(matrix.n_items) + cols)


def searchsorted_contains(seen_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in sorted ``seen_keys`` by binary search.

    A key larger than every entry lands at ``len(seen_keys)``; the
    position is clamped to the last entry, whose key cannot match.
    """
    if len(seen_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    positions = np.minimum(np.searchsorted(seen_keys, keys), len(seen_keys) - 1)
    return seen_keys[positions] == keys


def split_readings_loop(
    merged: MergedDataset, config: SplitConfig | None = None
) -> DatasetSplit:
    """The per-user loop form of :func:`repro.eval.split.split_readings`."""
    config = config or SplitConfig()
    users = Indexer(merged.user_ids)
    items = Indexer(int(b) for b in merged.books["book_id"])
    bct_users = set(merged.bct_user_ids)

    first_date: dict[tuple[int, int], np.datetime64] = {}
    event_count: dict[tuple[int, int], int] = {}
    for user_id, book_id, read_date in zip(
        merged.readings["user_id"],
        merged.readings["book_id"],
        merged.readings["read_date"],
    ):
        key = (users.index_of(str(user_id)), items.index_of(int(book_id)))
        event_count[key] = event_count.get(key, 0) + 1
        if key not in first_date or read_date < first_date[key]:
            first_date[key] = read_date

    per_user: dict[int, list[tuple[np.datetime64, int]]] = {}
    for (user_index, item_index), date in first_date.items():
        per_user.setdefault(user_index, []).append((date, item_index))

    rng = derive_rng(config.seed, "split") if config.order == "random" else None
    train_pairs: list[tuple[str, int]] = []
    val_items: dict[int, np.ndarray] = {}
    test_items: dict[int, np.ndarray] = {}
    for user_index, dated in per_user.items():
        ordered = [item for _, item in sorted(dated, key=lambda p: (p[0], p[1]))]
        if rng is not None:
            ordered = [ordered[i] for i in rng.permutation(len(ordered))]
        is_bct = users.id_of(user_index) in bct_users
        train_part, val_part, test_part = cut(
            ordered, config.test_fraction if is_bct else 0.0, config.val_fraction
        )
        user_id = str(users.id_of(user_index))
        for item_index in train_part:
            multiplicity = event_count[(user_index, item_index)]
            train_pairs.extend(
                [(user_id, items.id_of(item_index))] * multiplicity
            )
        if val_part:
            val_items[user_index] = np.asarray(sorted(val_part), dtype=np.int64)
        if test_part:
            test_items[user_index] = np.asarray(sorted(test_part), dtype=np.int64)

    train = InteractionMatrix.from_pairs(train_pairs, users=users, items=items)
    bct_indices = np.asarray(
        sorted(users.index_of(u) for u in bct_users), dtype=np.int64
    )
    return DatasetSplit(
        train=train,
        val_items=val_items,
        test_items=test_items,
        bct_user_indices=bct_indices,
    )


def cut(
    ordered: list[int], test_fraction: float, val_fraction: float
) -> tuple[list[int], list[int], list[int]]:
    """Split an ordered reading list into train / val / test tails."""
    n = len(ordered)
    n_test = int(n * test_fraction)
    if test_fraction > 0 and n_test == 0 and n >= 3:
        n_test = 1
    remaining = n - n_test
    n_val = int(remaining * val_fraction)
    if val_fraction > 0 and n_val == 0 and remaining >= 3:
        n_val = 1
    n_train = n - n_test - n_val
    if n_train < 1:
        n_train, n_val = 1, max(0, remaining - 1)
    train = ordered[:n_train]
    val = ordered[n_train:n_train + n_val]
    test = ordered[n_train + n_val:]
    return train, val, test
