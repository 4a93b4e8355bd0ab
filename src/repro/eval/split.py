"""Train / validation / test splitting (paper Section 5).

The paper's protocol is asymmetric across sources:

- *BCT users* (the recommendation targets): 20 % of each user's readings
  form the **test** set; the remaining 80 % splits again 80/20 into train
  and validation.
- *Anobii users*: 80/20 train/validation, no test set — their role is to
  densify the CF training signal.

Splits are *temporal* per user by default (the most recent readings are
held out), matching how the deployed system would be used: recommend the
next books from the past ones. A uniform-random per-user split is available
for robustness checks.

Readings are de-duplicated to distinct books per user (keeping the first
date) before splitting, so a held-out book is never simultaneously in the
user's training history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.core.interactions import Indexer, InteractionMatrix
from repro.datasets.merged import MergedDataset
from repro.errors import EvaluationError
from repro.rng import derive_rng

SPLIT_ORDERS = ("time", "random")


@dataclass(frozen=True)
class SplitConfig:
    """Parameters of the per-user split."""

    test_fraction: float = 0.2
    val_fraction: float = 0.2
    order: str = "time"
    seed: int | None = None
    """Only used when ``order="random"``."""

    def __post_init__(self) -> None:
        if not 0 < self.test_fraction < 1:
            raise EvaluationError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}"
            )
        if not 0 <= self.val_fraction < 1:
            raise EvaluationError(
                f"val_fraction must be in [0, 1), got {self.val_fraction}"
            )
        if self.order not in SPLIT_ORDERS:
            raise EvaluationError(
                f"order must be one of {SPLIT_ORDERS}, got {self.order!r}"
            )


@dataclass(frozen=True)
class DatasetSplit:
    """The result of :func:`split_readings`."""

    train: InteractionMatrix
    val_items: dict[int, np.ndarray]
    """user index -> validation item indices (all users)."""
    test_items: dict[int, np.ndarray]
    """user index -> test item indices (BCT users only)."""
    bct_user_indices: np.ndarray = field(repr=False)

    @property
    def users(self) -> Indexer:
        return self.train.users

    @property
    def items(self) -> Indexer:
        return self.train.items

    def train_sizes(self, user_indices: np.ndarray) -> np.ndarray:
        """Distinct training books per user — the Fig. 4 grouping variable."""
        sizes = self.train.user_history_sizes()
        return sizes[np.asarray(user_indices, dtype=np.int64)]


def split_readings(
    merged: MergedDataset, config: SplitConfig | None = None
) -> DatasetSplit:
    """Split a merged dataset per the paper's protocol (module docstring).

    Array operations throughout: one sort de-duplicates the readings to
    distinct ``(user, book)`` pairs with their first date and event
    multiplicity (re-borrows), a second orders each user's books by
    ``(first date, book)``, and the per-user cut sizes come from
    :func:`_cut_sizes`. The split is decided on distinct books;
    multiplicity flows into the training matrix so popularity reflects
    loan events, as in the raw Loans table. ``order="random"`` shuffles
    each user's time-ordered books with one ``rng.permutation`` per user,
    users taken in order of their first reading.
    """
    config = config or SplitConfig()
    users = Indexer(merged.user_ids)
    items = Indexer(int(b) for b in merged.books["book_id"])
    readings = merged.readings
    n_users, n_items = len(users), len(items)
    user_of_reading = users.indices_of(readings["user_id"].tolist())
    item_of_reading = items.indices_of(readings["book_id"].tolist())
    dates = readings["read_date"]

    # Distinct (user, book) pairs in key order, each with its first date
    # and its number of readings.
    keys = user_of_reading * np.int64(n_items) + item_of_reading
    by_key = np.lexsort((dates, keys))
    sorted_keys = keys[by_key]
    starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
    pair_users, pair_items = np.divmod(sorted_keys[starts], np.int64(n_items))
    pair_dates = dates[by_key[starts]]
    multiplicity = np.diff(np.append(starts, len(keys)))

    # Each user's books in reading order: a contiguous run of `ranked`.
    ranked = np.lexsort((pair_items, pair_dates, pair_users))
    per_user = np.bincount(pair_users, minlength=n_users)
    offsets = np.concatenate(([0], np.cumsum(per_user)))
    user_order = _first_seen(user_of_reading)
    if config.order == "random":
        rng = derive_rng(config.seed, "split")
        for user_index in user_order:
            run = ranked[offsets[user_index]:offsets[user_index + 1]]
            run[:] = run[rng.permutation(len(run))]

    bct_indices = np.sort(users.indices_of(list(merged.bct_user_ids)))
    test_fraction = np.zeros(n_users)
    test_fraction[bct_indices] = config.test_fraction
    n_train, n_val = _cut_sizes(per_user, test_fraction, config.val_fraction)
    rank = np.empty(len(ranked), dtype=np.int64)
    rank[ranked] = np.arange(len(ranked)) - offsets[pair_users[ranked]]
    rank -= n_train[pair_users]
    in_train = rank < 0
    in_val = (rank >= 0) & (rank < n_val[pair_users])

    train_csr = sparse.csr_matrix(
        (
            multiplicity[in_train].astype(np.float64),
            pair_items[in_train],
            np.concatenate(
                ([0], np.cumsum(np.bincount(pair_users[in_train], minlength=n_users)))
            ),
        ),
        shape=(n_users, n_items),
    )
    return DatasetSplit(
        train=InteractionMatrix(users, items, train_csr),
        val_items=_runs_by_user(pair_users[in_val], pair_items[in_val], user_order),
        test_items=_runs_by_user(
            pair_users[~in_train & ~in_val], pair_items[~in_train & ~in_val], user_order
        ),
        bct_user_indices=bct_indices,
    )


def _runs_by_user(
    users: np.ndarray, items: np.ndarray, user_order: np.ndarray
) -> dict[int, np.ndarray]:
    """``user -> items`` from (user, item)-sorted pairs, users with no pair
    dropped, keys inserted in ``user_order``."""
    lows = np.searchsorted(users, user_order, side="left").tolist()
    highs = np.searchsorted(users, user_order, side="right").tolist()
    return {
        user: items[low:high]
        for user, low, high in zip(user_order.tolist(), lows, highs)
        if high > low
    }


def _first_seen(user_of_reading: np.ndarray) -> np.ndarray:
    """Distinct user indices in order of their first reading."""
    _, first = np.unique(user_of_reading, return_index=True)
    return user_of_reading[np.sort(first)]


def _cut_sizes(
    n: np.ndarray, test_fraction: np.ndarray, val_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Train and validation sizes of ordered reading lists of lengths ``n``;
    the rest of each list is its test part.

    The most recent ``test_fraction`` goes to test, then the most recent
    ``val_fraction`` of the remainder to validation. Every split keeps at
    least one training item; holdouts get at least one item only when the
    list is long enough to afford it.
    """
    n_test = (n * test_fraction).astype(np.int64)
    n_test[(test_fraction > 0) & (n_test == 0) & (n >= 3)] = 1
    remaining = n - n_test
    n_val = (remaining * val_fraction).astype(np.int64)
    if val_fraction > 0:
        n_val[(n_val == 0) & (remaining >= 3)] = 1
    n_train = n - n_test - n_val
    short = n_train < 1
    n_train[short] = 1
    n_val[short] = np.maximum(0, remaining[short] - 1)
    return n_train, n_val
