"""Small, obviously correct oracles the benchmark checks outputs against.

Each check returns True when the program's output is right; the caller
counts every False as a failed operation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.interactions import InteractionMatrix
from repro.eval.split import DatasetSplit
from repro.pipeline.merge import MergeConfig

#: Relative score tolerance inside which two items count as tied, so a
#: last-bit difference between batched and single scoring is no failure.
#: Scores from float32 factors get a tolerance set from float32's epsilon.
RTOL = 1e-9

#: Users scored per matrix product, bounding the oracle's memory.
_CHUNK = 256


def top_k_ok(scores: np.ndarray, seen: np.ndarray, served: np.ndarray, k: int,
             rtol: float = RTOL) -> bool:
    """Whether ``served`` is the seen-masked exact top-``k`` of ``scores``.

    Orders that differ only between scores tied within ``rtol`` pass.
    """
    scores = np.asarray(scores, dtype=np.float64).copy()
    scores[seen] = -np.inf
    served = np.asarray(served, dtype=np.int64)
    unseen = np.isfinite(scores)
    n = int(unseen.sum())
    if len(served) != min(k, n) or len(np.unique(served)) != len(served):
        return False
    if len(served) == 0:
        return True
    if served.min() < 0 or served.max() >= len(scores):
        return False
    got = scores[served]
    if not np.isfinite(got).all():
        return False
    tol = rtol * (1.0 + float(np.abs(scores[unseen]).max()))
    if np.any(np.diff(got) > tol):
        return False
    kth_best = -np.partition(-scores[unseen], len(served) - 1)[len(served) - 1]
    return bool(got.min() >= kth_best - tol)


def popular_ok(counts: np.ndarray, served: np.ndarray, k: int) -> bool:
    """Whether ``served`` is a most-read top-``k`` list (cold-start users)."""
    return top_k_ok(counts, np.zeros(0, dtype=np.int64), served, k)


class FactorOracle:
    """Exact seen-masked top-k over one model version's factor matrices."""

    def __init__(self, user_factors: np.ndarray, item_factors: np.ndarray,
                 train: InteractionMatrix) -> None:
        self.user_factors = np.asarray(user_factors, dtype=np.float64)
        self.item_factors = np.asarray(item_factors, dtype=np.float64)
        self.train = train
        self._item_index = {int(b): i for i, b in enumerate(train.items.ids)}
        self.rtol = RTOL
        if np.float32 in (np.asarray(user_factors).dtype, np.asarray(item_factors).dtype):
            # A float32 dot product of n terms is off by up to ~n ulps.
            self.rtol = 4 * self.item_factors.shape[1] * float(np.finfo(np.float32).eps)

    def positions(self, book_ids) -> np.ndarray:
        """Item indices of book ids; -1 for a book outside the catalogue."""
        return np.asarray([self._item_index.get(int(b), -1) for b in book_ids], dtype=np.int64)

    def check(self, rows: np.ndarray, book_lists: list, k: int) -> np.ndarray:
        """One verdict per (user row, served book ids) pair."""
        rows = np.asarray(rows, dtype=np.int64)
        verdicts = np.zeros(len(rows), dtype=bool)
        for start in range(0, len(rows), _CHUNK):
            scores = self.user_factors[rows[start:start + _CHUNK]] @ self.item_factors.T
            for offset, row in enumerate(rows[start:start + _CHUNK]):
                verdicts[start + offset] = top_k_ok(
                    scores[offset], self.train.user_items(int(row)),
                    self.positions(book_lists[start + offset]), k, self.rtol,
                )
        return verdicts


def split_partitions(merged_readings, split: DatasetSplit) -> bool:
    """Train, validation and test partition the distinct readings exactly,
    and training counts equal each pair's reading events."""
    n_items = split.train.n_items
    users = split.users.indices_of(list(merged_readings["user_id"]))
    items = split.items.indices_of(list(merged_readings["book_id"]))
    pairs, events = np.unique(users * n_items + items, return_counts=True)

    csr = split.train.csr
    rows = np.repeat(np.arange(split.train.n_users), np.diff(csr.indptr))
    train = rows * n_items + csr.indices
    held = [
        np.concatenate([u * n_items + np.asarray(v) for u, v in part.items()] or [[]])
        for part in (split.val_items, split.test_items)
    ]
    union = np.concatenate([train] + held).astype(np.int64)
    if len(np.unique(union)) != len(union) or not np.array_equal(np.sort(union), pairs):
        return False
    order = np.argsort(train)
    expected = events[np.searchsorted(pairs, train[order])]
    if not np.array_equal(np.asarray(csr.data)[order], expected):
        return False
    bct = set(split.bct_user_indices.tolist())
    return all(int(u) in bct for u in split.test_items)


def floors_ok(merged, prefilter: dict[str, np.ndarray], config: MergeConfig) -> bool:
    """Every kept user and book clears its floor on the unfiltered counts,
    and the kept readings are exactly the unfiltered ones that do."""
    codes = prefilter["user_codes"]
    books = prefilter["book_ids"]
    distinct = np.unique(codes * (int(books.max()) + 1) + books) // (int(books.max()) + 1)
    user_ok = np.bincount(distinct, minlength=len(prefilter["user_ids"])) >= config.min_user_readings
    book_ids, book_codes, book_events = np.unique(books, return_inverse=True, return_counts=True)
    book_ok = book_events >= config.min_book_readings
    expected = int((user_ok[codes] & book_ok[book_codes]).sum())
    if merged.readings.num_rows != expected:
        return False
    kept_users = _positions(
        prefilter["user_ids"], np.unique(np.asarray(merged.readings["user_id"], dtype=str))
    )
    kept_books = _positions(book_ids, np.asarray(merged.books["book_id"], dtype=np.int64))
    if kept_users is None or kept_books is None:
        return False
    return bool(user_ok[kept_users].all() and book_ok[kept_books].all())


def _positions(sorted_ids: np.ndarray, values: np.ndarray) -> np.ndarray | None:
    """Indices of ``values`` in ``sorted_ids``; None if any is missing."""
    if len(sorted_ids) == 0:
        return None if len(values) else values.astype(np.int64)
    positions = np.minimum(np.searchsorted(sorted_ids, values), len(sorted_ids) - 1)
    return positions if np.array_equal(sorted_ids[positions], values) else None


def kpis_finite(report) -> bool:
    values = (report.urr, report.nrr, report.precision, report.recall, report.first_rank)
    return all(math.isfinite(v) for v in values) and 0.0 <= report.urr <= 1.0
