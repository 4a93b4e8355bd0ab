"""Tests for the tiered training kernels (``repro.core.bpr_kernel``).

The anchor of the whole tier system is the bit-identity of the
``reference`` kernel with the pre-refactor trainer: ``_FrozenTrainer``
below is a verbatim copy of the historical ``BPR._fit`` inner loop
(including the original overflow-prone sigmoid), and the reference
kernel must reproduce its factors exactly for the WARP sampler and to
within float ulps for the uniform sampler (whose sigmoid was
intentionally replaced by the overflow-safe form). The frozen trainer
keeps its own sorted-key ``searchsorted`` sampler, so the bit-equality
also checks the packed seen-item bitset against an independent
membership test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bpr import BPR, BPRConfig
from repro.core.bpr_kernel import (
    RESAMPLE_ROUNDS,
    fork_sharing_available,
    predraw_candidates,
    sample_unseen,
    scatter_add,
    shared_empty,
    stable_neg_sigmoid,
)
from repro.core.interactions import InteractionMatrix, bitset_contains
from repro.errors import ConfigurationError
from repro.rng import derive_rng, make_rng

from tests.core.test_bpr import block_world
from tests.core.test_interactions import matrix_of, read_matrices
from tests.oracles import interaction_keys, searchsorted_contains


class _FrozenTrainer:
    """The pre-refactor BPR SGD loop, frozen verbatim for bit-identity.

    Copied from the historical ``BPR._fit``/``_train_batch``/
    ``_sample_unseen``/``_apply_updates`` (minus telemetry, which never
    touched the RNG or the arithmetic). Do not modernise this code —
    its whole value is staying bit-equal to the pre-PR trainer.
    """

    def __init__(self, config):
        self.config = config

    def fit(self, train):
        cfg = self.config
        rng = derive_rng(cfg.seed, "bpr", "sgd")
        n_users, n_items = train.n_users, train.n_items
        scale = 1.0 / np.sqrt(cfg.n_factors)
        V = rng.normal(0.0, scale, size=(n_users, cfg.n_factors))
        P = rng.normal(0.0, scale, size=(n_items, cfg.n_factors))
        pos_users, pos_items = train.positive_pairs()
        seen_keys = interaction_keys(train)
        for _ in range(cfg.epochs):
            order = rng.permutation(len(pos_users))
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                self._train_batch(
                    V, P, pos_users[batch], pos_items[batch],
                    seen_keys, n_items, rng,
                )
        return V, P

    def _train_batch(self, V, P, users, items, seen_keys, n_items, rng):
        cfg = self.config
        batch = len(users)
        Vu = V[users]
        pos_scores = np.einsum("ij,ij->i", Vu, P[items])

        if cfg.sampler == "uniform":
            negatives = self._sample_unseen(users, seen_keys, n_items, rng)
            neg_scores = np.einsum("ij,ij->i", Vu, P[negatives])
            x = pos_scores - neg_scores
            weight = 1.0 / (1.0 + np.exp(x))  # the historical naive sigmoid
            self._apply_updates(V, P, users, items, negatives, weight)
            return

        negatives = np.zeros(batch, dtype=np.int64)
        trials = np.zeros(batch, dtype=np.int64)
        unresolved = np.ones(batch, dtype=bool)
        for trial in range(1, cfg.max_trials + 1):
            active = np.flatnonzero(unresolved)
            if active.size == 0:
                break
            candidates = self._sample_unseen(
                users[active], seen_keys, n_items, rng
            )
            cand_scores = np.einsum("ij,ij->i", Vu[active], P[candidates])
            violating = cand_scores > pos_scores[active] - cfg.margin
            hit = active[violating]
            negatives[hit] = candidates[violating]
            trials[hit] = trial
            unresolved[hit] = False
        resolved = trials > 0
        if not resolved.any():
            return
        rank_estimate = np.maximum((n_items - 1) / trials[resolved], 1.0)
        weight = np.log1p(rank_estimate) / np.log1p(n_items - 1)
        self._apply_updates(
            V, P, users[resolved], items[resolved], negatives[resolved], weight
        )

    def _sample_unseen(self, users, seen_keys, n_items, rng):
        candidates = rng.integers(0, n_items, size=len(users), dtype=np.int64)
        for _ in range(4):
            keys = users * np.int64(n_items) + candidates
            positions = np.searchsorted(seen_keys, keys)
            positions = np.minimum(positions, len(seen_keys) - 1)
            seen = seen_keys[positions] == keys
            if not seen.any():
                break
            candidates[seen] = rng.integers(
                0, n_items, size=int(seen.sum()), dtype=np.int64
            )
        return candidates

    def _apply_updates(self, V, P, users, items, negatives, weight):
        cfg = self.config
        lr = cfg.learning_rate
        reg = cfg.regularization
        Vu = V[users]
        diff = P[items] - P[negatives]
        w = weight[:, None]
        np.add.at(V, users, lr * (w * diff - reg * Vu))
        np.add.at(P, items, lr * (w * Vu - reg * P[items]))
        np.add.at(P, negatives, lr * (-w * Vu - reg * P[negatives]))


def _block_preference(model, train):
    """Mean score gap of a block-0 user's unseen own-block items over the
    other block's — positive once the model has learned the structure."""
    scores = model.score_users(np.asarray([0]))[0]
    own = np.arange(0, train.n_items // 2)
    other = np.arange(train.n_items // 2, train.n_items)
    seen = set(train.user_items(0).tolist())
    own_unseen = [i for i in own if i not in seen]
    return scores[own_unseen].mean() - scores[other].mean()


class TestReferenceBitIdentity:
    def test_warp_bit_identical_to_pre_refactor_trainer(self):
        train = block_world()
        config = BPRConfig(epochs=4, seed=11, sampler="warp")
        frozen_V, frozen_P = _FrozenTrainer(config).fit(train)
        model = BPR(config).fit(train)
        assert np.array_equal(model.user_factors, frozen_V)
        assert np.array_equal(model.item_factors, frozen_P)

    def test_uniform_matches_pre_refactor_trainer_to_ulps(self):
        """The uniform path's one intentional change is the overflow-safe
        sigmoid, bit-identical for non-positive margins and within float
        ulps elsewhere — so the factors agree to tight tolerance."""
        train = block_world()
        config = BPRConfig(epochs=4, seed=11, sampler="uniform")
        frozen_V, frozen_P = _FrozenTrainer(config).fit(train)
        model = BPR(config).fit(train)
        np.testing.assert_allclose(model.user_factors, frozen_V, rtol=1e-10)
        np.testing.assert_allclose(model.item_factors, frozen_P, rtol=1e-10)

    def test_reference_is_the_default_kernel(self):
        assert BPRConfig().kernel == "reference"


class TestPinnedFactors:
    """Fitted factors for fixed seeds equal the values the sorted-key
    sampler produced before the seen-item bitset replaced it.

    The fingerprints (sum and absolute sum of each factor matrix) were
    recorded from that earlier trainer. Any change in a membership
    answer redirects the RNG stream and moves them at the 1e-2 level;
    the tolerances only absorb last-digit differences in BLAS/einsum
    summation order across CPUs.
    """

    @pytest.mark.parametrize(
        "world, config, expected, rtol",
        [
            (
                {}, BPRConfig(epochs=4, seed=11),
                [1.8526880353765784, 208.6124734705918,
                 -2.514059658014622, 161.58801083705666],
                1e-9,
            ),
            (
                {}, BPRConfig(epochs=4, seed=11, sampler="uniform"),
                [-2.372993160097562, 155.64604023430223,
                 -2.5116949688003, 115.0307197998867],
                1e-9,
            ),
            (
                {}, BPRConfig(epochs=4, seed=5, kernel="fast"),
                [-3.7880912008695304, 202.72156319534406,
                 -9.983356672804803, 159.85835500946268],
                1e-5,
            ),
            (
                {}, BPRConfig(epochs=4, seed=5, kernel="fast", sampler="uniform"),
                [-2.169881211128086, 156.02883067680523,
                 -9.982206185348332, 113.36574017070234],
                1e-5,
            ),
            (
                # 41 x 31 = 1271 cells: the bitset's last byte is partial.
                {"n_users": 41, "n_items": 31, "seed": 4},
                BPRConfig(epochs=4, seed=11),
                [-9.154090682089288, 203.43340175194993,
                 -0.5419148130999645, 162.50315715447076],
                1e-9,
            ),
            (
                {"n_users": 41, "n_items": 31, "seed": 4},
                BPRConfig(epochs=4, seed=5, kernel="fast"),
                [3.378208170644939, 205.36749508138746,
                 -9.463917448651046, 167.08552319323644],
                1e-5,
            ),
        ],
    )
    def test_factors_match_the_sorted_key_trainer(
        self, world, config, expected, rtol
    ):
        model = BPR(config).fit(block_world(**world))
        V = model.user_factors.astype(np.float64)
        P = model.item_factors.astype(np.float64)
        fingerprint = [V.sum(), np.abs(V).sum(), P.sum(), np.abs(P).sum()]
        np.testing.assert_allclose(fingerprint, expected, rtol=rtol)


class TestStableSigmoid:
    def test_no_overflow_for_large_inputs(self):
        # The naive 1 / (1 + exp(x)) overflows (an error under the
        # suite's filterwarnings) beyond x ~ 709.
        x = np.array([-1e4, -710.0, 0.0, 710.0, 1e4])
        out = stable_neg_sigmoid(x)
        assert np.all(np.isfinite(out))
        assert out[0] == 1.0 and out[-1] == 0.0

    def test_bit_identical_to_naive_for_non_positive_x(self):
        x = -np.linspace(0.0, 500.0, 1001)
        assert np.array_equal(stable_neg_sigmoid(x), 1.0 / (1.0 + np.exp(x)))

    def test_close_to_naive_for_positive_x(self):
        x = np.linspace(1e-6, 500.0, 1001)
        np.testing.assert_allclose(
            stable_neg_sigmoid(x), 1.0 / (1.0 + np.exp(x)), rtol=1e-15
        )

    def test_preserves_float32(self):
        out = stable_neg_sigmoid(np.array([-2.0, 3.0], dtype=np.float32))
        assert out.dtype == np.float32


class TestScatterAdd:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_accumulates_duplicates_like_add_at(self, dtype):
        rng = make_rng(0)
        target = rng.normal(size=(50, 8))
        indices = rng.integers(0, 50, size=400)
        updates = rng.normal(size=(400, 8))
        expected = target.copy()
        np.add.at(expected, indices, updates)
        actual = target.astype(dtype)
        scatter_add(actual, indices, updates.astype(dtype))
        # float32 input rounds each update once; the accumulation itself
        # runs in float64 inside np.bincount.
        np.testing.assert_allclose(actual, expected, rtol=1e-4, atol=1e-5)

    def test_rows_without_updates_untouched(self):
        target = np.ones((10, 3))
        scatter_add(target, np.array([2, 2]), np.full((2, 3), 0.5))
        assert np.array_equal(target[2], [2.0, 2.0, 2.0])
        untouched = np.delete(target, 2, axis=0)
        assert np.array_equal(untouched, np.ones((9, 3)))


class TestSampleUnseen:
    def test_keys_past_the_last_read_cell_are_kept(self):
        """The last user's keys lie beyond every read cell but item 2, up
        to the bitset's final byte; unseen draws there must be kept
        verbatim, without reading out of bounds."""
        train = InteractionMatrix.from_pairs(
            [("u0", 0), ("u0", 1)] + [(f"u{u}", 2) for u in range(1, 10)]
        )
        seen_bits = train.seen_bitset()
        users = np.full(64, train.n_users - 1, dtype=np.int64)
        rng = make_rng(7)
        candidates = sample_unseen(users, seen_bits, train.n_items, rng)
        # Bit-reproduce the draw: nothing that user reads beyond item 2,
        # so the first draw must be kept verbatim wherever it is unseen.
        expected = make_rng(7).integers(
            0, train.n_items, size=64, dtype=np.int64
        )
        seen = set(train.user_items(train.n_users - 1).tolist())
        kept = np.array([item not in seen for item in expected])
        assert np.array_equal(candidates[kept], expected[kept])

    def test_all_but_one_item_read_never_raises_and_can_find_it(self):
        """A user who has read everything except one item exercises the
        collision path hard; the sampler must terminate after its redraw
        rounds and at least sometimes land on the single unseen item."""
        n_items = 12
        unseen_item = 7
        pairs = [("u0", i) for i in range(n_items) if i != unseen_item]
        pairs += [("u1", unseen_item)]  # so the item exists in the matrix
        train = InteractionMatrix.from_pairs(pairs)
        seen_bits = train.seen_bitset()
        users = np.zeros(256, dtype=np.int64)
        candidates = sample_unseen(
            users, seen_bits, train.n_items, make_rng(3)
        )
        assert np.all((candidates >= 0) & (candidates < train.n_items))
        assert (candidates == unseen_item).any()

    def test_collision_survivors_keep_their_last_draw(self):
        """After the redraw rounds a still-colliding candidate is kept:
        the pinned no-op semantics (positive vs itself trains down to
        the regularisation pull) rather than a loop or an error."""
        # One user, two items, both read: every draw collides forever.
        train = InteractionMatrix.from_pairs([("u0", 0), ("u0", 1)])
        seen_bits = train.seen_bitset()
        users = np.zeros(32, dtype=np.int64)
        rng = make_rng(1)
        candidates = sample_unseen(users, seen_bits, train.n_items, rng)
        # Reproduce the RNG stream: initial draw + RESAMPLE_ROUNDS full
        # redraws (every candidate collides every round).
        mirror = make_rng(1)
        expected = mirror.integers(0, 2, size=32, dtype=np.int64)
        for _ in range(RESAMPLE_ROUNDS):
            expected = mirror.integers(0, 2, size=32, dtype=np.int64)
        assert np.array_equal(candidates, expected)


    @settings(deadline=None, max_examples=100)
    @given(read_matrices(), st.integers(0, 2**16))
    def test_matches_the_sorted_key_sampler(self, dense, seed):
        """Same candidates and same RNG position as the searchsorted
        sampler, on generated matrices with the membership edges."""
        matrix = matrix_of(dense)
        seen_keys = interaction_keys(matrix)
        n_items = matrix.n_items
        users = np.repeat(np.arange(matrix.n_users, dtype=np.int64), 4)
        rng = make_rng(seed)
        candidates = sample_unseen(users, matrix.seen_bitset(), n_items, rng)
        mirror = make_rng(seed)
        expected = mirror.integers(0, n_items, size=len(users), dtype=np.int64)
        for _ in range(RESAMPLE_ROUNDS):
            seen = searchsorted_contains(seen_keys, users * n_items + expected)
            if not seen.any():
                break
            expected[seen] = mirror.integers(
                0, n_items, size=int(seen.sum()), dtype=np.int64
            )
        assert np.array_equal(candidates, expected)
        assert rng.integers(2**62) == mirror.integers(2**62)


class TestPredrawCandidates:
    def test_valid_entries_are_unseen(self):
        train = block_world()
        seen_bits = train.seen_bitset()
        users = np.arange(train.n_users, dtype=np.int64)
        candidates, valid = predraw_candidates(
            users, seen_bits, train.n_items, 16, make_rng(5)
        )
        assert candidates.shape == (train.n_users, 16)
        assert valid.shape == candidates.shape
        for row, user in enumerate(users):
            seen = set(train.user_items(int(user)).tolist())
            for col in range(16):
                if valid[row, col]:
                    assert int(candidates[row, col]) not in seen
                else:
                    assert int(candidates[row, col]) in seen

    def test_deterministic_given_rng(self):
        train = block_world()
        seen_bits = train.seen_bitset()
        users = np.arange(train.n_users, dtype=np.int64)
        first = predraw_candidates(
            users, seen_bits, train.n_items, 8, make_rng(9)
        )
        second = predraw_candidates(
            users, seen_bits, train.n_items, 8, make_rng(9)
        )
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


class TestFastKernel:
    @pytest.mark.parametrize("sampler", ["warp", "uniform"])
    def test_learns_block_structure(self, sampler):
        train = block_world()
        model = BPR(
            BPRConfig(epochs=15, seed=0, sampler=sampler, kernel="fast")
        ).fit(train)
        assert model.user_factors.dtype == np.float32
        assert _block_preference(model, train) > 0

    def test_deterministic_given_seed(self):
        train = block_world()
        first = BPR(BPRConfig(epochs=3, seed=5, kernel="fast")).fit(train)
        second = BPR(BPRConfig(epochs=3, seed=5, kernel="fast")).fit(train)
        assert np.array_equal(first.user_factors, second.user_factors)

    def test_converges_to_reference_kpi_level(self):
        """The converged-KPI equivalence contract: both kernels must
        learn the block structure decisively from the same config."""
        train = block_world()
        config = BPRConfig(epochs=15, seed=0)
        reference = BPR(config).fit(train)
        from dataclasses import replace

        fast = BPR(replace(config, kernel="fast")).fit(train)
        assert _block_preference(reference, train) > 0
        assert _block_preference(fast, train) > 0


class TestConfigTiers:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel"):
            BPRConfig(kernel="turbo")

    @pytest.mark.parametrize("workers", [0, -2])
    def test_bad_worker_counts_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            BPRConfig(workers=workers, kernel="fast")

    def test_hogwild_requires_fast_kernel(self):
        with pytest.raises(ConfigurationError, match="fast"):
            BPRConfig(workers=2, kernel="reference")


@pytest.mark.skipif(
    not fork_sharing_available(), reason="hogwild needs the fork start method"
)
class TestHogwild:
    def test_learns_block_structure(self):
        train = block_world()
        model = BPR(
            BPRConfig(epochs=15, seed=0, kernel="fast", workers=2)
        ).fit(train)
        assert model.user_factors.dtype == np.float32
        assert _block_preference(model, train) > 0

    def test_factors_are_plain_arrays(self):
        """Fitted factors must not alias the shared mmap buffers."""
        train = block_world()
        model = BPR(
            BPRConfig(epochs=2, seed=0, kernel="fast", workers=2)
        ).fit(train)
        assert model.user_factors.base is None
        assert model.item_factors.base is None

    def test_all_cpus_spelling(self):
        train = block_world()
        model = BPR(
            BPRConfig(epochs=2, seed=0, kernel="fast", workers=-1)
        ).fit(train)
        assert model.user_factors.shape == (train.n_users, 20)


class TestSharedEmpty:
    def test_shape_dtype_and_writability(self):
        array = shared_empty((3, 4), np.float32)
        assert array.shape == (3, 4)
        assert array.dtype == np.float32
        array[:] = 7.0
        assert float(array.sum()) == 84.0

    def test_zero_size(self):
        array = shared_empty((0, 4), np.float32)
        assert array.shape == (0, 4)
