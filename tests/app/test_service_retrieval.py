"""Service-level retrieval-tier tests: IVF serving, shard-backed scoring,
batch coalescing, the recall gauge, and the cache/model swap race."""

import numpy as np
import pytest

from repro.app.service import (
    RETRIEVAL_EXACT,
    RETRIEVAL_IVF,
    RecommendationRequest,
    RecommendationService,
)
from repro.core.bpr import BPR
from repro.core.most_read import MostReadItems
from repro.errors import ConfigurationError
from repro.retrieval.ivf import default_probe_cells
from repro.retrieval.shards import UserShardStore, write_user_shards

from tests.conftest import TINY_BPR

K = 10


@pytest.fixture(scope="module")
def exact_service(tiny_bpr, tiny_split, tiny_merged):
    return RecommendationService(
        tiny_bpr, tiny_split.train, tiny_merged, cache_size=0
    )


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, tiny_bpr):
    root = tmp_path_factory.mktemp("service-shards") / "user-shards"
    return write_user_shards(root, tiny_bpr.user_factors, n_shards=6)


@pytest.fixture(scope="module")
def user_ids(tiny_split):
    return [str(uid) for uid in tiny_split.train.users.ids[:40]]


def serve_lists(service, user_ids, k=K):
    return [
        [book.book_id for book in service.recommend(
            RecommendationRequest(user_id=user_id, k=k)
        )]
        for user_id in user_ids
    ]


def batch_lists(service, user_ids, k=K):
    return [
        [book.book_id for book in books]
        for books in service.recommend_many(
            [RecommendationRequest(user_id=uid, k=k) for uid in user_ids]
        )
    ]


class TestProbeAllEquivalence:
    def test_probe_all_single_requests_match_exact(
        self, tiny_bpr, tiny_split, tiny_merged, exact_service, user_ids
    ):
        probe_all = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0,
            retrieval=RETRIEVAL_IVF, probe_cells=tiny_split.train.n_items,
        )
        assert serve_lists(probe_all, user_ids) == serve_lists(
            exact_service, user_ids
        )

    def test_probe_all_batches_match_exact(
        self, tiny_bpr, tiny_split, tiny_merged, exact_service, user_ids
    ):
        probe_all = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0,
            retrieval=RETRIEVAL_IVF, probe_cells=tiny_split.train.n_items,
        )
        assert batch_lists(probe_all, user_ids) == serve_lists(
            exact_service, user_ids
        )


class TestShardStoreEquivalence:
    def test_shard_single_requests_match_exact(
        self, tiny_bpr, tiny_split, tiny_merged, exact_service, store_root,
        user_ids,
    ):
        sharded = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0,
            user_shards=UserShardStore(store_root, max_resident=2),
        )
        assert serve_lists(sharded, user_ids) == serve_lists(
            exact_service, user_ids
        )

    def test_shard_batches_match_exact_and_stay_bounded(
        self, tiny_bpr, tiny_split, tiny_merged, exact_service, store_root,
        user_ids,
    ):
        store = UserShardStore(store_root, max_resident=2)
        sharded = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0,
            user_shards=store,
        )
        assert batch_lists(sharded, user_ids) == serve_lists(
            exact_service, user_ids
        )
        assert store.stats()["resident"] <= 2

    def test_batches_coalesce_per_shard(
        self, tiny_bpr, tiny_split, tiny_merged, store_root, user_ids
    ):
        store = UserShardStore(store_root, max_resident=2)
        sharded = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0,
            user_shards=store,
        )
        indices = [
            int(tiny_split.train.users.index_of(uid)) for uid in user_ids
        ]
        expected_groups = len({store.shard_of(index) for index in indices})
        batch_lists(sharded, user_ids)
        counters = sharded.metrics_snapshot()["counters"]
        groups = counters["service.retrieval.groups"]["labels"]
        assert groups[f"tier={RETRIEVAL_EXACT}"] == expected_groups

    def test_store_user_count_must_match_train(
        self, tiny_bpr, tiny_split, tiny_merged, tmp_path
    ):
        root = write_user_shards(
            tmp_path / "wrong", tiny_bpr.user_factors[:-1], n_shards=2
        )
        with pytest.raises(ConfigurationError):
            RecommendationService(
                tiny_bpr, tiny_split.train, tiny_merged,
                user_shards=UserShardStore(root),
            )


class TestIVFServing:
    def test_health_reports_the_active_tier(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0,
            retrieval=RETRIEVAL_IVF,
        )
        retrieval = service.health()["retrieval"]
        assert retrieval["requested"] == RETRIEVAL_IVF
        assert retrieval["active"] == RETRIEVAL_IVF
        assert retrieval["cells"] >= 1
        assert retrieval["probe_cells"] == default_probe_cells(
            retrieval["cells"]
        )

    def test_ivf_responses_are_full_and_unseen(
        self, tiny_bpr, tiny_split, tiny_merged, user_ids
    ):
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0,
            retrieval=RETRIEVAL_IVF,
        )
        train = tiny_split.train
        for user_id in user_ids[:10]:
            books = service.recommend(
                RecommendationRequest(user_id=user_id, k=K)
            )
            assert len(books) == K
            seen = {
                int(train.items.id_of(int(item)))
                for item in train.user_items(
                    int(train.users.index_of(user_id))
                )
            }
            assert not seen & {book.book_id for book in books}

    def test_tier_counters_move(
        self, tiny_bpr, tiny_split, tiny_merged, user_ids
    ):
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0,
            retrieval=RETRIEVAL_IVF,
        )
        serve_lists(service, user_ids[:5])
        counters = service.metrics_snapshot()["counters"]
        requests = counters["service.retrieval.requests"]["labels"]
        assert requests[f"tier={RETRIEVAL_IVF}"] == 5
        assert counters["service.retrieval.candidates"]["value"] > 0

    def test_recall_gauge_follows_measurement(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0,
            retrieval=RETRIEVAL_IVF, seed=5,
        )
        recall = service.measure_retrieval_recall(k=10, sample_users=16)
        assert 0.0 <= recall <= 1.0
        gauges = service.metrics_snapshot()["gauges"]
        assert gauges["service.retrieval.recall_at_k"]["value"] == recall

    def test_exact_serving_reports_recall_one(self, exact_service):
        assert exact_service.measure_retrieval_recall() == 1.0

    def test_factor_less_model_serves_exactly(
        self, tiny_split, tiny_merged
    ):
        most_read = MostReadItems().fit(tiny_split.train, tiny_merged)
        service = RecommendationService(
            most_read, tiny_split.train, tiny_merged, cache_size=0,
            retrieval=RETRIEVAL_IVF,
        )
        retrieval = service.health()["retrieval"]
        assert retrieval["requested"] == RETRIEVAL_IVF
        assert retrieval["active"] == RETRIEVAL_EXACT
        user_id = str(tiny_split.train.users.ids[0])
        assert service.recommend(RecommendationRequest(user_id=user_id, k=5))

    def test_invalid_configuration_rejected(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        for kwargs in (
            {"retrieval": "annoy"},
            {"probe_cells": 0},
            {"ivf_cells": 0},
        ):
            with pytest.raises(ConfigurationError):
                RecommendationService(
                    tiny_bpr, tiny_split.train, tiny_merged, **kwargs
                )

    def test_probe_cells_clamped_to_cell_count(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0,
            retrieval=RETRIEVAL_IVF, probe_cells=10_000,
        )
        assert service.probe_cells == service.health()["retrieval"]["cells"]


class TestRefresh:
    def test_refresh_rebuilds_the_index_and_drops_the_store(
        self, tiny_bpr, tiny_split, tiny_merged, store_root
    ):
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0,
            retrieval=RETRIEVAL_IVF,
            user_shards=UserShardStore(store_root, max_resident=2),
        )
        retrained = BPR(TINY_BPR).fit(tiny_split.train, tiny_merged)
        service.refresh_model(retrained, model_version="v2")
        retrieval = service.health()["retrieval"]
        assert retrieval["active"] == RETRIEVAL_IVF
        assert retrieval["shards"] is None  # old rows belong to the old model
        user_id = str(tiny_split.train.users.ids[0])
        response = service.recommend_response(
            RecommendationRequest(user_id=user_id, k=5)
        )
        assert response.model_version == "v2"

    def test_refresh_keeps_a_matching_store(
        self, tiny_bpr, tiny_split, tiny_merged, tmp_path
    ):
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0
        )
        retrained = BPR(TINY_BPR).fit(tiny_split.train, tiny_merged)
        root = write_user_shards(
            tmp_path / "fresh", retrained.user_factors, n_shards=3
        )
        service.refresh_model(
            retrained, user_shards=UserShardStore(root)
        )
        assert service.health()["retrieval"]["shards"]["n_shards"] == 3

    def test_refresh_rejects_mismatched_store(
        self, tiny_bpr, tiny_split, tiny_merged, tmp_path
    ):
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, cache_size=0
        )
        root = write_user_shards(
            tmp_path / "short", tiny_bpr.user_factors[:-1], n_shards=2
        )
        with pytest.raises(ConfigurationError):
            service.refresh_model(
                tiny_bpr, user_shards=UserShardStore(root)
            )


class SwapDuringScore(BPR):
    """A model that hot-swaps the service mid-request (the race window)."""

    service = None
    replacement = None
    fired = False

    def recommend(self, user_index, k):
        items = super().recommend(user_index, k)
        if not SwapDuringScore.fired:
            SwapDuringScore.fired = True
            SwapDuringScore.service.refresh_model(
                SwapDuringScore.replacement, model_version="v2"
            )
        return items


class TestCacheSwapRace:
    def test_in_flight_response_never_enters_the_fresh_cache(
        self, tiny_split, tiny_merged
    ):
        """A response resolved against model v1 must not be cached after
        refresh_model swapped in v2 — the v(N)/v(N+1) provenance race."""
        racer = SwapDuringScore(TINY_BPR).fit(tiny_split.train, tiny_merged)
        replacement = BPR(TINY_BPR).fit(tiny_split.train, tiny_merged)
        service = RecommendationService(
            racer, tiny_split.train, tiny_merged, cache_size=64,
            model_version="v1",
        )
        SwapDuringScore.service = service
        SwapDuringScore.replacement = replacement
        SwapDuringScore.fired = False
        user_id = str(tiny_split.train.users.ids[0])
        request = RecommendationRequest(user_id=user_id, k=5)

        first = service.recommend_response(request)
        # The swap happened mid-request: the response keeps the version
        # that scored it, and the stale list was NOT cached.
        assert first.model_version == "v1"
        assert not first.from_cache
        assert service.cached_entries == 0

        second = service.recommend_response(request)
        assert second.model_version == "v2"
        assert not second.from_cache  # freshly scored by v2
        assert service.cached_entries == 1

        third = service.recommend_response(request)
        assert third.from_cache
        assert third.model_version == "v2"
        assert [b.book_id for b in third.books] == [
            b.book_id for b in second.books
        ]


class SwapAfterBatch:
    """Wraps a model so one batch scoring call hot-swaps the service right
    after the scores are computed and before the responses are stamped
    (the single-request case is :class:`SwapDuringScore`)."""

    def __init__(self, model, service_ref, replacement, version):
        self._model = model
        self._service_ref = service_ref
        self._replacement = replacement
        self._version = version
        self.fired = False

    def __getattr__(self, name):
        return getattr(self._model, name)

    def recommend_batch(self, user_indices, k):
        lists = self._model.recommend_batch(user_indices, k)
        if not self.fired:
            self.fired = True
            self._service_ref[0].refresh_model(
                self._replacement, model_version=self._version
            )
        return lists


class TestStampIsTheScoringVersion:
    """A response is stamped with the version of the model that scored
    it, even when a hot swap lands between scoring and stamping."""

    def test_batch(self, tiny_bpr, tiny_split, tiny_merged, user_ids):
        replacement = BPR(TINY_BPR).fit(tiny_split.train, tiny_merged)
        service_ref = []
        racer = SwapAfterBatch(tiny_bpr, service_ref, replacement, "B")
        service = RecommendationService(
            racer, tiny_split.train, tiny_merged, cache_size=0,
            model_version="A",
        )
        service_ref.append(service)
        responses = service.recommend_many_responses(
            [RecommendationRequest(user_id=uid, k=K) for uid in user_ids[:8]]
        )
        assert racer.fired and service.model_version == "B"
        assert [r.model_version for r in responses] == ["A"] * 8
        expected = tiny_bpr.recommend_batch(np.arange(8), K)
        for response, items in zip(responses, expected):
            assert [b.book_id for b in response.books] == [
                int(tiny_split.train.items.id_of(int(i))) for i in items
            ]

    def test_fallback_takes_the_current_version(
        self, tiny_bpr, tiny_split, tiny_merged
    ):
        """A response no model scored (cold start) is stamped with the
        version current when it resolved."""
        service = RecommendationService(
            tiny_bpr, tiny_split.train, tiny_merged, model_version="A",
            cold_start_fallback=MostReadItems().fit(tiny_split.train),
        )
        service.refresh_model(tiny_bpr, model_version="B")
        response = service.recommend_response(
            RecommendationRequest(user_id="no-such-reader", k=K)
        )
        assert response.model_version == "B"
