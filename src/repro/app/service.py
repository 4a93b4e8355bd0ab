"""The recommendation service behind the Reading&Machine GUI.

The paper's application shows each library user a list of k = 20 books
("a good trade-off between the quality of recommendations and the
prevention of users' choice overload"). This module provides that request
path over any fitted :class:`~repro.core.base.Recommender`: user id in,
book cards out, with latency accounting matching Table 2's methodology.

Serving-scale additions: a bounded LRU cache of served top-k lists keyed
on ``(user_id, k)`` (models are read-only between refreshes, so a user's
list only changes when the model does — :meth:`RecommendationService.refresh_model`
invalidates the cache explicitly), a :meth:`~RecommendationService.recommend_many`
batch endpoint that funnels cache misses through the vectorised
:meth:`~repro.core.base.Recommender.recommend_batch` scoring path, and a
bounded latency window so long-lived services don't grow without limit.

Retrieval: the primary scoring path is tiered (``retrieval="exact"`` or
``"ivf"``). The exact tier scores the whole catalogue; the IVF tier
(:class:`~repro.retrieval.ivf.IVFIndex`) probes ``probe_cells`` k-means
cells and exactly re-ranks the pooled candidates — recall@k traded for
latency, with ``probe_cells >= n_cells`` falling back to the exact
paths bit for bit. An optional
:class:`~repro.retrieval.shards.UserShardStore` replaces the in-memory
user-factor matrix with mmap-backed shards (resident memory stays
O(active shards)); batch requests are coalesced per ``(k, shard)``
group so each shard is touched once and scored in one gathered matmul.
Models without factor matrices (or the ``most-read``/``static`` chain
links) are untouched: they always serve through the exact tier.
``docs/serving.md`` is the operator's guide to all of this.

Lifecycle: :meth:`RecommendationService.refresh_from_store` hot-swaps
the serving model from a versioned
:class:`~repro.app.lifecycle.ModelStore` with zero downtime — the
candidate is loaded, checksum-verified, and validated entirely outside
the service lock, swapped in only on success, and any failure keeps the
current model serving with a counted ``refresh_failed`` stat instead of
an exception. Every response carries the serving version's name as
``model_version`` provenance.

Resilience: the primary model is guarded by a
:class:`~repro.resilience.breaker.CircuitBreaker` and backed by a
degradation chain — primary model → fitted
:class:`~repro.core.most_read.MostReadItems` → a static most-popular
list derived from the training counts. A scoring failure (or an open
breaker, or an expired per-request deadline) degrades the response
instead of failing the request; every response carries a ``served_by``
tag, degradations are counted per source in :class:`ServiceStats`, and
:meth:`RecommendationService.health` reports the whole picture.

Observability: the service owns (or is handed) a
:class:`~repro.obs.metrics.MetricsRegistry` and mirrors every
:class:`ServiceStats` movement into it — request/cache/degradation
counters, breaker state transitions (via
:attr:`~repro.resilience.breaker.CircuitBreaker.on_transition`), and a
shared latency histogram that *is* the percentile source for both
:meth:`ServiceStats.percentile` and :meth:`RecommendationService.health`,
so the two views can never disagree. An optional
:class:`~repro.obs.trace.Tracer` records one span per cache-missed
request and per batch.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.core.base import (
    EXCLUDED_SCORE,
    Recommender,
    _top_k,
    mask_seen_rows,
    top_k_rows,
)
from repro.core.interactions import InteractionMatrix
from repro.core.most_read import MostReadItems
from repro.datasets.merged import MergedDataset
from repro.errors import ConfigurationError, UnknownUserError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.retrieval.ivf import IVFIndex, default_probe_cells, recall_at_k
from repro.retrieval.shards import UserShardStore
from repro.rng import derive_rng
from repro.resilience.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.resilience.retry import BackoffPolicy, Deadline, retry_call

#: The paper's deployed list length.
DEFAULT_K = 20

#: Served top-k lists kept in the LRU cache by default.
DEFAULT_CACHE_SIZE = 1024

#: Per-request latencies kept for percentile reporting by default.
DEFAULT_LATENCY_WINDOW = 10_000

#: ``served_by`` tags, in degradation-chain order.
SERVED_BY_PRIMARY = "primary"
SERVED_BY_MOST_READ = "most-read"
SERVED_BY_STATIC = "static"
SERVED_BY_NONE = "none"

#: Retrieval tiers for primary scoring.
RETRIEVAL_EXACT = "exact"
RETRIEVAL_IVF = "ivf"
RETRIEVAL_TIERS = (RETRIEVAL_EXACT, RETRIEVAL_IVF)

#: Users sampled by :meth:`RecommendationService.measure_retrieval_recall`.
DEFAULT_RECALL_SAMPLE = 64

#: Breaker states encoded for the ``service.breaker_state`` gauge.
_BREAKER_STATE_VALUE = {
    STATE_CLOSED: 0.0,
    STATE_HALF_OPEN: 1.0,
    STATE_OPEN: 2.0,
}


@dataclass(frozen=True)
class RecommendationRequest:
    """One GUI request.

    ``timeout_seconds`` is an optional per-request deadline budget: when
    it runs out before the primary model was invoked, the service answers
    from the degradation chain instead of blocking the GUI.
    """

    user_id: str
    k: int = DEFAULT_K
    timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )


@dataclass(frozen=True)
class ServedBook:
    """One recommended book, as shown on a GUI card."""

    book_id: int
    title: str
    author: str
    rank: int


@dataclass(frozen=True)
class ServedResponse:
    """One answered request, with provenance.

    ``served_by`` names the chain link that produced the list
    (:data:`SERVED_BY_PRIMARY`, :data:`SERVED_BY_MOST_READ`,
    :data:`SERVED_BY_STATIC`, or :data:`SERVED_BY_NONE` when nothing
    could serve it). ``degraded`` is True when a *failure* forced a
    fallback — a cold-start user intentionally served by the popularity
    list is not degraded. ``error`` carries the triggering failure, if
    any, and ``from_cache`` marks LRU hits. ``model_version`` is the
    model-store version name the serving model came from (``None`` when
    the service was built from an in-memory model rather than a
    :class:`~repro.app.lifecycle.ModelStore`).
    """

    books: tuple[ServedBook, ...]
    served_by: str
    degraded: bool = False
    error: str | None = None
    from_cache: bool = False
    model_version: str | None = None


@dataclass
class ServiceStats:
    """Aggregate latency, cache, and degradation accounting.

    Latency percentiles are driven by a single shared
    :class:`~repro.obs.metrics.Histogram` (``latency_window`` bounds its
    raw-observation window, so a long-lived service's memory stays
    constant): :meth:`percentile`, :attr:`latencies`, and the metrics
    registry's ``service.latency_seconds`` series all read the same
    object and cannot disagree. ``degradations`` counts fallback-served
    requests per ``served_by`` source; ``errors`` counts underlying
    failures (which can exceed degradations when retries or multiple
    chain links fail for one request).

    Thread safety: every mutation (:meth:`record`, :meth:`note_cache`,
    :meth:`note_error`, :meth:`note_degraded`) runs under one lock, and
    the shared histogram carries its own, so concurrent serving threads
    never lose an increment — the concurrency suite asserts exact
    counts under contention.
    """

    requests: int = 0
    total_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    latency_window: int = DEFAULT_LATENCY_WINDOW
    errors: int = 0
    last_error: str | None = None
    refreshes: int = 0
    """Successful hot swaps (:meth:`RecommendationService.refresh_from_store`)."""
    refresh_failed: int = 0
    """Rejected hot-swap candidates (corruption, validation, injected
    faults); each one kept the previous model serving."""
    degradations: Counter = field(default_factory=Counter)
    histogram: "Histogram | None" = field(default=None, repr=False)
    """The shared latency histogram; a standalone one is built when the
    stats object is not wired into a registry."""

    def __post_init__(self) -> None:
        if self.latency_window < 1:
            raise ConfigurationError(
                f"latency_window must be >= 1, got {self.latency_window}"
            )
        if self.histogram is None:
            self.histogram = Histogram(
                "service.latency_seconds", window=self.latency_window
            )
        self._lock = threading.Lock()

    @property
    def latencies(self) -> tuple[float, ...]:
        """The retained per-request latencies (histogram window view)."""
        assert self.histogram is not None
        return self.histogram.window

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.requests if self.requests else 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def degraded_requests(self) -> int:
        return int(sum(self.degradations.values()))

    def percentile(self, q: float) -> float:
        assert self.histogram is not None
        return self.histogram.percentile(q)

    def record(self, elapsed: float, requests: int = 1) -> None:
        """Account ``requests`` requests served in ``elapsed`` seconds."""
        assert self.histogram is not None
        with self._lock:
            self.requests += requests
            self.total_seconds += elapsed
        per_request = elapsed / requests if requests else 0.0
        for _ in range(requests):
            self.histogram.observe(per_request)

    def note_cache(self, hit: bool) -> None:
        """Account one cache lookup (``hit=True``) or miss."""
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def note_error(self, error: BaseException | str) -> None:
        """Account one underlying failure, remembering its description."""
        if isinstance(error, BaseException):
            error = f"{type(error).__name__}: {error}"
        with self._lock:
            self.errors += 1
            self.last_error = error

    def note_refresh(self, ok: bool, error: BaseException | str | None = None) -> None:
        """Account one hot-swap attempt; failures remember their cause."""
        if isinstance(error, BaseException):
            error = f"{type(error).__name__}: {error}"
        with self._lock:
            if ok:
                self.refreshes += 1
            else:
                self.refresh_failed += 1
                if error is not None:
                    self.last_error = error

    def note_degraded(self, served_by: str, error: str | None = None) -> None:
        """Account one fallback-served request by its chain link.

        ``error`` (when given) becomes ``last_error`` only if no earlier
        failure was recorded — the first cause is the interesting one.
        """
        with self._lock:
            self.degradations[served_by] += 1
            if error is not None and self.last_error is None:
                self.last_error = error


class RecommendationService:
    """Serve top-k recommendations for library users.

    Args:
        model: a fitted recommender (the *primary* chain link).
        train: the interaction matrix the model was fitted on (provides the
            user indexing and the static most-popular fallback list).
        dataset: the merged dataset (provides titles/authors for cards).
        cold_start_fallback: optional fitted
            :class:`~repro.core.most_read.MostReadItems`; when given,
            unknown users receive the global top-k instead of an error,
            and it is the second link of the degradation chain for
            primary-model failures.
        cache_size: served lists kept in the LRU top-k cache; ``0``
            disables caching. Only healthy (non-degraded) responses are
            cached, so a recovered primary is not shadowed by cached
            fallback lists.
        latency_window: per-request latencies retained for percentile
            reporting.
        breaker: circuit breaker guarding primary scoring (a default
            breaker is built when omitted).
        retry_policy: optional :class:`~repro.resilience.retry.BackoffPolicy`;
            when set, primary scoring failures are retried per the policy
            before degrading.
        degrade_unknown_users: when True, an unknown user without a
            ``cold_start_fallback`` gets the static most-popular list (a
            degraded response) instead of :class:`UnknownUserError`.
        seed: seed for the retry jitter stream (``repro.rng`` semantics).
        clock: injectable monotonic clock for deadlines, staleness, and
            latency accounting.
        retry_sleep: injectable sleep for retry backoff (tests pass a
            no-op or recorder).
        metrics: a :class:`~repro.obs.metrics.MetricsRegistry` to record
            into; the service builds a private one when omitted, so the
            ``service.*`` series always exist.
        tracer: optional :class:`~repro.obs.trace.Tracer`; when set, each
            cache-missed request and each batch gets a span.
        model_version: provenance tag of the serving model (the
            :class:`~repro.app.lifecycle.ModelStore` version name); set
            automatically by :meth:`refresh_from_store` and stamped onto
            every :class:`ServedResponse`.
        retrieval: primary-scoring tier — :data:`RETRIEVAL_EXACT` (full
            catalogue, the default) or :data:`RETRIEVAL_IVF` (probe an
            :class:`~repro.retrieval.ivf.IVFIndex` built over the
            model's item factors, exactly re-rank the candidates).
            ``"ivf"`` with a factor-less model serves exactly — the tier
            is a request, not a promise; :meth:`health` reports which is
            active.
        probe_cells: IVF probe width (default:
            :func:`~repro.retrieval.ivf.default_probe_cells` of the
            built index). ``probe_cells >= n_cells`` serves through the
            exact paths, bit for bit.
        ivf_cells: IVF cell count (default:
            :func:`~repro.retrieval.ivf.default_n_cells`).
        user_shards: optional
            :class:`~repro.retrieval.shards.UserShardStore` holding the
            model's user-factor rows; when set, primary scoring reads
            user vectors through the mmap-backed store instead of the
            in-memory matrix, and batch requests coalesce per
            ``(k, shard)`` group. The store's rows must match the
            serving model (bit-for-bit, for exact-tier identity).

    Thread safety: one service instance may be shared by any number of
    request threads (``scripts/loadgen.py`` drives exactly that). The
    LRU cache and model swap are guarded by a service lock with short
    critical sections — the lock is *never* held across model scoring,
    so cache bookkeeping cannot serialise the actual recommendation
    work. Stats, metrics instruments, and the circuit breaker each
    carry their own locks. :meth:`refresh_model` is atomic with respect
    to concurrent requests: a request observes either the old or the
    new (model, cache) pair, never a mixture.
    """

    def __init__(
        self,
        model: Recommender,
        train: InteractionMatrix,
        dataset: MergedDataset,
        cold_start_fallback: "MostReadItems | None" = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        latency_window: int = DEFAULT_LATENCY_WINDOW,
        breaker: CircuitBreaker | None = None,
        retry_policy: BackoffPolicy | None = None,
        degrade_unknown_users: bool = False,
        seed: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        retry_sleep: Callable[[float], None] = time.sleep,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        model_version: str | None = None,
        retrieval: str = RETRIEVAL_EXACT,
        probe_cells: int | None = None,
        ivf_cells: int | None = None,
        user_shards: UserShardStore | None = None,
    ) -> None:
        if not model.is_fitted:
            raise ConfigurationError(
                f"{model.name} must be fitted before serving"
            )
        if cold_start_fallback is not None and not cold_start_fallback.is_fitted:
            raise ConfigurationError(
                "the cold-start fallback must be fitted before serving"
            )
        if cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        if retrieval not in RETRIEVAL_TIERS:
            raise ConfigurationError(
                f"retrieval must be one of {RETRIEVAL_TIERS}, got {retrieval!r}"
            )
        if probe_cells is not None and probe_cells < 1:
            raise ConfigurationError(
                f"probe_cells must be >= 1, got {probe_cells}"
            )
        if ivf_cells is not None and ivf_cells < 1:
            raise ConfigurationError(
                f"ivf_cells must be >= 1, got {ivf_cells}"
            )
        if user_shards is not None and user_shards.n_users != train.n_users:
            raise ConfigurationError(
                f"user_shards holds {user_shards.n_users} users but the "
                f"training matrix has {train.n_users}"
            )
        self.model = model
        self.train = train
        self.dataset = dataset
        self.cold_start_fallback = cold_start_fallback
        self.cache_size = cache_size
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.retry_policy = retry_policy
        self.degrade_unknown_users = degrade_unknown_users
        self.seed = seed
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.model_version = model_version
        self.retrieval = retrieval
        self.ivf_cells = ivf_cells
        self.user_shards = user_shards
        self._probe_cells_config = probe_cells
        self._m_requests = self.metrics.counter(
            "service.requests", help="requests answered (all paths)"
        )
        self._m_cache = self.metrics.counter(
            "service.cache", help="cache lookups by outcome label"
        )
        self._m_served = self.metrics.counter(
            "service.served", help="responses by served_by source label"
        )
        self._m_degraded = self.metrics.counter(
            "service.degraded", help="degraded responses by source label"
        )
        self._m_errors = self.metrics.counter(
            "service.errors", help="underlying scoring/fallback failures"
        )
        self._m_refreshes = self.metrics.counter(
            "service.refreshes", help="hot-swap attempts by outcome label"
        )
        self._m_breaker_state = self.metrics.gauge(
            "service.breaker_state", help="0=closed, 1=half-open, 2=open"
        )
        self._m_breaker_transitions = self.metrics.counter(
            "service.breaker_transitions", help="state changes by target"
        )
        self._m_retrieval = self.metrics.counter(
            "service.retrieval.requests",
            help="primary scorings by retrieval tier label",
        )
        self._m_retrieval_groups = self.metrics.counter(
            "service.retrieval.groups",
            help="coalesced batch scoring groups by tier label",
        )
        self._m_retrieval_candidates = self.metrics.counter(
            "service.retrieval.candidates",
            help="candidate items scored by the ivf tier",
        )
        self._m_retrieval_cells = self.metrics.gauge(
            "service.retrieval.cells",
            help="cells in the active ivf index (0 = exact serving)",
        )
        self._m_retrieval_recall = self.metrics.gauge(
            "service.retrieval.recall_at_k",
            help="last measured ivf recall@k against the exact tier",
        )
        latency_histogram = self.metrics.histogram(
            "service.latency_seconds", window=latency_window,
            help="per-request service latency",
        )
        self.stats = ServiceStats(
            latency_window=latency_window, histogram=latency_histogram
        )
        self.breaker.on_transition = self._on_breaker_transition
        self._m_breaker_state.set(_BREAKER_STATE_VALUE[self.breaker.state])
        self._clock = clock
        self._retry_sleep = retry_sleep
        self._model_loaded_at = clock()
        self._lock = threading.RLock()
        self._cache: OrderedDict[tuple[str, int], ServedResponse] = OrderedDict()
        # Model-swap generation: bumped by refresh_model so responses
        # resolved against a previous model are never cached afterwards.
        self._swap_token = 0
        self._ivf = self._build_index(model, user_shards)
        self._m_retrieval_cells.set(
            float(self._ivf.n_cells) if self._ivf is not None else 0.0
        )
        # The last chain link: a static popularity order over the training
        # counts, available even when every model object misbehaves.
        counts = train.item_counts().astype(np.float64)
        self._static_order = np.argsort(-counts, kind="stable")
        self._cards: dict[int, tuple[str, str]] = {}
        books = dataset.books
        for book_id, title, author in zip(
            books["book_id"], books["title"], books["author"]
        ):
            self._cards[int(book_id)] = (str(title), str(author))

    def known_user(self, user_id: str) -> bool:
        return user_id in self.train.users

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------

    @property
    def cached_entries(self) -> int:
        """How many served lists the LRU cache currently holds."""
        with self._lock:
            return len(self._cache)

    def invalidate_cache(self) -> None:
        """Drop every cached top-k list (e.g. after retraining)."""
        with self._lock:
            self._cache.clear()

    def refresh_model(
        self,
        model: Recommender,
        train: InteractionMatrix | None = None,
        cold_start_fallback: "MostReadItems | None" = None,
        model_version: str | None = None,
        user_shards: UserShardStore | None = None,
    ) -> None:
        """Swap in a newly fitted model and invalidate the served cache.

        Cached lists are only valid for the model that produced them, so
        any refresh clears the cache explicitly *and* bumps the swap
        token — a request that resolved against the previous model can
        never sneak its stale response into the fresh cache afterwards
        (:meth:`_cache_put` drops it). The breaker is reset because its
        failure history belongs to the previous model. The swap happens
        under the service lock, so a concurrent request sees either the
        old or the new (model, cache) pair. ``model_version`` replaces
        the provenance tag stamped onto responses (``None`` when the new
        model has no store version).

        When IVF retrieval is configured, the new model's index is built
        *before* the lock is taken (in-flight requests keep serving the
        old pair throughout) and swapped in together with the model.
        ``user_shards`` replaces the shard store; when omitted, any
        existing store is dropped — its rows belong to the previous
        model's factors — and scoring falls back to the in-memory
        matrix. Pass a store written from the new model's factors to
        keep shard-backed serving across a refresh.
        """
        if not model.is_fitted:
            raise ConfigurationError(
                f"{model.name} must be fitted before serving"
            )
        if cold_start_fallback is not None and not cold_start_fallback.is_fitted:
            raise ConfigurationError(
                "the cold-start fallback must be fitted before serving"
            )
        effective_train = train if train is not None else self.train
        if (
            user_shards is not None
            and user_shards.n_users != effective_train.n_users
        ):
            raise ConfigurationError(
                f"user_shards holds {user_shards.n_users} users but the "
                f"training matrix has {effective_train.n_users}"
            )
        index = self._build_index(model, user_shards)
        with self._lock:
            self.model = model
            self.model_version = model_version
            if train is not None:
                self.train = train
                counts = train.item_counts().astype(np.float64)
                self._static_order = np.argsort(-counts, kind="stable")
            if cold_start_fallback is not None:
                self.cold_start_fallback = cold_start_fallback
            self.user_shards = user_shards
            self._ivf = index
            self._m_retrieval_cells.set(
                float(index.n_cells) if index is not None else 0.0
            )
            self.breaker.reset()
            self._model_loaded_at = self._clock()
            self._swap_token += 1
            self._cache.clear()

    def refresh_from_store(
        self,
        store,
        version: "str | int | None" = None,
        probe_user: str | None = None,
    ) -> bool:
        """Zero-downtime hot swap from a versioned model store.

        The expensive work — resolving the version, checksum-verified
        loading, and candidate validation (shape/finiteness checks plus a
        smoke-scored probe user) — all happens *outside* the service
        lock, so in-flight requests keep being answered by the current
        model throughout. Only a fully validated candidate is swapped in
        (via :meth:`refresh_model`, under the lock, with the version name
        as the new provenance tag).

        Never raises to callers: any failure — a dangling ``CURRENT``,
        corruption detected by the manifest, an injected IO fault, a
        candidate that fails validation — leaves the current model
        serving, counts one :attr:`ServiceStats.refresh_failed`, and
        returns ``False``.

        Args:
            store: a :class:`~repro.app.lifecycle.ModelStore`.
            version: version name/number to load (default: ``CURRENT``).
            probe_user: user id to smoke-score during validation; default
                is the candidate's first known user.

        Returns:
            True when the candidate was swapped in, False when it was
            rejected (the previous model keeps serving).
        """
        with start_span(
            self.tracer, "service.refresh", version=str(version)
        ) as span:
            try:
                resolved = store.resolve(version)
                candidate, train = store.load(resolved)
                self._validate_candidate(candidate, train, probe_user)
            except Exception as exc:  # repro: allow[exceptions] — degrade, never fail
                self.stats.note_refresh(ok=False, error=exc)
                self._m_refreshes.labels(outcome="failed").inc()
                self._m_errors.inc()
                span.set_attrs(outcome="failed", error=type(exc).__name__)
                return False
            self.refresh_model(candidate, train, model_version=resolved.name)
            self.stats.note_refresh(ok=True)
            self._m_refreshes.labels(outcome="ok").inc()
            span.set_attrs(outcome="ok", version=resolved.name)
            return True

    def _validate_candidate(
        self,
        model: Recommender,
        train: InteractionMatrix,
        probe_user: str | None,
    ) -> None:
        """Reject a hot-swap candidate before it can reach the lock.

        Checks, in order: the model is fitted; its factor matrices (when
        it has any) are finite; and a probe user's recommendation request
        smoke-executes to a non-empty, in-catalogue list. Raises
        :class:`~repro.errors.ConfigurationError` on any failure — the
        caller converts that into a counted, non-raising rejection.
        """
        if not model.is_fitted:
            raise ConfigurationError("hot-swap candidate is not fitted")
        for attr in ("user_factors", "item_factors"):
            factors = getattr(model, attr, None)
            if factors is not None and not np.isfinite(factors).all():
                raise ConfigurationError(
                    f"hot-swap candidate has non-finite {attr}"
                )
        if train.n_users < 1 or train.n_items < 1:
            raise ConfigurationError(
                "hot-swap candidate has an empty catalogue"
            )
        if probe_user is not None:
            if probe_user not in train.users:
                raise ConfigurationError(
                    f"probe user {probe_user!r} is unknown to the candidate"
                )
            probe_index = int(train.users.index_of(probe_user))
        else:
            probe_index = 0
        k = min(DEFAULT_K, train.n_items)
        items = np.asarray(model.recommend(probe_index, k))
        if len(items) == 0:
            raise ConfigurationError(
                "hot-swap candidate served an empty list for the probe user"
            )
        if int(items.min()) < 0 or int(items.max()) >= train.n_items:
            raise ConfigurationError(
                "hot-swap candidate recommended items outside its catalogue"
            )

    def _cache_get(self, key: tuple[str, int]) -> ServedResponse | None:
        if not self.cache_size:
            return None
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
            return cached

    def _cache_put(
        self,
        key: tuple[str, int],
        response: ServedResponse,
        token: int | None = None,
    ) -> None:
        """Insert a healthy response, unless the model moved on.

        ``token`` is the :attr:`_swap_token` captured before the request
        resolved; a mismatch means :meth:`refresh_model` ran in between,
        so the response belongs to the previous model and caching it
        would serve v(N) books under v(N+1) provenance. Such late
        responses are still returned to their requester — they were
        correct when resolved — they just never enter the cache.
        """
        if not self.cache_size or response.degraded or response.error:
            return
        with self._lock:
            if token is not None and token != self._swap_token:
                return
            self._cache[key] = response
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # request paths
    # ------------------------------------------------------------------

    def recommend(self, request: RecommendationRequest) -> list[ServedBook]:
        """Handle one request; the books of :meth:`recommend_response`.

        Unknown users raise :class:`UnknownUserError` unless a cold-start
        fallback was configured (or ``degrade_unknown_users`` is set), in
        which case they get a popularity list.
        """
        return list(self.recommend_response(request).books)

    def recommend_response(self, request: RecommendationRequest) -> ServedResponse:
        """Handle one request, reporting provenance and degradation.

        Served lists are answered from the LRU cache when possible; a
        primary-model failure degrades through the fallback chain instead
        of raising.
        """
        started = self._clock()
        self._m_requests.inc()
        key = (request.user_id, request.k)
        cached = self._cache_get(key)
        if cached is not None:
            self.stats.note_cache(hit=True)
            self._m_cache.labels(outcome="hit").inc()
            self._m_served.labels(source=cached.served_by).inc()
            self.stats.record(self._clock() - started)
            return replace(cached, from_cache=True)
        self.stats.note_cache(hit=False)
        self._m_cache.labels(outcome="miss").inc()
        token = self._swap_token
        with start_span(
            self.tracer, "service.request", user_id=request.user_id,
            k=request.k,
        ) as span:
            try:
                response = self._resolve(request)
            except UnknownUserError:
                self.stats.record(self._clock() - started)
                raise
            span.set_attrs(
                served_by=response.served_by, degraded=response.degraded
            )
        self._account(response)
        self._cache_put(key, response, token)
        self.stats.record(self._clock() - started)
        return response

    def recommend_many(
        self, requests: Sequence[RecommendationRequest]
    ) -> list[list[ServedBook]]:
        """Handle a batch of requests in one scoring pass per distinct k.

        Every request resolves: a request that cannot be served (unknown
        user, no fallback) comes back as an empty list with the error
        recorded on its :class:`ServedResponse` (see
        :meth:`recommend_many_responses`) — it never aborts the batch.
        """
        return [
            list(response.books)
            for response in self.recommend_many_responses(requests)
        ]

    def recommend_many_responses(
        self, requests: Sequence[RecommendationRequest]
    ) -> list[ServedResponse]:
        """Batch variant of :meth:`recommend_response`; never raises.

        Cache hits are answered directly; the remaining known users are
        coalesced into one vectorised scoring call per distinct
        ``(k, shard)`` group (per distinct k when no shard store is
        configured), each counted as one breaker outcome — so a batch
        touches each user shard at most once per k and scores it in one
        gathered matmul. A failed group call degrades its whole group
        through the fallback chain; per-request failures are returned as
        error-marked responses, so one bad request cannot poison the
        rest of the batch.
        """
        started = self._clock()
        self._m_requests.inc(len(requests))
        batch_span = start_span(
            self.tracer, "service.batch", requests=len(requests)
        )
        batch_span.__enter__()
        results: list[ServedResponse | None] = [None] * len(requests)
        pending: dict[tuple[int, int], list[tuple[int, int]]] = {}
        token = self._swap_token
        shards = self.user_shards
        for position, request in enumerate(requests):
            key = (request.user_id, request.k)
            cached = self._cache_get(key)
            if cached is not None:
                self.stats.note_cache(hit=True)
                self._m_cache.labels(outcome="hit").inc()
                self._m_served.labels(source=cached.served_by).inc()
                results[position] = replace(cached, from_cache=True)
                continue
            self.stats.note_cache(hit=False)
            self._m_cache.labels(outcome="miss").inc()
            if self.known_user(request.user_id) and self.breaker.allow():
                user_index = int(self.train.users.index_of(request.user_id))
                shard = (
                    shards.shard_of(user_index) if shards is not None else 0
                )
                pending.setdefault((request.k, shard), []).append(
                    (position, user_index)
                )
                continue
            # Unknown users, and known users behind an open breaker.
            try:
                response = self._resolve(request)
            except UnknownUserError as exc:
                self._note_error(exc)
                response = self._stamped(ServedResponse(
                    books=(),
                    served_by=SERVED_BY_NONE,
                    degraded=True,
                    error=f"{type(exc).__name__}: {exc}",
                ))
                self.stats.note_degraded(SERVED_BY_NONE)
                self._m_degraded.labels(source=SERVED_BY_NONE).inc()
                self._m_served.labels(source=SERVED_BY_NONE).inc()
                results[position] = response
                continue
            self._account(response)
            self._cache_put(key, response, token)
            results[position] = response
        for (k, _shard), entries in pending.items():
            indices = np.asarray([index for _, index in entries], dtype=np.int64)
            try:
                batches, version = self._primary_batch(indices, k)
            except Exception as exc:  # repro: allow[exceptions] — degrade, never fail
                self.breaker.record_failure()
                self._note_error(exc)
                error = f"{type(exc).__name__}: {exc}"
                for position, user_index in entries:
                    items, source = self._fallback_items(user_index, k)
                    response = self._stamped(ServedResponse(
                        books=tuple(self._serve_books(items, k)),
                        served_by=source,
                        degraded=True,
                        error=error,
                    ))
                    self._account(response)
                    results[position] = response
                continue
            self.breaker.record_success()
            for (position, _), items in zip(entries, batches):
                response = ServedResponse(
                    books=tuple(self._serve_books(items, k)),
                    served_by=SERVED_BY_PRIMARY,
                    model_version=version,
                )
                self._account(response)
                self._cache_put((requests[position].user_id, k), response, token)
                results[position] = response
        batch_span.__exit__(None, None, None)
        if requests:
            self.stats.record(self._clock() - started, len(requests))
        return [
            result
            if result is not None
            else ServedResponse(
                books=(), served_by=SERVED_BY_NONE, degraded=True,
                error="request was not resolved",
            )
            for result in results
        ]

    def history(self, user_id: str) -> list[ServedBook]:
        """The user's training history as cards (for the GUI's shelf view)."""
        if not self.known_user(user_id):
            raise UnknownUserError(user_id)
        user_index = self.train.users.index_of(user_id)
        cards = []
        for position, item_index in enumerate(
            self.train.user_items(int(user_index)), start=1
        ):
            book_id = int(self.train.items.id_of(int(item_index)))
            title, author = self._cards.get(book_id, ("(unknown)", "(unknown)"))
            cards.append(
                ServedBook(book_id=book_id, title=title, author=author,
                           rank=position)
            )
        return cards

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """The metrics registry's immutable snapshot (see
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`)."""
        return self.metrics.snapshot()

    def health(self) -> dict:
        """A service health report (breaker, cache, latency, errors).

        The ``latency`` percentiles read the same shared histogram as
        :meth:`ServiceStats.percentile` and the metrics snapshot — one
        source of truth for all three views.
        """
        stats = self.stats
        breaker = self.breaker.snapshot()
        return {
            "status": "ok" if breaker["state"] == STATE_CLOSED else "degraded",
            "breaker": breaker,
            "cache": {
                "entries": self.cached_entries,
                "capacity": self.cache_size,
                "hit_rate": round(stats.cache_hit_rate, 4),
            },
            "latency": {
                "mean_seconds": stats.mean_seconds,
                "p50": stats.percentile(0.50),
                "p95": stats.percentile(0.95),
                "p99": stats.percentile(0.99),
            },
            "model": {
                "name": self.model.name,
                "version": self.model_version,
                "staleness_seconds": round(
                    self._clock() - self._model_loaded_at, 3
                ),
            },
            "retrieval": {
                "requested": self.retrieval,
                "active": (
                    RETRIEVAL_IVF if self._ivf is not None else RETRIEVAL_EXACT
                ),
                "cells": self._ivf.n_cells if self._ivf is not None else None,
                "probe_cells": self.probe_cells,
                "shards": (
                    self.user_shards.stats()
                    if self.user_shards is not None
                    else None
                ),
            },
            "refreshes": {
                "ok": stats.refreshes,
                "failed": stats.refresh_failed,
            },
            "requests": stats.requests,
            "degraded_requests": stats.degraded_requests,
            "degradations": dict(stats.degradations),
            "errors": stats.errors,
            "last_error": stats.last_error,
        }

    # ------------------------------------------------------------------
    # resolution: primary -> most-read -> static
    # ------------------------------------------------------------------

    def _resolve(self, request: RecommendationRequest) -> ServedResponse:
        """Resolve one cache-missed request through the chain, stamped.

        A primary response carries the version of the model that scored
        it; every other link is stamped by :meth:`_stamped`. Raises
        :class:`UnknownUserError` only for an unknown user with no
        fallback link available and ``degrade_unknown_users`` unset.
        """
        k = request.k
        deadline = (
            Deadline.start(request.timeout_seconds, self._clock)
            if request.timeout_seconds is not None
            else None
        )
        if self.known_user(request.user_id):
            user_index = int(self.train.users.index_of(request.user_id))
            if deadline is not None and deadline.expired:
                error = "deadline expired before primary scoring"
            elif self.breaker.allow():
                try:
                    items, version = self._primary_one(user_index, k, deadline)
                    self.breaker.record_success()
                    return ServedResponse(
                        books=tuple(self._serve_books(items, k)),
                        served_by=SERVED_BY_PRIMARY,
                        model_version=version,
                    )
                except Exception as exc:  # repro: allow[exceptions] — degrade, never fail
                    self.breaker.record_failure()
                    self._note_error(exc)
                    error = f"{type(exc).__name__}: {exc}"
            else:
                error = "circuit breaker open"
            items, source = self._fallback_items(user_index, k)
            return self._stamped(ServedResponse(
                books=tuple(self._serve_books(items, k)),
                served_by=source,
                degraded=True,
                error=error,
            ))
        # Unknown user: cold-start link, then (optionally) static.
        if self.cold_start_fallback is not None:
            try:
                items = self.cold_start_fallback.top_items(k)
                return self._stamped(ServedResponse(
                    books=tuple(self._serve_books(items, k)),
                    served_by=SERVED_BY_MOST_READ,
                ))
            except Exception as exc:  # repro: allow[exceptions] — cold-start chain degrades
                self._note_error(exc)
                items, source = self._static_items(None, k)
                return self._stamped(ServedResponse(
                    books=tuple(self._serve_books(items, k)),
                    served_by=source,
                    degraded=True,
                    error=f"{type(exc).__name__}: {exc}",
                ))
        if self.degrade_unknown_users:
            items, source = self._static_items(None, k)
            return self._stamped(ServedResponse(
                books=tuple(self._serve_books(items, k)),
                served_by=source,
                degraded=True,
                error=f"unknown user: {request.user_id!r}",
            ))
        raise UnknownUserError(request.user_id)

    def _primary_one(
        self, user_index: int, k: int, deadline: Deadline | None
    ) -> tuple[np.ndarray, str | None]:
        def call() -> tuple[np.ndarray, str | None]:
            return self._primary_one_items(user_index, k)

        if self.retry_policy is None:
            return call()
        return retry_call(
            call,
            policy=self.retry_policy,
            seed=self.seed,
            scope="service.primary",
            sleep=self._retry_sleep,
            deadline=deadline,
        )

    def _primary_batch(
        self, indices: np.ndarray, k: int
    ) -> tuple[list[np.ndarray], str | None]:
        def call() -> tuple[list[np.ndarray], str | None]:
            return self._primary_batch_items(indices, k)

        if self.retry_policy is None:
            return call()
        return retry_call(
            call,
            policy=self.retry_policy,
            seed=self.seed,
            scope="service.primary-batch",
            sleep=self._retry_sleep,
        )

    # ------------------------------------------------------------------
    # retrieval tiers: ivf probing, shard-backed exact scoring
    # ------------------------------------------------------------------

    @property
    def probe_cells(self) -> int | None:
        """The effective IVF probe width (``None`` when serving exactly).

        A configured width is clamped to the cell count; unconfigured,
        :func:`~repro.retrieval.ivf.default_probe_cells` decides.
        """
        index = self._ivf
        if index is None:
            return None
        if self._probe_cells_config is not None:
            return min(self._probe_cells_config, index.n_cells)
        return default_probe_cells(index.n_cells)

    def _build_index(
        self, model: Recommender, user_shards: UserShardStore | None
    ) -> IVFIndex | None:
        """Build the IVF index for ``model``, or ``None`` if inapplicable.

        The index needs the model's item factors to cluster and a source
        of user query vectors (the shard store or the model's
        user-factor matrix); a factor-less model serves exactly instead.
        """
        if self.retrieval != RETRIEVAL_IVF:
            return None
        item_factors = self._factors_of(model, "item_factors")
        if item_factors is None:
            return None
        if user_shards is None and self._factors_of(model, "user_factors") is None:
            return None
        return IVFIndex.build(
            item_factors, n_cells=self.ivf_cells, seed=self.seed
        )

    @staticmethod
    def _factors_of(model: Recommender, attr: str) -> np.ndarray | None:
        """A model's factor matrix, or ``None`` when it has no usable one."""
        try:
            factors = getattr(model, attr, None)
        except Exception:  # repro: allow[exceptions] — factor-less models serve exactly
            return None
        if factors is None:
            return None
        factors = np.asarray(factors)
        return factors if factors.ndim == 2 else None

    def _serving_state(
        self,
    ) -> tuple[Recommender, "IVFIndex | None", "UserShardStore | None", str | None]:
        """A consistent (model, index, shard store, version) for one scoring.

        Taken under the lock so a concurrent :meth:`refresh_model` can
        never hand a scorer the old model with the new model's index, nor
        stamp its response with the new model's version.
        """
        with self._lock:
            return self.model, self._ivf, self.user_shards, self.model_version

    def _primary_one_items(
        self, user_index: int, k: int
    ) -> tuple[np.ndarray, str | None]:
        """Score one user through the active retrieval tier; returns the
        items and the version of the model that scored them."""
        model, index, shards, version = self._serving_state()
        probe = self.probe_cells
        if index is not None and probe is not None and probe < index.n_cells:
            items = self._ivf_one(model, index, shards, user_index, k, probe)
            tier = RETRIEVAL_IVF
        elif shards is not None and self._factors_of(model, "item_factors") is not None:
            items = self._shard_exact_one(model, shards, user_index, k)
            tier = RETRIEVAL_EXACT
        else:
            items = model.recommend(user_index, k)
            tier = RETRIEVAL_EXACT
        self._m_retrieval.labels(tier=tier).inc()
        return items, version

    def _primary_batch_items(
        self, indices: np.ndarray, k: int
    ) -> tuple[list[np.ndarray], str | None]:
        """Score one coalesced ``(k, shard)`` group through the active tier;
        returns the lists and the version of the model that scored them."""
        model, index, shards, version = self._serving_state()
        probe = self.probe_cells
        if index is not None and probe is not None and probe < index.n_cells:
            items = self._ivf_batch(model, index, shards, indices, k, probe)
            tier = RETRIEVAL_IVF
        elif shards is not None and self._factors_of(model, "item_factors") is not None:
            items = self._shard_exact_batch(model, shards, indices, k)
            tier = RETRIEVAL_EXACT
        else:
            items = model.recommend_batch(indices, k)
            tier = RETRIEVAL_EXACT
        self._m_retrieval.labels(tier=tier).inc(len(indices))
        self._m_retrieval_groups.labels(tier=tier).inc()
        return items, version

    def _user_query(
        self,
        model: Recommender,
        shards: "UserShardStore | None",
        user_index: int,
    ) -> np.ndarray:
        """One user's float64 query vector (shard store, else in-memory)."""
        if shards is not None:
            row = shards.user_vector(user_index)
        else:
            row = np.asarray(model.user_factors)[user_index]
        return np.asarray(row, dtype=np.float64)

    def _ivf_one(
        self,
        model: Recommender,
        index: IVFIndex,
        shards: "UserShardStore | None",
        user_index: int,
        k: int,
        probe: int,
    ) -> np.ndarray:
        """IVF tier, one user: probe cells, exactly re-rank the pool."""
        query = self._user_query(model, shards, user_index)
        exclude = self._seen_items(user_index if model.exclude_seen else None)
        pool = index.candidates(query, probe, min_candidates=k + len(exclude))
        self._m_retrieval_candidates.inc(len(pool))
        return index.rerank(pool, query, k, exclude)

    def _ivf_batch(
        self,
        model: Recommender,
        index: IVFIndex,
        shards: "UserShardStore | None",
        indices: np.ndarray,
        k: int,
        probe: int,
    ) -> list[np.ndarray]:
        """IVF tier, one group: per-user pools, one coalesced matmul.

        All pools are scored together against their union in a single
        ``(users, |union|)`` GEMM; each row then masks items outside its
        own pool (and its seen items) before the shared batched top-k
        cut. Rankings match :meth:`_ivf_one` — the scores are the same
        exact dot products — though float summation order may differ
        between the two GEMM shapes, so the IVF tier's batch/single
        agreement is semantic, not bitwise (the exact tier's is bitwise).
        """
        if shards is not None:
            queries = np.asarray(shards.gather(indices), dtype=np.float64)
        else:
            queries = np.asarray(
                np.asarray(model.user_factors)[indices], dtype=np.float64
            )
        pools: list[np.ndarray] = []
        excludes: list[np.ndarray] = []
        for row in range(len(indices)):
            user_index = int(indices[row])
            exclude = self._seen_items(
                user_index if model.exclude_seen else None
            )
            excludes.append(exclude)
            pools.append(
                index.candidates(
                    queries[row], probe, min_candidates=k + len(exclude)
                )
            )
        union = np.unique(np.concatenate(pools))
        self._m_retrieval_candidates.inc(int(sum(len(p) for p in pools)))
        scores = queries @ index.vectors[union].T
        for row in range(len(indices)):
            drop = ~np.isin(union, pools[row], assume_unique=True)
            if len(excludes[row]):
                drop |= np.isin(union, excludes[row])
            scores[row, drop] = EXCLUDED_SCORE
        return [union[top] for top in top_k_rows(scores, k)]

    def _shard_exact_one(
        self,
        model: Recommender,
        shards: UserShardStore,
        user_index: int,
        k: int,
    ) -> np.ndarray:
        """Exact tier through the shard store, one user.

        Bit-identical to ``model.recommend``: the query row is
        byte-equal to the in-memory factor row, the GEMM has the same
        operands and shape, the mask hits the same positions, and the
        cut is the same :func:`~repro.core.base._top_k`.
        """
        query = shards.user_vector(user_index)
        scores = (query[np.newaxis, :] @ np.asarray(model.item_factors).T)[0]
        if model.exclude_seen:
            seen = self._seen_items(user_index)
            if len(seen):
                scores[seen] = EXCLUDED_SCORE
        return _top_k(scores, k)

    def _shard_exact_batch(
        self,
        model: Recommender,
        shards: UserShardStore,
        indices: np.ndarray,
        k: int,
    ) -> list[np.ndarray]:
        """Exact tier through the shard store, one coalesced group.

        One gathered matmul per group; shares
        :func:`~repro.core.base.mask_seen_rows` and
        :func:`~repro.core.base.top_k_rows` with
        ``model.recommend_batch``, so the two are bit-identical.
        """
        scores = shards.gather(indices) @ np.asarray(model.item_factors).T
        if model.exclude_seen:
            mask_seen_rows(scores, self.train.csr, indices)
        return top_k_rows(scores, k)

    def measure_retrieval_recall(
        self,
        k: int = 10,
        sample_users: int = DEFAULT_RECALL_SAMPLE,
    ) -> float:
        """Measure IVF recall@k against the exact tier on sampled users.

        Samples up to ``sample_users`` known users deterministically
        (``repro.rng`` on the service seed), compares the probed top-k
        with the exact top-k under the same seen-item masks, records the
        mean overlap on the ``service.retrieval.recall_at_k`` gauge, and
        returns it. Exact serving (no active index, or probe-everything)
        is its own reference: recall is 1.0 by construction.
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if sample_users < 1:
            raise ConfigurationError(
                f"sample_users must be >= 1, got {sample_users}"
            )
        model, index, shards, _ = self._serving_state()
        probe = self.probe_cells
        if index is None or probe is None or probe >= index.n_cells:
            self._m_retrieval_recall.set(1.0)
            return 1.0
        rng = derive_rng(self.seed, "service", "retrieval", "recall")
        n_users = self.train.n_users
        users = np.sort(
            rng.choice(n_users, size=min(sample_users, n_users), replace=False)
        )
        queries = np.stack(
            [self._user_query(model, shards, int(u)) for u in users]
        )
        exclude = [
            self._seen_items(int(u) if model.exclude_seen else None)
            for u in users
        ]
        recall = recall_at_k(index, queries, k, probe, exclude=exclude)
        self._m_retrieval_recall.set(recall)
        return recall

    def _fallback_items(
        self, user_index: int | None, k: int
    ) -> tuple[np.ndarray, str]:
        """The degradation chain below the primary model; never raises.

        Known users get their already-read books filtered out of the
        popularity list (the service's lists must stay unread even when
        degraded); unknown users have no history to filter.
        """
        if self.cold_start_fallback is not None:
            try:
                seen = self._seen_items(user_index)
                items = self.cold_start_fallback.top_items(k + len(seen))
                if len(seen):
                    items = items[~np.isin(items, seen)]
                return items[:k], SERVED_BY_MOST_READ
            except Exception as exc:  # repro: allow[exceptions] — fall further down the chain
                self._note_error(exc)
        return self._static_items(user_index, k)

    def _static_items(
        self, user_index: int | None, k: int
    ) -> tuple[np.ndarray, str]:
        """The chain's last link: a precomputed popularity order (pure
        numpy over an array captured at construction, so it cannot fail)."""
        seen = self._seen_items(user_index)
        items = self._static_order
        if len(seen):
            items = items[~np.isin(items, seen)]
        return items[:k], SERVED_BY_STATIC

    def _seen_items(self, user_index: int | None) -> np.ndarray:
        if user_index is None:
            return np.asarray([], dtype=np.int64)
        return np.asarray(self.train.user_items(user_index), dtype=np.int64)

    def _stamped(self, response: ServedResponse) -> ServedResponse:
        """Attach the serving model's version to a response the primary
        model did not score (fallback and cold-start links).

        Read without the lock: such a response depends on no model
        factors, so during a concurrent hot swap it may carry either
        adjacent version's name — always a *published* one. Primary
        responses carry the version captured with their model in
        :meth:`_serving_state` instead.
        """
        version = self.model_version
        return response if version is None else replace(response, model_version=version)

    def _note_error(self, error: BaseException | str) -> None:
        """Record a failure in both the stats and the metrics registry."""
        self.stats.note_error(error)
        self._m_errors.inc()

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self._m_breaker_state.set(_BREAKER_STATE_VALUE.get(new, -1.0))
        self._m_breaker_transitions.labels(to=new).inc()

    def _account(self, response: ServedResponse) -> None:
        """Mirror one resolved response into stats and metrics."""
        self._m_served.labels(source=response.served_by).inc()
        if response.degraded:
            self.stats.note_degraded(response.served_by, error=response.error)
            self._m_degraded.labels(source=response.served_by).inc()

    def _serve_books(self, items: np.ndarray, k: int) -> list[ServedBook]:
        served = []
        for rank, item_index in enumerate(items, start=1):
            book_id = int(self.train.items.id_of(int(item_index)))
            title, author = self._cards.get(book_id, ("(unknown)", "(unknown)"))
            served.append(
                ServedBook(book_id=book_id, title=title, author=author, rank=rank)
            )
        return served
