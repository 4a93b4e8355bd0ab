"""The ``serve-zipf`` and ``serve-churn`` workloads: open-loop load on one
service, in one process, from the main thread (plus, for churn, one thread
that hot-swaps the model)."""

from __future__ import annotations

import bisect
import queue
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from perfbench import config, oracle
from perfbench.config import K, Scale
from perfbench.inputs import load_catalogue, load_holdout
from perfbench.outcome import Outcome, Tally, percentile_ms
from repro.app.lifecycle import ModelStore
from repro.app.service import (
    SERVED_BY_MOST_READ,
    RecommendationRequest,
    RecommendationService,
)
from repro.core.most_read import MostReadItems
from repro.obs.trace import Tracer, start_span
from repro.perf.rss import measure_phase_rss
from repro.rng import derive_rng

#: Backlog after which an overloaded nominal phase stops sending; a
#: goodput probe stops at twice the latency limit, since it has failed.
ABORT_BACKLOG_S = 1.0

#: Gaps shorter than this are waited out by spinning. A sleeping vCPU can
#: take milliseconds to wake up, which would show as lateness the service
#: did not cause.
SPIN_S = 0.05

BATCH_PASS_SIZE = 128


def op_stream(workload: str, seed: int, n_users: int) -> Iterator[tuple[int, ...]]:
    """The workload's calls as tuples of user indices, drawn from ``seed``.

    A negative index ``-(j + 1)`` is cold-start user ``j``, unknown to
    every model.
    """
    rng = derive_rng(seed, "perfbench", workload, "load")
    if workload == "serve-zipf":
        ranked = rng.permutation(n_users)
        weights = 1.0 / np.arange(1, n_users + 1) ** config.ZIPF_EXPONENT
        weights /= weights.sum()
        cold_pool = max(1, n_users // 10)
        while True:
            picks = ranked[rng.choice(n_users, size=4096, p=weights)]
            cold = rng.random(4096) < config.COLD_START_SHARE
            cold_ids = -1 - rng.integers(0, cold_pool, size=4096)
            yield from ((int(u),) for u in np.where(cold, cold_ids, picks))
    cycle = np.repeat(list(config.CHURN_CYCLE), list(config.CHURN_CYCLE.values()))
    while True:
        for size in rng.permutation(cycle):
            yield tuple(int(u) for u in rng.integers(0, n_users, size=int(size)))


class Recorder:
    """Calls and responses kept in numpy arrays.

    Keeping them as response objects would grow the heap the collector
    walks while the service is being timed, and so lengthen its pauses;
    growing arrays would move the peak RSS the run reports. So the arrays
    start large enough for a run, and the fast goodput probes keep the
    responses of only a sample of their calls.
    """

    def __init__(self, versions: list[str], capacity: int = 1 << 18) -> None:
        self.version_code = {name: code for code, name in enumerate(versions)}
        self.n_ops = 0
        self.n_rows = 0
        # np.full writes every page now, so RSS does not grow with use.
        # Every call is recorded, but the fast goodput probes keep only a
        # sample of their responses.
        rows = capacity // 2
        self.ops = {
            name: np.full(capacity, 0, dtype=dtype) for name, dtype in (
                ("due", np.float64), ("sent", np.float64), ("done", np.float64),
                ("users", np.int64), ("errors", np.int64),
            )
        }
        self.rows = {
            name: np.full(shape, 0, dtype=dtype) for name, shape, dtype in (
                ("user", rows, np.int64), ("op", rows, np.int64),
                ("version", rows, np.int8), ("length", rows, np.int8),
                ("degraded", rows, bool), ("most_read", rows, bool),
                ("books", (rows, K), np.int32),
            )
        }

    def add(self, due: float, sent: float, done: float, users: tuple[int, ...],
            responses: list | None, keep: bool = True) -> None:
        """Record one call; its responses only when ``keep`` is set."""
        self.ops = _fit(self.ops, self.n_ops + 1)
        op = self.n_ops
        self.ops["due"][op], self.ops["sent"][op], self.ops["done"][op] = due, sent, done
        self.ops["users"][op] = len(users)
        self.ops["errors"][op] = len(users) if responses is None else 0
        self.n_ops += 1
        if responses is None or not keep:
            return
        self.rows = _fit(self.rows, self.n_rows + len(users))
        for user, response in zip(users, responses):
            row = self.n_rows
            books = [book.book_id for book in response.books]
            self.rows["user"][row] = user
            self.rows["op"][row] = op
            self.rows["books"][row, :len(books)] = books
            self.rows["length"][row] = len(books)
            self.rows["version"][row] = self.version_code.get(response.model_version, -1)
            self.rows["degraded"][row] = response.degraded
            self.rows["most_read"][row] = response.served_by == SERVED_BY_MOST_READ
            self.n_rows += 1

    def latencies(self, ops: slice) -> np.ndarray:
        """Seconds from due to done, once per user: a batch of n is n requests."""
        wait = self.ops["done"][ops] - self.ops["due"][ops]
        return np.repeat(wait, self.ops["users"][ops])

    def rows_of(self, ops: slice) -> np.ndarray:
        """Row indices of the kept responses of ``ops``."""
        op = self.rows["op"][:self.n_rows]
        start, stop, _ = ops.indices(self.n_ops)
        return np.flatnonzero((op >= start) & (op < stop))


def _fit(arrays: dict[str, np.ndarray], needed: int) -> dict[str, np.ndarray]:
    size = len(next(iter(arrays.values())))
    if needed <= size:
        return arrays
    grown = {}
    for name, array in arrays.items():
        bigger = np.empty((max(needed, 2 * size),) + array.shape[1:], dtype=array.dtype)
        bigger[:size] = array
        grown[name] = bigger
    return grown


def make_call(service: RecommendationService, known: list[str],
              tracer: Tracer | None) -> Callable:
    """A function making one call to the service for a tuple of users."""
    groups = service.metrics.counter("service.retrieval.groups").labels(tier="exact")

    def call(users: tuple[int, ...]) -> list | None:
        ids = [known[u] if u >= 0 else f"cold-{-1 - u}" for u in users]
        name = "service.recommend_response" if len(ids) == 1 else "service.recommend_many"
        with start_span(tracer, name) as span:
            before = groups.value if tracer is not None else 0.0
            try:
                if len(ids) == 1:
                    responses = [service.recommend_response(RecommendationRequest(ids[0], k=K))]
                else:
                    responses = service.recommend_many_responses(
                        [RecommendationRequest(user, k=K) for user in ids]
                    )
            except Exception:  # repro: allow[exceptions] — a raise is a failed call
                return None
            if tracer is not None:
                span.set_attrs(
                    users=len(ids),
                    hits=sum(r.from_cache for r in responses),
                    degraded=sum(r.degraded for r in responses),
                    cold=sum(u < 0 and r.served_by == SERVED_BY_MOST_READ
                             for u, r in zip(users, responses)),
                    groups=groups.value - before,
                )
        return responses

    return call


def open_loop(call: Callable, ops: Iterator, rate: float, duration: float,
              recorder: Recorder, abort_s: float = ABORT_BACKLOG_S,
              keep_every: int = 1) -> tuple[slice, bool]:
    """Send ``ops`` on a fixed schedule of ``rate`` users per second.

    Each call is due at its scheduled time whatever happened before.
    Returns the recorded calls and whether the whole schedule was sent
    (False once the backlog passed ``abort_s``). The responses of every
    ``keep_every``-th call are kept for checking.
    """
    clock = time.perf_counter
    first = recorder.n_ops
    start = clock()
    due, end = start, start + duration
    complete = True
    while due < end:
        users = next(ops)
        now = clock()
        if now - due > abort_s:
            complete = False
            break
        if due - now > SPIN_S:
            time.sleep(due - now - SPIN_S)
        while clock() < due:
            pass
        sent = clock()
        responses = call(users)
        recorder.add(due, sent, clock(), users, responses,
                     keep=(recorder.n_ops - first) % keep_every == 0)
        due += len(users) / rate
    return slice(first, recorder.n_ops), complete


class LadderSearch:
    """Finds the highest :data:`config.LADDER` rate at which the service
    meets the latency limit with no backlog, one probe at a time.

    The search starts at the rung of ``estimate`` (the capacity the
    nominal phase implies) and climbs in doubling steps until a probe
    fails; from then on each probe halves the step, going up after a pass
    and down after a failure, until the step is one rung. After that it is
    a staircase, one rung up or down, which tracks the limit as the host's
    speed moves (by about a quarter, in stretches of seconds). The answer
    is the median rung of the staircase's passing probes: the run's
    typical goodput, not that of its quietest stretch.
    """

    def __init__(self, estimate: float, limit_s: float) -> None:
        self.limit_s = limit_s
        self.rung = max(0, bisect.bisect_right(config.LADDER, estimate) - 1)
        self.step = 4
        self.bracketed = False
        self.passed: list[int] = []
        self.settled: list[int] = []

    @property
    def best(self) -> float:
        """The median settled passing rate; before the staircase, the
        highest passing one (0 if none passed)."""
        if self.settled:
            return float(statistics.median(config.LADDER[r] for r in self.settled))
        return float(config.LADDER[max(self.passed)]) if self.passed else 0.0

    def probe(self, call: Callable, ops: Iterator, seconds: float, recorder: Recorder,
              kept: int) -> slice:
        """One probe at the current rung; about ``kept`` responses are kept."""
        rate = config.LADDER[self.rung]
        calls, complete = open_loop(call, ops, rate, seconds, recorder,
                                    abort_s=2 * self.limit_s,
                                    keep_every=max(1, round(rate * seconds / kept)))
        lateness = recorder.ops["sent"][calls] - recorder.ops["due"][calls]
        ok = (
            complete and len(lateness) > 0
            and recorder.ops["errors"][calls].sum() == 0
            and np.percentile(recorder.latencies(calls), 99) <= self.limit_s
            and lateness[-1] <= self.limit_s
        )
        if ok:
            self.passed.append(self.rung)
            if self.bracketed and self.step == 1:
                self.settled.append(self.rung)
        if self.bracketed or not ok:
            self.bracketed = True
            self.step = max(1, self.step // 2)
        else:
            self.step *= 2
        self.rung += self.step if ok else -self.step
        self.rung = min(len(config.LADDER) - 1, max(0, self.rung))
        return calls


class Swapper(threading.Thread):
    """Alternates the live model between published versions.

    Swaps happen on a fixed cadence: one at the start of every
    nominal-rate window and goodput probe (:meth:`trigger`), so each
    measured stretch holds the same number of swaps.
    """

    def __init__(self, service, store, versions, tracer: Tracer | None) -> None:
        super().__init__(name="perfbench-swapper")
        self.service, self.store, self.versions = service, store, versions
        self.tracer = tracer
        self.tally = Tally()
        self.spans: list[tuple[float, float]] = []
        """Start and end time of every swap, on the recorder's clock."""
        self._requests: queue.Queue = queue.Queue()

    def trigger(self) -> None:
        self._requests.put(True)

    def run(self) -> None:
        turn = 1
        while self._requests.get():
            self.swap(self.versions[turn % len(self.versions)])
            turn += 1

    def swap(self, version: str) -> None:
        started = time.perf_counter()
        with start_span(self.tracer, "service.refresh_from_store", version=version) as span:
            ok = self.service.refresh_from_store(self.store, version=version)
            span.set_attrs(ok=ok)
        self.spans.append((started, time.perf_counter()))
        self.tally.check(ok)

    def stop(self) -> None:
        self._requests.put(False)
        self.join(timeout=120)
        if self.is_alive():
            raise RuntimeError("swap thread did not stop")


def count_failures(recorder: Recorder, oracles: list[oracle.FactorOracle],
                   counts: np.ndarray, k: int = K,
                   swaps: list[tuple[float, float]] = ()) -> tuple[int, int]:
    """Failed requests, and stamp lags.

    Failures are raises, and among the kept responses empty or degraded
    lists, lists that differ from the exact top-k of the version they are
    stamped with, and cold-start lists that are not the most-read list.

    A stamp lag is a list that is exactly the top-k of the other version,
    from a call that overlapped a swap (one of ``swaps``, as start and end
    times). The service scores and stamps a response in two steps, and
    documents that a swap between them may stamp it with the adjacent
    published version; such a list is counted apart, not as a failure. A
    list that matches no version, or a mislabelled list from a call that
    no swap overlapped, is a failure.
    """
    failed = int(recorder.ops["errors"][:recorder.n_ops].sum())
    rows = np.arange(recorder.n_rows)
    r = recorder.rows
    bad = (r["length"][rows] <= 0) | r["degraded"][rows]
    failed += int(bad.sum())
    rows = rows[~bad]
    cold = r["user"][rows] < 0
    for row in rows[cold]:
        books = r["books"][row, :r["length"][row]]
        failed += not (r["most_read"][row] and oracle.popular_ok(
            counts, oracles[0].positions(books), k))
    rows = rows[~cold]
    version = r["version"][rows]
    failed += int((version < 0).sum())

    def overlaps_swap(row: int) -> bool:
        op = r["op"][row]
        sent, done = recorder.ops["sent"][op], recorder.ops["done"][op]
        return any(sent < end and done > start for start, end in swaps)

    lagged = 0
    for code, check in enumerate(oracles):
        mine = rows[version == code]
        lists = [r["books"][row, :r["length"][row]] for row in mine]
        for row in mine[~check.check(r["user"][mine], lists, k)]:
            books = [r["books"][row, :r["length"][row]]]
            lag = overlaps_swap(row) and any(
                other.check(r["user"][[row]], books, k)[0]
                for other_code, other in enumerate(oracles) if other_code != code
            )
            lagged += lag
            failed += not lag
    return failed, lagged


def run_serve(workload: str, inputs: Path, scale: Scale, seconds: float,
              seed: int, trace: bool) -> Outcome:
    zipf = workload == "serve-zipf"
    serving = inputs / ("zipf-serving" if zipf else "churn-serving")
    rate = scale.zipf_rate if zipf else scale.churn_rate
    limit_s = config.LATENCY_LIMIT_MS[workload] / 1e3
    store = ModelStore(serving / "store")
    versions = [v.name for v in store.versions()]
    catalogue = load_catalogue(serving)
    tracer = Tracer(seed=seed) if trace else None
    tally = Tally()

    setup = []
    for _ in range(scale.setup_repeats):
        started = time.perf_counter()
        with start_span(tracer, "lifecycle.load"):
            model, train = store.load(versions[0])
        with start_span(tracer, "core.most_read.fit"):
            fallback = MostReadItems().fit(train)
        with start_span(tracer, "service.construct"):
            service = RecommendationService(
                model, train, catalogue, cold_start_fallback=fallback,
                seed=seed, model_version=versions[0],
            )
        setup.append(time.perf_counter() - started)
    # The batch job runs on its own instance, so it neither clears the
    # live service's cache nor sees its swaps.
    batch_service = RecommendationService(
        model, train, catalogue, cold_start_fallback=fallback,
        seed=seed, model_version=versions[0],
    )

    oracles = [oracle.FactorOracle(model.user_factors, model.item_factors, train)]
    for version in versions[1:]:
        other, other_train = store.load(version)
        oracles.append(oracle.FactorOracle(other.user_factors, other.item_factors, other_train))
    known = [str(u) for u in train.users.ids]
    holdout = load_holdout(serving)
    recorder = Recorder(versions)

    swap_tracer = Tracer(seed=seed + 1) if trace else None
    swapper = None if zipf else Swapper(service, store, versions, swap_tracer)
    swap = swapper.trigger if swapper is not None else (lambda: None)
    try:
        if swapper is not None:
            swapper.start()
        if trace:
            overhead = _traced(service, known, tracer, workload, seed, rate, seconds,
                               recorder, swap)
        else:
            phase = _untraced(service, batch_service, known, holdout, workload, seed, rate,
                              seconds, limit_s, scale, recorder, swap)
    finally:
        if swapper is not None:
            swapper.stop()
    if swapper is not None:
        tally.attempted += swapper.tally.attempted
        tally.failed += swapper.tally.failed
        if swap_tracer is not None:
            tracer.adopt(span.as_dict() for span in swap_tracer.spans)

    end_to_end = {}
    if not trace:
        end_to_end = {"setup_s": statistics.median(setup), **phase}
    requests = int(recorder.ops["users"][:recorder.n_ops].sum())
    tally.attempted += requests
    failed, lagged = count_failures(recorder, oracles, train.item_counts(),
                                    swaps=swapper.spans if swapper is not None else ())
    tally.failed += failed
    return Outcome(
        tally=tally, end_to_end=end_to_end, tracer=tracer,
        overhead_ratio=overhead if trace else 1.0,
        per_layer={"service.stamp_lag": lagged},
        notes={"requests": requests, "checked": recorder.n_rows, "stamp_lag": lagged},
    )


def _untraced(service, batch_service, known, holdout, workload, seed, rate, seconds,
              limit_s, scale, recorder, swap):
    """A warm-up, then rounds of [batch pass, nominal-rate window, goodput
    probe]. The host's speed moves by about a quarter in stretches of
    seconds, so each metric samples the whole run rather than one stretch
    of it: ``job_s`` is the median of the rounds' batch passes and the
    latency percentiles pool the rounds' windows.
    """
    call = make_call(service, known, None)
    ops = op_stream(workload, seed, len(known))
    index = {user: i for i, user in enumerate(known)}
    batch_users = [index[user] for user in sorted(holdout)]
    n_rounds, window_s = config.rounds(seconds)

    def timed():
        open_loop(call, ops, rate, seconds * config.WARM_SHARE, recorder)
        passes, windows = [], []
        search = None
        for _ in range(n_rounds):
            passes.append(_batch_pass(batch_service, known, batch_users, recorder))
            swap()
            window, _ = open_loop(call, ops, rate, window_s, recorder)
            windows.append(window)
            if search is None:
                busy = recorder.ops["done"][window] - recorder.ops["sent"][window]
                search = LadderSearch(recorder.ops["users"][window].sum() / busy.sum(), limit_s)
            for _ in range(config.PROBES_PER_ROUND):
                swap()
                search.probe(call, ops, window_s / config.PROBES_PER_ROUND, recorder,
                             scale.ladder_check_cap // (n_rounds * config.PROBES_PER_ROUND))
        return passes, windows, search.best

    (passes, windows, best), rss = measure_phase_rss(timed)
    r = recorder.rows
    last_pass = recorder.rows_of(passes[-1][1])
    relevant = sum(
        bool(np.isin(r["books"][row, :max(r["length"][row], 0)], holdout[known[r["user"][row]]]).any())
        for row in last_pass
    )
    latencies = np.concatenate([recorder.latencies(window) for window in windows])
    return {
        "job_s": statistics.median(seconds for seconds, _ in passes),
        "peak_rss_mb": rss.peak_bytes / 1e6,
        "urr_at_20": relevant / len(batch_users),
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p90_ms": percentile_ms(latencies, 90),
        "goodput_rps": best,
    }


def _traced(service, known, tracer, workload, seed, rate, seconds, recorder, swap):
    """The nominal-rate windows twice on identical streams, untraced then
    traced; returns the traced-over-untraced ratio of time spent in calls."""
    busy = []
    n_rounds, window_s = config.rounds(seconds)
    for phase_tracer in (None, tracer):
        service.invalidate_cache()
        ops = op_stream(workload, seed, len(known))
        open_loop(make_call(service, known, None), ops, rate, seconds * config.WARM_SHARE,
                  recorder)
        call = make_call(service, known, phase_tracer)
        with start_span(phase_tracer, f"bench.{workload}") as root:
            first = recorder.n_ops
            for _ in range(n_rounds):
                swap()
                open_loop(call, ops, rate, window_s, recorder)
            nominal = slice(first, recorder.n_ops)
            sent = recorder.ops["sent"][nominal]
            root.set_attrs(
                latency_p99_ms=percentile_ms(recorder.latencies(nominal), 99),
                lateness_p99_ms=percentile_ms(sent - recorder.ops["due"][nominal], 99),
                offered_rps=recorder.ops["users"][nominal].sum() / (window_s * n_rounds),
            )
        busy.append(float((recorder.ops["done"][nominal] - sent).sum()))
    return busy[1] / busy[0]


def _batch_pass(service, known, users: list[int], recorder: Recorder) -> tuple[float, slice]:
    """Every BCT test user once, in batches, cache cold: the serve
    workloads' batch job. Returns its time and its calls."""
    call = make_call(service, known, None)
    service.invalidate_cache()
    first = recorder.n_ops
    started = time.perf_counter()
    for i in range(0, len(users), BATCH_PASS_SIZE):
        chunk = tuple(users[i:i + BATCH_PASS_SIZE])
        sent = time.perf_counter()
        responses = call(chunk)
        recorder.add(sent, sent, time.perf_counter(), chunk, responses)
    return time.perf_counter() - started, slice(first, recorder.n_ops)
