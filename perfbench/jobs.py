"""The ``refresh`` workload: the nightly rebuild from a raw corpus to a
live model, with the live service answering readers beside it."""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench import oracle
from perfbench.config import K, Scale
from perfbench.inputs import load_catalogue, load_prefilter
from perfbench.outcome import Outcome, Tally, percentile_ms
from repro.app.lifecycle import ModelStore
from repro.app.service import RecommendationRequest, RecommendationService
from repro.core.bpr import BPR, BPRConfig
from repro.core.closest_items import ClosestItems
from repro.core.most_read import MostReadItems
from repro.datasets.corpus import ShardedCorpus
from repro.eval.evaluator import evaluate_model
from repro.eval.split import split_readings
from repro.obs.trace import Tracer, start_span
from repro.perf.rss import measure_phase_rss
from repro.pipeline.streaming import merge_sharded_corpus
from repro.rng import derive_rng


@dataclass
class JobRun:
    """What one pass of the job produced."""

    seconds: float
    peak_rss_mb: float
    merged: object
    split: object
    kpi: object
    readings_out: int
    version: str | None = None
    live_version: str | None = None
    swapped: bool = True


class Probe:
    """Single requests to the live service, in slices between the job's
    stages: the recommendation-time row of the paper's Table 2, answered
    while the rebuild runs. The cache is cleared before each slice, so
    every request is a miss. Each response is checked, after the pass,
    against the exact top-k of the model that answered it."""

    def __init__(self, service: RecommendationService, workload: str, seed: int,
                 requests: int) -> None:
        self.service = service
        self.requests = requests
        train = service.train
        order = derive_rng(seed, "perfbench", workload, "probe-users").permutation(train.n_users)
        self.users = [str(train.users.id_of(int(row))) for row in order]
        self.position = 0
        self.tracer: Tracer | None = None
        self.seconds = 0.0
        """Time spent in slices since it was last reset."""
        self.slices: list[list[float]] = []
        self._answers: list[tuple] = []

    def __call__(self) -> None:
        started = time.perf_counter()
        service = self.service
        model, train = service.model, service.train
        service.invalidate_cache()
        latencies = []
        for _ in range(self.requests):
            user_id = self.users[self.position % len(self.users)]
            self.position += 1
            with start_span(self.tracer, "service.recommend_response") as span:
                sent = time.perf_counter()
                try:
                    response = service.recommend_response(RecommendationRequest(user_id, k=K))
                except Exception:  # repro: allow[exceptions] — a raise is a failed request
                    response = None
                latencies.append(time.perf_counter() - sent)
                span.set_attrs(users=1, hits=int(response is not None and response.from_cache),
                               degraded=int(response is None or response.degraded), cold=0)
            self._answers.append((model, train, user_id, response))
        self.slices.append(latencies)
        self.seconds += time.perf_counter() - started

    def check(self, tally: Tally) -> None:
        """Count every answer since the last check into ``tally``."""
        by_model: dict[int, list[tuple]] = {}
        for answer in self._answers:
            by_model.setdefault(id(answer[0]), []).append(answer)
        for answers in by_model.values():
            model, train = answers[0][:2]
            served = [(train.users.index_of(user_id), [b.book_id for b in response.books])
                      for _, _, user_id, response in answers
                      if response is not None and not response.degraded]
            tally.fail(len(answers) - len(served))
            if served:
                check = oracle.FactorOracle(model.user_factors, model.item_factors, train)
                for ok in check.check([row for row, _ in served], [b for _, b in served], K):
                    tally.check(bool(ok))
        self._answers = []


def run_job(workload: str, inputs: Path, scale: Scale, seconds: float,
            seed: int, workdir: Path, trace: bool) -> Outcome:
    """Passes of the job until ``seconds`` have gone, each checked after
    it ends; the traced run makes one untraced and one traced pass.

    The host's speed moves by about a quarter in stretches of seconds, so
    each metric samples the whole run rather than one stretch of it:
    ``job_s`` is the median pass and the latency percentiles pool the
    probe slices, which run between the stages of every pass.
    """
    corpus_dir = inputs / "refresh-corpus"
    merge_config = scale.refresh_merge
    prefilter = load_prefilter(inputs / "refresh-prefilter")
    tally = Tally()

    setup = []
    for _ in range(scale.setup_repeats):
        started = time.perf_counter()
        corpus = ShardedCorpus(corpus_dir)
        corpus.verify()
        setup.append(time.perf_counter() - started)

    live = _live_service(inputs / "refresh-previous", workdir, seed)
    probe = Probe(live[0], workload, seed, scale.probe_requests)
    tracer = Tracer(seed=seed) if trace else None
    passes = []
    started = time.perf_counter()
    while not passes or (len(passes) < 2 if trace else time.perf_counter() - started < seconds):
        probe.tracer = tracer if trace and passes else None
        probe.seconds = 0.0
        run = _one_pass(corpus, merge_config, probe.tracer, live, probe)
        run.seconds -= probe.seconds
        tally.check(oracle.split_partitions(run.merged.readings, run.split))
        tally.check(oracle.floors_ok(run.merged, prefilter, merge_config))
        tally.check(oracle.kpis_finite(run.kpi))
        tally.check(run.swapped and run.live_version == run.version)
        probe.check(tally)
        passes.append((run.seconds, run.peak_rss_mb, run.kpi, run.readings_out))
        del run
        gc.collect()

    job_s = statistics.median(seconds for seconds, *_ in passes[:1 if trace else None])
    _, _, kpi, readings_out = passes[-1]
    return Outcome(
        tally=tally,
        end_to_end={
            "setup_s": statistics.median(setup),
            "job_s": job_s,
            "peak_rss_mb": statistics.median(rss for _, rss, *_ in passes),
            "urr_at_20": kpi.urr,
            "latency_p50_ms": percentile_ms(np.concatenate(probe.slices), 50),
            "latency_p90_ms": percentile_ms(np.concatenate(probe.slices), 90),
            "goodput_rps": readings_out / job_s,
        },
        tracer=tracer,
        overhead_ratio=passes[-1][0] / passes[0][0] if trace else 1.0,
        notes={"passes": len(passes), "probe_requests": sum(map(len, probe.slices))},
    )


def _one_pass(corpus, merge_config, tracer: Tracer | None, live, between) -> JobRun:
    def body() -> JobRun:
        with start_span(tracer, "bench.refresh"):
            return _job(corpus, merge_config, tracer, live, between)
    started = time.perf_counter()
    run, rss = measure_phase_rss(body)
    run.seconds = time.perf_counter() - started
    run.peak_rss_mb = rss.peak_bytes / 1e6
    return run


def _job(corpus, merge_config, tracer, live, between: Callable[[], None]) -> JobRun:
    """Corpus -> merge -> split -> fits -> BPR -> evaluation -> publish ->
    swap, calling ``between`` after each stage."""
    with start_span(tracer, "pipeline.merge_sharded_corpus") as span:
        if tracer is None:
            result = merge_sharded_corpus(corpus, merge_config)
        else:
            result, rss = measure_phase_rss(lambda: merge_sharded_corpus(corpus, merge_config))
            span.set_attrs(peak_rss_mb=rss.peak_bytes / 1e6)
        span.set_attrs(
            events_in=corpus.n_loans + corpus.n_ratings,
            readings_out=result.report.readings_after_filter,
        )
    merged = result.dataset
    between()
    with start_span(tracer, "eval.split_readings", rows_in=merged.readings.num_rows):
        split = split_readings(merged)
    between()
    with start_span(tracer, "core.most_read.fit"):
        MostReadItems().fit(split.train, merged)
    with start_span(tracer, "core.closest.fit") as span:
        closest = ClosestItems().fit(split.train, merged)
        span.set_attrs(similarity_mb=closest.similarity_nbytes() / 1e6)
    between()
    with start_span(tracer, "core.bpr.fit") as span:
        shipped = BPR(BPRConfig()).fit(split.train)
        history = shipped.history
        span.set_attrs(
            samples_per_s=split.train.n_interactions * len(history)
            / sum(e.seconds for e in history),
            updated_fraction=history[-1].updated_fraction,
            violation_trials=history[-1].mean_violation_trials,
        )
    between()
    with start_span(tracer, "eval.evaluate_model") as span:
        evaluation = evaluate_model(shipped, split, ks=(K,))
        span.set_attrs(users=len(evaluation.per_user.user_indices))
    between()
    run = JobRun(
        seconds=0.0, peak_rss_mb=0.0, merged=merged, split=split, kpi=evaluation.report(K),
        readings_out=result.report.readings_after_filter,
    )
    service, store = live
    with start_span(tracer, "lifecycle.publish"):
        run.version = store.publish(shipped, split.train).name
    with start_span(tracer, "service.refresh_from_store") as span:
        run.swapped = service.refresh_from_store(store, version=run.version)
        span.set_attrs(ok=run.swapped)
    run.live_version = service.model_version
    between()
    return run


def _live_service(previous: Path, workdir: Path, seed: int):
    """A service already serving yesterday's model from a run-local store."""
    store_dir = workdir / "store"
    shutil.rmtree(store_dir, ignore_errors=True)
    shutil.copytree(previous / "store", store_dir)
    store = ModelStore(store_dir)
    model, train = store.load()
    service = RecommendationService(
        model, train, load_catalogue(previous),
        cold_start_fallback=MostReadItems().fit(train),
        seed=seed, model_version=store.current_name,
    )
    return service, store
