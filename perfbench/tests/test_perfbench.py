"""The benchmark's own tests: smoke runs of every workload at tiny scale,
and oracles that must count injected wrong outputs as failures.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from perfbench import oracle
from perfbench.config import TINY
from perfbench.run import WORKLOADS
from perfbench.serve import Recorder, count_failures
from repro.app.service import SERVED_BY_PRIMARY, ServedBook, ServedResponse
from repro.core.interactions import Indexer, InteractionMatrix
from repro.datasets.corpus import ShardedCorpusWriter
from repro.eval.split import split_readings
from repro.pipeline.merge import MergeConfig
from repro.pipeline.streaming import merge_sharded_corpus
from repro.rng import make_rng

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert all(math.isfinite(entry["value"]) for entry in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("refresh", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _train(n_users=6, n_items=30, seed=0):
    rng = make_rng(seed)
    dense = (rng.random((n_users, n_items)) < 0.2).astype(np.int64)
    return InteractionMatrix(
        Indexer(f"u{i}" for i in range(n_users)),
        Indexer(range(100, 100 + n_items)),
        sparse.csr_matrix(dense),
    )


def _response(book_ids, version="v000001"):
    books = tuple(ServedBook(book_id=int(b), title="t", author="a", rank=r)
                  for r, b in enumerate(book_ids, start=1))
    return ServedResponse(books=books, served_by=SERVED_BY_PRIMARY, model_version=version)


def test_top_k_ok_accepts_the_exact_list_and_rejects_wrong_ones():
    scores = np.asarray([0.9, 0.1, 0.5, 0.7, 0.3])
    seen = np.asarray([0])
    assert oracle.top_k_ok(scores, seen, np.asarray([3, 2]), 2)
    assert not oracle.top_k_ok(scores, seen, np.asarray([2, 3]), 2)  # order
    assert not oracle.top_k_ok(scores, seen, np.asarray([0, 3]), 2)  # seen item
    assert not oracle.top_k_ok(scores, seen, np.asarray([3, 4]), 2)  # not top
    assert not oracle.top_k_ok(scores, seen, np.asarray([3]), 2)  # short


def test_count_failures_counts_an_injected_wrong_list():
    train = _train()
    rng = make_rng(1)
    check = oracle.FactorOracle(rng.normal(size=(6, 4)), rng.normal(size=(30, 4)), train)
    k = 5
    lists = []
    for user in range(6):
        scores = check.user_factors[user] @ check.item_factors.T
        scores[train.user_items(user)] = -np.inf
        top = np.argsort(-scores, kind="stable")[:k]
        lists.append([train.items.id_of(int(i)) for i in top])
    recorder = Recorder(["v000001"])
    for user, books in enumerate(lists):
        recorder.add(0.0, 0.0, 0.0, (user,), [_response(books)])
    assert count_failures(recorder, [check], train.item_counts(), k=k) == (0, 0)

    wrong = list(lists[2])
    wrong[-1] = next(b for b in train.items.ids if b not in wrong)
    recorder.add(0.0, 0.0, 0.0, (2,), [_response(wrong)])
    recorder.add(0.0, 0.0, 0.0, (3,), None)  # a raise
    recorder.add(0.0, 0.0, 0.0, (4,), [_response(lists[4], version="v000009")])
    assert count_failures(recorder, [check], train.item_counts(), k=k) == (3, 0)


def test_count_failures_tells_a_stamp_lag_from_a_wrong_list():
    """The other version's exact list passes only on a call that
    overlapped a swap; a list that matches neither version always fails."""
    train = _train()
    rng = make_rng(2)
    checks = [oracle.FactorOracle(rng.normal(size=(6, 4)), rng.normal(size=(30, 4)), train)
              for _ in range(2)]
    k = 5

    def top(check, user):
        scores = check.user_factors[user] @ check.item_factors.T
        scores[train.user_items(user)] = -np.inf
        return [train.items.id_of(int(i)) for i in np.argsort(-scores, kind="stable")[:k]]

    user = next(u for u in range(6) if top(checks[0], u) != top(checks[1], u))
    versions = ["v000001", "v000002"]
    swaps = [(10.0, 11.0)]
    counts = train.item_counts()

    recorder = Recorder(versions)
    recorder.add(10.5, 10.5, 10.6, (user,), [_response(top(checks[1], user), versions[0])])
    assert count_failures(recorder, checks, counts, k=k, swaps=swaps) == (0, 1)

    recorder = Recorder(versions)
    recorder.add(20.0, 20.0, 20.1, (user,), [_response(top(checks[1], user), versions[0])])
    assert count_failures(recorder, checks, counts, k=k, swaps=swaps) == (1, 0)

    torn = top(checks[0], user)
    torn[-1] = next(b for b in train.items.ids
                    if b not in torn and b not in top(checks[1], user))
    recorder = Recorder(versions)
    recorder.add(10.5, 10.5, 10.6, (user,), [_response(torn, versions[0])])
    assert count_failures(recorder, checks, counts, k=k, swaps=swaps) == (1, 0)


@pytest.fixture(scope="module")
def tiny_job(tmp_path_factory):
    corpus = ShardedCorpusWriter(tmp_path_factory.mktemp("corpus"), TINY.paper_corpus).write()
    merged = merge_sharded_corpus(corpus, TINY.paper_merge).dataset
    prefilter = merge_sharded_corpus(corpus, MergeConfig(1, 1)).dataset.readings
    user_ids, codes = np.unique(np.asarray(prefilter["user_id"], dtype=str), return_inverse=True)
    counts = {"user_ids": user_ids, "user_codes": codes.astype(np.int64),
              "book_ids": np.asarray(prefilter["book_id"], dtype=np.int64)}
    return merged, split_readings(merged), counts


def test_split_oracle_rejects_a_dropped_holdout_item(tiny_job):
    merged, split, _ = tiny_job
    assert oracle.split_partitions(merged.readings, split)
    user = next(iter(split.val_items))
    val = dict(split.val_items)
    val[user] = val[user][1:]
    assert not oracle.split_partitions(merged.readings, replace(split, val_items=val))


def test_floor_oracle_rejects_a_floor_the_output_does_not_meet(tiny_job):
    merged, _, prefilter = tiny_job
    assert oracle.floors_ok(merged, prefilter, TINY.paper_merge)
    stricter = replace(TINY.paper_merge, min_book_readings=TINY.paper_merge.min_book_readings + 50)
    assert not oracle.floors_ok(merged, prefilter, stricter)
