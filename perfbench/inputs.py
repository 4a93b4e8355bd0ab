"""Generated inputs and prepared models, built once per seed.

Everything here runs before any timing, in a child process of its own, so
the measuring process never holds the memory that preparation used (its
peak-RSS readings would otherwise depend on whether a seed's inputs were
already on disk). Inputs live under ``.perfbench-work/`` at the root of
the checkout and are reused when the same seed runs again.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from perfbench.config import SCALES, SERVE_BPR_EPOCHS, Scale
from repro.app.lifecycle import ModelStore
from repro.core.bpr import BPR, BPRConfig
from repro.datasets.corpus import CorpusConfig, ShardedCorpus, ShardedCorpusWriter
from repro.datasets.merged import MergedDataset
from repro.datasets.models import READINGS_SCHEMA
from repro.eval.split import split_readings
from repro.pipeline.merge import MergeConfig
from repro.pipeline.streaming import merge_sharded_corpus
from repro.rng import derive_rng
from repro.tables import Table, read_csv, write_csv

WORK_DIR = ".perfbench-work"

#: Seeds whose inputs stay on disk (about 200 MB each at full scale);
#: the least recently used beyond this are deleted.
KEEP_SEEDS = 12

#: Inputs each workload needs, by directory name.
NEEDS = {
    "refresh": ("refresh-corpus", "refresh-prefilter", "refresh-previous"),
    "serve-zipf": ("paper-corpus", "zipf-serving"),
    "serve-churn": ("churn-corpus", "churn-serving"),
}

_READY = "READY"

#: Bump when the way inputs are built changes, so stale ones are rebuilt.
INPUTS_VERSION = 2


def seed_dir(root: Path, scale_name: str, seed: int) -> Path:
    """Where one seed's inputs live; the name changes with their sizes."""
    scale = SCALES[scale_name]
    shapes = [getattr(scale, f"{source}_{part}") for source in ("paper", "refresh", "churn")
              for part in ("corpus", "merge")]
    digest = hashlib.sha256(
        f"{INPUTS_VERSION} {shapes!r} {SERVE_BPR_EPOCHS}".encode("utf-8")
    ).hexdigest()[:12]
    return root / WORK_DIR / "inputs" / f"{scale_name}-{digest}" / f"seed-{seed}"


def corpus_config(base: CorpusConfig, seed: int, name: str) -> CorpusConfig:
    """``base`` for one benchmark seed: the same library, new events.

    The corpus seed, fixed per corpus, draws the catalogue, popularity and
    readers' activity; those set most of what a run measures (URR moved by
    a third between corpus seeds). The benchmark seed picks the generation
    unit ``rows_per_chunk``, which reseeds every chunk of events, so each
    seed draws a different event stream over the same library.
    """
    library = derive_rng(None, "perfbench", "library", name)
    events = derive_rng(seed, "perfbench", "events", name)
    shrink = int(events.integers(0, base.rows_per_chunk // 8))
    return replace(
        base,
        seed=int(library.integers(0, 2**31 - 1)),
        rows_per_chunk=base.rows_per_chunk - shrink,
    )


def ensure_inputs(root: Path, workload: str, seed: int, scale_name: str) -> Path:
    """Build the workload's inputs for ``seed`` unless already on disk.

    Preparation runs in a child process; the parent waits for it.
    """
    directory = seed_dir(root, scale_name, seed)
    if not all((directory / name / _READY).exists() for name in NEEDS[workload]):
        subprocess.run(
            [
                sys.executable, str(Path(__file__).with_name("run.py")),
                "--prepare", "--workload", workload, "--seed", str(seed),
                "--scale", scale_name,
            ],
            cwd=root, check=True, stdout=sys.stderr, timeout=600,
        )
        # Write the new inputs back now, not while the run is being timed.
        os.sync()
    os.utime(directory)
    _prune(directory.parent)
    return directory


def _prune(parent: Path) -> None:
    seeds = sorted(
        (p for p in parent.iterdir() if p.is_dir()),
        key=lambda p: p.stat().st_mtime, reverse=True,
    )
    for stale in seeds[KEEP_SEEDS:]:
        shutil.rmtree(stale, ignore_errors=True)


def prepare(root: Path, workload: str, seed: int, scale_name: str) -> None:
    """Child-process entry: write every input ``workload`` needs."""
    scale = SCALES[scale_name]
    directory = seed_dir(root, scale_name, seed)
    for name in NEEDS[workload]:
        target = directory / name
        if (target / _READY).exists():
            continue
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        _BUILDERS[name](directory, target, seed, scale)
        (target / _READY).write_text("ok\n", encoding="utf-8")


def _corpus(source: str):
    def build(directory: Path, target: Path, seed: int, scale: Scale) -> None:
        config = corpus_config(getattr(scale, f"{source}_corpus"), seed, source)
        ShardedCorpusWriter(target, config).write()
    return build


def _prefilter(source: str):
    """Readings before the activity floors, for the floor oracle."""

    def build(directory: Path, target: Path, seed: int, scale: Scale) -> None:
        corpus = ShardedCorpus(directory / f"{source}-corpus")
        merged = merge_sharded_corpus(
            corpus, MergeConfig(min_user_readings=1, min_book_readings=1)
        ).dataset
        user_ids, user_codes = np.unique(
            np.asarray(merged.readings["user_id"], dtype=str), return_inverse=True
        )
        np.savez(
            target / "prefilter.npz",
            user_ids=user_ids,
            user_codes=user_codes.astype(np.int64),
            book_ids=np.asarray(merged.readings["book_id"], dtype=np.int64),
        )
    return build


def _previous_model(directory: Path, target: Path, seed: int, scale: Scale) -> None:
    """Yesterday's model: what the live service serves before the refresh."""
    corpus = ShardedCorpus(directory / "refresh-corpus")
    merged = merge_sharded_corpus(corpus, scale.refresh_merge).dataset
    split = split_readings(merged)
    model = BPR(_serving_bpr(seed, "refresh-previous")).fit(split.train)
    ModelStore(target / "store").publish(model, split.train)
    _write_catalogue(merged, target)


def _serving(source: str, versions: int):
    """A published model store plus the catalogue and test holdout."""

    def build(directory: Path, target: Path, seed: int, scale: Scale) -> None:
        corpus = ShardedCorpus(directory / f"{source}-corpus")
        merged = merge_sharded_corpus(
            corpus, getattr(scale, f"{source}_merge")
        ).dataset
        split = split_readings(merged)
        store = ModelStore(target / "store")
        for version in range(versions):
            config = _serving_bpr(seed, f"{source}-v{version}")
            store.publish(BPR(config).fit(split.train), split.train)
        _write_catalogue(merged, target)
        users = sorted(split.test_items)
        held = [split.test_items[u] for u in users]
        np.savez(
            target / "holdout.npz",
            user_ids=np.asarray([split.users.id_of(u) for u in users], dtype=str),
            offsets=np.cumsum([0] + [len(h) for h in held]),
            book_ids=np.asarray(
                [split.items.id_of(int(i)) for h in held for i in h], dtype=np.int64
            ),
        )
    return build


def _serving_bpr(seed: int, name: str) -> BPRConfig:
    rng = derive_rng(seed, "perfbench", "bpr", name)
    return BPRConfig(
        epochs=SERVE_BPR_EPOCHS, kernel="fast", seed=int(rng.integers(0, 2**31 - 1))
    )


def _write_catalogue(merged: MergedDataset, target: Path) -> None:
    write_csv(merged.books, target / "books.csv")
    write_csv(merged.genres, target / "genres.csv")


def load_catalogue(directory: Path) -> MergedDataset:
    """The catalogue :func:`_write_catalogue` saved. The service reads only
    the books table, so the readings are left empty."""
    return MergedDataset(
        books=read_csv(directory / "books.csv"),
        readings=Table.empty(READINGS_SCHEMA),
        genres=read_csv(directory / "genres.csv"),
    )


def load_holdout(directory: Path) -> dict[str, np.ndarray]:
    """BCT test users -> their held-out book ids."""
    with np.load(directory / "holdout.npz") as data:
        offsets = data["offsets"]
        books = data["book_ids"]
        return {
            str(user): books[offsets[i]:offsets[i + 1]]
            for i, user in enumerate(data["user_ids"])
        }


def load_prefilter(directory: Path) -> dict[str, np.ndarray]:
    with np.load(directory / "prefilter.npz") as data:
        return {name: data[name] for name in data.files}


_BUILDERS = {
    "paper-corpus": _corpus("paper"),
    "refresh-corpus": _corpus("refresh"),
    "churn-corpus": _corpus("churn"),
    "refresh-prefilter": _prefilter("refresh"),
    "refresh-previous": _previous_model,
    "zipf-serving": _serving("paper", versions=1),
    "churn-serving": _serving("churn", versions=2),
}

