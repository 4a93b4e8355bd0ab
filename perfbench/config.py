"""Workload sizes, load shapes and limits, per scale.

``full`` is what the benchmark runs; ``tiny`` keeps every code path but
finishes in seconds, for the benchmark's own smoke tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.corpus import CorpusConfig
from repro.pipeline.merge import MergeConfig

#: The paper's deployed list length.
K = 20

#: Offered rates (requests, or users, per second) the goodput search may
#: report: a fixed geometric ladder, 16 rungs per doubling.
LADDER = tuple(round(250 * 2 ** (i / 16)) for i in range(129))

#: Calls of each batch size in one churn cycle of 843 users; the cycle
#: repeats, each time in a new random order. Users in calls of 1, 8, 32
#: and 128 make 35%, 30%, 19% and 15% of the load. A user waits for the
#: whole batch, so these shares put p50 mid-way through the batch-of-8
#: class and p90 a third of the way into the batch-of-128 class: not on
#: a boundary between classes, where a small shift would move the
#: percentile a lot. A fixed cycle, not independent draws, keeps the mix
#: of every second the same.
CHURN_CYCLE = {1: 299, 8: 32, 32: 5, 128: 1}

#: Share of ``serve-zipf`` requests from users the model has never seen.
COLD_START_SHARE = 0.10

#: Zipf exponent of ``serve-zipf`` user popularity.
ZIPF_EXPONENT = 1.1

#: ``--seconds`` of a serve run: a warm-up share, then rounds of about
#: ``ROUND_S`` that each hold one batch pass, one nominal-rate window and
#: the goodput probes. ``job_s`` is the median over the rounds; the
#: latency percentiles pool the rounds' windows.
WARM_SHARE = 0.10
ROUND_S = 2.0


def rounds(seconds: float) -> tuple[int, float]:
    """Rounds of a serve run of ``seconds``, and each nominal window's length."""
    count = max(1, round(seconds * (1 - WARM_SHARE) / ROUND_S))
    return count, seconds * (1 - WARM_SHARE) / (2 * count)


#: Goodput probes per round; together they take as long as the round's
#: nominal-rate window.
PROBES_PER_ROUND = 2

#: p99 latency limit of a goodput rung. A churn user waits for the whole
#: batch it came in, and a batch of 128 alone takes longer than the
#: interactive limit.
LATENCY_LIMIT_MS = {"serve-zipf": 10.0, "serve-churn": 100.0}

#: Epochs of the prepared serving models (fast kernel); serving cost
#: depends on the factor shapes, not on how long they trained.
SERVE_BPR_EPOCHS = 2


@dataclass(frozen=True)
class Scale:
    """Every size knob of one scale."""

    paper_corpus: CorpusConfig
    """The paper's user counts; ``serve-zipf`` draws its readers from it."""
    paper_merge: MergeConfig
    refresh_corpus: CorpusConfig
    refresh_merge: MergeConfig
    churn_corpus: CorpusConfig
    churn_merge: MergeConfig
    zipf_rate: float
    churn_rate: float
    """Nominal rates, users per second: about 20% (zipf) and 40% (churn)
    of the goodput measured on a 2-vCPU host. At 40% the zipf percentiles
    followed the host's speed through queueing."""
    probe_requests: int
    """Single requests the live service answers after each stage of the
    refresh job, cache cold."""
    setup_repeats: int
    ladder_check_cap: int
    """Ladder responses checked against the oracle, at most, per run."""


FULL = Scale(
    paper_corpus=CorpusConfig(
        n_books=4300, n_authors=1200, n_bct_users=6079, n_anobii_users=37452,
        n_loans=600_000, n_ratings=900_000, n_shards=8,
    ),
    paper_merge=MergeConfig(min_user_readings=10, min_book_readings=100),
    refresh_corpus=CorpusConfig(
        n_books=1000, n_authors=300, n_bct_users=250, n_anobii_users=1500,
        n_loans=25_000, n_ratings=37_500, n_shards=4, rows_per_chunk=8192,
    ),
    refresh_merge=MergeConfig(min_user_readings=10, min_book_readings=30),
    churn_corpus=CorpusConfig(
        n_books=20_000, n_authors=3900, n_bct_users=4000, n_anobii_users=16000,
        n_loans=200_000, n_ratings=300_000, n_shards=4,
    ),
    churn_merge=MergeConfig(min_user_readings=10, min_book_readings=5),
    zipf_rate=2000.0,
    churn_rate=2000.0,
    probe_requests=300,
    setup_repeats=10,
    ladder_check_cap=4000,
)

TINY = Scale(
    paper_corpus=CorpusConfig(
        n_books=300, n_authors=100, n_bct_users=150, n_anobii_users=600,
        n_loans=12_000, n_ratings=12_000, n_shards=2, rows_per_chunk=4096,
    ),
    paper_merge=MergeConfig(min_user_readings=5, min_book_readings=5),
    refresh_corpus=CorpusConfig(
        n_books=300, n_authors=100, n_bct_users=150, n_anobii_users=600,
        n_loans=12_000, n_ratings=12_000, n_shards=2, rows_per_chunk=4096,
    ),
    refresh_merge=MergeConfig(min_user_readings=5, min_book_readings=5),
    churn_corpus=CorpusConfig(
        n_books=600, n_authors=150, n_bct_users=150, n_anobii_users=600,
        n_loans=12_000, n_ratings=12_000, n_shards=2, rows_per_chunk=4096,
    ),
    churn_merge=MergeConfig(min_user_readings=5, min_book_readings=2),
    zipf_rate=500.0,
    churn_rate=500.0,
    probe_requests=20,
    setup_repeats=2,
    ladder_check_cap=200,
)

SCALES = {"full": FULL, "tiny": TINY}
