"""The repository benchmark: the paper's whole path, end to end and by layer.

One command, ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0|1``, runs one of three workloads against the library in
``src/`` and prints every metric by name with its unit; the last line of
standard output is the JSON result the benchmark contract asks for.

Workloads (sizes in :mod:`perfbench.config`):

- ``refresh`` — the nightly rebuild: streamed merge, per-user split,
  Most-Read and Closest-Items fits, the default BPR fit, evaluation at
  k=20, ``ModelStore.publish`` and a live service's
  ``refresh_from_store``, then single requests to the shipped model.
- ``serve-zipf`` — interactive readers: single requests in an open loop,
  Zipf(1.1) users over a corpus at the paper's user counts, 10%
  cold-start users.
- ``serve-churn`` — a long-tail catalogue with uniform users, singles
  mixed with batches of 8/32/128, and hot swaps beside the reads.

The host's speed can move by about a quarter in stretches of seconds,
so every timing is taken many times across a run and reported as a
median, or as a percentile of the pooled samples.

The benchmark never edits the library. It times calls into public
functions from outside; with ``--trace 1`` each call is wrapped in a
benchmark-owned :class:`repro.obs.trace.Tracer` span and the per-layer
metrics and self times come from those spans.
"""
