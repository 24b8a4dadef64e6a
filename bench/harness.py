"""Pure arithmetic shared by the benchmark driver, its child and its tests.

Nothing here starts a process or imports kljnsim, so the self-tests can
exercise every rule on synthetic data.
"""

from __future__ import annotations

import math

# Candidate tail percentiles, lowest first.  A run reports the highest one
# that leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_GRID = (75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(n: int):
    """Highest percentile in TAIL_GRID with at least TAIL_MIN_BEYOND samples
    beyond it, or None when even the lowest has fewer (the tail is then
    withheld).  p90 therefore needs 100 samples, p99 needs 1000."""
    best = None
    for q in TAIL_GRID:
        if samples_beyond(n, q) >= TAIL_MIN_BEYOND:
            best = q
    return best


def op_latencies(stamps, is_op, t_start: float = 0.0) -> list[float]:
    """Latency of each per-op record on an output stream.

    ``stamps[k]`` is the time record k reached the stream and ``is_op[k]``
    says whether it is a per-op record.  An op's latency is the interval
    since the previous per-op record, or since ``t_start`` (the command's
    start) for the first; other records do not count.  In a closed loop
    with one client that is the time the op took.
    """
    if len(stamps) != len(is_op):
        raise ValueError("stamps and is_op differ in length")
    out = []
    prev = t_start
    for t, op in zip(stamps, is_op):
        if op:
            if t < prev:
                raise ValueError("record stamps must not go backwards")
            out.append(t - prev)
            prev = t
    return out


def span_totals(names, parents, starts, ends):
    """Per-name call count, self time and the summed time of root spans.

    Span k is named ``names[k]``, ran from ``starts[k]`` to ``ends[k]`` and
    was opened inside span ``parents[k]`` (-1 for none).  Spans are numbered
    in the order they opened, so every child has a larger index than its
    parent.  Self time is a span's duration minus that of its direct
    children; the spans of one thread nest, so the children never overlap.

    Returns ``({name: [calls, self_s]}, root_s)``.
    """
    n = len(names)
    child = [0.0] * n
    totals: dict = {}
    root_s = 0.0
    for k in range(n - 1, -1, -1):
        dur = ends[k] - starts[k]
        entry = totals.setdefault(names[k], [0, 0.0])
        entry[0] += 1
        entry[1] += dur - child[k]
        p = parents[k]
        if p >= 0:
            if not p < k:
                raise ValueError(f"span {k} opened before its parent {p}")
            child[p] += dur
        else:
            root_s += dur
    return totals, root_s

