"""Pure helpers of the benchmark: percentiles, arrival schedules, ladder rules.

Nothing here imports the program under test, so the rules the benchmark
reports by can be tested on their own (``test_perfbench.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer samples the highest supported percentile is used.
MIN_BEYOND = 10


def supported_percentile(count: int, wanted: float, min_beyond: int = MIN_BEYOND) -> float:
    """The highest percentile up to ``wanted`` with ``min_beyond`` samples past it."""
    if count <= min_beyond:
        raise ValueError(f"{count} samples support no tail percentile (need > {min_beyond})")
    return min(float(wanted), 100.0 * (1.0 - min_beyond / count))


def nearest_rank(samples: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``percentile``% at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    # The epsilon keeps float error in percentile * n from bumping the rank.
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def latency_summary(samples_ms: Sequence[float], tail: float = 99.0) -> Dict[str, float]:
    """Median and the highest supported tail percentile (up to ``tail``)."""
    tail_p = supported_percentile(len(samples_ms), tail)
    return {
        "n": len(samples_ms),
        "p50": nearest_rank(samples_ms, 50.0),
        "tail_p": tail_p,
        "tail": nearest_rank(samples_ms, tail_p),
    }


def arrival_schedule(rate: float, count: int, seed: int) -> np.ndarray:
    """Due times (seconds from the start) of a seeded Poisson request stream."""
    if rate <= 0 or count <= 0:
        raise ValueError(f"need a positive rate and count, got {rate}, {count}")
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, size=count)
    return np.cumsum(gaps)


def backlog_grows(latencies_ms: Sequence[float], slack_ms: float) -> bool:
    """True when requests sent last waited much longer than those sent first.

    ``latencies_ms`` is in send order.  The backlog counts as growing when
    the median latency of the last quarter exceeds twice the first quarter's
    median plus ``slack_ms``: a server keeping pace shows no trend, one
    falling behind shows latency rising with time.
    """
    quarter = len(latencies_ms) // 4
    if quarter == 0:
        return False
    first = float(np.median(latencies_ms[:quarter]))
    last = float(np.median(latencies_ms[-quarter:]))
    return last > 2.0 * first + slack_ms


def max_rps_at_slo(rungs: Sequence[Dict[str, float]], slo_ms: float) -> Optional[Dict[str, float]]:
    """The highest ladder rung that meets the latency limit, or ``None``.

    Rungs are taken in ascending offered rate; the first one whose tail
    latency exceeds ``slo_ms``, whose backlog grows, or which failed any
    request ends the search (a failed request misses every limit).
    """
    best = None
    for rung in sorted(rungs, key=lambda item: item["rate"]):
        if rung["tail_ms"] > slo_ms or rung["backlog_grows"] or rung["failed"] > 0:
            break
        best = rung
    return best
