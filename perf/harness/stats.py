"""Order statistics the benchmark reports: nearest-rank percentiles,
the ten-samples-beyond rule, and segment medians for throughput."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported as a statistic only with this many samples
#: beyond it; with fewer, it is the slowest handful of requests.
MIN_BEYOND = 10


def percentile(samples, fraction):
    """Nearest-rank percentile: the smallest sample with at least
    *fraction* of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, fraction):
    """How many of *count* samples lie beyond the nearest-rank
    *fraction* percentile."""
    return count - max(1, math.ceil(fraction * count))


def supported(count, fraction):
    """Does a sample of *count* support reporting this percentile?"""
    return samples_beyond(count, fraction) >= MIN_BEYOND


def min_samples(fraction):
    """Fewest samples that leave :data:`MIN_BEYOND` beyond the
    percentile."""
    count = MIN_BEYOND
    while not supported(count, fraction):
        count += 1
    return count


def windowed_percentile(chunks, fraction):
    """The median, over windows, of each window's percentile.

    *chunks* are consecutive groups of samples in time order: the
    repeats of an embedded workload, or single samples.  Consecutive
    chunks are merged into windows until each has the samples the
    percentile needs (the last window takes what is left over).  A
    machine stall then inflates one window's tail and not the result,
    as with :func:`segment_rates`, and a repeat whose latencies follow a
    trend is never cut in the middle.
    """
    size = min_samples(fraction)
    windows, current = [], []
    for chunk in chunks:
        current.extend(chunk)
        if len(current) >= size:
            windows.append(current)
            current = []
    if current and windows:
        windows[-1].extend(current)
    elif current:
        windows.append(current)
    return statistics.median(percentile(w, fraction) for w in windows)


def median(samples):
    return statistics.median(samples)


def quartiles(samples):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (the rule the driver applies to ten runs)."""
    if len(samples) < 2:
        only = samples[0]
        return (only, only, only)
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q1, q2, q3)


def spread(samples):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / q2 if q2 else float("inf")


def segment_rates(completions, start, end, units_each, segments,
                  duration=lambda a, b: b - a):
    """Per-segment rates; their median is the throughput, so that one
    machine stall moves one segment and not the result.

    *completions* are the times at which a unit of work finished;
    ``[start, end)`` is cut into *segments* equal parts and each part's
    rate is ``units_each`` times the completions inside it, over what
    *duration* says the part lasted.
    """
    if end <= start:
        raise ValueError("empty interval")
    width = (end - start) / segments
    counts = [0] * segments
    for moment in completions:
        if start <= moment < end:
            counts[min(segments - 1, int((moment - start) / width))] += 1
    return [
        count * units_each
        / duration(start + i * width, start + (i + 1) * width)
        for i, count in enumerate(counts)
    ]
