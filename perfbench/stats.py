"""Pure-Python statistics for the benchmark: the percentile rule, host
correction, span self time and failure counting.  No numpy, so the
launcher can use it without importing the measured stack."""

from __future__ import annotations

import math

MIN_BEYOND = 10
PERCENTILES = (50, 90, 99)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: int) -> int:
    """Samples ranked above the q-th percentile of n samples."""
    return n * (100 - q) // 100


def reportable(n: int, q: int) -> bool:
    """A percentile is reported only with at least MIN_BEYOND samples beyond it."""
    return samples_beyond(n, q) >= MIN_BEYOND


def min_samples(q: int) -> int:
    """The smallest sample count for which the q-th percentile is reportable."""
    n = 1
    while not reportable(n, q):
        n += 1
    return n


def latency_summary(samples_ms) -> dict:
    """Reportable percentiles of the samples, with the sample count and
    the count beyond each percentile."""
    n = len(samples_ms)
    out = {"n": n}
    for q in PERCENTILES:
        if reportable(n, q):
            out[f"p{q}"] = percentile(samples_ms, q)
            out[f"p{q}_beyond"] = samples_beyond(n, q)
    return out


def host_factor(nominal_ref_ms: float, measured_ref_ms: float) -> float:
    """Multiply a time by this to express it on the nominal host."""
    if not (nominal_ref_ms > 0 and measured_ref_ms > 0):
        raise ValueError("reference times must be positive")
    return nominal_ref_ms / measured_ref_ms


def trimmed_mean(values, trim: float = 0.1) -> float:
    """Mean without the lowest and highest ``trim`` share of the values.

    Host speed switches between states many times a second, so an op sees
    a mixture of them; the mean of the reference times weighs the states
    as the op does, and the trim drops interrupts and other outliers.
    """
    xs = sorted(values)
    k = int(len(xs) * trim)
    xs = xs[k:len(xs) - k] or xs
    return sum(xs) / len(xs)


def local_refs(gaps, window: int | None) -> list:
    """Host speed at each op: the trimmed mean reference time over the
    ``window`` gaps on each side of it, or over the whole run for None.

    ``gaps[i]`` holds the reference samples taken just before op i, and
    ``gaps[i + 1]`` those just after it, so n ops have n + 1 gaps.
    """
    if window is None:
        return [trimmed_mean([x for gap in gaps for x in gap])] * (len(gaps) - 1)
    out = []
    for i in range(len(gaps) - 1):
        lo, hi = max(0, i + 1 - window), min(len(gaps), i + 1 + window)
        out.append(trimmed_mean([x for gap in gaps[lo:hi] for x in gap]))
    return out


def median(values) -> float:
    return percentile(values, 50)


# -- spans ---------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    end = -math.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.

    ``spans`` is a sequence of (name, start, end, parent, op) tuples, where
    ``parent`` is the index of the parent span or -1.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = _union_length(
            (max(start, spans[c][1]), min(end, spans[c][2]))
            for c in children[i]
            if spans[c][2] > start and spans[c][1] < end
        )
        out.append((end - start) - covered)
    return out


def outermost(spans, index: int) -> bool:
    """True when no ancestor of the span carries the same name, so summing
    outermost spans counts nested calls of one function once."""
    name = spans[index][0]
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


# -- failures ------------------------------------------------------------------


class Tally:
    """Operations attempted and failed; every failure is kept, with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, error: str | None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.reasons.append(error)
