"""The benchmark's own arithmetic: span self time, tail percentiles and
computed convolution FLOPs. Pure functions, so tests can pin them."""

from __future__ import annotations

import math
from typing import NamedTuple

# Percentiles the benchmark may report, in tenths of a percent so that the
# rank arithmetic stays in integers.
PERCENTILES_TENTHS = (500, 900, 950, 990, 999)
MIN_BEYOND = 10


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    request: str | None = None


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` after clipping each to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may nest or overlap one another; time covered by two
    children is subtracted once.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(kids, s.start, s.end)
        for s, kids in zip(spans, children)
    ]


def _rank(tenths: int, count: int) -> int:
    """1-based nearest rank of the percentile `tenths`/10 among `count` samples."""
    return max(1, -(-tenths * count // 1000))


def tail_percentile(count: int) -> float | None:
    """The highest reportable percentile for `count` samples: the largest one
    with at least MIN_BEYOND samples ranked above it, or None."""
    best = None
    for tenths in PERCENTILES_TENTHS:
        if count - _rank(tenths, count) >= MIN_BEYOND:
            best = tenths / 10
    return best


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile `p` (in percent) of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(round(p * 10), len(ordered)) - 1]


def conv_forward_flops(x_shape, w_shape) -> int:
    """Multiply-adds x 2 of a same-size convolution, computed from shapes.

    `x_shape` is (..., rows, cols, c_in) and `w_shape` (k, k, c_in, c_out).
    Every cell of the input shape counts, padded or not, because the kernel
    computes them all. The bias add is left out.
    """
    cells = math.prod(x_shape[:-1])
    k1, k2, c_in, c_out = w_shape
    return 2 * cells * k1 * k2 * c_in * c_out


def conv_backward_flops(x_shape, w_shape) -> int:
    """Input and weight gradients each cost one forward; the bias sum is left out."""
    return 2 * conv_forward_flops(x_shape, w_shape)
