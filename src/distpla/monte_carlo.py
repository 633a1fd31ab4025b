"""Deterministic Monte-Carlo estimation of channel-event probabilities.

Sampling uses counter-based Philox streams: block b of a run with seed s
draws from ``Philox(key=s, counter=[0, 0, b, 0])``, and blocks have a fixed
size independent of how work is scheduled.  Estimates are exact integer hit
counts divided by the sample count, so the result is bit-identical for any
thread count and any partitioning of blocks over workers.  The block size
and key layout are part of the package's reproducibility contract and must
not change between versions.

An event may also return an (n, k) boolean block, k events over the same
draws, such as one acceptance test per threshold of a false-alarm sweep.
Hits are then counted per column.  Column j sees exactly the samples, and
the block-by-block integer sums, that a separate call with column j's event
would see, so its hits, value and standard error equal that call's bit for
bit; k thresholds cost one pass over the samples instead of k.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .geometry import ChannelStatistics
from .numerics import cholesky_lower

BLOCK_SIZE = 16_384


@dataclass(frozen=True)
class McEstimate:
    """Hit count and estimate; arrays of length k for a k-column event."""

    value: float | np.ndarray
    std_error: float | np.ndarray
    samples: int
    hits: int | np.ndarray


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    """The deterministic substream that owns samples of one block."""
    bits = np.random.Philox(key=seed, counter=[0, 0, block_index, 0])
    return np.random.Generator(bits)


def sample_channel(stats: ChannelStatistics, rng: np.random.Generator,
                   n: int | None = None) -> np.ndarray:
    """Draw h = mu + L w with w iid standard complex normal.

    Returns one stacked vector, or an (n, dim) block when ``n`` is given.
    """
    chol = cholesky_lower(stats.cov)
    count = 1 if n is None else n
    z = rng.standard_normal((count, stats.dim * 2))
    w = (z[:, ::2] + 1j * z[:, 1::2]) / np.sqrt(2.0)
    h = stats.mean + w @ chol.T
    return h[0] if n is None else h


def estimate_probability(event, stats: ChannelStatistics, samples: int,
                         seed: int = 0, threads: int = 1) -> McEstimate:
    """P(event) over h ~ CN(mu, Sigma) by exact counting.

    ``event`` receives an (n, dim) complex block and returns a boolean
    array of length n, or an (n, k) block of k events; then ``value``,
    ``std_error`` and ``hits`` are length-k arrays.  Identical (seed,
    samples) give identical results for every ``threads`` value.
    """
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    n_blocks = (samples + BLOCK_SIZE - 1) // BLOCK_SIZE

    def run_block(b: int) -> np.ndarray:
        count = min(BLOCK_SIZE, samples - b * BLOCK_SIZE)
        h = sample_channel(stats, block_generator(seed, b), count)
        flags = np.asarray(event(h), bool)
        if flags.ndim not in (1, 2) or len(flags) != count:
            raise ValueError("event must map an (n, dim) block to n booleans "
                             "or an (n, k) boolean block")
        return flags.sum(axis=0)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(run_block, range(n_blocks)))
    else:
        counts = [run_block(b) for b in range(n_blocks)]
    hits = np.sum(counts, axis=0)
    if hits.ndim == 0:
        p = int(hits) / samples
        return McEstimate(value=p, std_error=float(np.sqrt(p * (1.0 - p) / samples)),
                          samples=samples, hits=int(hits))
    p = hits / samples
    return McEstimate(value=p, std_error=np.sqrt(p * (1.0 - p) / samples),
                      samples=samples, hits=hits)


def acceptance_event(auth, scale: complex = 1.0):
    """Event {d(scale * h) < T} as a vectorized predicate for estimate_probability."""
    mean = auth.stats.mean

    def event(h: np.ndarray) -> np.ndarray:
        centered = scale * h - mean
        x = solve_triangular(auth.chol, centered.T, lower=True)
        d = 2.0 * np.sum((x.conj() * x).real, axis=0)
        return d < auth.threshold

    return event


def best_case_acceptance_event(auth, thresholds=None):
    """Event {min over power scaling of d < T}: the scale-invariant objective
    |mu_A^H Sigma_A^{-1} h|^2 / (h^H Sigma_A^{-1} h) exceeding M - T/2.

    With ``thresholds``, a sequence of acceptance thresholds T_k for auth's
    legitimate statistics, the event returns an (n, k) block whose column k
    tests T_k; the objective is computed once per block for all of them.
    """
    wmean = auth.whitened_mean
    t_star = auth.mahalanobis_energy - (
        auth.threshold if thresholds is None else np.asarray(thresholds, float)) / 2.0

    def event(h: np.ndarray) -> np.ndarray:
        x = solve_triangular(auth.chol, h.T, lower=True)
        num = np.abs(wmean.conj() @ x) ** 2
        den = np.sum((x.conj() * x).real, axis=0)
        if thresholds is None:
            return num > t_star * den
        return num[:, None] > t_star * den[:, None]

    return event
