"""Deterministic Monte-Carlo estimation of channel-event probabilities.

Sampling uses counter-based Philox streams: block b of a run with seed s
draws from ``Philox(key=s, counter=[0, 0, b, 0])``, and blocks have a fixed
size independent of how work is scheduled.  Estimates are exact integer hit
counts divided by the sample count, so the result is bit-identical for any
thread count and any partitioning of blocks over workers.  The block size
and key layout are part of the package's reproducibility contract and must
not change between versions.

Each block is one (n, 2 dim) ``standard_normal`` draw z, paired into
w = z.view(complex) / sqrt(2), the whitened noise of h = mu + L w.  Events
are :class:`WhitenedEvent` s and receive x = L_A^{-1} h: the shared antenna
correlation gives Sigma_E,j = alpha_j Sigma_A,j, alpha_j = P_E,j / P_A,j, so
x = L_A^{-1} mu_E + diag(sqrt(alpha_j) 1_{n_j}) w, with L_A^{-1} mu_E from
authenticator.whiten, costs elementwise arithmetic and row sums, no matrix
product or triangular solve.  Sample i is row i of z, the layout above.

A block is streamed, not held: each of min(threads, blocks) workers owns one
(_SUB_ROWS, 2 dim) float64 buffer and a fixed set of blocks, and refills the
buffer _SUB_ROWS rows at a time from the block's generator.  Consecutive
draws continue the generator's stream, so the sub-blocks are the rows of the
block's one draw, bit for bit, and memory per worker is the buffer plus the
event's temporaries over _SUB_ROWS rows, whatever the block size.

An event may also return an (n, k) boolean block, k events over the same
draws, such as one acceptance test per threshold of a false-alarm sweep.
Hits are then counted per column.  Column j sees exactly the samples, and
the integer sums, that a separate call with column j's event would see, so
its hits, value and standard error equal that call's bit for bit; k
thresholds cost one pass over the samples instead of k.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .authenticator import Authenticator, whiten
from .geometry import ChannelStatistics

BLOCK_SIZE = 16_384
_SUB_ROWS = 2_048          # rows drawn and decided at a time; any value gives the same hits
_EVENT_COLUMNS = 64        # thresholds a best-case event compares at a time; any value, same hits


@dataclass(frozen=True)
class McEstimate:
    """Hit count and estimate; arrays of length k for a k-column event."""

    value: float | np.ndarray
    std_error: float | np.ndarray
    samples: int
    hits: int | np.ndarray


@dataclass(frozen=True)
class WhitenedEvent:
    """An event: ``decide`` maps a C-contiguous (n, dim) block of x = L_A^{-1} h to booleans.

    ``decide`` must be row-wise: row i of its result depends on row i of x
    alone.  It sees at most ``_SUB_ROWS`` rows a call, and x is a view of a
    buffer that the next call overwrites, valid only during the call.
    """

    auth: Authenticator
    decide: Callable[[np.ndarray], np.ndarray]


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    """The deterministic substream that owns samples of one block."""
    bits = np.random.Philox(key=seed, counter=[0, 0, block_index, 0])
    return np.random.Generator(bits)


def estimate_probability(event: WhitenedEvent, stats: ChannelStatistics, samples: int,
                         seed: int = 0, threads: int = 1) -> McEstimate:
    """P(event) over h ~ CN(mu, Sigma) by exact counting.

    ``event`` is a :class:`WhitenedEvent`: its ``decide`` receives an (n, dim)
    block of x = L_A^{-1} h and returns a boolean array of length n, or an
    (n, k) block of k events; then ``value``, ``std_error`` and ``hits`` are
    length-k arrays.  ``stats`` must share the authenticator's arrays and
    rho, with variances alpha_j times its own to 1e-12, so that each Sigma_j
    is alpha_j Sigma_A,j.  ``threads`` (at least 1) caps the worker threads;
    results do not depend on it.
    """
    if not isinstance(event, WhitenedEvent):
        raise TypeError(f"estimate_probability needs a WhitenedEvent, got {type(event).__name__}")
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    auth = event.auth
    alpha = stats.powers / auth.stats.powers
    if (stats.block_sizes != auth.stats.block_sizes or stats.rho != auth.stats.rho
            or np.any(np.abs(stats.variances - alpha * auth.stats.variances)
                      > 1e-12 * stats.variances)):
        raise ValueError("whitened events need block covariances alpha_j Sigma_A,j")
    offset = whiten(auth, stats.mean).view(float)
    # each real coordinate of x is offset + sqrt(alpha_j) z / sqrt(2)
    spread = np.repeat(np.sqrt(alpha / 2.0), 2 * np.asarray(stats.block_sizes))
    n_blocks = (samples + BLOCK_SIZE - 1) // BLOCK_SIZE
    workers = min(threads, n_blocks)

    def run_blocks(blocks: range) -> np.ndarray:
        buf = np.empty((_SUB_ROWS, 2 * stats.dim))
        hits = 0
        for b in blocks:
            gen, count = block_generator(seed, b), min(BLOCK_SIZE, samples - b * BLOCK_SIZE)
            for start in range(0, count, _SUB_ROWS):
                z = buf[:min(_SUB_ROWS, count - start)]
                gen.standard_normal(out=z)
                x = np.add(np.multiply(z, spread, out=z), offset, out=z).view(complex)
                flags = np.asarray(event.decide(x), bool)
                if flags.ndim not in (1, 2) or len(flags) != len(z):
                    raise ValueError("event must map an (n, dim) block to n booleans "
                                     "or an (n, k) boolean block")
                hits = hits + flags.sum(axis=0)
                del flags       # not alive while decide builds the next sub-block's
        return hits

    shares = [range(w, n_blocks, workers) for w in range(workers)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run_blocks, shares))
    else:
        counts = list(map(run_blocks, shares))
    hits = np.sum(counts, axis=0)
    p = hits / samples
    err = np.sqrt(p * (1.0 - p) / samples)
    if hits.ndim == 0:
        return McEstimate(value=float(p), std_error=float(err), samples=samples, hits=int(hits))
    return McEstimate(value=p, std_error=err, samples=samples, hits=hits)


def acceptance_event(auth: Authenticator, scale: complex = 1.0) -> WhitenedEvent:
    """Event {d(scale * h) < T}: 2 ||scale x - L_A^{-1} mu_A||^2 < T on the whitened x."""
    def decide(x: np.ndarray) -> np.ndarray:
        y = (scale * x - auth.whitened_mean).view(float)
        return 2.0 * np.einsum("ij,ij->i", y, y) < auth.threshold

    return WhitenedEvent(auth, decide)


def best_case_acceptance_event(auth: Authenticator, thresholds=None) -> WhitenedEvent:
    """Event {min over power scaling of d < T}: the scale-invariant objective
    |m_A^H x|^2 / ||x||^2 on the whitened x exceeding M - T/2.

    With ``thresholds``, a sequence of acceptance thresholds T_k for auth's
    legitimate statistics, the event returns an (n, k) block whose column k
    tests T_k; the objective is computed once per block for all of them, and
    compared _EVENT_COLUMNS thresholds at a time, so its temporaries do not
    grow with k.
    """
    t_star = auth.mahalanobis_energy - (
        auth.threshold if thresholds is None else np.asarray(thresholds, float).ravel()) / 2.0
    # m^H x is the row sum of v . m.view(float) plus j times that of v . (j m).view(float)
    proj_re, proj_im = auth.whitened_mean.view(float), (1j * auth.whitened_mean).view(float)

    def decide(x: np.ndarray) -> np.ndarray:
        v = x.view(float)
        re, im = np.einsum("ij,j->i", v, proj_re), np.einsum("ij,j->i", v, proj_im)
        num, den = re * re + im * im, np.einsum("ij,ij->i", v, v)
        if thresholds is None:
            return num > t_star * den
        flags = np.empty((len(v), t_star.size), bool)
        for j in range(0, t_star.size, _EVENT_COLUMNS):
            cols = slice(j, j + _EVENT_COLUMNS)
            np.greater(num[:, None], t_star[cols] * den[:, None], out=flags[:, cols])
        return flags

    return WhitenedEvent(auth, decide)
