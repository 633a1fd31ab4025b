"""Deterministic Monte-Carlo estimation of channel-event probabilities.

Sampling uses counter-based Philox streams: block b of a run with seed s
draws from ``Philox(key=s, counter=[0, 0, b, 0])``, and blocks have a fixed
size independent of how work is scheduled.  Estimates are exact integer hit
counts divided by the sample count, so the result is bit-identical for any
thread count and any partitioning of blocks over workers.  The block size
and key layout are part of the package's reproducibility contract and must
not change between versions.

Each block draws one (n, 2 dim) ``standard_normal`` array z, paired into
w = z.view(complex) / sqrt(2), the whitened noise of h = mu + L w.  Events
are :class:`WhitenedEvent` s and receive x = L_A^{-1} h: the shared antenna
correlation gives Sigma_E,j = alpha_j Sigma_A,j, alpha_j = P_E,j / P_A,j, so
x = L_A^{-1} mu_E + diag(sqrt(alpha_j) 1_{n_j}) w, with L_A^{-1} mu_E from
authenticator.whiten, costs elementwise arithmetic and row sums, no matrix
product or triangular solve.  Sample i is row i of z, the layout above.

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
from typing import Callable

import numpy as np

from .authenticator import Authenticator, whiten
from .geometry import ChannelStatistics

BLOCK_SIZE = 16_384


@dataclass(frozen=True)
class McEstimate:
    """Hit count and estimate; arrays of length k for a k-column event."""

    value: float | np.ndarray
    std_error: float | np.ndarray
    samples: int
    hits: int | np.ndarray


@dataclass(frozen=True)
class WhitenedEvent:
    """An event: ``decide`` maps a C-contiguous (n, dim) block of x = L_A^{-1} h to booleans."""

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
    is alpha_j Sigma_A,j.  Results do not depend on ``threads``.
    """
    if not isinstance(event, WhitenedEvent):
        raise TypeError(f"estimate_probability needs a WhitenedEvent, got {type(event).__name__}")
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
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

    def run_block(b: int) -> np.ndarray:
        count = min(BLOCK_SIZE, samples - b * BLOCK_SIZE)
        z = block_generator(seed, b).standard_normal((count, 2 * stats.dim))
        x = np.add(np.multiply(z, spread, out=z), offset, out=z).view(complex)
        flags = np.asarray(event.decide(x), bool)
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
    tests T_k; the objective is computed once per block for all of them.
    """
    t_star = auth.mahalanobis_energy - (
        auth.threshold if thresholds is None else np.asarray(thresholds, float)) / 2.0
    # m^H x is the row sum of v . m.view(float) plus j times that of v . (j m).view(float)
    proj_re, proj_im = auth.whitened_mean.view(float), (1j * auth.whitened_mean).view(float)

    def decide(x: np.ndarray) -> np.ndarray:
        v = x.view(float)
        re, im = np.einsum("ij,j->i", v, proj_re), np.einsum("ij,j->i", v, proj_im)
        num, den = re * re + im * im, np.einsum("ij,ij->i", v, v)
        return num > t_star * den if thresholds is None else num[:, None] > t_star * den[:, None]

    return WhitenedEvent(auth, decide)
