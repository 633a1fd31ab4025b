"""Stochastic network calculus delay bounds over the authenticated link.

Frames either carry R * N_k bits (authenticated and decoded) or nothing
(rejected or in outage), which makes the service increment Bernoulli with
a closed-form Mellin transform.  For constant-rate arrivals the delay
violation probability admits the standard (min, x)-algebra bound

    P(W > w) <= inf_{s > 0} Ms(1 - s)^w / (1 - Ma(1 + s) Ms(1 - s))

valid whenever the stability product Ma(1 + s) Ms(1 - s) < 1 for some s.
A discrete-event queue simulator provides the matching empirical law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .authenticator import Authenticator, pfa_of_threshold
from .geometry import ChannelStatistics
from .numerics import bounded_minimum
from .power_attack import _tail


class UnstableQueueError(RuntimeError):
    """No transform parameter stabilizes the queue: the bound is vacuous."""


@dataclass(frozen=True)
class ArrivalModel:
    """Constant arrival of ``bits_per_frame`` bits every frame."""

    bits_per_frame: float

    def mellin(self, s: float) -> float:
        return math.exp(self.bits_per_frame * (s - 1.0))


@dataclass(frozen=True)
class ServiceModel:
    """Bernoulli service: rate*resources bits with prob. 1-outage, else zero."""

    rate: float
    resources: float
    outage: float

    def mellin(self, s: float) -> float:
        return (math.exp(self.rate * self.resources * (s - 1.0)) * (1.0 - self.outage)
                + self.outage)


@dataclass(frozen=True)
class DelayBound:
    probability: float          # min(raw bound, 1)
    raw: float                  # unclamped kernel value
    s_opt: float
    stable: bool


def _kernel(arrival: ArrivalModel, service: ServiceModel, w: int, s: float) -> float:
    try:
        rho = arrival.mellin(1.0 + s) * service.mellin(1.0 - s)
    except OverflowError:
        return math.inf
    if not rho < 1.0:
        return math.inf
    return service.mellin(1.0 - s) ** w / (1.0 - rho)


def delay_violation_bound(arrival: ArrivalModel, service: ServiceModel, w: int) -> DelayBound:
    """Tightest grid-plus-refinement delay violation bound P(W > w).

    Scans a log grid of transform parameters, keeps the best stable point,
    and polishes it with a bounded scalar minimization between its grid
    neighbors.  An everywhere-unstable product yields stable=False with a
    vacuous probability of 1.
    """
    if w < 0:
        raise ValueError("delay must be nonnegative")
    grid = np.logspace(-3.0, 2.0, 400)
    vals = np.array([_kernel(arrival, service, w, s) for s in grid.tolist()])
    if not np.any(np.isfinite(vals)):
        return DelayBound(1.0, math.inf, math.nan, False)
    i = int(np.argmin(vals))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    best_s, best_v = float(grid[i]), float(vals[i])
    if hi > lo:
        s, v = bounded_minimum(lambda s: _kernel(arrival, service, w, s), lo, hi, 1e-12)
        if math.isfinite(v) and v < best_v:     # the kernel is inf off the stable set
            best_s, best_v = s, v
    return DelayBound(min(best_v, 1.0), best_v, best_s, True)


def stability_margin(arrival: ArrivalModel, service: ServiceModel) -> float:
    """Mean service surplus per frame; positive is necessary for stability."""
    return service.rate * service.resources * (1.0 - service.outage) - arrival.bits_per_frame


# ---------------------------------------------------------------------------
# outage probabilities feeding the service model


def _spectrum(rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lambda, U) of the real n x n rho^|k-l|: ones and I at rho = 0."""
    if rho == 0.0:
        return np.ones(n), np.eye(n)
    k = np.arange(n)
    return np.linalg.eigh(rho ** np.abs(k[:, None] - k[None, :]))


def _snr_threshold(rate: float, n: int, noise_density: float) -> float:
    """(2^rate - 1) n N0: 0 without noise, inf where it passes the float range."""
    if not noise_density:
        return 0.0
    return (2.0 ** rate - 1.0) * n * noise_density if rate < 1024.0 else math.inf


def _outage(stats: ChannelStatistics, arrays: list[int], rate: float,
            noise_density: float) -> float:
    """P(||h||^2 < (2^rate - 1) N N0) for h the N antennas of ``arrays``.

    Array j's covariance v_j U diag(lambda) U^T makes ||h||^2 the indefinite
    form with d = -v_j lambda, |c|^2 = |U^T mu_j|^2 / (v_j lambda) and the
    threshold as constant, whose tail power_attack._tail takes.
    """
    means = np.split(stats.mean, stats.starts[1:])
    n = sum(stats.block_sizes[j] for j in arrays)
    d, c2 = [], []
    for j in arrays:
        values, vectors = _spectrum(stats.rho, stats.block_sizes[j])
        d.append(-stats.variances[j] * values)
        c2.append(np.abs(vectors.T @ means[j]) ** 2 / (stats.variances[j] * values))
    d = np.concatenate(d)[None, :]
    return float(_tail(d, np.concatenate(c2)[None, :], np.ones(d.shape),
                       np.array([_snr_threshold(rate, n, noise_density)]))[0])


def snr_outage(stats: ChannelStatistics, rate: float, noise_density: float) -> float:
    """P(log2(1 + ||h||^2 / (N_a N0)) < rate) for maximum-ratio combining, evaluated."""
    return _outage(stats, list(range(len(stats.block_sizes))), rate, noise_density)


@dataclass(frozen=True)
class ServiceOutage:
    probability: float
    mode: str
    p_false_alarm: float
    p_snr: float                      # combined SNR-outage component
    exact_condition_held: bool | None  # only the exact mode sets this


def service_outage(auth: Authenticator, rate: float, noise_density: float,
                   mode: str = "centralized_bound") -> ServiceOutage:
    """Probability that a legitimate frame is dropped (rejected or undecodable).

    Modes:
      centralized_bound
          union bound p_FA + P(SNR outage) on pooled MRC.
      centralized_exact_if_valid
          p_FA alone when the as-printed sufficient condition
          sqrt(2^R - 1) < sqrt(T / (2 lambda_min(Sigma^{-1}))) - ||mu||
          holds; it is checked verbatim (it rarely holds outside
          threshold-dominated regimes) and the result falls back to the
          union bound, with the flag recording which way it went.
      local_bound
          p_FA + prod_j P(SNR outage at array j): service fails only if
          every array is individually down.
    """
    if mode not in ("centralized_bound", "centralized_exact_if_valid", "local_bound"):
        raise ValueError(f"unknown mode {mode!r}")
    stats = auth.stats
    p_fa = pfa_of_threshold(auth.threshold, auth.total_dof)
    held = None
    if mode == "centralized_exact_if_valid":
        lam_min_inv = 1.0 / max(v * _spectrum(stats.rho, n)[0][-1]
                                 for v, n in zip(stats.variances, stats.block_sizes))
        mu_norm = float(np.linalg.norm(stats.mean))
        lhs = math.sqrt(_snr_threshold(rate, stats.dim, noise_density))
        rhs = math.sqrt(auth.threshold / (2.0 * lam_min_inv)) - mu_norm
        held = lhs < rhs
        if held:
            return ServiceOutage(p_fa, mode, p_fa, 0.0, True)
    if mode == "local_bound":
        p_out = math.prod(_outage(stats, [j], rate, noise_density)
                          for j in range(len(stats.block_sizes)))
    else:
        p_out = snr_outage(stats, rate, noise_density)
    return ServiceOutage(min(p_fa + p_out, 1.0), mode, p_fa, p_out, held)


# ---------------------------------------------------------------------------
# queue simulation oracle


def simulate_queue_delays(arrival: ArrivalModel, service: ServiceModel, frames: int,
                          seed: int = 0, warmup: int = 1000) -> np.ndarray:
    """Empirical per-frame delays of a FIFO fluid queue, in frames.

    The backlog follows the Lindley recursion (vectorized through a running
    minimum of the net-input random walk); the delay of the work arriving
    at frame t is the first lag u with cumulative departures through t + u
    covering cumulative arrivals through t.  Warmup frames are excluded;
    delays reaching past the simulated horizon are recorded at their
    censoring floor rather than dropped, so tail frequencies stay
    conservative.
    """
    if frames <= warmup + 1:
        raise ValueError("need more frames than warmup")
    rng = np.random.default_rng(seed)
    served = service.rate * service.resources * (rng.random(frames) >= service.outage)
    net = arrival.bits_per_frame - served
    walk = np.cumsum(net)
    backlog = walk - np.minimum.accumulate(np.minimum(walk, 0.0))
    cum_arr = arrival.bits_per_frame * np.arange(1, frames + 1)
    cum_dep = cum_arr - backlog
    slack = 1e-9 * arrival.bits_per_frame
    horizon = frames - max(warmup, 200)
    t = np.arange(warmup, horizon)
    idx = np.searchsorted(cum_dep, cum_arr[t] - slack, side="left")
    # departures past the horizon are censored: record a delay at least as
    # large as the remaining window instead of dropping the sample
    return (np.minimum(idx, frames) - t).astype(np.int64)
