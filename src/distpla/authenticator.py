"""GLRT channel authenticator.

The verifier knows the legitimate statistics (mu_A, Sigma_A) and accepts a
received channel h when the discriminant

    d(h) = 2 (h - mu_A)^H Sigma_A^{-1} (h - mu_A)

stays below a threshold.  Under the legitimate hypothesis d(h) is exactly
chi-square with 2 * (total antennas) degrees of freedom, which pins the
false-alarm rate/threshold pair in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .geometry import ChannelStatistics, Scenario, alice_statistics
from .numerics import chi2_quantile, chi2_tail, cholesky_lower


def threshold_for_pfa(p_fa: float, dof: int) -> float:
    """Acceptance threshold hitting a target false-alarm probability."""
    if not 0.0 < p_fa < 1.0:
        raise ValueError(f"false-alarm target must lie in (0, 1), got {p_fa}")
    return chi2_quantile(1.0 - p_fa, dof)


def pfa_of_threshold(threshold: float, dof: int) -> float:
    """False-alarm probability of a given threshold."""
    return chi2_tail(threshold, dof)


@dataclass(frozen=True)
class Authenticator:
    """Frozen verifier state: legitimate statistics plus derived factors.

    ``chol`` is the stacked lower Cholesky factor of Sigma_A, block diagonal
    with the factor of each array's covariance,
    ``whitened_mean`` is L^{-1} mu_A, and ``mahalanobis_energy`` is
    M = mu_A^H Sigma_A^{-1} mu_A = ||L^{-1} mu_A||^2.
    """

    stats: ChannelStatistics
    threshold: float
    false_alarm_target: float
    total_dof: int
    chol: np.ndarray
    whitened_mean: np.ndarray
    mahalanobis_energy: float


def make_authenticator(scenario: Scenario) -> Authenticator:
    stats = alice_statistics(scenario)
    dof = 2 * stats.dim
    chol = np.zeros((stats.dim, stats.dim), complex)
    for sl, cov in zip(stats.block_slices(), stats.block_covs):
        chol[sl, sl] = cholesky_lower(cov)
    wmean = solve_triangular(chol, stats.mean, lower=True)
    m_energy = float(np.vdot(wmean, wmean).real)
    return Authenticator(
        stats=stats,
        threshold=threshold_for_pfa(scenario.false_alarm_target, dof),
        false_alarm_target=scenario.false_alarm_target,
        total_dof=dof,
        chol=chol,
        whitened_mean=wmean,
        mahalanobis_energy=m_energy,
    )


def discriminant(auth: Authenticator, h: np.ndarray) -> float | np.ndarray:
    """d(h) = 2 (h - mu_A)^H Sigma_A^{-1} (h - mu_A); batched over rows of a 2-D h."""
    h = np.asarray(h)
    centered = h - auth.stats.mean
    x = solve_triangular(auth.chol, centered.T if h.ndim == 2 else centered, lower=True)
    d = 2.0 * np.sum((x.conj() * x).real, axis=0)
    return d if h.ndim == 2 else float(d)

