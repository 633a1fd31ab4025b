"""GLRT channel authenticator.

The verifier knows the legitimate statistics (mu_A, Sigma_A) and accepts a
received channel h when the discriminant

    d(h) = 2 (h - mu_A)^H Sigma_A^{-1} (h - mu_A)

stays below a threshold.  Under the legitimate hypothesis d(h) is exactly
chi-square with 2 * (total antennas) degrees of freedom, which pins the
false-alarm rate/threshold pair in closed form.

Sigma_A is block diagonal with array j's block c_j Lambda, c_j = P_j/(K+1)
and Lambda = rho^|k-l| (the identity at rho = 0), so :func:`whiten` applies
the inverse of its lower Cholesky factor L elementwise; no N x N factor is
built.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import ChannelStatistics, Scenario, alice_statistics
from .numerics import NumericsError, chi2_quantile, chi2_tail


def threshold_for_pfa(p_fa: float, dof: int) -> float:
    """Acceptance threshold hitting a target false-alarm probability, solved on the tail."""
    if not 0.0 < p_fa < 1.0:
        raise ValueError(f"false-alarm target must lie in (0, 1), got {p_fa}")
    return chi2_quantile(p_fa, dof, tail=True)


def pfa_of_threshold(threshold: float, dof: int) -> float:
    """False-alarm probability of a given threshold."""
    return chi2_tail(threshold, dof)


@dataclass(frozen=True)
class Authenticator:
    """Frozen verifier state: legitimate statistics plus derived factors.

    ``inv_diag`` is the diagonal of L^{-1}: 1/sqrt(c_j) on array j's first
    antenna and 1/(sqrt(c_j) sqrt(1 - rho^2)) on the others, rho = stats.rho.
    ``whitened_mean`` is L^{-1} mu_A, and ``mahalanobis_energy`` is
    M = mu_A^H Sigma_A^{-1} mu_A = ||L^{-1} mu_A||^2; both follow from the rest.
    """

    stats: ChannelStatistics
    threshold: float
    false_alarm_target: float
    total_dof: int
    inv_diag: np.ndarray
    whitened_mean: np.ndarray = field(init=False)
    mahalanobis_energy: float = field(init=False)

    def __post_init__(self):
        wmean = whiten(self, self.stats.mean)
        object.__setattr__(self, "whitened_mean", wmean)
        object.__setattr__(self, "mahalanobis_energy", float(np.vdot(wmean, wmean).real))


def make_authenticator(scenario: Scenario) -> Authenticator:
    """The verifier of ``scenario``; raises NumericsError unless |rho| < 1."""
    stats = alice_statistics(scenario)
    dof = 2 * stats.dim
    rho = stats.rho
    if not abs(rho) < 1.0:
        raise NumericsError(f"exponential correlation needs |rho| < 1, got {rho}")
    root = np.sqrt(stats.variances)                                 # sqrt(c_j)
    # sqrt(1 - rho^2), factored to keep its accuracy near |rho| = 1
    inv_diag = np.repeat(1.0 / (root * np.sqrt((1.0 - rho) * (1.0 + rho))), stats.block_sizes)
    inv_diag[stats.starts] = 1.0 / root
    return Authenticator(stats=stats, threshold=threshold_for_pfa(scenario.false_alarm_target, dof),
                         false_alarm_target=scenario.false_alarm_target, total_dof=dof,
                         inv_diag=inv_diag)


def whiten(auth: Authenticator, y) -> np.ndarray:
    """x = L^{-1} y for a vector y (N,) or each column of an (N, n) block.

    x_k = (y_k - rho y_{k-1}) / (sqrt(c_j) sqrt(1 - rho^2)) past array j's first
    antenna and y_k / sqrt(c_j) on it, the numerator times inv_diag: at rho = 0
    y_k times the reciprocal, LAPACK's triangular solve up to the sign of a zero
    (an infinite y gives NaN).  Each column is whitened on its own, so its bits
    do not depend on which columns share its block.  One block is allocated:
    rho y_{k-1}, the difference and the scaling are written into it in turn.
    """
    y = np.asarray(y, complex)
    diag = auth.inv_diag.reshape((-1,) + (1,) * (y.ndim - 1))
    x = np.empty_like(y)
    np.subtract(y[1:], np.multiply(auth.stats.rho, y[:-1], out=x[1:]), out=x[1:])
    x[auth.stats.starts] = y[auth.stats.starts]
    return np.multiply(x, diag, out=x)


def discriminant(auth: Authenticator, h: np.ndarray) -> float | np.ndarray:
    """d(h) = 2 (h - mu_A)^H Sigma_A^{-1} (h - mu_A); batched over rows of a 2-D h."""
    h = np.asarray(h)
    x = whiten(auth, (h - auth.stats.mean).T)
    d = 2.0 * np.sum((x.conj() * x).real, axis=0)
    return d if h.ndim == 2 else float(d)

