"""Impersonation under power manipulation: optimal strategies and miss rates.

An attacker transmitting from a fixed position can scale its complex
baseband amplitude by eta * e^{j psi}.  Minimizing the verifier's
discriminant over (eta, psi) has a closed form; the induced worst-case miss
probability is the tail of an indefinite Hermitian quadratic form in
standard complex Gaussians, handled here three ways:

* a saddle-point approximation of the tail integral (any array layout),
* an exact doubly noncentral F expression (single array),
* Monte-Carlo on the raw acceptance event (oracle and fallback).

The antenna correlation is shared by the whole scenario, so array j sees
the attacker covariance Sigma_E,j = alpha_j Sigma_A,j with alpha_j =
P_E,j / P_A,j, the ratio of received powers.  Every form therefore has at
most 2 N_RRH distinct eigenvalues, and is built from per-array sums and an
N_RRH x N_RRH eigenproblem instead of an N x N one; a term with
multiplicity m stands for m equal eigenvalues and carries the offset
energy of its whole eigenspace.

The saddle exponent is evaluated as s(z) = c0 z + sum_i |c_i|^2 z d_i /
(1 - z d_i) - ln z - sum_i m_i ln(1 - z d_i) on the strip where the moment
generating function of the form exists, which matches Monte-Carlo for the
event {sum_i d_i |w_i + c_i|^2 + c0 > 0}.  Whenever the direct tail is the
larger one, the complementary event's tail is approximated instead and
subtracted from one; a second-order curvature correction is applied in
both cases (after Kuonen, Biometrika 86 (1999) 929-935).  Results are
clamped to [0, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betainc, gammaln

from .authenticator import Authenticator
from .geometry import ChannelStatistics
from .numerics import NumericsError, bracketed_root_find

_EIG_DROP = 1e-14          # relative cutoff below which an eigenvalue is treated as zero
_BRACKET_RIM = 1e-9        # how close the root bracket may approach the MGF singularity


class SaddlepointError(RuntimeError):
    """The saddle-point search failed on both sides of the event."""


@dataclass(frozen=True)
class PowerStrategy:
    """Amplitude scaling eta >= 0 and phase rotation psi applied by the attacker."""

    amplitude: float
    phase: float

    @property
    def scale(self) -> complex:
        return self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))


NO_ATTACK = PowerStrategy(1.0, 0.0)


@dataclass(frozen=True)
class IndefiniteForm:
    """Event {sum_i d_i |w_i + c_i|^2 + constant > 0}, w iid CN(0, 1).

    Term i is an eigenspace: ``eigenvalues[i]`` repeated
    ``multiplicities[i]`` times (``None`` means once each), and
    ``offsets[i]`` is the norm of the offset inside that eigenspace; by
    rotational invariance only that norm affects the law.  The builders
    below emit at most 2 N_RRH terms and none of multiplicity zero (a
    zero-multiplicity term would still move the saddle bracket's rim).
    ``threshold_param`` records the normalized acceptance parameter
    t = 1 - T/(2M) the form was built for.
    """

    eigenvalues: np.ndarray
    offsets: np.ndarray
    threshold_param: float
    constant: float = 0.0
    multiplicities: np.ndarray | None = None


def optimal_power_strategy(auth: Authenticator, h_eve: np.ndarray) -> tuple[PowerStrategy, float]:
    """Discriminant-minimizing (eta, psi) for a known attacker channel.

    Returns the strategy and the attained minimum
    d_min = 2 (M - |mu_A^H Sigma_A^{-1} h|^2 / (h^H Sigma_A^{-1} h)).
    """
    x = solve_triangular(auth.chol, np.asarray(h_eve), lower=True)
    r = complex(np.vdot(auth.whitened_mean, x))     # mu_A^H Sigma_A^{-1} h
    q = float(np.vdot(x, x).real)                   # h^H Sigma_A^{-1} h
    if q <= 0.0:
        raise ValueError("attacker channel vector must be nonzero")
    eta = abs(r) / q
    psi = -np.angle(r)
    d_min = 2.0 * (auth.mahalanobis_energy - abs(r) ** 2 / q)
    return PowerStrategy(eta, float(psi)), float(d_min)


def statistical_power_strategy(auth: Authenticator, eve_stats: ChannelStatistics) -> PowerStrategy:
    """Optimal strategy computed against the attacker's mean channel.

    This is what an attacker with statistical (not instantaneous) channel
    knowledge plays: substitute mu_E for the realization.
    """
    strategy, _ = optimal_power_strategy(auth, eve_stats.mean)
    return strategy


def _array_layout(auth: Authenticator, eve_stats: ChannelStatistics):
    """Per-array alpha_j = P_E,j / P_A,j, sizes n_j, and block start offsets."""
    sizes = np.asarray(auth.stats.block_sizes)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return eve_stats.powers / auth.stats.powers, sizes, starts


def build_indefinite_form(auth: Authenticator, eve_stats: ChannelStatistics) -> IndefiniteForm:
    """Reduce the optimal-PMA miss event to an indefinite quadratic form.

    With t = 1 - T/(2M), the event {min_strategy d < T} is
    {h^H C h > 0} for C = Sigma_A^{-1} mu_A mu_A^H Sigma_A^{-1} / M
    - t Sigma_A^{-1}; whitening h = mu_E + L_E w with L_E = diag(sqrt alpha_j)
    L_A turns C into u u^H / M - t diag(alpha_j) with u_j = sqrt(alpha_j) w_j,
    w = L_A^{-1} mu_A.  Its eigenvalues are those of the N_RRH x N_RRH matrix
    a a^T / M - t diag(alpha) with a_j = sqrt(alpha_j) ||w_j||, where array j
    contributes the direction u_j with offset b_j = <w_j, x_j> / (||w_j||
    sqrt(alpha_j)), x = L_A^{-1} mu_E, and -t alpha_j on the rest of the
    array (multiplicity n_j - 1, offset energy ||x_j||^2 / alpha_j - |b_j|^2).
    For t in (0, 1) exactly one eigenvalue is positive.
    """
    m_energy = auth.mahalanobis_energy
    t = 1.0 - auth.threshold / (2.0 * m_energy)
    alpha, sizes, starts = _array_layout(auth, eve_stats)
    w = auth.whitened_mean
    x = solve_triangular(auth.chol, eve_stats.mean, lower=True)
    a = np.sqrt(alpha * np.add.reduceat(np.abs(w) ** 2, starts))
    b = np.add.reduceat(w.conj() * x, starts) / a
    values, vectors = np.linalg.eigh(np.outer(a, a) / m_energy - t * np.diag(alpha))
    rest = np.add.reduceat(np.abs(x) ** 2, starts) / alpha - np.abs(b) ** 2
    many = sizes > 1
    return IndefiniteForm(
        eigenvalues=np.concatenate((values, -t * alpha[many])),
        offsets=np.concatenate((vectors.T @ b, np.sqrt(np.maximum(rest[many], 0.0)))),
        threshold_param=float(t),
        multiplicities=np.concatenate((np.ones(sizes.size, int), sizes[many] - 1)))


def fixed_strategy_form(auth: Authenticator, eve_stats: ChannelStatistics,
                        strategy: PowerStrategy) -> IndefiniteForm:
    """Reduce the fixed-strategy acceptance event to an indefinite form.

    The event {d(scale * h) < T} becomes {sum d_i |w_i + c_i|^2 + T/2 > 0}
    with d_j = -|eta|^2 alpha_j of multiplicity n_j per array, offset
    energy ||x_j||^2 / (|eta|^2 alpha_j) for x = L_A^{-1}(scale mu_E - mu_A),
    and the threshold carried additively.
    """
    scale = strategy.scale
    if abs(scale) == 0.0:
        raise ValueError("strategy amplitude must be positive")
    alpha, sizes, starts = _array_layout(auth, eve_stats)
    x = solve_triangular(auth.chol, scale * eve_stats.mean - auth.stats.mean, lower=True)
    gain = abs(scale) ** 2 * alpha
    t = 1.0 - auth.threshold / (2.0 * auth.mahalanobis_energy)
    return IndefiniteForm(eigenvalues=-gain,
                          offsets=np.sqrt(np.add.reduceat(np.abs(x) ** 2, starts) / gain),
                          threshold_param=float(t), constant=auth.threshold / 2.0,
                          multiplicities=sizes)


def _saddle_side(d: np.ndarray, c2: np.ndarray, m: np.ndarray, const: float) -> float:
    """Approximate P(sum d_i |w_i + c_i|^2 + const > 0) on one side.

    ``c2`` is the offset energy and ``m`` the multiplicity of each term.
    Returns an exact 0/1 when the form is sign-definite and the constant
    does not oppose it, NaN when no interior saddle exists (the caller then
    relies on the complementary side).
    """
    if d.size == 0:
        return 1.0 if const > 0 else 0.0
    if not np.any(d > 0) and const <= 0:
        return 0.0
    if not np.any(d < 0) and const >= 0:
        return 1.0

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        def s1(z):
            u = 1.0 - z * d
            return const + np.sum(c2 * d / u ** 2) - 1.0 / z + np.sum(m * d / u)

        pos = d[d > 0]
        z_rim = float(np.min(1.0 / pos)) if pos.size else np.inf
        lo = 1e-12
        if np.isfinite(z_rim):
            hi = z_rim * (1.0 - _BRACKET_RIM)
        else:
            hi = 1.0
            for _ in range(400):
                if s1(hi) > 0:
                    break
                hi *= 2.0
            else:
                return np.nan
        if not (s1(lo) < 0 < s1(hi)):
            return np.nan
        try:
            z0 = bracketed_root_find(s1, lo, hi, tol=1e-15)
        except NumericsError:
            return np.nan

        u = 1.0 - z0 * d
        s0 = const * z0 + np.sum(c2 * z0 * d / u) - np.log(z0) - np.sum(m * np.log(u))
        s2 = np.sum(2.0 * c2 * d ** 2 / u ** 3) + 1.0 / z0 ** 2 + np.sum(m * d ** 2 / u ** 2)
        s3 = np.sum(6.0 * c2 * d ** 3 / u ** 4) - 2.0 / z0 ** 3 + np.sum(2.0 * m * d ** 3 / u ** 3)
        s4 = np.sum(24.0 * c2 * d ** 4 / u ** 5) + 6.0 / z0 ** 4 + np.sum(6.0 * m * d ** 4 / u ** 4)
        if not (np.isfinite(s0) and np.isfinite(s2) and s2 > 0):
            return np.nan
        # second-order steepest-descent factor; clamped because the expansion
        # degenerates when the saddle sits against the MGF singularity
        correction = 1.0 + s4 / (8.0 * s2 ** 2) - 5.0 * s3 ** 2 / (24.0 * s2 ** 3)
        correction = float(min(max(correction, 0.1), 10.0))
        return float(np.exp(s0) / np.sqrt(2.0 * np.pi * s2) * correction)


def saddlepoint_tail_probability(form: IndefiniteForm) -> float:
    """P(sum_i d_i |w_i + c_i|^2 + constant > 0) by saddle-point approximation.

    Evaluates both the direct event and its complement and keeps whichever
    tail is smaller, where the approximation is accurate.  Raises
    SaddlepointError when neither side admits a saddle.
    """
    d = np.asarray(form.eigenvalues, float)
    c2 = np.abs(np.asarray(form.offsets)) ** 2
    m = np.ones(d.size) if form.multiplicities is None else np.asarray(form.multiplicities, float)
    keep = np.abs(d) > _EIG_DROP * max(float(np.max(np.abs(d), initial=0.0)), 1e-300)
    d, c2, m = d[keep], c2[keep], m[keep]
    const = float(form.constant)

    p_direct = _saddle_side(d, c2, m, const)
    p_complement = _saddle_side(-d, c2, m, -const)
    if np.isnan(p_direct) and np.isnan(p_complement):
        raise SaddlepointError("no interior saddle point on either side")
    if np.isnan(p_complement):
        return min(max(p_direct, 0.0), 1.0)
    if np.isnan(p_direct):
        return 1.0 - min(max(p_complement, 0.0), 1.0)
    if p_direct <= p_complement:
        return min(max(p_direct, 0.0), 1.0)
    return 1.0 - min(max(p_complement, 0.0), 1.0)


def _poisson_window(nu: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices and weights of a Poisson(nu/2) pmf covering mass >= 1 - tol."""
    lam = nu / 2.0
    if lam <= 0.0:
        return np.array([0]), np.array([1.0])
    hi = int(lam + 12.0 * math.sqrt(lam) + 25.0)
    r = np.arange(hi + 1)
    w = np.exp(-lam + r * np.log(lam) - gammaln(r + 1.0))
    csum = np.cumsum(w)
    last = int(np.searchsorted(csum, 1.0 - tol)) + 1
    first = int(np.searchsorted(csum, tol / 2.0))
    return r[first:last + 1], w[first:last + 1]


def dncf_cdf(x: float, nu1: float, nu2: float, k1: int, k2: int, tol: float = 1e-12) -> float:
    """CDF of the doubly noncentral F ratio [chi2_{k1}(nu1)/k1] / [chi2_{k2}(nu2)/k2].

    Double Poisson mixture of regularized incomplete beta terms, truncated
    once the retained Poisson mass exceeds 1 - tol per axis (absolute error
    at most ~tol).
    """
    if min(k1, k2) <= 0:
        raise ValueError("degrees of freedom must be positive")
    if min(nu1, nu2) < 0:
        raise ValueError("noncentrality must be nonnegative")
    if x <= 0.0:
        return 0.0
    q = k1 * x / (k2 + k1 * x)
    r, wr = _poisson_window(nu1, tol)
    s, ws = _poisson_window(nu2, tol)
    grid = betainc(k1 / 2.0 + r[:, None], k2 / 2.0 + s[None, :], q)
    return float(min(max(wr @ grid @ ws, 0.0), 1.0))


def dncf_sf(x: float, nu1: float, nu2: float, k1: int, k2: int, tol: float = 1e-12) -> float:
    """Upper tail 1 - dncf_cdf, summed directly so small tails keep accuracy.

    Uses the reflection I_q(a, b) = 1 - I_{1-q}(b, a) inside the mixture,
    avoiding the cancellation a literal 1 - CDF would suffer below ~1e-12.
    """
    if min(k1, k2) <= 0:
        raise ValueError("degrees of freedom must be positive")
    if min(nu1, nu2) < 0:
        raise ValueError("noncentrality must be nonnegative")
    if x <= 0.0:
        return 1.0
    q = k1 * x / (k2 + k1 * x)
    r, wr = _poisson_window(nu1, tol)
    s, ws = _poisson_window(nu2, tol)
    grid = betainc(k2 / 2.0 + s[None, :], k1 / 2.0 + r[:, None], 1.0 - q)
    return float(min(max(wr @ grid @ ws, 0.0), 1.0))


def mdp_single_array_closed_form(auth: Authenticator, eve_stats: ChannelStatistics) -> float:
    """Exact optimal-PMA miss probability for a single receive array.

    P_MD = P(F > (N-1) (2M/T - 1)) for a doubly noncentral F with
    (2, 2(N-1)) degrees of freedom and noncentralities driven by the
    attacker/legitimate mean alignment.  Uses Sigma_E = alpha Sigma_A with
    alpha = P_E / P_A, which the scenario-wide correlation model guarantees.
    """
    n = auth.stats.dim
    if n < 2:
        raise ValueError("closed form needs at least two antennas")
    m_energy = auth.mahalanobis_energy
    threshold = auth.threshold
    if threshold >= 2.0 * m_energy:
        return 1.0
    alpha = float(eve_stats.powers[0] / auth.stats.powers[0])
    w_e = solve_triangular(auth.chol, eve_stats.mean, lower=True)
    cross = complex(np.vdot(auth.whitened_mean, w_e))   # mu_A^H Sigma_A^{-1} mu_E
    quad = float(np.vdot(w_e, w_e).real)                # mu_E^H Sigma_A^{-1} mu_E
    nu1 = 2.0 * abs(cross) ** 2 / (alpha * m_energy)
    nu2 = max(2.0 / alpha * (quad - abs(cross) ** 2 / m_energy), 0.0)
    x = max((n - 1) * (2.0 * m_energy / threshold - 1.0), 0.0)
    return dncf_sf(x, nu1, nu2, 2, 2 * (n - 1))


def mdp_optimal_pma(auth: Authenticator, eve_stats: ChannelStatistics,
                    method: str = "auto", mc_samples: int = 400_000,
                    mc_seed: int = 0, mc_threads: int = 1) -> float:
    """Worst-case miss probability under the optimal power-manipulation attack.

    ``method``: "auto" prefers the exact closed form for a single array and
    the saddle point otherwise, falling back to Monte-Carlo if the saddle
    search fails; "saddlepoint", "closedform", and "montecarlo" force one
    route.
    """
    if auth.threshold >= 2.0 * auth.mahalanobis_energy:
        return 1.0
    if method == "closedform" or (method == "auto" and len(auth.stats.block_sizes) == 1):
        return mdp_single_array_closed_form(auth, eve_stats)
    if method == "montecarlo":
        return _mdp_optimal_mc(auth, eve_stats, mc_samples, mc_seed, mc_threads).value
    if method not in ("auto", "saddlepoint"):
        raise ValueError(f"unknown method {method!r}")
    form = build_indefinite_form(auth, eve_stats)
    try:
        return saddlepoint_tail_probability(form)
    except SaddlepointError:
        if method == "saddlepoint":
            raise
        return _mdp_optimal_mc(auth, eve_stats, mc_samples, mc_seed, mc_threads).value


def _mdp_optimal_mc(auth: Authenticator, eve_stats: ChannelStatistics,
                    samples: int, seed: int, threads: int = 1):
    from .monte_carlo import best_case_acceptance_event, estimate_probability
    return estimate_probability(best_case_acceptance_event(auth), eve_stats,
                                samples, seed=seed, threads=threads)


def mdp_fixed_strategy(auth: Authenticator, eve_stats: ChannelStatistics,
                       strategy: PowerStrategy = NO_ATTACK,
                       mc_samples: int = 400_000, mc_seed: int = 0,
                       mc_threads: int = 1) -> float:
    """Miss probability when the attacker plays one fixed (eta, psi)."""
    form = fixed_strategy_form(auth, eve_stats, strategy)
    try:
        return saddlepoint_tail_probability(form)
    except SaddlepointError:
        from .monte_carlo import acceptance_event, estimate_probability
        return estimate_probability(acceptance_event(auth, strategy.scale), eve_stats,
                                    mc_samples, seed=mc_seed, threads=mc_threads).value
