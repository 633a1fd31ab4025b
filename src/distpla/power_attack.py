"""Impersonation under power manipulation: optimal strategies and miss rates.

An attacker transmitting from a fixed position can scale its complex
baseband amplitude by eta * e^{j psi}.  Minimizing the verifier's
discriminant over (eta, psi) has a closed form; the induced worst-case miss
probability is the tail of an indefinite Hermitian quadratic form in
standard complex Gaussians, handled here three ways (Monte-Carlo on the
raw acceptance event, in monte_carlo, is only their oracle):

* a saddle-point approximation of the tail integral (any array layout),
* an exact doubly noncentral F expression (single array),
* an exact inversion of the characteristic function (rows without a saddle).

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
both cases (after Kuonen, Biometrika 86 (1999) 929-935), and a side whose
factor leaves [0.1, 10] has no usable saddle.  Results are clamped to [0, 1].

The saddle equation s'(z) = 0 is solved for many forms at once, one form
per row of a (n, K) term array (a single form is a batch of one), by the
safeguarded Newton-bisection of _saddle_root; _settled_tail settles every
row left without a saddle.  One row evaluator, _optimal_rows, chooses the
route of every optimal-attack row (certain miss, closed form, saddle
point): mdp_optimal_pma_batch feeds it many attacker positions at one
threshold, and mdp_optimal_pma_sweep one attacker at many thresholds
(mdp_optimal_pma is a sweep of one).  mdp_fixed_strategy_sweep builds its
form once and varies only the threshold constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .authenticator import Authenticator, whiten
from .geometry import ChannelStatistics, Scenario, rice_means
from .numerics import NumericsError, _half_dof

_EIG_DROP = 1e-14          # relative cutoff below which an eigenvalue is treated as zero
_BRACKET_RIM = 1e-9        # how close the root bracket may approach the MGF singularity
_Z_LO = 1e-12              # left end of every saddle bracket
_XTOL = 1e-15              # saddle root tolerance: absolute part ...
_RTOL = 4 * np.finfo(float).eps   # ... and relative part, as in brentq
_MAX_ITER = 200            # Newton-bisection steps before a row counts as unsolved
_CHUNK = 4096              # attacker positions per batch in mdp_optimal_pma_batch
_CORRECTION = (0.1, 10.0)  # second-order factors outside this range leave a side without a saddle
_CUT = 40.0 * math.log(10.0)   # dncf_sf drops Poisson mass below e^-_CUT per row
_BIG_EXP = 512                 # dncf_sf divides a running value past 2^_BIG_EXP by that


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
    x = whiten(auth, h_eve)
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


def _optimal_form_rows(auth: Authenticator, means: np.ndarray, powers: np.ndarray,
                       thresholds: np.ndarray):
    """build_indefinite_form for attacker means (n, N), powers (n, N_RRH) and thresholds (n,).

    One row of means and powers may stand for all n thresholds; it is then
    whitened once.  whiten treats every column on its own, so every row
    keeps the bits of its own one-row build.
    Returns the eigenvalues, complex offsets and multiplicities, each (n, K)
    with K = N_RRH + #(arrays with n_j > 1), and t (n,).
    """
    m_energy = auth.mahalanobis_energy
    t = 1.0 - thresholds / (2.0 * m_energy)
    sizes, starts = np.asarray(auth.stats.block_sizes), auth.stats.starts
    alpha = np.broadcast_to(powers / auth.stats.powers, (t.size, sizes.size))
    w = auth.whitened_mean
    x = np.broadcast_to(whiten(auth, means.T), (auth.stats.dim, t.size))
    a = np.sqrt(alpha * np.add.reduceat(np.abs(w) ** 2, starts))
    b = np.add.reduceat(w.conj()[:, None] * x, starts, axis=0).T / a
    values, vectors = np.linalg.eigh(a[:, :, None] * a[:, None, :] / m_energy
                                     - t[:, None, None] * alpha[:, :, None] * np.eye(sizes.size))
    rest = np.add.reduceat(np.abs(x) ** 2, starts, axis=0).T / alpha - np.abs(b) ** 2
    many = sizes > 1
    eigenvalues = np.concatenate((values, -t[:, None] * alpha[:, many]), axis=1)
    offsets = np.concatenate((np.sum(vectors * b[:, :, None], axis=1),
                              np.sqrt(np.maximum(rest[:, many], 0.0))), axis=1)
    mult = np.concatenate((np.ones(sizes.size, int), sizes[many] - 1))
    return eigenvalues, offsets, np.broadcast_to(mult, eigenvalues.shape), t


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
    For t in (0, 1) exactly one eigenvalue is positive.  L_A^{-1} is applied
    elementwise by authenticator.whiten; no factor is formed.
    """
    d, c, m, t = _optimal_form_rows(auth, eve_stats.mean[None, :], eve_stats.powers[None, :],
                                    np.array([auth.threshold]))
    return IndefiniteForm(eigenvalues=d[0], offsets=c[0], threshold_param=float(t[0]),
                          multiplicities=m[0].copy())


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
    sizes, starts = np.asarray(auth.stats.block_sizes), auth.stats.starts
    x = whiten(auth, scale * eve_stats.mean - auth.stats.mean)
    gain = abs(scale) ** 2 * (eve_stats.powers / auth.stats.powers)
    t = 1.0 - auth.threshold / (2.0 * auth.mahalanobis_energy)
    return IndefiniteForm(eigenvalues=-gain,
                          offsets=np.sqrt(np.add.reduceat(np.abs(x) ** 2, starts) / gain),
                          threshold_param=float(t), constant=auth.threshold / 2.0,
                          multiplicities=sizes)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Row sums of x, its columns added left to right onto +0.0: np.sum(x, axis=1)'s
    bits under 8 columns (numpy goes pairwise from 8) at a tenth of its cost."""
    return sum(x.T, np.zeros(x.shape[0]))


def _slopes(z: np.ndarray, d: np.ndarray, c2: np.ndarray, m: np.ndarray,
            const: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s'(z) and s''(z) of the saddle exponent, one z per row of (d, c2, m)."""
    u = 1.0 - z[:, None] * d
    s1 = const + _row_sum(c2 * d / u ** 2) - 1.0 / z + _row_sum(m * d / u)
    s2 = _row_sum(2.0 * c2 * d ** 2 / u ** 3) + 1.0 / z ** 2 + _row_sum(m * d ** 2 / u ** 2)
    return s1, s2


def _midpoint(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bisection point, geometric while the bracket spans orders of magnitude."""
    return np.where(hi > 4.0 * lo, np.sqrt(lo) * np.sqrt(hi), 0.5 * (lo + hi))


def _saddle_root(d, c2, m, const, lo, hi) -> np.ndarray:
    """Root of s'(z) on each row's bracket (lo, hi), where s'(lo) < 0 < s'(hi) and s'' > 0.

    Safeguarded Newton-bisection: the Newton step on z s'(z), which is
    nearly linear where the -1/z term dominates, is taken while it stays
    inside the bracket and is at most half the step before last; otherwise
    the bracket is bisected.  A row stops at an iterate z where s' is exactly
    zero or the Newton step rounds to z (a converged iterate, which ends the
    bracket), or once the step or the half-bracket falls below
    (_XTOL + _RTOL |z|) / 2; rows still open after _MAX_ITER steps get NaN.
    """
    root = np.full(lo.shape, np.nan)
    rows = np.arange(lo.size)
    z = _midpoint(lo, hi)
    step = step_old = hi - lo
    for _ in range(_MAX_ITER):
        if rows.size == 0:
            break
        s1, s2 = _slopes(z, d, c2, m, const)
        lo = np.where(s1 < 0, z, lo)
        hi = np.where(s1 > 0, z, hi)
        newton = z - z * s1 / (s1 + z * s2)
        take = (newton > lo) & (newton < hi) & (np.abs(newton - z) <= 0.5 * np.abs(step_old))
        z_next = np.where(take, newton, _midpoint(lo, hi))
        step_old, step = step, z_next - z
        tol = 0.5 * (_XTOL + _RTOL * np.abs(z_next))
        exact = (s1 == 0.0) | (newton == z)
        done = exact | (np.abs(step) < tol) | (hi - lo < 2.0 * tol)
        root[rows[done]] = np.where(exact, z, z_next)[done]
        live = ~done
        rows, z, lo, hi, step, step_old = (v[live] for v in (rows, z_next, lo, hi, step, step_old))
        d, c2, m, const = d[live], c2[live], m[live], const[live]
    return root


def _saddle_side(d: np.ndarray, c2: np.ndarray, m: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Approximate P(sum_i d_i |w_i + c_i|^2 + const > 0) on one side, row by row.

    ``c2`` is the offset energy and ``m`` the multiplicity of each term.
    A row is an exact 0/1 when the form is sign-definite and the constant
    does not oppose it, and NaN when no usable interior saddle exists (the
    caller then relies on the complementary side).  The root is bracketed on
    (1e-12, z_rim (1 - _BRACKET_RIM)) with z_rim = 1 / max d; without a
    positive d the right end doubles from 1 until s' > 0, at most 400 times.
    """
    p = np.where(~np.any(d > 0, axis=1) & (const <= 0), 0.0,
                 np.where(~np.any(d < 0, axis=1) & (const >= 0), 1.0, np.nan))
    rows = np.flatnonzero(np.isnan(p))
    d, c2, m, const = d[rows], c2[rows], m[rows], const[rows]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z_rim = np.min(np.where(d > 0, 1.0 / d, np.inf), axis=1)
        lo = np.full(rows.size, _Z_LO)
        hi = z_rim * (1.0 - _BRACKET_RIM)
        doubling = np.flatnonzero(np.isinf(z_rim))
        hi[doubling] = 1.0
        for _ in range(400):
            if doubling.size == 0:
                break
            s1, _ = _slopes(hi[doubling], d[doubling], c2[doubling], m[doubling],
                            const[doubling])
            doubling = doubling[~(s1 > 0)]
            hi[doubling] *= 2.0
        s1_lo, _ = _slopes(lo, d, c2, m, const)
        s1_hi, _ = _slopes(hi, d, c2, m, const)
        ok = (s1_lo < 0) & (s1_hi > 0) & (lo < hi)
        ok[doubling] = False
        sel = np.flatnonzero(ok)
        d, c2, m, const = d[sel], c2[sel], m[sel], const[sel]
        z0 = _saddle_root(d, c2, m, const, lo[sel], hi[sel])

        u = 1.0 - z0[:, None] * d
        s0 = const * z0 + _row_sum(c2 * z0[:, None] * d / u) - np.log(z0) - _row_sum(m * np.log(u))
        _, s2 = _slopes(z0, d, c2, m, const)
        s3 = (_row_sum(6.0 * c2 * d ** 3 / u ** 4) - 2.0 / z0 ** 3
              + _row_sum(2.0 * m * d ** 3 / u ** 3))
        s4 = (_row_sum(24.0 * c2 * d ** 4 / u ** 5) + 6.0 / z0 ** 4
              + _row_sum(6.0 * m * d ** 4 / u ** 4))
        # second-order steepest-descent factor, degenerate outside _CORRECTION
        correction = 1.0 + s4 / (8.0 * s2 ** 2) - 5.0 * s3 ** 2 / (24.0 * s2 ** 3)
        tail = np.exp(s0) / np.sqrt(2.0 * np.pi * s2) * correction
        tail[(correction < _CORRECTION[0]) | (correction > _CORRECTION[1])] = np.nan
    p[rows[sel]] = np.where(np.isfinite(s0) & np.isfinite(s2) & (s2 > 0), tail, np.nan)
    return p


def _saddle_tail(d: np.ndarray, c2: np.ndarray, m: np.ndarray, const: np.ndarray) -> np.ndarray:
    """saddlepoint_tail_probability for each row of (d, c2, m) and const.

    Terms with |d| <= _EIG_DROP max|d| become inert (d = c2 = m = 0), the
    only padding that leaves the sign checks and the bracket untouched.
    Rows where neither side admits a usable saddle are NaN.
    """
    big = np.maximum(np.max(np.abs(d), axis=1, initial=0.0), 1e-300)
    drop = np.abs(d) <= _EIG_DROP * big[:, None]
    d, c2, m = (np.where(drop, 0.0, v) for v in (d, c2, m))
    p_direct = _saddle_side(d, c2, m, const)
    p_complement = _saddle_side(-d, c2, m, -const)
    return np.where(np.isnan(p_complement) | (p_direct <= p_complement),
                    np.clip(p_direct, 0.0, 1.0), 1.0 - np.clip(p_complement, 0.0, 1.0))


def saddlepoint_tail_probability(form: IndefiniteForm) -> float:
    """P(sum_i d_i |w_i + c_i|^2 + constant > 0) by saddle-point approximation.

    Evaluates both the direct event and its complement and keeps whichever
    tail is smaller, where the approximation is accurate.  Raises
    SaddlepointError when neither side admits a usable saddle.
    """
    d = np.asarray(form.eigenvalues, float)[None, :]
    m = (np.ones(d.shape) if form.multiplicities is None
         else np.asarray(form.multiplicities, float)[None, :])
    return float(_settled_tail(d, np.abs(np.asarray(form.offsets))[None, :] ** 2, m,
                               np.array([float(form.constant)]), exact=False)[0])


def _exact_tail(d: np.ndarray, c2: np.ndarray, m: np.ndarray, const: np.ndarray) -> np.ndarray:
    """P(sum_i d_i |w_i + c_i|^2 + const > 0) per row as 1/2 + (1/pi) int_0^inf Im phi(u) / u du.

    Gil-Pelaez inversion (Imhof, Biometrika 48 (1961) 419-426) of each row scaled
    by its max |d|, which keeps the event and |phi| <= 1; absolute error about 1e-12.
    """
    from scipy.integrate import quad

    def im_phi_over_u(u, d, c2, m, const):
        v = 1.0 - 1j * u * d
        return np.exp(1j * u * const + np.sum(c2 * (1.0 / v - 1.0) - m * np.log(v))).imag / u
    scale = np.max(np.abs(d), axis=1)
    p = [0.5 + quad(im_phi_over_u, 0.0, np.inf, args=row, epsabs=1e-13, limit=500)[0] / np.pi
         for row in zip(d / scale[:, None], c2, m, const / scale)]
    return np.clip(p, 0.0, 1.0)


def _settled_tail(d, c2, m, const, exact: bool) -> np.ndarray:
    """_saddle_tail, its NaN rows taken by _exact_tail if ``exact``, else SaddlepointError."""
    p = _saddle_tail(d, c2, m, const)
    rows = np.flatnonzero(np.isnan(p))
    if rows.size and not exact:
        raise SaddlepointError("no interior saddle point on either side")
    if rows.size:
        p[rows] = _exact_tail(d[rows], c2[rows], m[rows], const[rows])
    return p


def dncf_sf(x, nu1, nu2, k1: int, k2: int):
    """Upper tail of the doubly noncentral F ratio [chi2_{k1}(nu1)/k1] / [chi2_{k2}(nu2)/k2].

    Elementwise over broadcast x, nu1 and nu2 (a float for scalar input); odd
    dof raise NumericsError.  With a = k2/2, b = k1/2 and q = k1 x/(k2 + k1 x),
    Bulgren's beta mixture (JASA 66 (1971) 184-186) with whole shapes is
    P(K < b + R), R ~ Poisson(nu1/2), K ~ NegBin(a + S, q), S ~ Poisson(nu2/2).
    K's pmf g has the generating function ((1-q)/(1-qz))^a exp(-(nu2/2) q
    (1-z)/(1-qz)), so g_0 = (1-q)^a e^{-(nu2/2) q} and (j+1) g_{j+1} =
    q (2j + a + (nu2/2)(1-q)) g_j - q^2 (j-1+a) g_{j-1}.  One pass over j sums
    the positive terms P(R = r) P(K < b + r) of all rows, R's pmf by recurrence
    in r and normalized by its sum.  A row stops at r = nu1/2 + L/3 + sqrt(L^2/9
    + L nu1), L = 40 ln 10, past which Bernstein's inequality leaves Poisson
    mass below 1e-40.  Its g and pmf are scaled by powers of two of its own, so
    nothing under- or overflows and its bits do not depend on the other rows.
    Against 40-digit mpmath the relative error was at most 1.5e-14 with
    nu <= 260 and 2.9e-13 up to nu = 2000, for tails down to 1e-30.
    """
    a, b = _half_dof(k2), _half_dof(k1)
    x, nu1, nu2 = np.broadcast_arrays(*(np.asarray(v, float) for v in (x, nu1, nu2)))
    if (nu1 < 0.0).any() or (nu2 < 0.0).any():
        raise NumericsError("noncentrality must be nonnegative")
    lam, lam2, xs = nu1.ravel() / 2.0, nu2.ravel() / 2.0, np.maximum(x.ravel(), 0.0)
    top = np.ceil(lam + _CUT / 3.0 + np.sqrt(_CUT ** 2 / 9.0 + 2.0 * _CUT * lam)) * (lam > 0.0)
    order = np.argsort(-top, kind="stable")         # the rows still running are a prefix
    lam, lam2, xs, top = lam[order], lam2[order], xs[order], top[order]
    q = k1 * xs / (k2 + k1 * xs)
    log_g0 = a * np.log1p(-q) - lam2 * q
    e = np.maximum(np.rint(log_g0 / math.log(2.0)), -2.0 ** 40)    # finite where g_0 is 0
    g, g_prev, cdf = np.exp(log_g0 - e * math.log(2.0)), np.zeros(q.size), np.zeros(q.size)
    pmf, mass, tail = np.ones(q.size), np.zeros(q.size), np.zeros(q.size)
    coef = a + lam2 * (1.0 - q)
    for j in range(b + int(top[0]) if q.size else 0):
        r = j - b + 1
        n = slice(0, np.count_nonzero(top >= r))
        cdf[n] += g[n]
        if r >= 0:
            pmf[n] *= lam[n] / r if r else 1.0
            mass[n] += pmf[n]
            tail[n] += pmf[n] * cdf[n]
            big = np.flatnonzero(pmf[n] > 2.0 ** _BIG_EXP)
            for v in (pmf, mass, tail):
                v[big] = np.ldexp(v[big], -_BIG_EXP)
        g_prev[n], g[n] = g[n], ((2 * j) * g[n] - (j - 1 + a) * q[n] * g_prev[n]
                                 + coef[n] * g[n]) * q[n] / (j + 1)
        big = np.flatnonzero(g[n] > 2.0 ** _BIG_EXP)
        for v in (g, g_prev, cdf, tail):
            v[big] = np.ldexp(v[big], -_BIG_EXP)
        e[big] += _BIG_EXP
    p = np.empty(q.size)
    p[order] = np.minimum(np.ldexp(tail / mass, e.astype(int)), 1.0)
    return float(p[0]) if x.ndim == 0 else p.reshape(x.shape)


def mdp_single_array_closed_form(auth: Authenticator, eve_stats: ChannelStatistics) -> float:
    """Exact optimal-PMA miss probability for a single receive array.

    P_MD = P(F > (N-1) (2M/T - 1)) for a doubly noncentral F with
    (2, 2(N-1)) degrees of freedom and noncentralities driven by the
    attacker/legitimate mean alignment.  Uses Sigma_E = alpha Sigma_A with
    alpha = P_E / P_A, which the scenario-wide correlation model guarantees.
    """
    return mdp_optimal_pma(auth, eve_stats, method="closedform")


def _closed_form(auth: Authenticator, means: np.ndarray, powers: np.ndarray,
                 thresholds: np.ndarray) -> np.ndarray:
    """mdp_single_array_closed_form per row (shapes as in _optimal_form_rows); the optimal
    form's two terms, of multiplicity 1 and N - 1, give the noncentralities 2 |c|^2."""
    if len(auth.stats.block_sizes) != 1:
        raise ValueError("closed form needs a single receive array")
    n = auth.stats.dim
    if n < 2:
        raise ValueError("closed form needs at least two antennas")
    _, c, _, _ = _optimal_form_rows(auth, means, powers, thresholds)
    # T >= 2M puts x at 0, where the tail is 1
    x = np.maximum((n - 1) * (2.0 * auth.mahalanobis_energy / thresholds - 1.0), 0.0)
    return dncf_sf(x, 2.0 * np.abs(c[:, 0]) ** 2, 2.0 * np.abs(c[:, 1]) ** 2, 2, 2 * (n - 1))


def _optimal_rows(auth: Authenticator, means: np.ndarray, powers: np.ndarray,
                  thresholds: np.ndarray, method: str) -> np.ndarray:
    """Optimal-attack p_md per row (shapes as in _optimal_form_rows).

    The one place the routes are chosen: a threshold >= 2M is a certain
    miss; "closedform", or "auto" on one array of at least two antennas,
    takes the closed form; otherwise one form build and one _settled_tail
    call, which takes the exact tail only under "auto".
    """
    p_md = np.ones(thresholds.size)
    if method == "closedform" or (method == "auto" and len(auth.stats.block_sizes) == 1
                                  and auth.stats.dim > 1):
        return _closed_form(auth, means, powers, thresholds)   # refuses a multi-array layout
    if method not in ("auto", "saddlepoint"):
        raise ValueError(f"unknown method {method!r}")
    live = np.flatnonzero(thresholds < 2.0 * auth.mahalanobis_energy)
    d, c, m, _ = _optimal_form_rows(auth, means, powers, thresholds)
    p_md[live] = _settled_tail(d[live], np.abs(c[live]) ** 2, m[live].astype(float),
                               np.zeros(live.size), exact=method == "auto")
    return p_md


def mdp_optimal_pma(auth: Authenticator, eve_stats: ChannelStatistics,
                    method: str = "auto") -> float:
    """Worst-case miss probability under the optimal power-manipulation attack.

    ``method``: "auto" prefers the closed form for one array of at least two
    antennas and the saddle point otherwise, with the exact tail where no
    saddle exists; "saddlepoint" and "closedform" force one route.
    """
    return float(mdp_optimal_pma_sweep(auth, eve_stats, [auth.threshold], method)[0])


def mdp_optimal_pma_sweep(auth: Authenticator, eve_stats: ChannelStatistics, thresholds,
                          method: str = "auto") -> np.ndarray:
    """mdp_optimal_pma on ``replace(auth, threshold=T)`` for each T, bit for bit, in one pass."""
    return _optimal_rows(auth, eve_stats.mean[None, :], eve_stats.powers[None, :],
                         np.asarray(thresholds, float), method)


def mdp_optimal_pma_batch(auth: Authenticator, scenario: Scenario, positions) -> np.ndarray:
    """mdp_optimal_pma(method="auto") with the attacker at each row of an (n, 2) array.

    The attacker keeps ``scenario.eve``'s transmit power.  Rows go through
    in chunks of _CHUNK: Rice means from the geometry (no covariance is
    built), one form build for the chunk and one vectorised saddle solve.
    """
    pts = np.asarray(positions, float).reshape(-1, 2)
    p_md = np.ones(len(pts))
    for start in range(0, len(pts), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        means, powers, _, _ = rice_means(scenario, pts[chunk], scenario.eve.tx_power)
        p_md[chunk] = _optimal_rows(auth, means, powers, np.full(len(means), auth.threshold),
                                    "auto")
    return p_md


def mdp_fixed_strategy(auth: Authenticator, eve_stats: ChannelStatistics,
                       strategy: PowerStrategy = NO_ATTACK) -> float:
    """Miss probability when the attacker plays one fixed (eta, psi)."""
    return float(mdp_fixed_strategy_sweep(auth, eve_stats, [auth.threshold], strategy)[0])


def mdp_fixed_strategy_sweep(auth: Authenticator, eve_stats: ChannelStatistics, thresholds,
                             strategy: PowerStrategy = NO_ATTACK) -> np.ndarray:
    """mdp_fixed_strategy on ``replace(auth, threshold=T)`` for each T, bit for bit.

    The form is built once; only its constant T/2 varies.  Rows without a saddle are exact.
    """
    thresholds = np.asarray(thresholds, float)
    form = fixed_strategy_form(auth, eve_stats, strategy)
    d, c2, m = (np.broadcast_to(v, (thresholds.size, v.size)) for v in (
        form.eigenvalues, form.offsets ** 2, form.multiplicities.astype(float)))
    return _settled_tail(d, c2, m, thresholds / 2.0, exact=True)
