"""Impersonation under power manipulation: optimal strategies and miss rates.

An attacker transmitting from a fixed position can scale its complex
baseband amplitude by eta * e^{j psi}.  Minimizing the verifier's
discriminant over (eta, psi) has a closed form; the induced worst-case miss
probability is the tail of an indefinite Hermitian quadratic form in
standard complex Gaussians.  Every route hands the tail a form as a row
(d, c, m, const): term i is the eigenvalue d_i taken m_i times, with offset
norm |c_i| over its whole eigenspace.  The antenna correlation is shared by
the scenario, so array j sees Sigma_E,j = alpha_j Sigma_A,j (alpha_j =
P_E,j / P_A,j) and a form, built from per-array sums and an N_RRH x N_RRH
eigenproblem, has at most 2 N_RRH distinct eigenvalues.

The tail is taken two ways (Monte-Carlo, in monte_carlo, is their oracle):
* exactly by _series_tail, a Poisson mixture of non-negative terms, on every
  form the package builds: "auto" and "closedform", the fixed strategies and
  the SNR outage of delay_bounds, all through _tail, which hands a row whose
  sum would pass _MAX_STEPS terms (its cost grows with the Poisson mean) to
  the saddle point;
* by the paper's saddle-point approximation, "saddlepoint" (mdp's default
  and validate's column), which raises SaddlepointError without a saddle.
The saddle exponent s(z) = c0 z + sum_i |c_i|^2 z d_i / (1 - z d_i) - ln z -
sum_i m_i ln(1 - z d_i) lives on the strip where the moment generating
function exists; s'(z) = 0 is solved for many rows at once by the safeguarded
Newton-bisection of _saddle_root, the smaller side is approximated with a
second-order correction (after Kuonen, Biometrika 86 (1999) 929-935), and a
side whose factor leaves [0.1, 10] has no usable saddle.  _optimal_rows picks
the route of every optimal-attack row: mdp_optimal_pma_batch feeds it many
attacker positions at one threshold, mdp_optimal_pma_sweep one attacker at
many thresholds; mdp_fixed_strategy_sweep varies only its form's constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .authenticator import Authenticator, whiten
from .geometry import ChannelStatistics, Scenario, rice_means
from .numerics import NumericsError

_EIG_DROP = 1e-14          # relative cutoff below which an eigenvalue is treated as zero
_BRACKET_RIM = 1e-9        # how close the root bracket may approach the MGF singularity
_Z_LO = 1e-12              # left end of every saddle bracket
_XTOL = 1e-15              # saddle root tolerance: absolute part ...
_RTOL = 4 * np.finfo(float).eps   # ... and relative part, as in brentq
_MAX_ITER = 200            # Newton-bisection steps before a row counts as unsolved
_CHUNK = 4096              # attacker positions per batch in mdp_optimal_pma_batch
_CORRECTION = (0.1, 10.0)  # second-order factors outside this range leave a side without a saddle
_CUT = 64.0 * math.log(2.0)    # the series drops mass below e^-_CUT of a row's Chernoff bound
_BIG_EXP = 256                 # the series divides a running value past 2^_BIG_EXP by that
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10   # hi has 32 bits
# the series' 1 - p side takes its Chernoff bounds at z = z_max^f for these f,
# z_max = min(1/max q_i, 1000)
_CHERNOFF_GRID = np.r_[1.0 / 2.0 ** np.arange(5, 0, -1), 1.0 - 1.0 / 2.0 ** np.arange(2, 7)]
_CHERNOFF_STEPS = 16       # Newton-bisection steps of every row's Chernoff exponent
_X_RIM = 700.0             # the p side's Chernoff bound takes log z in [-_X_RIM, 0]
_MAX_STEPS = 2 ** 13       # series terms a row may take before the saddle point takes it


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
    """The optimal-PMA miss event as indefinite forms, one row per attacker and threshold.

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

    Attacker means are (n, N), powers (n, N_RRH) and thresholds (n,).  One
    row of means and powers may stand for all n thresholds; it is then
    whitened once.  whiten treats every column on its own, so every row
    keeps the bits of its own one-row build.
    Returns the eigenvalues, complex offsets and multiplicities, each (n, K)
    with K = N_RRH + #(arrays with n_j > 1), and t (n,); the constant is 0.
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


def build_indefinite_form(auth: Authenticator, eve_stats: ChannelStatistics):
    """The optimal-PMA miss event at auth's threshold as one row (d, c, m, const) of
    _optimal_form_rows.  No route calls it; it stays while perfbench's TRACED names it."""
    d, c, m, _ = _optimal_form_rows(auth, eve_stats.mean[None, :], eve_stats.powers[None, :],
                                    np.array([auth.threshold]))
    return d, c, m, np.zeros(1)


def fixed_strategy_form(auth: Authenticator, eve_stats: ChannelStatistics,
                        strategy: PowerStrategy):
    """The fixed-strategy acceptance event as one row (d, c, m, const).

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
    offsets = np.sqrt(np.add.reduceat(np.abs(x) ** 2, starts) / gain)
    return -gain[None, :], offsets[None, :], sizes[None, :], np.array([auth.threshold / 2.0])


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


def saddlepoint_tail_probability(d, c, m, const) -> np.ndarray:
    """P(sum_i d_i |w_i + c_i|^2 + const > 0) per row of (d, c, m) and const by saddle point.

    Raises SaddlepointError when a row admits a usable saddle on neither side.
    """
    p = _saddle_tail(d, np.abs(c) ** 2, np.asarray(m, float), const)
    if np.isnan(p).any():
        raise SaddlepointError("no interior saddle point on either side")
    return p


def _scaled_exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with e^x = f 2^k and f within a factor sqrt 2 of 1.  x - k ln 2 is taken
    with ln 2 in two parts (Cody and Waite), so f keeps e^x's relative accuracy for any x."""
    k = np.rint(x / math.log(2.0))
    return np.exp((x - k * _LN2_HI) - k * _LN2_LO), k


def _chernoff_exponent(q, omq, kappa, mult, a, mu) -> np.ndarray:
    """min over x in [-_X_RIM, 0] of phi(x) = log G(e^x) + a x + mu (e^-x - 1) per row,
    G C's generating function (terms as columns of the (K, rows) arrays, as in
    _series_tail): the log of the Chernoff bound E z^(C'-P') of p for z = e^x <= 1.

    phi is convex; _CHERNOFF_STEPS safeguarded Newton steps on phi' start from x = 0,
    the first one the normal approximation's optimum.  e^phi at any x in the range
    bounds p, and each row takes the same steps on its own, so its bits do not
    depend on its batch.
    """
    x, lo, hi = np.zeros(mu.shape), np.full(mu.shape, -_X_RIM), np.zeros(mu.shape)
    for _ in range(_CHERNOFF_STEPS):
        z = np.exp(x)
        u = 1.0 - q * z
        slope = z * sum(mult * q / u + kappa * omq / u ** 2)
        d1 = slope + a - mu / z
        d2 = slope + z * z * sum(mult * (q / u) ** 2 + 2.0 * kappa * omq * q / u ** 3) + mu / z
        lo, hi = np.where(d1 < 0.0, x, lo), np.where(d1 > 0.0, x, hi)
        newton = x - d1 / d2
        x = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
    z = np.exp(x)
    return (sum(mult * (np.log(omq) - np.log1p(-q * z)) - kappa * (1.0 - z) / (1.0 - q * z))
            + a * x + mu * np.expm1(-x))


def _series_tail(d: np.ndarray, c2: np.ndarray, m: np.ndarray, const: np.ndarray,
                 max_steps: float = math.inf) -> np.ndarray:
    """P(sum_i d_i |w_i + c_i|^2 + const > 0) per row, exactly, as a Poisson mixture.

    A term is Gamma(m_i + N_i, 1) with N_i ~ Poisson(c2_i), so (Ruben 1962; Kotz,
    Johnson and Boyd 1967) p = P(C < P + s) for P ~ Poisson(mu) and a count C with
    generating function G(z) = prod_i ((1-q_i)/(1-q_i z))^{m_i} exp(-kappa_i (1-z)/(1-q_i z)):
    (i) one positive term d+ and const = 0 (the optimal attack): a_i = |d_i|/d+,
        q_i = a_i/(1+a_i), kappa_i = c2_i q_i, mu = c2+, s = m+;
    (ii) every d_i < 0 and const > 0 (a fixed strategy, the SNR outage):
        beta = min |d_i|, q_i = 1 - beta/|d_i|, kappa_i = c2_i, mu = const/beta,
        s = 1 - sum_i m_i.
    A sign-definite row is an exact 0 or 1, a term with d_i = 0 is inert, and any
    other row raises NumericsError.

    C's pmf starts at h_0 = G(0); two running sums per term, S_i <- h_k + q_i S_i and
    U_i <- S_i + q_i U_i, give (k+1) h_{k+1} = sum_i (m_i q_i S_i + kappa_i (1-q_i) U_i),
    every update non-negative.  With C' = C + max(0, 1-s) and P' = P + max(0, s-1),
    p = sum_n P(P' = n) P(C' <= n) and 1 - p = sum_n P(C' = n) P(P' < n); a row sums p
    where E C' >= E P', which makes p the smaller side, and 1 - p otherwise.  A
    Chernoff bound B of that side, min E z^(C'-P') over z <= 1 by _chernoff_exponent
    (p) or the least E z^(C'-P'-1) over a fixed grid of z in (1, min(1/max q_i, 1000))
    (1 - p), below 2^-1075 or 2^-54 makes p 0 or 1.  The p side drops mass below
    e^-L' = e^-L min(B, 1), L = 64 ln 2, so it stops at mu + L'/3 + sqrt(L'^2/9 + 2 L'
    mu) (Bernstein); B is within a small factor of p at the optimal z, and a grid of z
    left p's deep tails off by up to 100 % once mu passed about 10^4.  The 1 - p side,
    read as 1 minus it, drops mass below e^-L, where G(z) z^(-n-1) >= P(C > n) falls
    below that at the grid's best z.  The sum takes O(mu) steps; a row that
    needs more than ``max_steps`` is left NaN.  Each side divides by the summed mass
    of the count that ends it, so only the other count's first term, through
    _scaled_exp, enters unnormalized.  A row's running values are scaled by powers
    of two of its own and the rows still running are a prefix, so nothing under- or
    overflows and a row's bits do not depend on its batch.
    """
    m = np.where(d == 0.0, 0.0, m)
    pos, neg = (m > 0) & (d > 0), (m > 0) & (d < 0)
    n_pos = np.count_nonzero(pos, axis=1)
    p = np.where((n_pos == 0) & (const <= 0), 0.0,
                 np.where(~neg.any(axis=1) & (const >= 0), 1.0, np.nan))
    opt = (n_pos == 1) & (const == 0)
    if np.any(np.isnan(p) & ~opt & (n_pos > 0)):
        raise NumericsError("the series needs one positive term and no constant, "
                            "or no positive term and a positive constant")
    rows = np.flatnonzero(np.isnan(p))
    if rows.size == 0:
        return p
    opt, pos, neg, d, c2, m, const = (v[rows] for v in (opt, pos, neg, d, c2, m, const))
    # d+ in case (i), beta in case (ii)
    base = np.where(opt, np.max(np.where(pos, d, 0.0), axis=1),
                    np.min(np.where(neg, -d, np.inf), axis=1))
    mu = np.where(opt, _row_sum(np.where(pos, c2, 0.0)), const / base)
    s = np.where(opt, _row_sum(np.where(pos, m, 0.0)),
                 1.0 - _row_sum(np.where(neg, m, 0.0))).astype(int)
    # each row's negative terms first, in their order; columns no row needs go
    cols = np.argsort(~neg, axis=1, kind="stable")[:, :np.max(neg.sum(axis=1))]
    d, c2, m, neg = (np.take_along_axis(v, cols, axis=1) for v in (d, c2, m, neg))
    ad, base = np.where(neg, -d, 1.0), base[:, None]
    den = np.where(opt[:, None], base + ad, ad)
    q = np.where(neg, np.where(opt[:, None], ad, ad - base) / den, 0.0).T
    omq = np.where(neg, base / den, 1.0).T
    kappa = np.where(neg, c2, 0.0).T * np.where(opt, q, 1.0)
    mult = np.where(neg, m, 0.0).T
    c_start, p_start = np.maximum(1 - s, 0), np.maximum(s - 1, 0)
    direct = sum((mult * q + kappa) / omq) + c_start >= mu + p_start
    p_rows, c_rows = np.flatnonzero(direct), np.flatnonzero(~direct)
    log_b, top_c = np.empty(direct.size), np.zeros(direct.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_b[p_rows] = _chernoff_exponent(*(v[:, p_rows] for v in (q, omq, kappa, mult)),
                                           (c_start - p_start)[p_rows], mu[p_rows])
        qc, wc, kc, mc = (v[:, c_rows] for v in (q, omq, kappa, mult))
        z_max = np.minimum(1.0 / np.max(qc, axis=0, initial=0.0), 1e3)
        log_z = np.log(z_max)[:, None] * _CHERNOFF_GRID
        z = np.exp(log_z)                                   # one (rows, grid) term at a time
        log_g = sum(m_i[:, None] * (np.log(w_i)[:, None] - np.log1p(-q_i[:, None] * z))
                    - k_i[:, None] * (1.0 - z) / (1.0 - q_i[:, None] * z)
                    for q_i, w_i, k_i, m_i in zip(qc, wc, kc, mc))
        log_g[np.isnan(log_g)] = np.inf                     # z at or past 1 / max q_i
        log_b[c_rows] = np.min(log_g + (c_start - p_start - 1)[c_rows, None] * log_z
                               + mu[c_rows, None] * np.expm1(-log_z), axis=1)
        top_c[c_rows] = np.ceil(np.min((log_g + _CUT) / log_z, axis=1)) - 1.0
        cut = _CUT + np.where(direct, np.maximum(-log_b, 0.0), 0.0)
    top_p = np.ceil(mu + cut / 3.0 + np.sqrt(cut ** 2 / 9.0 + 2.0 * cut * mu)) * (mu > 0.0)
    steps = np.where(direct, top_p + p_start, np.maximum(top_c, 0.0) + c_start) + 1.0
    rare = log_b < np.where(direct, -1075.0, -54.0) * math.log(2.0)
    p[rows[rare]], steps[rare] = np.where(direct, 0.0, 1.0)[rare], 0.0
    steps[steps > max_steps] = 0.0                          # those rows stay NaN
    order = np.argsort(-steps, kind="stable")               # the rows still running are a prefix
    order = order[steps[order] > 0]
    rows, steps, mu, c_start, p_start, direct = (v[order] for v in (rows, steps.astype(int), mu,
                                                                      c_start, p_start, direct))
    q, omq, kappa, mult = (v[:, order] for v in (q, omq, kappa, mult))
    h0, e_c = _scaled_exp(sum(mult * np.log(omq) - kappa))
    pi0, e_p = _scaled_exp(-mu)
    mq, ko = mult * q, kappa * omq
    h, pi = np.where(c_start == 0, h0, 0.0), np.where(p_start == 0, pi0, 0.0)
    s_sum, u_sum = np.zeros(q.shape), np.zeros(q.shape)
    cdf_c, cdf_p, tail = (np.zeros(rows.size) for _ in range(3))
    late = max(np.max(c_start, initial=0), np.max(p_start, initial=0))
    live = np.searchsorted(-steps, -np.arange(steps[0] if rows.size else 0), side="left")
    for n, r in enumerate(live.tolist()):
        hr, pr, sr, ur, cc, cp = h[:r], pi[:r], s_sum[:, :r], u_sum[:, :r], cdf_c[:r], cdf_p[:r]
        cc += hr
        tail[:r] += np.where(direct[:r], pr * cc, hr * cp)
        cp += pr
        sr *= q[:, :r]
        sr += hr
        ur *= q[:, :r]
        ur += sr
        k, j = n + 1 - c_start[:r], n + 1 - p_start[:r]
        if n < late:            # a count is 0 before its start, its first term at it
            k, j = np.maximum(k, 1), np.maximum(j, 1)
        np.divide(sum(mq[:, :r] * sr + ko[:, :r] * ur), k, out=hr)
        pr *= mu[:r]
        pr /= j
        if n < late:
            hr[:] = np.where(n + 1 == c_start[:r], h0[:r], hr)
            pr[:] = np.where(n + 1 == p_start[:r], pi0[:r], pr)
        for run, scaled, exp2 in ((hr, (h, cdf_c, tail, s_sum.T, u_sum.T), e_c),
                                  (pr, (pi, cdf_p, tail), e_p)):
            if run.max() > 2.0 ** _BIG_EXP:
                big = np.flatnonzero(run > 2.0 ** _BIG_EXP)
                for v in scaled:
                    v[big] = np.ldexp(v[big], -_BIG_EXP)
                exp2[big] += _BIG_EXP
    side = np.clip(np.ldexp(tail / np.where(direct, cdf_p, cdf_c),
                            np.where(direct, e_c, e_p).astype(int)), 0.0, 1.0)
    p[rows] = np.where(direct, side, 1.0 - side)
    return p


def _tail(d: np.ndarray, c2: np.ndarray, m: np.ndarray, const: np.ndarray) -> np.ndarray:
    """P(sum_i d_i |w_i + c_i|^2 + const > 0) per row on every route but "saddlepoint".

    _series_tail, but a row whose sum needs more than _MAX_STEPS terms (at about
    30 us a term once few rows are left) takes saddlepoint_tail_probability, which
    raises SaddlepointError where it has no saddle.  On 112 forms past that cap
    (seeded deployments, as in the tests) the saddle point was within 1.1 % of p
    and 1.8 % of its smaller side.
    """
    p = _series_tail(d, c2, m, const, _MAX_STEPS)
    slow = np.flatnonzero(np.isnan(p))
    if slow.size:
        p[slow] = saddlepoint_tail_probability(d[slow], np.sqrt(c2[slow]), m[slow], const[slow])
    return p


def mdp_single_array_closed_form(auth: Authenticator, eve_stats: ChannelStatistics) -> float:
    """mdp_optimal_pma(method="closedform"), the series on any layout.  No route calls
    it; it stays while perfbench's TRACED names it."""
    return mdp_optimal_pma(auth, eve_stats, method="closedform")


def _optimal_rows(auth: Authenticator, means: np.ndarray, powers: np.ndarray,
                  thresholds: np.ndarray, method: str) -> np.ndarray:
    """Optimal-attack p_md per row (shapes as in _optimal_form_rows).

    The one place the routes are chosen: a threshold >= 2M is a certain
    miss; otherwise one form build, then _tail under "auto" or
    "closedform" and the saddle point under "saddlepoint".
    """
    if method not in ("auto", "closedform", "saddlepoint"):
        raise ValueError(f"unknown method {method!r}")
    p_md = np.ones(thresholds.size)
    live = np.flatnonzero(thresholds < 2.0 * auth.mahalanobis_energy)
    d, c, m, _ = _optimal_form_rows(auth, means, powers, thresholds)
    d, c, m, const = d[live], c[live], m[live].astype(float), np.zeros(live.size)
    p_md[live] = (saddlepoint_tail_probability(d, c, m, const) if method == "saddlepoint"
                  else _tail(d, np.abs(c) ** 2, m, const))
    return p_md


def mdp_optimal_pma(auth: Authenticator, eve_stats: ChannelStatistics,
                    method: str = "auto") -> float:
    """Worst-case miss probability under the optimal power-manipulation attack.

    ``method``: "auto" and its alias "closedform" take the exact series on any
    layout; "saddlepoint" takes the paper's saddle-point approximation.
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
    built), one form build for the chunk and one pass of the series.
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

    The form's row is built once and broadcast over the thresholds; only its
    constant T/2 varies.
    """
    thresholds = np.asarray(thresholds, float)
    d, c, m, _ = fixed_strategy_form(auth, eve_stats, strategy)
    d, c2, m = (np.broadcast_to(v, (thresholds.size, v.shape[1]))
                for v in (d, np.abs(c) ** 2, m.astype(float)))
    return _tail(d, c2, m, thresholds / 2.0)
