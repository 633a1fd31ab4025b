import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import block_diag, solve_triangular

from distpla import (BLOCK_SIZE, Region, RrhConfig, Scenario, SearchConfig,
                     TransmitterConfig, lobe_sets, make_authenticator, mdp_optimal_pma_batch,
                     steering_vector, wavelength)
from distpla.authenticator import whiten
from distpla.monte_carlo import block_generator
from distpla.numerics import NumericsError, _gamma_side, _half_dof, _poisson_pmf
from distpla.position_attack import (CandidatePosition, SearchResult, _allowed_mask,
                                     _angular_g, _array_contexts, _candidate_labels,
                                     _point_fields, _point_geometry, search_grid)


def build_scenario(rrhs, alice=(40.0, 30.0), eve=(26.0, 49.0), *,
                   rice_db=6.0, rho=0.0, pfa=1e-2, region=(0, 80, 0, 60),
                   fc=2.4e9, **kwargs):
    """Small helper so tests can spell out only what they vary."""
    return Scenario(
        rrhs=tuple(RrhConfig(*r) for r in rrhs),
        alice=TransmitterConfig(alice),
        eve=TransmitterConfig(eve),
        region=Region(*region),
        carrier_frequency=fc,
        rice_factor=10.0 ** (rice_db / 10.0),
        rho=rho,
        false_alarm_target=pfa,
        **kwargs,
    )


def correlation_matrix(rho, n):
    """Lambda = rho^|k-l|, the antenna correlation of an n-antenna array
    (the identity at rho = 0): the dense oracles' only source of it."""
    k = np.arange(n)
    return rho ** np.abs(k[:, None] - k[None, :])


def angular_inner_product(omega_e, omega_a, num_antennas, spacing, rho=0.0):
    """The dense oracle of the angular kernel: (S, g) with
    S = e(Omega_E)^H Lambda^{-1} e(Omega_A) = e^{j pi (n-1) s dOmega} g.

    g is real for every rho; its sign tracks the lobe structure of the array."""
    e_a = steering_vector(omega_a, num_antennas, spacing)
    e_e = steering_vector(omega_e, num_antennas, spacing)
    lam_inv = np.linalg.inv(correlation_matrix(rho, num_antennas))
    s_val = complex(e_e.conj() @ (lam_inv @ e_a))
    g = s_val * np.exp(-1j * np.pi * (num_antennas - 1) * spacing * (omega_e - omega_a))
    peak = float((e_a.conj() @ (lam_inv @ e_a)).real)
    if abs(g.imag) > 1e-9 * peak:
        raise ValueError("angular inner product is not phase-separable")
    return s_val, float(g.real)


def point_fields(scenario, points):
    """(f_obj, f_small_scale) arrays from the expanded geometry route, one entry per point.

    ``points`` is one (x, y) point or an (n, 2) array.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    return _point_fields(scenario, _array_contexts(scenario), pts[:, 0].copy(), pts[:, 1].copy())


def f_obj(auth, h):
    """Alignment objective |mu_A^H Sigma_A^{-1} h|^2 / (h^H Sigma_A^{-1} h), the
    oracle of the search's expanded objective.

    Scale invariant and bounded by the Mahalanobis energy M, with equality
    iff h is proportional to mu_A.  ``h`` may be a vector or a matrix of
    row vectors.
    """
    harr = np.asarray(h)
    x = whiten(auth, harr.T)
    num = np.abs(auth.whitened_mean.conj() @ x) ** 2
    den = np.sum(np.abs(x) ** 2, axis=0)
    out = num / den
    return out if harr.ndim == 2 else float(out)


def form_row(eigenvalues, offsets, constant=0.0, multiplicities=None):
    """A hand-built form {sum_i d_i |w_i + c_i|^2 + constant > 0}, w iid CN(0, 1), as
    the one row (d, c, m, const) the power-attack tails take: (1, K) arrays and a (1,)
    constant.  Term i is d_i taken m_i times (default once each), with offset norm
    |c_i| over its eigenspace."""
    d = np.asarray(eigenvalues, float)[None, :]
    m = np.ones(d.shape) if multiplicities is None else np.asarray(multiplicities, float)[None, :]
    return d, np.asarray(offsets)[None, :], m, np.array([float(constant)])


_DNCF_CUT = 40.0 * math.log(10.0)   # dncf_sf drops Poisson mass below e^-_DNCF_CUT per row
_DNCF_BIG = 512                      # dncf_sf divides a running value past 2^_DNCF_BIG by that


def dncf_sf(x, nu1, nu2, k1: int, k2: int):
    """Upper tail of the doubly noncentral F ratio [chi2_{k1}(nu1)/k1] / [chi2_{k2}(nu2)/k2]:
    the closed-form oracle of the power attack's series on a single array.

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
    cut = _DNCF_CUT
    top = np.ceil(lam + cut / 3.0 + np.sqrt(cut ** 2 / 9.0 + 2.0 * cut * lam)) * (lam > 0.0)
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
            big = np.flatnonzero(pmf[n] > 2.0 ** _DNCF_BIG)
            for v in (pmf, mass, tail):
                v[big] = np.ldexp(v[big], -_DNCF_BIG)
        g_prev[n], g[n] = g[n], ((2 * j) * g[n] - (j - 1 + a) * q[n] * g_prev[n]
                                 + coef[n] * g[n]) * q[n] / (j + 1)
        big = np.flatnonzero(g[n] > 2.0 ** _DNCF_BIG)
        for v in (g, g_prev, cdf, tail):
            v[big] = np.ldexp(v[big], -_DNCF_BIG)
        e[big] += _DNCF_BIG
    p = np.empty(q.size)
    p[order] = np.minimum(np.ldexp(tail / mass, e.astype(int)), 1.0)
    return float(p[0]) if x.ndim == 0 else p.reshape(x.shape)


def ncx2_cdf(x: float, dof: int, nc: float) -> float:
    """P(X <= x) for X noncentral chi-square with even ``dof`` and noncentrality
    ``nc``: sum_j Poisson(j; nc/2) P(Gamma(dof/2 + j) <= x/2), from j where the
    Poisson tail is below 1e-30 down, each central CDF the one above plus a pmf.
    The one-variance oracle of the SNR outage, on numerics' chi-square primitives."""
    k = _half_dof(dof)
    if x <= 0.0:
        return 0.0
    y, m = x / 2.0, nc / 2.0
    top = int(m + 12.0 * math.sqrt(m) + 25.0) if m else 0
    p, total = _gamma_side(k + top, y, True)[0], 0.0
    for j in range(top, -1, -1):
        total += _poisson_pmf(j, m) * p
        p += _poisson_pmf(k + j - 1, y)
    return total


def mixture_tail(d, c2, m, const, dps=40):
    """(p, 1 - p) as mpmath numbers for p = P(sum_i d_i |w_i + c_i|^2 + const > 0) of
    one form given as 1-d arrays: the oracle of power_attack._series_tail.

    The same Poisson mixture p = P(C < P + s), P ~ Poisson(mu), for the two kinds
    of form the series takes ((i) one positive term and const = 0, (ii) no
    positive term and const > 0), summed another way at ``dps`` digits: C's pmf by
    the O(n^2) convolution (k+1) h_{k+1} = sum_{j<=k} h_{k-j} sum_i (m_i q_i^{j+1}
    + kappa_i (1-q_i)(j+1) q_i^j), P's pmf term by term, and the terms
    P(P = r) P(C < r + s) added until, past mu, one falls below 10^-(dps+10) of
    their sum (they rise, then fall).
    """
    with mpmath.workdps(dps):
        terms = [(mpmath.mpf(float(x)), mpmath.mpf(float(y)), int(k))
                 for x, y, k in zip(d, c2, m) if k and x]
        pos = [t for t in terms if t[0] > 0]
        neg = [(-x, y, k) for x, y, k in terms if x < 0]
        const = mpmath.mpf(float(const))
        if len(pos) == 1 and const == 0:
            (dp, mu, s), = pos
            qk = [(a / (dp + a), y * a / (dp + a), k) for a, y, k in neg]
        else:
            assert not pos and const > 0 and neg
            beta = min(a for a, _, _ in neg)
            qk = [(1 - beta / a, y, k) for a, y, k in neg]
            mu, s = const / beta, 1 - sum(k for _, _, k in neg)
        h = [mpmath.fprod((1 - q) ** k * mpmath.exp(-kap) for q, kap, k in qk)]
        kernel, cdf = [], [mpmath.mpf(0), h[0]]         # cdf[i] = P(C < i)
        pmf, p, r, eps = mpmath.exp(-mu), mpmath.mpf(0), 0, mpmath.mpf(10) ** -(dps + 10)
        while True:
            while len(cdf) <= r + s:
                i = len(h) - 1
                kernel.append(sum(k * q ** (i + 1) + kap * (1 - q) * (i + 1) * q ** i
                                  for q, kap, k in qk))
                h.append(mpmath.fdot(h[::-1], kernel) / (i + 1))
                cdf.append(cdf[-1] + h[-1])
            term = pmf * cdf[max(r + s, 0)]
            p += term
            if r > mu and term < eps * p:
                return p, 1 - p
            pmf *= mu / (r + 1)
            r += 1


def inversion_tail(d, c2, m, const, dps=40):
    """p = P(sum_i d_i |w_i + c_i|^2 + const > 0) as an mpmath number for one form given
    as 1-d arrays, by inverting its moment generating function M: the oracle of the
    series where mixture_tail's O(mu^2) cost is too high.

    p = (1/2 pi i) int M(z) / z dz upwards along any path right of the singularities
    on (-inf, 0] and left of those on (0, inf).  Here it runs from the minimum z0 > 0
    of s(z) = log M(z) - log z = const z + sum_i (c2_i z d_i / (1 - z d_i) - m_i
    log(1 - z d_i)) - log z along the rays z0 + r e^{+-i phi}, phi = 5 pi / 8, so by
    symmetry p = (e^{s(z0)} / pi) Im int_0^inf e^{s(z0 + r e^{i phi}) - s(z0) + i phi}
    dr.  Near z0 the integrand falls like a Gaussian of width s''(z0)^{-1/2}; tilted
    left of the vertical line, a positive const makes it fall exponentially instead
    of oscillating, and its cost does not grow with the offsets.  z0 comes from 400
    bisections of s' on (0, 1 / max d_i), the right end doubled from 1 while no d_i
    is positive.  It agreed with mixture_tail within 1e-20 relative on the tests'
    167 seeded forms with mu <= 40.
    """
    with mpmath.workdps(dps):
        terms = [(mpmath.mpf(float(x)), mpmath.mpf(float(y)), int(k))
                 for x, y, k in zip(d, c2, m) if k and x]
        const = mpmath.mpf(float(const))

        def s(z):
            return const * z + sum(y * z * x / (1 - z * x) - k * mpmath.log(1 - z * x)
                                   for x, y, k in terms) - mpmath.log(z)

        def s1(z):
            return const + sum(y * x / (1 - z * x) ** 2 + k * x / (1 - z * x)
                               for x, y, k in terms) - 1 / z

        def s2(z):
            return sum(2 * y * x ** 2 / (1 - z * x) ** 3 + k * x ** 2 / (1 - z * x) ** 2
                       for x, y, k in terms) + 1 / z ** 2

        pos = [x for x, _, _ in terms if x > 0]
        lo, hi = mpmath.mpf(0), (1 / max(pos) if pos else mpmath.mpf(1))
        while not pos and s1(hi) < 0:
            hi *= 2
        for _ in range(400):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if s1(mid) < 0 else (lo, mid)
        z0 = (lo + hi) / 2
        s0, width, ray = s(z0), 1 / mpmath.sqrt(s2(z0)), mpmath.expjpi(mpmath.mpf(5) / 8)
        integral = mpmath.quad(lambda r: mpmath.im(mpmath.exp(s(z0 + r * ray) - s0) * ray),
                               [0] + [width * 4 ** k for k in range(5)] + [mpmath.inf])
        return integral * mpmath.exp(s0) / mpmath.pi


def exhaustive_search(scenario):
    """The reference that certifies truncated_search: the alignment objective
    on every allowed cell of the search grid, by brute force.

    _point_fields runs on the allowed cells of row blocks of about 2^16 cells;
    the best cell is the first by (-f_obj, flat index), as the search ranks its
    survivors (np.argmax would pick a NaN), and only it pays a miss
    probability.  No walk, band, tile or worker pool of the search is used.
    """
    _, _, xs, ys = search_grid(scenario)
    ctxs, nx = _array_contexts(scenario), xs.size
    rows = max((1 << 16) // nx, 1)
    n_allowed, best = 0, []
    for r0 in range(0, ys.size, rows):
        idx = np.flatnonzero(_allowed_mask(scenario, xs, ys[r0:r0 + rows])) + r0 * nx
        if idx.size:
            fobj, fss = _point_fields(scenario, ctxs, xs[idx % nx], ys[idx // nx])
            k = np.lexsort((idx, -fobj))[0]
            best.append((idx[k], fobj[k], fss[k]))
            n_allowed += idx.size
    idx, fobj, fss = map(np.array, zip(*best))
    k = np.lexsort((idx, -fobj))[0]
    x, y = xs[idx[k] % nx], ys[idx[k] // nx]
    p_md = mdp_optimal_pma_batch(make_authenticator(scenario), scenario, [[x, y]])[0]
    label = _candidate_labels(ctxs, lobe_sets(scenario), np.array([x]), np.array([y]))[0]
    cand = CandidatePosition((float(x), float(y)), float(fobj[k]), float(fss[k]),
                             float(p_md), label)
    return SearchResult((cand,), cand.p_md, xs.size * ys.size, n_allowed, n_allowed, 1, n_allowed)


def count_oracle(scenario, idx):
    """The float32 small-scale count at the flat indices ``idx`` of the search
    grid, evaluated in full: cell centres x_min + (idx % nx + 0.5) res, and
    for identity correlation g = sin(pi s n x) / sin(pi s x) with its
    n cos(pi s n x) / cos(pi s x) limit where |sin(pi s x)| < 1e-9, whose
    sign turns the phase by exp(j (pi/2) (sign(g) - 1))."""
    res, _, xs, _ = search_grid(scenario)
    px = scenario.region.x_min + (idx % xs.size + 0.5) * res
    py = scenario.region.y_min + (idx // xs.size + 0.5) * res
    lam = wavelength(scenario.carrier_frequency)
    aligned = np.zeros(px.shape, complex)
    for ctx in _array_contexts(scenario):
        dist, omega = _point_geometry(ctx, px, py)
        x, s, n = omega - ctx.omega_a, ctx.spacing, ctx.n
        if not ctx.rho:
            den = np.sin(np.pi * s * x)
            num = np.sin(np.pi * s * n * x)
            tiny = np.abs(den) < 1e-9
            g = np.where(tiny, n * np.cos(np.pi * s * n * x) / np.cos(np.pi * s * x),
                         num / np.where(tiny, 1.0, den))
        else:
            g = _angular_g(ctx, omega)
        phase = 2.0 * np.pi * (dist - ctx.dist_a) / lam + np.pi * (n - 1) * s * x
        aligned += np.exp(1j * phase) * np.exp(1j * (np.pi / 2.0) * (np.sign(g) - 1.0))
    return np.abs(aligned).astype(np.float32)


@pytest.fixture
def single_scenario():
    """One 4-antenna array; the workhorse for closed-form checks."""
    return build_scenario([("mast", (40.0, 55.0), 4)])


@pytest.fixture
def dual_scenario():
    return build_scenario([
        ("west", (10.0, 55.0), 2),
        ("east", (75.0, 30.0), 3, (0.0, 1.0)),
    ])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_geometry(rng, n_rrh=None, *, n_rx=None, rho=None, region=(0, 80, 0, 60)):
    """A random valid deployment: arrays on the walls, Alice and Eve inside."""
    x0, x1, y0, y1 = region
    n_rrh = n_rrh or int(rng.integers(1, 4))
    rrhs = []
    for j in range(n_rrh):
        pos = (float(rng.uniform(x0 + 2, x1 - 2)), float(rng.uniform(y0 + 2, y1 - 2)))
        theta = float(rng.uniform(0, 2 * np.pi))
        n = int(n_rx if n_rx is not None else rng.integers(2, 6))
        rrhs.append((f"r{j}", pos, n, (np.cos(theta), np.sin(theta))))
    alice = (float(rng.uniform(x0 + 8, x1 - 8)), float(rng.uniform(y0 + 8, y1 - 8)))
    while True:
        eve = (float(rng.uniform(x0 + 1, x1 - 1)), float(rng.uniform(y0 + 1, y1 - 1)))
        if np.hypot(eve[0] - alice[0], eve[1] - alice[1]) > 6.0:
            break
    rho_val = float(rng.uniform(0.0, 0.7)) if rho is None else rho
    return build_scenario(rrhs, alice=alice, eve=eve, region=region,
                          rice_db=float(rng.uniform(3, 12)), rho=rho_val)


# The dense oracle: h = mu + L w drawn with the Cholesky factor L of the
# stacked covariance, and x = L^{-1} y by a triangular solve with it; the
# package itself never forms L.  Tests that draw channels, and the checks of
# the package's whitening, of its whitened sampler and of its evaluated SNR
# outage, use it.


def dense_cov(stats):
    """The stacked block-diagonal covariance of ``stats``: v_j rho^|k-l| per array."""
    return block_diag(*((v * correlation_matrix(stats.rho, n)).astype(complex)
                        for v, n in zip(stats.variances, stats.block_sizes)))


def sample_channel(stats, rng, n=None):
    """Draw h = mu + L w, w iid standard complex normal: a vector, or an (n, dim) block."""
    w = rng.standard_normal((1 if n is None else n, 2 * stats.dim)).view(complex) / np.sqrt(2.0)
    h = stats.mean + w @ np.linalg.cholesky(dense_cov(stats)).T
    return h[0] if n is None else h


def dense_whiten(stats, y):
    """L^{-1} y for a vector y or the columns of a (dim, n) block, by one triangular solve."""
    return solve_triangular(np.linalg.cholesky(dense_cov(stats)), y, lower=True)


def decide_on_channel(event, h):
    """A WhitenedEvent on a block of h: whiten densely, then decide."""
    x = dense_whiten(event.auth.stats, np.asarray(h).T).T
    return event.decide(np.ascontiguousarray(x))


def dense_hits(event, stats, samples, seed):
    """Hits of ``event`` (a function of an (n, dim) block of h) over sample_channel
    draws on the package's Philox blocks."""
    counts = []
    for b in range(0, (samples + BLOCK_SIZE - 1) // BLOCK_SIZE):
        count = min(BLOCK_SIZE, samples - b * BLOCK_SIZE)
        counts.append(np.asarray(event(sample_channel(stats, block_generator(seed, b), count)))
                      .sum(axis=0))
    return np.sum(counts, axis=0)
