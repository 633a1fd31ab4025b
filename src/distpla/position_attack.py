"""Optimal-position attacks: alignment objective, lobe geometry, truncated search.

An attacker free to choose its transmit position maximizes
F(h) = |mu_A^H Sigma_A^{-1} h|^2 / (h^H Sigma_A^{-1} h), the scale-invariant
alignment of its channel with the legitimate one.  With strong line of
sight the mean-channel objective factors per array into a large-scale term
(path-loss ratio times an angular inner product g between steering
vectors) and a rapidly oscillating phase term; the phase-aligned envelope
is maximized where every array's |g| is large, i.e. on the main lobes and,
for multi-array layouts, where first sidelobes of different arrays
intersect.

The truncated search grids the region, keeps only those cells (main-lobe
union plus pairwise first-sidelobe intersections), filters them to local
maxima of the small-scale alignment count, and only then pays for miss
probabilities at the survivors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .authenticator import Authenticator, make_authenticator
from .geometry import (Correlation, Scenario, SearchConfig, steering_vector,
                       wavelength)
from .numerics import bracketed_root_find
from .power_attack import mdp_optimal_pma_batch

_CHUNK = 1 << 18
_GRID_GUARD = 5_000_000
_EDGE_TOL = 1e-6


class PositionSearchError(RuntimeError):
    """Base class for position-search failures."""


class EmptyRegionError(PositionSearchError):
    """No grid point survives the region and exclusion constraints."""


class NoCandidatesError(PositionSearchError):
    """The lobe-restricted candidate set is empty."""


class GridTooLargeError(PositionSearchError):
    """The requested grid exceeds the exhaustive-search guard."""


def f_obj(auth: Authenticator, h: np.ndarray) -> float | np.ndarray:
    """Alignment objective |mu_A^H Sigma_A^{-1} h|^2 / (h^H Sigma_A^{-1} h).

    Scale invariant and bounded by the Mahalanobis energy M, with equality
    iff h is proportional to mu_A.  ``h`` may be a vector or a matrix of
    row vectors.
    """
    harr = np.asarray(h)
    x = solve_triangular(auth.chol, harr.T if harr.ndim == 2 else harr, lower=True)
    num = np.abs(auth.whitened_mean.conj() @ x) ** 2
    den = np.sum(np.abs(x) ** 2, axis=0)
    out = num / den
    return out if harr.ndim == 2 else float(out)


@dataclass(frozen=True)
class _ArrayContext:
    """Per-array geometry cache for vectorized point evaluations."""

    rrh_id: str
    position: np.ndarray
    axis: np.ndarray
    n: int
    spacing: float
    dist_a: float
    omega_a: float
    corr_inv: np.ndarray | None     # None means identity correlation
    w_a: np.ndarray                 # Lambda^{-1} e(Omega_A)
    peak: float                     # g at zero angular offset (= S_AA, real > 0)


def _array_contexts(scenario: Scenario) -> list[_ArrayContext]:
    ctxs = []
    for rrh in scenario.rrhs:
        delta = np.asarray(scenario.alice.position, float) - np.asarray(rrh.position, float)
        dist = float(np.hypot(*delta))
        omega_a = float(delta @ np.asarray(rrh.array_axis, float) / dist)
        if scenario.correlation.kind == "identity":
            corr_inv = None
            w_a = steering_vector(omega_a, rrh.num_antennas, scenario.antenna_spacing)
            peak = float(rrh.num_antennas)
        else:
            corr_inv = np.linalg.inv(scenario.correlation.matrix(rrh.num_antennas))
            e_a = steering_vector(omega_a, rrh.num_antennas, scenario.antenna_spacing)
            w_a = corr_inv @ e_a
            peak = float((e_a.conj() @ w_a).real)
        ctxs.append(_ArrayContext(rrh.id, np.asarray(rrh.position, float),
                                  np.asarray(rrh.array_axis, float), rrh.num_antennas,
                                  scenario.antenna_spacing, dist, omega_a, corr_inv, w_a, peak))
    return ctxs


def _dirichlet(x: np.ndarray, n: int, spacing: float) -> np.ndarray:
    """sin(pi s n x) / sin(pi s x) with the n cos(...)/cos(...) limit at poles."""
    x = np.asarray(x, float)
    den = np.sin(np.pi * spacing * x)
    num = np.sin(np.pi * spacing * n * x)
    tiny = np.abs(den) < 1e-9
    safe = np.where(tiny, 1.0, den)
    out = num / safe
    if np.any(tiny):
        lim = n * np.cos(np.pi * spacing * n * x) / np.cos(np.pi * spacing * x)
        out = np.where(tiny, lim, out)
    return out


def _angular_g(ctx: _ArrayContext, omega_e: np.ndarray) -> np.ndarray:
    """Real angular kernel g with e(Omega_E)^H Lambda^{-1} e(Omega_A) =
    exp(j pi (n-1) s (Omega_E - Omega_A)) g."""
    d_omega = np.asarray(omega_e, float) - ctx.omega_a
    if ctx.corr_inv is None:
        return _dirichlet(d_omega, ctx.n, ctx.spacing)
    e_mat = steering_vector(np.asarray(omega_e, float), ctx.n, ctx.spacing)
    s_ea = e_mat.conj() @ ctx.w_a
    g = s_ea * np.exp(-1j * np.pi * (ctx.n - 1) * ctx.spacing * d_omega)
    # the residual is judged against the lobe peak, not the pointwise |g|,
    # which vanishes at nulls and would turn roundoff into a false alarm
    if float(np.max(np.abs(g.imag), initial=0.0)) > 1e-9 * ctx.peak:
        raise ValueError("angular inner product is not phase-separable; "
                         "unexpected correlation structure")
    return g.real


def angular_inner_product(omega_e: float, omega_a: float, num_antennas: int,
                          spacing: float, correlation: Correlation | None = None
                          ) -> tuple[complex, float]:
    """(S, g) with S = e(Omega_E)^H Lambda^{-1} e(Omega_A) = e^{j pi (n-1) s dOmega} g.

    g is real for the supported correlation models; its sign tracks the
    lobe structure of the array."""
    corr = correlation or Correlation()
    e_a = steering_vector(omega_a, num_antennas, spacing)
    e_e = steering_vector(omega_e, num_antennas, spacing)
    lam_inv = (np.eye(num_antennas) if corr.kind == "identity"
               else np.linalg.inv(corr.matrix(num_antennas)))
    s_val = complex(e_e.conj() @ (lam_inv @ e_a))
    g = s_val * np.exp(-1j * np.pi * (num_antennas - 1) * spacing * (omega_e - omega_a))
    peak = float((e_a.conj() @ (lam_inv @ e_a)).real)
    if abs(g.imag) > 1e-9 * peak:
        raise ValueError("angular inner product is not phase-separable")
    return s_val, float(g.real)


def _s_ee(ctx: _ArrayContext, omega_e: np.ndarray) -> np.ndarray:
    """e(Omega_E)^H Lambda^{-1} e(Omega_E), a positive real per point."""
    if ctx.corr_inv is None:
        return np.full(np.shape(omega_e), float(ctx.n))
    e_mat = steering_vector(np.asarray(omega_e, float), ctx.n, ctx.spacing)
    return np.einsum("ij,jk,ik->i", e_mat.conj(), ctx.corr_inv, e_mat).real


def _point_geometry(ctx: _ArrayContext, px: np.ndarray, py: np.ndarray):
    dx = px - ctx.position[0]
    dy = py - ctx.position[1]
    dist = np.hypot(dx, dy)
    omega = (dx * ctx.axis[0] + dy * ctx.axis[1]) / dist
    return dist, omega


def _point_fields(scenario: Scenario, ctxs: list[_ArrayContext],
                  px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f_obj, f_small_scale) of the mean channel at candidate positions.

    The expanded per-array factorization of the objective:
      F = K |sum_j r_j^{beta/2} e^{j dphi_j} S_EA^j|^2 / sum_j r_j^beta S_EE^j
    with r_j the legitimate/attacker distance ratio; the attacker's transmit
    power cancels exactly.  The small-scale count is the phase-aligned sum
    |sum_j e^{j phi0_j}| with phi0 the phase of e^{j dphi} S_EA.
    """
    lam = wavelength(scenario.carrier_frequency)
    beta = scenario.path_loss_exponent
    k_rice = scenario.rice_factor
    fobj = np.empty(px.shape)
    fss = np.empty(px.shape)
    for start in range(0, px.size, _CHUNK):
        sl = slice(start, start + _CHUNK)
        num = np.zeros(px[sl].shape, complex)
        den = np.zeros(px[sl].shape)
        aligned = np.zeros(px[sl].shape, complex)
        for ctx in ctxs:
            dist, omega = _point_geometry(ctx, px[sl], py[sl])
            g = _angular_g(ctx, omega)
            d_omega = omega - ctx.omega_a
            ratio = ctx.dist_a / dist
            phase = (2.0 * np.pi * (dist - ctx.dist_a) / lam
                     + np.pi * (ctx.n - 1) * ctx.spacing * d_omega)
            rot = np.exp(1j * phase)
            num += ratio ** (beta / 2.0) * rot * g
            den += ratio ** beta * _s_ee(ctx, omega)
            aligned += rot * np.exp(1j * (np.pi / 2.0) * (np.sign(g) - 1.0))
        fobj[sl] = k_rice * np.abs(num) ** 2 / den
        fss[sl] = np.abs(aligned)
    return fobj, fss


def _fields_at(scenario: Scenario, position):
    """_point_fields at one (x, y) point as floats, or at each row of an (n, 2) array."""
    pos = np.asarray(position, float)
    pts = np.atleast_2d(pos)
    fields = _point_fields(scenario, _array_contexts(scenario),
                           pts[:, 0].copy(), pts[:, 1].copy())
    return tuple(float(f[0]) for f in fields) if pos.ndim == 1 else fields


def expanded_f_obj(scenario: Scenario, position) -> float | np.ndarray:
    """Mean-channel alignment objective from geometry alone.

    Algebraically identical to f_obj(auth, mu_E(position)); no covariance
    factorizations are needed.
    """
    return _fields_at(scenario, position)[0]


def f_small_scale(scenario: Scenario, position) -> float | np.ndarray:
    """Number of arrays an attacker position can phase-align, in [0, N_RRH].

    Equals N_RRH exactly at the legitimate position; its local maxima over
    the lobe-restricted candidate set are where miss probabilities are
    worth evaluating.
    """
    return _fields_at(scenario, position)[1]


# ---------------------------------------------------------------------------
# lobe geometry


@dataclass(frozen=True)
class LobeBand:
    """One |g| >= peak/g0 band around a lobe, in angular-sine coordinates."""

    kind: str                       # "main" or "sidelobe"
    omega_lo: float
    omega_hi: float
    peak: float                     # |g| at the lobe peak
    aoa_front: tuple[float, float]  # attack angles on the boresight side
    aoa_mirror: tuple[float, float]  # the mirrored angles pi - phi
    clipped: bool = False           # an edge hit the physical window


@dataclass(frozen=True)
class ArrayLobes:
    rrh_id: str
    omega_a: float
    main: LobeBand
    sidelobes: tuple[LobeBand, ...]


@dataclass(frozen=True)
class LobeSets:
    g0: float
    per_array: tuple[ArrayLobes, ...]


def _scan_crossings(fun, lo: float, hi: float, step: float) -> list[float]:
    """Roots of fun on [lo, hi] located by sign scanning plus bisection."""
    if hi <= lo:
        return []
    xs = np.arange(lo, hi + step, step)
    xs[-1] = hi
    vals = np.array([fun(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(bracketed_root_find(fun, float(xs[i]), float(xs[i + 1])))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def _one_side_bands(gfun, x_max: float, step: float, peak0: float, g0: float):
    """(main-edge offset, clipped flag, sidelobe band or None) on one side of 0."""
    zeros = _scan_crossings(gfun, 0.0, x_max, step)
    target_main = peak0 / g0
    first_zero = zeros[0] if zeros else x_max
    edge_fun = lambda x: abs(gfun(x)) - target_main
    edges = _scan_crossings(edge_fun, 0.0, first_zero, step)
    if edges:
        main_edge, main_clip = edges[0], False
    else:
        main_edge, main_clip = first_zero if zeros else x_max, not zeros
    if len(zeros) == 0:
        return main_edge, main_clip, None
    z1 = zeros[0]
    z2 = zeros[1] if len(zeros) > 1 else x_max
    if z2 - z1 <= 4.0 * step and len(zeros) > 1:
        return main_edge, main_clip, None
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(lambda x: -abs(gfun(x)), bounds=(z1, z2), method="bounded",
                          options={"xatol": 1e-12})
    center = float(res.x)
    side_peak = abs(gfun(center))
    if side_peak <= 0.0:
        return main_edge, main_clip, None
    target_side = side_peak / g0
    side_fun = lambda x: abs(gfun(x)) - target_side
    lo_edges = _scan_crossings(side_fun, z1, center, step)
    hi_edges = _scan_crossings(side_fun, center, z2, step)
    lo_edge = lo_edges[-1] if lo_edges else z1
    hi_edge, clip = (hi_edges[0], False) if hi_edges else (z2, len(zeros) <= 1)
    return main_edge, main_clip, (lo_edge, hi_edge, side_peak, clip)


def _aoa_interval(omega_lo: float, omega_hi: float) -> tuple[tuple[float, float], tuple[float, float]]:
    lo = math.asin(max(-1.0, min(1.0, omega_lo)))
    hi = math.asin(max(-1.0, min(1.0, omega_hi)))
    return (lo, hi), (math.pi - hi, math.pi - lo)


def _make_band(kind: str, omega_lo: float, omega_hi: float, peak: float,
               clipped: bool) -> LobeBand:
    omega_lo, omega_hi = max(omega_lo, -1.0), min(omega_hi, 1.0)
    front, mirror = _aoa_interval(omega_lo, omega_hi)
    return LobeBand(kind, omega_lo, omega_hi, peak, front, mirror, clipped)


def lobe_sets(scenario: Scenario) -> LobeSets:
    """Main-lobe and first-sidelobe bands of every array around its Alice bearing.

    Band edges solve |g| = lobe peak / g0 by bisection; each unclipped edge
    therefore reproduces the criterion to within the bisection tolerance.
    Both attack angles phi and pi - phi map to the same angular sine, so a
    single omega band covers the mirrored bearing automatically.
    """
    g0 = scenario.search.g0
    if not g0 > 1.0:
        raise ValueError("lobe threshold g0 must exceed 1")
    ctxs = _array_contexts(scenario)
    per = []
    for ctx in ctxs:
        gfun = lambda x: float(_angular_g(ctx, np.array([ctx.omega_a + x]))[0])
        peak0 = abs(gfun(0.0))
        step = 1.0 / (32.0 * ctx.n * ctx.spacing)
        x_pos = 1.0 - ctx.omega_a
        x_neg = ctx.omega_a + 1.0
        edge_p, clip_p, side_p = _one_side_bands(gfun, x_pos, step, peak0, g0)
        gneg = lambda x: gfun(-x)
        edge_n, clip_n, side_n = _one_side_bands(gneg, x_neg, step, peak0, g0)
        main = _make_band("main", ctx.omega_a - edge_n, ctx.omega_a + edge_p,
                          peak0, clip_p or clip_n)
        sides = []
        if side_p is not None:
            lo, hi, pk, cl = side_p
            sides.append(_make_band("sidelobe", ctx.omega_a + lo, ctx.omega_a + hi, pk, cl))
        if side_n is not None:
            lo, hi, pk, cl = side_n
            sides.append(_make_band("sidelobe", ctx.omega_a - hi, ctx.omega_a - lo, pk, cl))
        per.append(ArrayLobes(ctx.rrh_id, ctx.omega_a, main, tuple(sides)))
    return LobeSets(g0, tuple(per))


# ---------------------------------------------------------------------------
# grid search


@dataclass(frozen=True)
class CandidatePosition:
    position: tuple[float, float]
    f_obj: float
    f_small_scale: float
    p_md: float
    label: str


@dataclass(frozen=True)
class SearchResult:
    candidates: tuple[CandidatePosition, ...]   # miss-probability ranked, descending
    p_md_opt: float
    n_grid: int
    n_allowed: int
    n_lobe_points: int
    n_evaluated: int
    grid_shape: tuple[int, int]
    resolution: float
    n_survivors: int        # candidates before the max_candidates cap
    n_mc_fallbacks: int     # evaluated candidates whose p_md came from Monte-Carlo

    @property
    def best(self) -> CandidatePosition:
        return self.candidates[0]


def grid_axes(scenario: Scenario, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center coordinates covering the region at the given spacing."""
    reg = scenario.region
    nx = max(int(math.floor((reg.x_max - reg.x_min) / resolution + 1e-9)), 1)
    ny = max(int(math.floor((reg.y_max - reg.y_min) / resolution + 1e-9)), 1)
    xs = reg.x_min + (np.arange(nx) + 0.5) * resolution
    ys = reg.y_min + (np.arange(ny) + 0.5) * resolution
    return xs, ys


def _allowed_mask(scenario: Scenario, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    xs32 = xs.astype(np.float32)
    ys32 = ys.astype(np.float32)
    ax, ay = scenario.alice.position
    d2 = np.add.outer((ys32 - ay) ** 2, (xs32 - ax) ** 2)
    allowed = d2 >= scenario.exclusion_alice ** 2
    for rrh in scenario.rrhs:
        rx, ry = rrh.position
        d2 = np.add.outer((ys32 - ry) ** 2, (xs32 - rx) ** 2)
        allowed &= d2 >= scenario.exclusion_rrh ** 2
    return allowed


def _band_masks(ctx: _ArrayContext, lobes: ArrayLobes, xs: np.ndarray, ys: np.ndarray,
                use_sidelobes: bool) -> tuple[np.ndarray, np.ndarray]:
    dx = (xs - ctx.position[0]).astype(np.float32)
    dy = (ys - ctx.position[1]).astype(np.float32)
    dist = np.hypot(dx[None, :], dy[:, None])
    omega = (dx[None, :] * np.float32(ctx.axis[0]) + dy[:, None] * np.float32(ctx.axis[1])) / dist
    main = (omega >= lobes.main.omega_lo) & (omega <= lobes.main.omega_hi)
    side = np.zeros(omega.shape, bool)
    if use_sidelobes:
        for band in lobes.sidelobes:
            side |= (omega >= band.omega_lo) & (omega <= band.omega_hi)
    return main, side


def _disc_offsets(eps_px: int) -> tuple[np.ndarray, np.ndarray]:
    span = np.arange(-eps_px, eps_px + 1)
    oy, ox = np.meshgrid(span, span, indexing="ij")
    keep = (oy ** 2 + ox ** 2 <= eps_px ** 2) & ~((oy == 0) & (ox == 0))
    return oy[keep], ox[keep]


def _disc_local_maxima(values: np.ndarray, member_idx: np.ndarray,
                       shape: tuple[int, int], eps_px: int) -> np.ndarray:
    """Indices (into the flattened grid) of >= local maxima over the disc
    neighborhood, among member points; plateaus count as maxima."""
    ny, nx = shape
    grid = np.full(shape, -np.inf, np.float32)
    grid.ravel()[member_idx] = values.astype(np.float32)
    cand_idx = member_idx
    half = int(eps_px / math.sqrt(2.0))
    if half >= 1:
        # square inscribed in the disc: cheap separable prefilter that can
        # only discard points already beaten inside the disc
        from scipy.ndimage import maximum_filter
        sq_max = maximum_filter(grid, size=2 * half + 1, mode="constant", cval=-np.inf)
        keep = grid.ravel()[member_idx] >= sq_max.ravel()[member_idx]
        cand_idx = member_idx[keep]
    if eps_px < 1 or cand_idx.size == 0:
        return cand_idx
    oy, ox = _disc_offsets(eps_px)
    padded = np.full((ny + 2 * eps_px, nx + 2 * eps_px), -np.inf, np.float32)
    padded[eps_px:eps_px + ny, eps_px:eps_px + nx] = grid
    iy = cand_idx // nx + eps_px
    ix = cand_idx % nx + eps_px
    vals = grid.ravel()[cand_idx]
    alive = np.ones(cand_idx.size, bool)
    for dy_off, dx_off in zip(oy, ox):
        np.logical_and(alive, vals >= padded[iy + dy_off, ix + dx_off], out=alive)
    return cand_idx[alive]


def _candidate_label(scenario: Scenario, ctxs: list[_ArrayContext], lobes: LobeSets,
                     x: float, y: float) -> str:
    omegas = []
    for ctx in ctxs:
        _, om = _point_geometry(ctx, np.array([x]), np.array([y]))
        omegas.append(float(om[0]))
    in_side = []
    for ctx, al, om in zip(ctxs, lobes.per_array, omegas):
        if al.main.omega_lo <= om <= al.main.omega_hi:
            return f"main:{ctx.rrh_id}"
        in_side.append(any(b.omega_lo <= om <= b.omega_hi for b in al.sidelobes))
    for i in range(len(ctxs)):
        for j in range(i + 1, len(ctxs)):
            if in_side[i] and in_side[j]:
                return f"sidelobes:{ctxs[i].rrh_id}+{ctxs[j].rrh_id}"
    return "other"


def truncated_search(scenario: Scenario, config: SearchConfig | None = None,
                     auth: Authenticator | None = None) -> SearchResult:
    """Worst-position miss probability by lobe-restricted candidate search.

    Grids the region, intersects the allowed area with the union of main
    lobes and pairwise first-sidelobe intersections, keeps local maxima of
    the small-scale alignment count over discs of the configured radius
    (every candidate qualifies for a single array, whose count is flat),
    and evaluates the optimal-power-attack miss probability only at the
    survivors, capped at ``max_candidates`` best alignment objectives.
    """
    cfg = config or scenario.search
    lam = wavelength(scenario.carrier_frequency)
    res = cfg.grid_resolution or lam / 10.0
    eps = cfg.small_scale_radius if cfg.small_scale_radius is not None else lam / 2.0
    xs, ys = grid_axes(scenario, res)
    shape = (ys.size, xs.size)
    n_grid = xs.size * ys.size

    allowed = _allowed_mask(scenario, xs, ys)
    n_allowed = int(allowed.sum())
    if n_allowed == 0:
        raise EmptyRegionError("exclusion zones cover the whole region")

    ctxs = _array_contexts(scenario)
    lobes = lobe_sets(scenario)
    lobe_mask = np.zeros(shape, bool)
    side_masks = []
    for ctx, al in zip(ctxs, lobes.per_array):
        main, side = _band_masks(ctx, al, xs, ys, cfg.include_first_sidelobes and len(ctxs) > 1)
        lobe_mask |= main
        side_masks.append(side)
        del main, side
    for i in range(len(ctxs)):
        for j in range(i + 1, len(ctxs)):
            lobe_mask |= side_masks[i] & side_masks[j]
    del side_masks
    lobe_mask &= allowed
    member_idx = np.flatnonzero(lobe_mask.ravel())
    n_lobe = int(member_idx.size)
    if n_lobe == 0:
        raise NoCandidatesError("no grid point falls on a usable lobe")

    nx = xs.size
    px = scenario.region.x_min + (member_idx % nx + 0.5) * res
    py = scenario.region.y_min + (member_idx // nx + 0.5) * res
    fobj_vals, fss_vals = _point_fields(scenario, ctxs, px, py)

    eps_px = int(math.floor(eps / res + 1e-9))
    if len(ctxs) == 1 or eps_px < 1:
        surv_idx = member_idx
    else:
        surv_idx = _disc_local_maxima(fss_vals, member_idx, shape, eps_px)
    surv_rows = np.searchsorted(member_idx, surv_idx)   # member_idx is sorted

    order = np.lexsort((surv_idx % nx, surv_idx // nx, -fobj_vals[surv_rows]))
    n_survivors = int(surv_idx.size)
    if n_survivors > cfg.max_candidates:
        order = order[:cfg.max_candidates]
    surv_idx = surv_idx[order]
    surv_rows = surv_rows[order]

    xs_c = scenario.region.x_min + (surv_idx % nx + 0.5) * res
    ys_c = scenario.region.y_min + (surv_idx // nx + 0.5) * res
    p_md, mc = mdp_optimal_pma_batch(auth or make_authenticator(scenario), scenario,
                                     np.column_stack((xs_c, ys_c)))
    entries = sorted(
        ((float(p), int(k // nx), int(k % nx), float(x), float(y),
          float(fobj_vals[row]), float(fss_vals[row]))
         for p, k, row, x, y in zip(p_md, surv_idx, surv_rows, xs_c, ys_c)),
        key=lambda e: (-e[0], e[1], e[2]))
    candidates = tuple(
        CandidatePosition((x, y), fo, fs, p,
                          _candidate_label(scenario, ctxs, lobes, x, y))
        for p, _, _, x, y, fo, fs in entries)
    return SearchResult(candidates, candidates[0].p_md, n_grid, n_allowed, n_lobe,
                        len(candidates), shape, res, n_survivors, int(mc.sum()))


def exhaustive_search(scenario: Scenario, config: SearchConfig | None = None,
                      auth: Authenticator | None = None) -> SearchResult:
    """Reference search: the alignment objective on every allowed grid cell.

    Guarded to modest grids; ranks every allowed cell by the expanded
    objective and evaluates the miss probability at the single best cell.
    """
    cfg = config or scenario.search
    res = cfg.grid_resolution or wavelength(scenario.carrier_frequency) / 10.0
    xs, ys = grid_axes(scenario, res)
    n_grid = xs.size * ys.size
    if n_grid > _GRID_GUARD:
        raise GridTooLargeError(f"grid of {n_grid} points exceeds the "
                                f"{_GRID_GUARD}-point exhaustive guard")
    allowed = _allowed_mask(scenario, xs, ys)
    n_allowed = int(allowed.sum())
    if n_allowed == 0:
        raise EmptyRegionError("exclusion zones cover the whole region")
    member_idx = np.flatnonzero(allowed.ravel())
    nx = xs.size
    px = scenario.region.x_min + (member_idx % nx + 0.5) * res
    py = scenario.region.y_min + (member_idx // nx + 0.5) * res
    ctxs = _array_contexts(scenario)
    fobj_vals, fss_vals = _point_fields(scenario, ctxs, px, py)
    order = np.lexsort((member_idx % nx, member_idx // nx, -fobj_vals))
    top = order[0]
    k = int(member_idx[top])
    x, y = float(px[top]), float(py[top])
    p_md, mc = mdp_optimal_pma_batch(auth or make_authenticator(scenario), scenario, [x, y])
    lobes = lobe_sets(scenario)
    cand = CandidatePosition((x, y), float(fobj_vals[top]), float(fss_vals[top]),
                             float(p_md[0]), _candidate_label(scenario, ctxs, lobes, x, y))
    return SearchResult((cand,), cand.p_md, n_grid, n_allowed, n_allowed, 1,
                        (ys.size, xs.size), res, n_allowed, int(mc.sum()))


def count_small_scale_optima(scenario: Scenario, config: SearchConfig | None = None) -> int:
    """Disc-local maxima of the small-scale count over the whole allowed grid.

    The denominator of the "fraction of optima actually searched" figure of
    merit; for a single array the count is flat, so every allowed cell is a
    (weak) maximum.
    """
    cfg = config or scenario.search
    lam = wavelength(scenario.carrier_frequency)
    res = cfg.grid_resolution or lam / 10.0
    eps = cfg.small_scale_radius if cfg.small_scale_radius is not None else lam / 2.0
    xs, ys = grid_axes(scenario, res)
    allowed = _allowed_mask(scenario, xs, ys)
    n_allowed = int(allowed.sum())
    if n_allowed == 0:
        raise EmptyRegionError("exclusion zones cover the whole region")
    ctxs = _array_contexts(scenario)
    if len(ctxs) == 1:
        return n_allowed
    member_idx = np.flatnonzero(allowed.ravel())
    nx = xs.size
    px = scenario.region.x_min + (member_idx % nx + 0.5) * res
    py = scenario.region.y_min + (member_idx // nx + 0.5) * res
    _, fss_vals = _point_fields(scenario, ctxs, px, py)
    eps_px = int(math.floor(eps / res + 1e-9))
    if eps_px < 1:
        return n_allowed
    return int(_disc_local_maxima(fss_vals, member_idx, (ys.size, xs.size), eps_px).size)
