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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.linalg import solve_triangular

from .authenticator import Authenticator, make_authenticator
from .geometry import (Correlation, Scenario, SearchConfig, steering_vector,
                       wavelength)
from .numerics import bracketed_root_find
from .power_attack import mdp_optimal_pma_batch

_TILE_CELLS = 1 << 19      # grid cells in flight in _walk_grid, split over its workers' tiles
# exp(j (pi/2) (sign(g) - 1)) for sign(g) = -1, 0, 1: the same bits as the
# elementwise exp, looked up by sign(g) + 1
_SIGN_PHASE = np.exp(1j * (np.pi / 2.0) * (np.arange(-1.0, 2.0) - 1.0))


class PositionSearchError(RuntimeError):
    """Base class for position-search failures."""


class EmptyRegionError(PositionSearchError):
    """No grid point survives the region and exclusion constraints."""


class NoCandidatesError(PositionSearchError):
    """The lobe-restricted candidate set is empty."""


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

    The expanded per-array factorization of the objective, algebraically
    identical to f_obj(auth, mu_E) without any covariance factorization:
      F = K |sum_j r_j^{beta/2} e^{j dphi_j} S_EA^j|^2 / sum_j r_j^beta S_EE^j
    with r_j the legitimate/attacker distance ratio; the attacker's transmit
    power cancels exactly.  The small-scale count is the phase-aligned sum
    |sum_j e^{j phi0_j}| with phi0 the phase of e^{j dphi} S_EA, in
    [0, N_RRH] and equal to N_RRH at the legitimate position.
    """
    lam = wavelength(scenario.carrier_frequency)
    beta = scenario.path_loss_exponent
    num = np.zeros(px.shape, complex)
    den = np.zeros(px.shape)
    aligned = np.zeros(px.shape, complex)
    for ctx in ctxs:
        dist, omega = _point_geometry(ctx, px, py)
        g = _angular_g(ctx, omega)
        d_omega = omega - ctx.omega_a
        ratio = ctx.dist_a / dist
        phase = (2.0 * np.pi * (dist - ctx.dist_a) / lam
                 + np.pi * (ctx.n - 1) * ctx.spacing * d_omega)
        rot = np.exp(1j * phase)
        num += ratio ** (beta / 2.0) * rot * g
        den += ratio ** beta * _s_ee(ctx, omega)
        # clipping only matters for a NaN g, whose rot is NaN as well
        aligned += rot * np.take(_SIGN_PHASE, (np.sign(g) + 1.0).astype(np.intp), mode="clip")
    return scenario.rice_factor * np.abs(num) ** 2 / den, np.abs(aligned)


# ---------------------------------------------------------------------------
# lobe geometry


@dataclass(frozen=True)
class LobeBand:
    """One |g| >= peak/g0 band around a lobe, in angular sines clipped to [-1, 1]."""

    omega_lo: float
    omega_hi: float
    peak: float                     # |g| at the lobe peak


def _clipped_band(a: float, b: float, peak: float) -> LobeBand:
    lo, hi = min(a, b), max(a, b)
    return LobeBand(max(lo, -1.0), min(hi, 1.0), peak)


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


def _at(fun, x: float) -> float:
    """fun, which maps an array of offsets to an array, at the single offset x."""
    return float(fun(np.array([x]))[0])


def _scan_crossings(fun, lo: float, hi: float, step: float) -> list[float]:
    """Roots of fun on [lo, hi]: sign changes of fun over one scan grid, each
    refined by a bracketed root find on fun one point at a time."""
    if hi <= lo:
        return []
    xs = np.arange(lo, hi + step, step)
    xs[-1] = hi
    vals = fun(xs)
    roots = [float(xs[i]) if vals[i] == 0.0
             else bracketed_root_find(lambda x: _at(fun, x), float(xs[i]), float(xs[i + 1]))
             for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))]
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def _one_side_bands(g, x_max: float, step: float, peak0: float, g0: float):
    """(main-edge offset, sidelobe (lo, hi, peak) offsets or None) for g, an
    array function of the offset x in [0, x_max] from the main-lobe peak."""
    zeros = _scan_crossings(g, 0.0, x_max, step)
    first_zero = zeros[0] if zeros else x_max
    target_main = peak0 / g0
    edges = _scan_crossings(lambda x: np.abs(g(x)) - target_main, 0.0, first_zero, step)
    main_edge = edges[0] if edges else first_zero
    if not zeros or (len(zeros) > 1 and zeros[1] - zeros[0] <= 4.0 * step):
        return main_edge, None
    z1 = zeros[0]
    z2 = zeros[1] if len(zeros) > 1 else x_max
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(lambda x: -abs(_at(g, x)), bounds=(z1, z2), method="bounded",
                          options={"xatol": 1e-12})
    center = float(res.x)
    side_peak = abs(_at(g, center))
    if side_peak <= 0.0:
        return main_edge, None
    target_side = side_peak / g0
    side_fun = lambda x: np.abs(g(x)) - target_side
    lo_edges = _scan_crossings(side_fun, z1, center, step)
    hi_edges = _scan_crossings(side_fun, center, z2, step)
    return main_edge, (lo_edges[-1] if lo_edges else z1, hi_edges[0] if hi_edges else z2,
                       side_peak)


def lobe_sets(scenario: Scenario) -> LobeSets:
    """Main-lobe and first-sidelobe bands of every array around its Alice bearing.

    Each side of the bearing is scanned in angular-sine steps of 1/(32 n s),
    one _angular_g call per scan grid; brentq refines each sign change of g
    (the nulls) and of |g| - lobe peak/g0 (the band edges, so an edge inside
    [-1, 1] solves that equation).  Both attack angles phi and pi - phi share
    an angular sine, so one omega band covers the mirrored bearing.
    """
    g0 = scenario.search.g0
    if not g0 > 1.0:
        raise ValueError("lobe threshold g0 must exceed 1")
    per = []
    for ctx in _array_contexts(scenario):
        step = 1.0 / (32.0 * ctx.n * ctx.spacing)
        peak0 = abs(float(_angular_g(ctx, np.array([ctx.omega_a]))[0]))
        main_ends, sides = [], []
        for sign in (1.0, -1.0):
            g = lambda x: _angular_g(ctx, ctx.omega_a + sign * x)
            edge, side = _one_side_bands(g, 1.0 - sign * ctx.omega_a, step, peak0, g0)
            main_ends.append(ctx.omega_a + sign * edge)
            if side is not None:
                lo, hi, peak = side
                sides.append(_clipped_band(ctx.omega_a + sign * lo, ctx.omega_a + sign * hi, peak))
        per.append(ArrayLobes(ctx.rrh_id, ctx.omega_a, _clipped_band(*main_ends, peak0),
                              tuple(sides)))
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

    @property
    def best(self) -> CandidatePosition:
        return self.candidates[0]


def grid_axes(scenario: Scenario, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center coordinates covering the region at the given spacing."""
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"grid resolution must be positive and finite, got {resolution}")
    reg = scenario.region
    nx = max(int(math.floor((reg.x_max - reg.x_min) / resolution + 1e-9)), 1)
    ny = max(int(math.floor((reg.y_max - reg.y_min) / resolution + 1e-9)), 1)
    xs = reg.x_min + (np.arange(nx) + 0.5) * resolution
    ys = reg.y_min + (np.arange(ny) + 0.5) * resolution
    return xs, ys


def _allowed_mask(scenario: Scenario, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Cells of the ys × xs grid outside every exclusion disc.

    Exclusion, like lobe membership in _band_masks, is decided in float32:
    only a cell centre within float32 rounding of a radius or band edge can
    land on the other side of it than in float64.
    """
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


def _in_bands(lobes: ArrayLobes, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(in the main lobe, in a first sidelobe) per angular sine."""
    main = (omega >= lobes.main.omega_lo) & (omega <= lobes.main.omega_hi)
    side = np.zeros(omega.shape, bool)
    for band in lobes.sidelobes:
        side |= (omega >= band.omega_lo) & (omega <= band.omega_hi)
    return main, side


def _band_masks(ctx: _ArrayContext, lobes: ArrayLobes, xs: np.ndarray,
                ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_in_bands over the ys × xs grid, decided in float32 like _allowed_mask."""
    dx = (xs - ctx.position[0]).astype(np.float32)
    dy = (ys - ctx.position[1]).astype(np.float32)
    dist = np.hypot(dx[None, :], dy[:, None])
    omega = (dx[None, :] * np.float32(ctx.axis[0]) + dy[:, None] * np.float32(ctx.axis[1])) / dist
    return _in_bands(lobes, omega)


def _disc_offsets(eps_px: int) -> tuple[np.ndarray, np.ndarray]:
    span = np.arange(-eps_px, eps_px + 1)
    oy, ox = np.meshgrid(span, span, indexing="ij")
    keep = (oy ** 2 + ox ** 2 <= eps_px ** 2) & ~((oy == 0) & (ox == 0))
    return oy[keep], ox[keep]


def _disc_local_maxima(grid: np.ndarray, member_idx: np.ndarray, eps_px: int) -> np.ndarray:
    """Keep-mask over the members (flat indices into ``grid``, float32 values
    with -inf off the members) of >= local maxima over the disc neighborhood
    among members; plateaus count as maxima."""
    nx = grid.shape[1]
    vals = grid.ravel()[member_idx]
    keep = np.ones(member_idx.size, bool)
    half = int(eps_px / math.sqrt(2.0))
    if half >= 1:
        # square inscribed in the disc: cheap separable prefilter that can
        # only discard points already beaten inside the disc
        from scipy.ndimage import maximum_filter
        sq_max = maximum_filter(grid, size=2 * half + 1, mode="constant", cval=-np.inf)
        keep = vals >= sq_max.ravel()[member_idx]
    cand = np.flatnonzero(keep)
    iy, ix = np.divmod(member_idx[cand], nx)
    cand_vals = vals[cand]
    padded = np.pad(grid, eps_px, constant_values=-np.inf)
    alive = np.ones(cand.size, bool)
    for dy_off, dx_off in zip(*_disc_offsets(eps_px)):
        np.logical_and(alive, cand_vals >= padded[iy + (eps_px + dy_off), ix + (eps_px + dx_off)],
                       out=alive)
    keep[cand] = alive
    return keep


def _grid(scenario: Scenario, cfg: SearchConfig) -> tuple[float, int, np.ndarray, np.ndarray]:
    """(resolution, disc radius in whole cells, xs, ys) of a position search."""
    lam = wavelength(scenario.carrier_frequency)
    res = cfg.grid_resolution if cfg.grid_resolution is not None else lam / 10.0
    eps = cfg.small_scale_radius if cfg.small_scale_radius is not None else lam / 2.0
    xs, ys = grid_axes(scenario, res)
    return res, int(math.floor(eps / res + 1e-9)), xs, ys


def _in_order(pool: ThreadPoolExecutor, fn, args, ahead: int):
    """fn(*a) for each a of ``args`` on the pool, yielded in order, submitting
    at most ``ahead`` calls beyond the one awaited."""
    pending = deque()
    for a in args:
        pending.append(pool.submit(fn, *a))
        del a       # the call alone holds its arguments
        if len(pending) > ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _walk_grid(scenario: Scenario, ctxs: list[_ArrayContext], xs: np.ndarray,
               ys: np.ndarray, res: float, eps_px: int, member=None, threads: int = 1):
    """The grid pass of every position search, in row tiles on up to ``threads`` threads.

    Fields are evaluated once per cell, at the allowed cells that
    ``member(tile_ys)`` keeps (all if None, none if False).  With ``eps_px``
    >= 1 only their disc-local maxima of the small-scale count survive.  A
    disc reaches ``eps_px`` rows past its centre, so a member is decided once
    the tile holding those rows has its fields: the undecided members and
    the float32 small-scale grid of the last 2·``eps_px`` rows carry from
    tile to tile (across several tiles when tiles are thinner than that).
    Results therefore do not depend on the tile size, which bounds memory.
    The tiles run on min(threads, tiles) worker threads, each tile about
    _TILE_CELLS / workers cells so that the cells in flight stay at one
    tile's worth, and results come back in tile order, so they do not depend
    on ``threads`` either.  Yields, for each tile, its n_allowed and
    n_members and the flat grid indices, f_obj and f_small_scale of the
    survivors it decided, in row-major order; raises EmptyRegionError after
    the last tile if no cell is allowed.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    nx, ny = xs.size, ys.size
    workers = min(threads, -(-ny // max(_TILE_CELLS // nx, 1)))
    rows = max(_TILE_CELLS // workers // nx, 1)
    halo = max(eps_px, 0)

    def fields(r0):
        r1 = min(r0 + rows, ny)
        allowed = _allowed_mask(scenario, xs, ys[r0:r1])
        members = allowed if member is None else allowed & member(ys[r0:r1])
        local = np.flatnonzero(members)
        idx = local + r0 * nx
        px = scenario.region.x_min + (idx % nx + 0.5) * res
        py = scenario.region.y_min + (idx // nx + 0.5) * res
        fobj, fss = _point_fields(scenario, ctxs, px, py)
        grid = None
        if halo:
            grid = np.full(members.shape, -np.inf, np.float32)
            grid.ravel()[local] = fss
        return int(np.count_nonzero(allowed)), idx.size, idx, fobj, fss, r1, grid

    def decisions(done):
        """maxima's arguments per tile.  A member's disc reaches ``halo`` rows
        past its own, so a tile decides the members from ``halo`` rows before
        its first row to ``halo`` rows before its end (to the grid's end for
        the last tile); the undecided members and the grid's last 2·``halo``
        rows carry over to the next tile."""
        tail = np.empty((0, nx), np.float32)
        pending = (np.empty(0, np.intp), np.empty(0), np.empty(0))
        for n_allowed, n_members, *tile, r1, grid in done:
            cut = (r1 - halo) * nx if r1 < ny else ny * nx
            c_p, c_t = np.searchsorted(pending[0], cut), np.searchsorted(tile[0], cut)
            yield (n_allowed, n_members, r1 - grid.shape[0] - tail.shape[0], (tail, grid),
                   [a[:c_p] for a in pending], [a[:c_t] for a in tile])
            pending = tuple(np.concatenate((a[c_p:], b[c_t:])) for a, b in zip(pending, tile))
            tail = np.concatenate((tail, grid[-2 * halo:]))[-2 * halo:]
            del tile, grid      # the call alone holds the tile while the next one runs

    def maxima(n_allowed, n_members, g0, grids, *parts):
        """The disc-local maxima among the members in ``parts``; ``grids``
        hold the rows from g0 on that their discs reach."""
        idx, fobj, fss = map(np.concatenate, zip(*parts))
        keep = _disc_local_maxima(np.concatenate(grids), idx - g0 * nx, halo)
        return n_allowed, n_members, idx[keep], fobj[keep], fss[keep]

    pool = ThreadPoolExecutor(workers)
    try:
        tiles = _in_order(pool, fields, ((r0,) for r0 in range(0, ny, rows)), workers - 1)
        if halo:
            tiles = _in_order(pool, maxima, decisions(tiles), workers - 1)
        any_allowed = False
        for n_allowed, n_members, idx, fobj, fss, *_ in tiles:
            any_allowed |= n_allowed > 0
            yield n_allowed, n_members, idx, fobj, fss
    finally:
        pool.shutdown(cancel_futures=True)
    if not any_allowed:
        raise EmptyRegionError("exclusion zones cover the whole region")


def _candidate_labels(ctxs: list[_ArrayContext], lobes: LobeSets,
                      px: np.ndarray, py: np.ndarray) -> list[str]:
    """Per position: the first array whose main lobe holds it, else the first
    pair of arrays whose first sidelobes both hold it, else "other"."""
    main, side = zip(*(_in_bands(al, _point_geometry(ctx, px, py)[1])
                       for ctx, al in zip(ctxs, lobes.per_array)))
    labels = np.full(px.shape, "other", object)
    # the later rules are written first so that the earlier ones win
    pairs = [(i, j) for i in range(len(ctxs)) for j in range(i + 1, len(ctxs))]
    for i, j in reversed(pairs):
        labels[side[i] & side[j]] = f"sidelobes:{ctxs[i].rrh_id}+{ctxs[j].rrh_id}"
    for ctx, in_main in reversed(list(zip(ctxs, main))):
        labels[in_main] = f"main:{ctx.rrh_id}"
    return labels.tolist()


def truncated_search(scenario: Scenario, config: SearchConfig | None = None,
                     auth: Authenticator | None = None, threads: int = 1) -> SearchResult:
    """Worst-position miss probability by lobe-restricted candidate search.

    Grids the region, intersects the allowed area with the union of main
    lobes and pairwise first-sidelobe intersections, keeps local maxima of
    the small-scale alignment count over discs of the configured radius
    (every candidate qualifies for a single array, whose count is flat),
    and evaluates the optimal-power-attack miss probability only at the
    survivors, capped at ``max_candidates`` best alignment objectives.
    The grid pass runs on up to ``threads`` threads without changing the result.
    """
    cfg = config or scenario.search
    res, eps_px, xs, ys = _grid(scenario, cfg)
    ctxs = _array_contexts(scenario)
    lobes = lobe_sets(scenario)

    def lobe_mask(tile_ys):
        main, side = zip(*(_band_masks(ctx, al, xs, tile_ys)
                           for ctx, al in zip(ctxs, lobes.per_array)))
        mask = np.logical_or.reduce(main)
        if cfg.include_first_sidelobes:
            for i in range(len(side)):
                for j in range(i + 1, len(side)):
                    mask |= side[i] & side[j]
        return mask

    nx = xs.size

    def best_first(idx, fobj, fss):
        """The max_candidates survivors of largest f_obj, ties in row-major order."""
        order = np.lexsort((idx % nx, idx // nx, -fobj))[:cfg.max_candidates]
        return idx[order], fobj[order], fss[order]

    n_allowed = n_lobe = n_survivors = 0
    kept = (np.empty(0, np.intp), np.empty(0), np.empty(0))
    for n_tile, m_tile, *survivors in _walk_grid(scenario, ctxs, xs, ys, res,
                                                 eps_px if len(ctxs) > 1 else 0, lobe_mask,
                                                 threads):
        n_allowed += n_tile
        n_lobe += m_tile
        n_survivors += survivors[0].size
        kept = tuple(map(np.concatenate, zip(kept, survivors)))
        if kept[0].size > 2 * cfg.max_candidates:     # keeps memory bounded by the cap
            kept = best_first(*kept)
    if n_lobe == 0:
        raise NoCandidatesError("no grid point falls on a usable lobe")
    idx, fobj, fss = best_first(*kept)
    xs_c = scenario.region.x_min + (idx % nx + 0.5) * res
    ys_c = scenario.region.y_min + (idx // nx + 0.5) * res
    p_md = mdp_optimal_pma_batch(auth or make_authenticator(scenario), scenario,
                                 np.column_stack((xs_c, ys_c)))
    labels = _candidate_labels(ctxs, lobes, xs_c, ys_c)
    candidates = tuple(
        CandidatePosition((float(xs_c[k]), float(ys_c[k])), float(fobj[k]), float(fss[k]),
                          float(p_md[k]), labels[k])
        for k in np.lexsort((idx % nx, idx // nx, -p_md)))     # p_md descending, row-major ties
    return SearchResult(candidates, candidates[0].p_md, xs.size * ys.size, n_allowed, n_lobe,
                        len(candidates), (ys.size, xs.size), res, n_survivors)


def exhaustive_search(scenario: Scenario, config: SearchConfig | None = None,
                      auth: Authenticator | None = None, threads: int = 1) -> SearchResult:
    """Reference search: the alignment objective on every allowed grid cell.

    Ranks every allowed cell by the expanded objective and evaluates the
    miss probability at the single best cell, the first in row-major order
    among ties.
    """
    cfg = config or scenario.search
    res, _, xs, ys = _grid(scenario, cfg)
    ctxs = _array_contexts(scenario)
    n_allowed, best = 0, None
    for n_tile, _, idx, fobj, fss in _walk_grid(scenario, ctxs, xs, ys, res, 0,
                                                threads=threads):
        n_allowed += n_tile
        if idx.size and (best is None or fobj.max() > best[1]):
            top = int(np.argmax(fobj))
            best = (int(idx[top]), float(fobj[top]), float(fss[top]))
    k, fo, fs = best
    x = scenario.region.x_min + (k % xs.size + 0.5) * res
    y = scenario.region.y_min + (k // xs.size + 0.5) * res
    p_md = mdp_optimal_pma_batch(auth or make_authenticator(scenario), scenario, [x, y])
    label = _candidate_labels(ctxs, lobe_sets(scenario), np.array([x]), np.array([y]))[0]
    cand = CandidatePosition((x, y), fo, fs, float(p_md[0]), label)
    return SearchResult((cand,), cand.p_md, xs.size * ys.size, n_allowed, n_allowed, 1,
                        (ys.size, xs.size), res, n_allowed)


def count_small_scale_optima(scenario: Scenario, config: SearchConfig | None = None,
                             threads: int = 1) -> int:
    """Disc-local maxima of the small-scale count over the whole allowed grid.

    The denominator of the "fraction of optima actually searched" figure of
    merit.  For a single array, whose count is flat, or a disc under one cell
    every allowed cell is a (weak) maximum, counted without any field.
    """
    cfg = config or scenario.search
    res, eps_px, xs, ys = _grid(scenario, cfg)
    ctxs = _array_contexts(scenario)
    count_only = len(ctxs) == 1 or eps_px < 1
    n_allowed = n_optima = 0
    for n_tile, _, idx, _, _ in _walk_grid(scenario, ctxs, xs, ys, res,
                                           0 if count_only else eps_px,
                                           (lambda tile_ys: False) if count_only else None,
                                           threads):
        n_allowed += n_tile
        n_optima += idx.size
    return n_allowed if count_only else n_optima
