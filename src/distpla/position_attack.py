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
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .authenticator import make_authenticator
from .geometry import Scenario, wavelength
from .numerics import bounded_minimum, bracketed_root_find
from .power_attack import _CHUNK, mdp_optimal_pma_batch

_BAND_CELLS = 1 << 21      # grid cells a band task decides: sized so halos stay a few %
_TILE_CELLS = 1 << 19      # grid cells in flight in a band task
_CHUNK_CELLS = 1 << 14     # cells per field call or gather of the walk: bounds its temporaries
_SCAN_STRIDE = 32          # columns per float64 scan point of _lobe_columns
_STRIP_ROWS = 16           # rows decided per pass of _disc_local_maxima: bounds its temporaries


class PositionSearchError(RuntimeError):
    """Base class for position-search failures."""


class EmptyRegionError(PositionSearchError):
    """No grid point survives the region and exclusion constraints."""


class NoCandidatesError(PositionSearchError):
    """The lobe-restricted candidate set is empty."""


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
    rho: float                      # the scenario's antenna correlation, 0 for none

    @property
    def peak(self) -> float:        # g at zero angular offset, S_AA > 0
        return float(_s_ee(self, self.omega_a))


def _array_contexts(scenario: Scenario) -> list[_ArrayContext]:
    ctxs = []
    for rrh in scenario.rrhs:
        delta = np.asarray(scenario.alice.position, float) - np.asarray(rrh.position, float)
        dist = float(np.hypot(*delta))
        omega_a = float(delta @ np.asarray(rrh.array_axis, float) / dist)
        ctxs.append(_ArrayContext(rrh.id, np.asarray(rrh.position, float),
                                  np.asarray(rrh.array_axis, float), rrh.num_antennas,
                                  scenario.antenna_spacing, dist, omega_a, scenario.rho))
    return ctxs


def _dirichlet(x: np.ndarray, n: int, spacing: float) -> np.ndarray:
    """sin(pi s n x) / sin(pi s x) with the n cos(...)/cos(...) limit at poles."""
    den = np.sin(np.pi * spacing * x)
    num = np.sin(np.pi * spacing * n * x)
    tiny = np.abs(den) < 1e-9
    out = num / np.where(tiny, 1.0, den)
    if np.any(tiny):
        lim = n * np.cos(np.pi * spacing * n * x) / np.cos(np.pi * spacing * x)
        out = np.where(tiny, lim, out)
    return out


def _angular_g(ctx: _ArrayContext, omega_e: np.ndarray) -> np.ndarray:
    """Real angular kernel g with e(Omega_E)^H Lambda^{-1} e(Omega_A) =
    exp(j pi (n-1) s x) g, x = Omega_E - Omega_A, e_k(Omega) = exp(-j 2 pi s Omega k):
      (1 - rho^2) g = (1 + rho^2) D_n(x) - 2 rho^2 cos(pi s (n-1) x)
                      - 2 rho D_{n-1}(x) cos(pi s (Omega_E + Omega_A)),
    D_m = _dirichlet(., m, s).  g is real because (1 - rho^2) Lambda^{-1} (1, 1 + rho^2,
    ..., 1 + rho^2, 1 on the diagonal, -rho beside it) is real with entry (k, l) equal
    to entry (n-1-k, n-1-l), and past that factor their two terms are conjugates."""
    x = omega_e - ctx.omega_a
    g = _dirichlet(x, ctx.n, ctx.spacing)
    if not ctx.rho:
        return g
    r, s, n = ctx.rho, ctx.spacing, ctx.n
    return ((1.0 + r * r) * g - 2.0 * r * r * np.cos(np.pi * s * (n - 1) * x)
            - 2.0 * r * _dirichlet(x, n - 1, s) * np.cos(np.pi * s * (omega_e + ctx.omega_a))
            ) / ((1.0 - r) * (1.0 + r))


def _s_ee(ctx: _ArrayContext, omega_e: np.ndarray) -> np.ndarray | float:
    """S_EE = e(Omega_E)^H Lambda^{-1} e(Omega_E) > 0: _angular_g's form at Omega_A = Omega_E."""
    if not ctx.rho:
        return float(ctx.n)
    r, n = ctx.rho, ctx.n
    return ((n + (n - 2) * r * r - 2.0 * r * (n - 1) * np.cos(2.0 * np.pi * ctx.spacing * omega_e))
            / ((1.0 - r) * (1.0 + r)))


@np.errstate(invalid="ignore")      # 0/0 at the array itself, an excluded cell
def _point_geometry(ctx: _ArrayContext, px: np.ndarray, py: np.ndarray):
    dx = px - ctx.position[0]
    dy = py - ctx.position[1]
    dist = np.hypot(dx, dy)
    omega = (dx * ctx.axis[0] + dy * ctx.axis[1]) / dist
    return dist, omega


def _point_fields(scenario: Scenario, ctxs: list[_ArrayContext], px: np.ndarray,
                  py: np.ndarray, objective: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """(f_obj, f_small_scale) of the mean channel at candidate positions;
    f_obj is None without ``objective``, which skips its terms.

    The expanded per-array factorization of the objective, algebraically
    identical to the module's F(h) at h = mu_E without any covariance factorization:
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
        x = omega - ctx.omega_a
        g = _angular_g(ctx, omega)
        phase = 2.0 * np.pi * (dist - ctx.dist_a) / lam + np.pi * (ctx.n - 1) * ctx.spacing * x
        rot = np.exp(1j * phase)
        aligned += rot * np.exp(1j * (np.pi / 2.0) * (np.sign(g) - 1.0))
        if objective:
            ratio = ctx.dist_a / dist
            num += ratio ** (beta / 2.0) * rot * g
            den += ratio ** beta * _s_ee(ctx, omega)
    return (scenario.rice_factor * np.abs(num) ** 2 / den if objective else None,
            np.abs(aligned))


def _fast_count_error(n_arrays: int) -> float:
    """e, the bound on |_fast_count - float32(_point_fields' count)| that
    _disc_local_maxima's settle step relies on (see _fast_count)."""
    return n_arrays * (n_arrays + 64) * 2.0 ** -24


def _fast_count(scenario: Scenario, ctxs: list[_ArrayContext], px: np.ndarray,
                py: np.ndarray) -> np.ndarray:
    """_point_fields' small-scale count in float32 arithmetic, within
    e = _fast_count_error(N) of its float32 rounding, for N arrays.

    Each array's phase p, with sign(g) folded in as (pi/2)(sign - 1), is
    formed in float64 in turns t = p / 2 pi and reduced to q = 2 pi (t - rint t);
    cos q and sin q are taken and summed in float32, and the count is their
    float32 hypot.  The distance is sqrt(dx² + dy²).  sign(g) is float64's:
    for identity correlation the parity of floor(s n x) + floor(s x) (the
    signs of sin(pi s n x) and sin(pi s x)), else the sign of _angular_g.
    Within 1e-9 of a null of sin(pi s n x), or |g| < 1e-9 of the lobe peak,
    the ulp by which this distance and hypot's differ could flip the sign
    and move a whole term, so those cells take _point_fields' geometry and sign.

    The bound, with u = 2^-24 and |p| < 2^26 (a region under ten million
    wavelengths across): per term, q is within |p| 2^-50 <= u of
    _point_fields' phase modulo 2 pi, float32(q) within 2u of q (|q| <= pi),
    and numpy's float32 cos and sin within 2 ulp <= 2u each, 6u together.
    Summing N terms in float32 adds at most sqrt(2) u (2 + ... + N) <
    0.71 (N² + N) u, the float32 hypot at most 1 ulp <= 2Nu, the rounding of
    the float64 count to float32 Nu, and its own error under u.  In all the
    error is under (N² + 11N) u; e = N (N + 64) u is over five times that,
    which also covers the float32 rounding (<= Nu) of the settle step's
    comparisons, and measured it is over 16 times the largest error.
    """
    lam = wavelength(scenario.carrier_frequency)
    re = np.zeros(px.shape, np.float32)
    im = np.zeros(px.shape, np.float32)
    for ctx in ctxs:
        dx = px - ctx.position[0]
        dy = py - ctx.position[1]
        dist = dx * dx
        dist += dy * dy
        np.sqrt(dist, out=dist)
        dx *= ctx.axis[0]
        dy *= ctx.axis[1]
        dx += dy
        omega = np.divide(dx, dist, out=dx)
        if not ctx.rho:
            x = np.subtract(omega, ctx.omega_a, out=omega)
            y = np.multiply(x, ctx.spacing * ctx.n, out=dy)
            half = np.floor(y)                  # (sign(g) - 1) / 2, modulo 2
            half += np.floor(ctx.spacing * x)
            y -= np.rint(y)
            unsure = np.abs(y, out=y) < 1e-9
        else:
            g = _angular_g(ctx, omega)
            half, unsure = 0.5 * (np.sign(g) - 1.0), np.abs(g) < 1e-9 * ctx.peak
            x = np.subtract(omega, ctx.omega_a, out=omega)
        if unsure.any():
            om = _point_geometry(ctx, px[unsure], py[unsure])[1]
            half[unsure] = 0.5 * (np.sign(_angular_g(ctx, om)) - 1.0)
        turns = np.subtract(dist, ctx.dist_a, out=dist)
        turns *= 1.0 / lam
        x *= 0.5 * (ctx.n - 1) * ctx.spacing
        turns += x
        half *= 0.5
        turns += half
        turns -= np.rint(turns)
        turns *= 2.0 * np.pi
        q = turns.astype(np.float32)
        re += np.cos(q)
        im += np.sin(q)
    return np.hypot(re, im)


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
    edges = _scan_crossings(lambda x: np.abs(g(x)) - peak0 / g0, 0.0, first_zero, step)
    main_edge = edges[0] if edges else first_zero
    if not zeros or (len(zeros) > 1 and zeros[1] - zeros[0] <= 4.0 * step):
        return main_edge, None
    z1, z2 = zeros[0], (zeros[1] if len(zeros) > 1 else x_max)
    center, side_peak = bounded_minimum(lambda x: -abs(_at(g, x)), z1, z2, 1e-12)
    side_peak = -side_peak
    if side_peak <= 0.0:
        return main_edge, None
    side_fun = lambda x: np.abs(g(x)) - side_peak / g0
    lo_edges = _scan_crossings(side_fun, z1, center, step)
    hi_edges = _scan_crossings(side_fun, center, z2, step)
    return main_edge, (lo_edges[-1] if lo_edges else z1, hi_edges[0] if hi_edges else z2,
                       side_peak)


def lobe_sets(scenario: Scenario) -> LobeSets:
    """Main-lobe and first-sidelobe bands of every array around its Alice
    bearing, with band edges at the g0 of ``scenario.search``.

    Each side of the bearing is scanned in angular-sine steps of 1/(32 n s),
    one _angular_g call per scan grid; bracketed_root_find refines each sign
    change of g (the nulls) and of |g| - lobe peak/g0 (the band edges, so an
    edge inside [-1, 1] solves that equation), bounded_minimum each sidelobe
    peak, bit for bit as scipy would, which the float32 masks rely on.  Both
    attack angles phi and pi - phi share an angular sine, so one band covers both.
    """
    g0 = scenario.search.g0
    if not g0 > 1.0:
        raise ValueError("lobe threshold g0 must exceed 1")
    per = []
    for ctx in _array_contexts(scenario):
        step = 1.0 / (32.0 * ctx.n * ctx.spacing)
        main_ends, sides = [], []
        for sign in (1.0, -1.0):
            g = lambda x: _angular_g(ctx, ctx.omega_a + sign * x)
            edge, side = _one_side_bands(g, 1.0 - sign * ctx.omega_a, step, ctx.peak, g0)
            main_ends.append(ctx.omega_a + sign * edge)
            if side is not None:
                lo, hi, peak = side
                sides.append(_clipped_band(ctx.omega_a + sign * lo, ctx.omega_a + sign * hi, peak))
        per.append(ArrayLobes(ctx.rrh_id, ctx.omega_a, _clipped_band(*main_ends, ctx.peak),
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
    n_survivors: int        # candidates before the max_candidates cap
    n_optima: int | None = None     # small-scale optima of the allowed grid, if counted

    @property
    def best(self) -> CandidatePosition:
        return self.candidates[0]


def grid_axes(scenario: Scenario, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Centres of the whole cells that fit the region at the given spacing."""
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"grid resolution must be positive and finite, got {resolution}")
    reg = scenario.region
    width, height = reg.x_max - reg.x_min, reg.y_max - reg.y_min
    nx = int(math.floor(width / resolution + 1e-9))
    ny = int(math.floor(height / resolution + 1e-9))
    if not nx or not ny:
        raise ValueError(f"grid resolution {resolution} m fits no whole cell in the "
                         f"{width} m x {height} m region")
    xs = reg.x_min + (np.arange(nx) + 0.5) * resolution
    ys = reg.y_min + (np.arange(ny) + 0.5) * resolution
    return xs, ys


def _allowed_mask(scenario: Scenario, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Cells of the ys × xs grid outside every exclusion disc.

    Exclusion, like lobe membership in _band_masks, is decided in float32:
    only a cell centre within float32 rounding of a radius or band edge can
    land on the other side of it than in float64.  Each disc is evaluated
    on the rows and columns with squared offset under r² only: a float32 sum
    of non-negative terms is never below either, so no other cell is excluded.
    """
    xs32, ys32 = xs.astype(np.float32), ys.astype(np.float32)
    allowed = np.ones((ys.size, xs.size), bool)
    for (cx, cy), r in [(scenario.alice.position, scenario.exclusion_alice)] + [
            (rrh.position, scenario.exclusion_rrh) for rrh in scenario.rrhs]:
        dy2, dx2 = (ys32 - cy) ** 2, (xs32 - cx) ** 2
        rows, cols = np.flatnonzero(dy2 < r ** 2), np.flatnonzero(dx2 < r ** 2)
        if rows.size and cols.size:
            box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
            allowed[box] &= np.add.outer(dy2[box[0]], dx2[box[1]]) >= r ** 2
    return allowed


def _in_bands(lobes: ArrayLobes, omega: np.ndarray, slack=0.0) -> tuple[np.ndarray, np.ndarray]:
    """(in the main lobe, in a first sidelobe) per angular sine, with the
    bands widened by ``slack`` on both sides."""
    main = (omega >= lobes.main.omega_lo - slack) & (omega <= lobes.main.omega_hi + slack)
    side = np.zeros(omega.shape, bool)
    for band in lobes.sidelobes:
        side |= (omega >= band.omega_lo - slack) & (omega <= band.omega_hi + slack)
    return main, side


def _lobe_union(main, side) -> np.ndarray:
    """Any array's main-lobe mask or any two arrays' sidelobe masks at once."""
    mask = np.logical_or.reduce(main)
    for i in range(len(side)):
        for j in range(i + 1, len(side)):
            mask |= side[i] & side[j]
    return mask


@np.errstate(invalid="ignore")      # 0/0 at the array itself, an excluded cell
def _band_masks(ctx: _ArrayContext, lobes: ArrayLobes, xs: np.ndarray,
                ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_in_bands over the ys × xs grid, decided in float32 like _allowed_mask, on glibc
    hypotf's bits: the float64 root of the exact squares' sum, rounded, in IEEE operations."""
    dx = (xs - ctx.position[0]).astype(np.float32)
    dy = (ys - ctx.position[1]).astype(np.float32)
    squares = np.add.outer(dy.astype(float) ** 2, dx.astype(float) ** 2)
    dist = np.sqrt(squares, out=squares).astype(np.float32)
    omega = (dx[None, :] * np.float32(ctx.axis[0]) + dy[:, None] * np.float32(ctx.axis[1])) / dist
    return _in_bands(lobes, omega)


def _lobe_columns(ctxs: list[_ArrayContext], lobes: LobeSets, xs: np.ndarray,
                  ys: np.ndarray, res: float) -> np.ndarray | slice:
    """The columns of the ys × xs grid that can hold a cell of _lobe_mask.

    Scans the centre column of each run of _SCAN_STRIDE columns in float64.
    Along a row |dω/dx| <= 1/dist, so within h = _SCAN_STRIDE/2 cells of a
    centre at distance r > h from an array ω moves by at most h/(r - h); 1e-5
    more covers the float32 rounding of _band_masks (under 16 u ≈ 1e-6).
    """
    k = _SCAN_STRIDE
    centres = np.minimum(np.arange(0, xs.size, k) + k // 2, xs.size - 1)
    h = k // 2 * res
    main, side = [], []
    for ctx, al in zip(ctxs, lobes.per_array):
        dist, omega = _point_geometry(ctx, xs[centres][None, :], ys[:, None])
        close = ~(dist > h)         # no bound on ω there (NaN at the array itself)
        bands = _in_bands(al, omega, h / np.where(close, np.inf, dist - h) + 1e-5)
        main.append(bands[0] | close)
        side.append(bands[1] | close)
    runs = _lobe_union(main, side).any(axis=0)
    return slice(None) if runs.all() else np.flatnonzero(np.repeat(runs, k)[:xs.size])


def _lobe_mask(ctxs: list[_ArrayContext], lobes: LobeSets, xs: np.ndarray, ys: np.ndarray,
               res: float) -> np.ndarray:
    """_lobe_union of the float32 _band_masks over the ys × xs grid,
    evaluated only on the columns that _lobe_columns keeps."""
    cols = _lobe_columns(ctxs, lobes, xs, ys, res)
    mask = np.zeros((ys.size, xs.size), bool)
    mask[:, cols] = _lobe_union(*zip(*(_band_masks(ctx, al, xs[cols], ys)
                                       for ctx, al in zip(ctxs, lobes.per_array))))
    return mask


def _disc_local_maxima(grid, r0: int, r1: int, eps_px: int, exact=None,
                       margin: float = 0.0) -> np.ndarray:
    """Flat indices into ``grid`` (float32, -inf off the members; or a list
    of the row blocks that make it up, padded without joining them first) of
    the members in rows r0:r1 that are >= every cell of their disc of radius
    ``eps_px``; plateaus count as maxima and NaN never does.  A disc row dy
    off the centre reaches isqrt(eps_px² - dy²) cells each side, so the disc
    maximum is a fold over dy of running row maxima, taken by doubling over
    -inf-padded strips of _STRIP_ROWS decided rows that bound the temporaries.

    With ``exact``, ``grid`` only filters: it holds a count within
    ``margin`` = e of the count that decides, which exact(flat indices)
    gives.  The contenders are the members within 2e of their disc's maximum
    on ``grid``; R holds, per contender c, the disc cells n with grid(n) >
    grid(c) - 2e, c among them, and the decision reads the exact count on R
    only.  A true maximum c is a contender: grid(c) >= exact(c) - e >=
    exact(n) - e >= grid(n) - 2e.  A disc cell outside R has exact(n) <=
    grid(n) + e <= grid(c) - e <= exact(c), so c is a maximum iff it is >=
    every cell of its R.  R is a function of ``grid``, not of the strips;
    the contenders' discs are gathered once, after the strips."""
    e = eps_px
    half = [math.isqrt(e * e - dy * dy) for dy in range(-e, e + 1)]
    blocks = [grid] if isinstance(grid, np.ndarray) else grid
    ny, nx = sum(b.shape[0] for b in blocks), blocks[0].shape[1]
    padded = np.full((ny + 2 * e, nx + 2 * e), -np.inf, np.float32)
    np.concatenate(blocks, out=padded[e:e + ny, e:e + nx])
    found = [np.empty(0, np.intp)]
    for s0 in range(r0, r1, _STRIP_ROWS):
        s1 = min(s0 + _STRIP_ROWS, r1)
        cols = np.flatnonzero((padded[s0 + e:s1 + e, e:e + nx] != -np.inf).any(axis=0))
        if cols.size == 0:
            continue
        c0, n = int(cols[0]), int(cols[-1]) + 1 - int(cols[0])
        runs = [padded[s0:s1 + 2 * e, c0:c0 + n + 2 * e]]     # grid rows s0 - e : s1 + e
        for j in range((2 * e + 1).bit_length() - 1):   # runs[j][:, x]: max of 2^j cells from x
            runs.append(np.maximum(runs[j][:, :-2 ** j], runs[j][:, 2 ** j:]))
        core = runs[0][e:e + s1 - s0, e:e + n]
        disc = core.copy()
        for w in set(half):
            j = (2 * w + 1).bit_length() - 1       # two runs of 2^j cover the 2w + 1 cells
            a, b = e - w, e + w + 1 - 2 ** j
            row_max = np.maximum(runs[j][:, a:a + n], runs[j][:, b:b + n])
            for i in (i for i, hw in enumerate(half) if hw == w):
                np.maximum(disc, row_max[i:i + s1 - s0], out=disc)
        disc -= 2.0 * margin
        iy, ix = np.divmod(np.flatnonzero((core != -np.inf) & (core >= disc)), n)
        found.append((iy + s0) * nx + ix + c0)
    found = np.concatenate(found)
    if exact is None or found.size == 0:
        return found
    windows = np.lib.stride_tricks.sliding_window_view(padded, (2 * e + 1, 2 * e + 1))
    square = np.arange(-e, e + 1) ** 2
    in_disc = (np.add.outer(square, square) <= e * e).ravel()
    step = max(_CHUNK_CELLS // in_disc.size, 1)     # contenders a gather: bounds its temporaries
    owner, at = [], []
    for c in range(0, found.size, step):
        iy, ix = np.divmod(found[c:c + step], nx)
        near = windows[iy, ix].reshape(iy.size, -1) > padded[iy + e, ix + e, None] - 2.0 * margin
        k, w = np.divmod(np.flatnonzero(near & in_disc), in_disc.size)
        owner.append(k + c)
        at.append(w)
    owner, at = np.concatenate(owner), np.concatenate(at)    # R, grouped by contender
    wy, wx = np.divmod(at, 2 * e + 1)
    iy, ix = np.divmod(found[owner], nx)
    counts = exact((iy + wy - e) * nx + ix + wx - e)
    top = np.maximum.reduceat(counts, np.flatnonzero(np.diff(owner, prepend=-1)))
    return found[counts[at == in_disc.size // 2] >= top]


def search_grid(scenario: Scenario) -> tuple[float, int, np.ndarray, np.ndarray]:
    """(resolution, disc radius in whole cells, xs, ys) of a position search
    by ``scenario.search``; the radius is 0 for a single array, whose
    small-scale count is flat."""
    cfg, lam = scenario.search, wavelength(scenario.carrier_frequency)
    res = cfg.grid_resolution if cfg.grid_resolution is not None else lam / 10.0
    eps = cfg.small_scale_radius if cfg.small_scale_radius is not None else lam / 2.0
    xs, ys = grid_axes(scenario, res)
    return res, int(math.floor(eps / res + 1e-9)) if len(scenario.rrhs) > 1 else 0, xs, ys


_jobs = ()      # set in a _forked pool's workers only: the functions they run


def _adopt(*jobs):
    global _jobs
    _jobs = jobs


def _call(k: int, arg):
    return _jobs[k](arg)


@contextmanager
def _forked(workers: int, *jobs):
    """run(k, args): jobs[k](a) for each a of ``args``, in order, inline for one
    worker, else on ``workers`` processes forked (POSIX; from a process with no
    other threads running) with ``jobs``, so only arguments and results are
    pickled; the pool is shut down and joined on exit."""
    if workers == 1:
        yield lambda k, args: map(jobs[k], args)
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    pool = ProcessPoolExecutor(workers, get_context("fork"), initializer=_adopt, initargs=jobs)
    try:
        yield lambda k, args: pool.map(_call, repeat(k), args)
    finally:
        pool.shutdown(cancel_futures=True)


def _candidate_labels(ctxs: list[_ArrayContext], lobes: LobeSets,
                      px: np.ndarray, py: np.ndarray) -> np.ndarray:
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
    return labels


def truncated_search(scenario: Scenario, threads: int = 1,
                     count_optima: bool = False) -> SearchResult:
    """Worst-position miss probability by lobe-restricted candidate search.

    Grids the region and takes as members the allowed cells in the union of
    main lobes and pairwise first-sidelobe intersections.  The survivors are
    the members' local maxima of the small-scale alignment count over discs
    of ``scenario.search``'s radius; the alignment objective is computed at
    them only, and the miss probability at the ``max_candidates`` of best
    objective, ties in row-major order.  Raises EmptyRegionError if no cell
    is allowed and NoCandidatesError if no allowed cell is a member.

    With a disc of at least one cell the fast small-scale count alone fills
    a float32 grid, once per member or, with ``count_optima``, per allowed
    cell, at most _CHUNK_CELLS cells a _fast_count call taken from the rows
    that hold them.  The survivors are the disc-local maxima of the float32
    _point_fields count on the members' grid (other cells at -inf), which
    _disc_local_maxima settles on R, and with ``count_optima`` the same pass
    counts those of the allowed grid, the small-scale optima, as ``n_optima``.
    With a smaller disc (always for a single array, whose count is flat) every
    member survives and every allowed cell is an optimum.  Both fields are
    paid at the survivors only, so memory is bounded by tile, chunk and
    ``max_candidates``, not by lobe density.

    The grid is cut into bands of about _BAND_CELLS cells, whatever ``threads``
    is; each band is one task, on min(threads, bands) worker processes forked
    from this one, or inline for one.  A band walks its rows and the disc's
    halo rows on each side of it in tiles of about _TILE_CELLS cells, and
    decides and counts its own rows only.  Each tile settles on its own: a
    cell of R that discs on both sides of a seam between two tiles' decided
    rows reach is evaluated by both.  A disc reaches ``halo`` rows past its
    centre, so a row is decided once its tile or a later one holds those rows:
    the last 2·``halo`` grid rows carry from tile to tile.  The miss
    probabilities run in mdp_optimal_pma_batch's _CHUNK chunks on the same
    workers.  Results depend neither on the tile and band sizes nor on ``threads``.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    res, eps_px, xs, ys = search_grid(scenario)
    ctxs = _array_contexts(scenario)
    lobes = lobe_sets(scenario)
    auth = make_authenticator(scenario)
    keep, nx, ny = scenario.search.max_candidates, xs.size, ys.size
    band, rows = max(_BAND_CELLS // nx, 1), max(_TILE_CELLS // nx, 1)
    halo = max(eps_px, 0)
    margin = _fast_count_error(len(ctxs))

    def rate(idx):
        return mdp_optimal_pma_batch(auth, scenario, np.column_stack((xs[idx % nx], ys[idx // nx])))

    def best(idx, fobj, fss):
        order = np.lexsort((idx, -fobj))[:keep]
        return idx[order], fobj[order], fss[order]

    def point_fields(idx, objective=True):
        parts = (idx[c:c + _CHUNK_CELLS] for c in range(0, max(idx.size, 1), _CHUNK_CELLS))
        both = (_point_fields(scenario, ctxs, xs[part % nx], ys[part // nx], objective)
                for part in parts)
        return tuple(np.concatenate(f) for f in zip(*both) if f[0] is not None)

    def fields(r0, r1, own):
        """(n_allowed, n_members) of the ``own`` rows of tile r0:r1, and its fast
        count grids (to evaluate, then members with ``count_optima``; without
        halo, the members' flat indices)."""
        tile_ys = ys[r0:r1]
        allowed = _allowed_mask(scenario, xs, tile_ys)
        members = allowed & _lobe_mask(ctxs, lobes, xs, tile_ys, res)
        tally = (int(np.count_nonzero(allowed[own])), int(np.count_nonzero(members[own])))
        if not halo:
            return tally, np.flatnonzero(members) + r0 * nx
        grid = np.full(members.shape, -np.inf, np.float32)
        evaluate = allowed if count_optima else members
        counts = np.count_nonzero(evaluate, axis=1)
        ends = np.cumsum(counts)        # cells to evaluate up to each row's end
        for c in range(0, int(ends[-1]), _CHUNK_CELLS):
            s0, s1 = np.searchsorted(ends, (c, min(c + _CHUNK_CELLS, ends[-1]) - 1), "right")
            skip = c - ends[s0] + counts[s0]        # the cells of row s0 before cell c
            cells = (np.flatnonzero(evaluate[s0:s1 + 1]) + s0 * nx)[skip:skip + _CHUNK_CELLS]
            iy = np.repeat(np.arange(s0, s1 + 1), counts[s0:s1 + 1])[skip:skip + _CHUNK_CELLS]
            grid.ravel()[cells] = _fast_count(scenario, ctxs, xs[cells - iy * nx], tile_ys[iy])
        return tally, ((grid, np.where(members, grid, -np.inf)) if count_optima else (grid,))

    def maxima(g0, grids, d0, d1):
        """(number of optima, survivor indices): the disc-local maxima of the
        float64 count in rows d0:d1 of each fast grid; ``grids`` hold the rows
        from g0 on that their discs reach."""
        known, counts = np.empty(0, np.intp), np.empty(0, np.float32)

        def exact(cells):
            """The float32 of _point_fields' count at flat indices of the
            grids, each cell evaluated once per tile."""
            nonlocal known, counts
            new = np.sort(cells[~np.isin(cells, known)])
            new = new[np.diff(new, prepend=-1) > 0]
            if new.size:
                known = np.concatenate((known, new))
                counts = np.concatenate((counts, point_fields(g0 * nx + new, False)[0]
                                         .astype(np.float32)))
                order = np.argsort(known)
                known, counts = known[order], counts[order]
            return counts[np.searchsorted(known, cells)]

        found = [_disc_local_maxima(g, d0 - g0, d1 - g0, halo, exact, margin) for g in grids]
        return found[0].size if count_optima else 0, g0 * nx + found[-1]

    def walk_band(b0):
        """Rows b0:b0 + band: n_allowed, n_members, n_optima (0 without
        ``count_optima``) and n_survivors, then the flat indices, f_obj and
        f_small_scale of the ``keep`` survivors of largest f_obj."""
        b1 = min(b0 + band, ny)
        w0, w1 = max(b0 - halo, 0), min(b1 + halo, ny)
        totals = np.zeros(4, int)
        kept = (np.empty(0, np.intp), np.empty(0), np.empty(0))
        tails = [np.empty((0, nx), np.float32)] * (1 + count_optima)
        d0 = b0
        for r0 in range(w0, w1, rows):
            r1 = min(r0 + rows, w1)
            tally, grids = fields(r0, r1, slice(max(b0 - r0, 0), max(b1 - r0, 0)))
            if halo:        # decide from the first undecided row to halo rows before r1
                d1 = b1 if r1 == w1 else max(d0, r1 - halo)
                g0 = r1 - grids[0].shape[0] - tails[0].shape[0]
                n_optima, idx = maxima(g0, list(zip(tails, grids)), d0, d1)
                tails = [np.concatenate((t, g[-2 * halo:]))[-2 * halo:]
                         for t, g in zip(tails, grids)]
                d0 = d1
            else:
                n_optima, idx = tally[0] if count_optima else 0, grids
            del grids
            totals += (*tally, n_optima, idx.size)
            kept = tuple(map(np.concatenate, zip(kept, (idx, *point_fields(idx)))))
            if kept[0].size > 2 * keep:     # bounds memory by keep
                kept = best(*kept)
        return (*totals.tolist(), *best(*kept))

    bands = range(0, ny, band)
    with _forked(min(threads, len(bands)), walk_band, rate) as run:
        totals = np.zeros(4, int)
        kept = (np.empty(0, np.intp), np.empty(0), np.empty(0))
        for *counts, idx, fobj, fss in run(0, bands):
            totals += counts
            kept = best(*map(np.concatenate, zip(kept, (idx, fobj, fss))))
        n_allowed, n_lobe, n_optima, n_survivors = totals.tolist()
        if not n_allowed:
            raise EmptyRegionError("exclusion zones cover the whole region")
        if not n_lobe:
            raise NoCandidatesError("no grid point falls on a usable lobe")
        idx, fobj, fss = kept
        chunks = (idx[c:c + _CHUNK] for c in range(0, idx.size, _CHUNK))
        p_md = np.concatenate(list(run(1, chunks)))
    xs_c, ys_c = xs[idx % nx], ys[idx // nx]
    columns = (xs_c, ys_c, fobj, fss, p_md, _candidate_labels(ctxs, lobes, xs_c, ys_c))
    order = np.lexsort((idx, -p_md))  # p_md descending, row-major ties
    # from .tolist() columns, _CHUNK_CELLS rows at a time so that the lists stay short
    candidates = tuple(
        CandidatePosition((x, y), fo, fs, p, label)
        for c in range(0, order.size, _CHUNK_CELLS)
        for x, y, fo, fs, p, label in zip(*(column[order[c:c + _CHUNK_CELLS]].tolist()
                                            for column in columns)))
    return SearchResult(candidates, candidates[0].p_md, nx * ny, n_allowed, n_lobe,
                        len(candidates), n_survivors, n_optima if count_optima else None)


def count_small_scale_optima(scenario: Scenario, threads: int = 1) -> int:
    """Disc-local maxima of the small-scale count over the whole allowed grid.

    The denominator of the "fraction of optima actually searched" figure of
    merit, as ``compare`` prints it: the ``n_optima`` of truncated_search with
    ``count_optima``, so it raises NoCandidatesError, as the search does, where
    the region holds allowed cells but no lobe cell.  For a single array or a
    disc under one cell every allowed cell is a (weak) maximum.
    """
    return truncated_search(scenario, threads, count_optima=True).n_optima
