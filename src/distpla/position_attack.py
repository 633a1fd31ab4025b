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
from dataclasses import dataclass, replace
from itertools import combinations, repeat

import numpy as np

from .authenticator import make_authenticator
from .geometry import Scenario, wavelength
from .numerics import bounded_minimum, bracketed_root_find
from .power_attack import _CHUNK, mdp_optimal_pma_batch

_BAND_CELLS = 3 << 18      # grid cells a band decides in one tile pass: trades halo rows against memory
_CHUNK_CELLS = 1 << 14     # cells per tile-pass chunk or field call: bounds their temporaries
_REPORTED = 50             # candidates a search returns, those of highest p_md
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


def _array_contexts(scenario: Scenario) -> list[_ArrayContext]:
    alice = [np.array([v], float) for v in scenario.alice.position]
    ctxs = []
    for rrh in scenario.rrhs:
        ctx = _ArrayContext(rrh.id, np.asarray(rrh.position, float),
                            np.asarray(rrh.array_axis, float), rrh.num_antennas,
                            scenario.antenna_spacing, 0.0, 0.0, scenario.rho)
        dist_a, omega_a = (float(v[0]) for v in _point_geometry(ctx, *alice))
        ctxs.append(replace(ctx, dist_a=dist_a, omega_a=omega_a))
    return ctxs


def _dirichlet(x: np.ndarray, n: int, spacing: float) -> np.ndarray:
    """D_n(x) = sin(pi s n x) / sin(pi s x) with the n cos(...)/cos(...) limit at poles.
    Where |sin(pi s x)| < 0.1 about a pole k = rint(s x) != 0 the sines are taken at
    x - k/s, D_n(x) = (-1)^((n-1) k) D_n(x - k/s): the rounding of pi s x near k pi
    cost up to 1.5e-7 of n at 1e-8 off the pole, shifted under 5e-16.  Any shape."""
    shape, x = np.shape(x), np.ravel(x)
    den = np.sin(np.pi * spacing * x)
    num = np.sin(np.pi * spacing * n * x)
    at = np.flatnonzero(np.abs(den) < 0.1)
    k = np.rint(spacing * x[at])
    at, k = at[k != 0], k[k != 0]
    den[at] = np.sin(np.pi * spacing * (x[at] - k / spacing))
    num[at] = np.sin(np.pi * spacing * n * (x[at] - k / spacing)) * (1.0 - 2.0 * ((n - 1) * k % 2))
    tiny = np.abs(den) < 1e-9
    out = num / np.where(tiny, 1.0, den)
    if np.any(tiny):
        lim = n * np.cos(np.pi * spacing * n * x) / np.cos(np.pi * spacing * x)
        out = np.where(tiny, lim, out)
    return out.reshape(shape)


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
    r, n = ctx.rho, ctx.n
    return ((n + (n - 2) * r * r - 2.0 * r * (n - 1) * np.cos(2.0 * np.pi * ctx.spacing * omega_e))
            / ((1.0 - r) * (1.0 + r)))


@np.errstate(invalid="ignore")      # 0/0 at the array itself, an excluded cell
def _point_geometry(ctx: _ArrayContext, px: np.ndarray, py: np.ndarray):
    """(distance, angular sine ω) of positions from an array, the search's one
    geometry: float64 sqrt(dx dx + dy dy) and (dx a_0 + dy a_1)/distance, with px
    and py broadcast (a row of columns and a column of rows make a tile)."""
    dx = px - ctx.position[0]
    dy = py - ctx.position[1]
    dist = dx * dx + dy * dy
    np.sqrt(dist, out=dist)
    omega = dx * ctx.axis[0] + dy * ctx.axis[1]
    omega /= dist
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
    """e, the bound on |fast count - float32(_point_fields' count)| that
    _disc_local_maxima's settle step relies on (see _count_term)."""
    return n_arrays * (n_arrays + 64) * 2.0 ** -24


def _count_term(ctx: _ArrayContext, lam: float, dist: np.ndarray,
                omega: np.ndarray) -> np.ndarray:
    """One array's float32 phase q of the fast small-scale count, from its
    _point_geometry (dist, ω), which it overwrites.  _tile_fields sums cos q
    and sin q in float32 and takes sqrt(re² + im²) in float32: _point_fields'
    count within e = _fast_count_error(N) of its float32 rounding, for N arrays.

    The phase p, with sign(g) folded in as (pi/2)(sign - 1), is formed in
    float64 in turns t = p / 2 pi and reduced to q = 2 pi (t - rint t).
    sign(g) is _point_fields': _angular_g's for exponential correlation; for
    identity the parity of floor(s n x) + floor(s x) (the signs of
    sin(pi s n x) and sin(pi s x)), or _dirichlet's within 1e-9 of a null of
    sin(pi s n x), where the rounding of the sines' arguments could flip it.

    The bound, with u = 2^-24 and |p| < 2^26 (a region under ten million
    wavelengths across): per term, q is within |p| 2^-50 <= u of
    _point_fields' phase modulo 2 pi, float32(q) within 2u of q (|q| <= pi),
    and numpy's float32 cos and sin within 2 ulp <= 2u each, 6u together.
    Summing N terms in float32 adds at most sqrt(2) u (2 + ... + N) <
    0.71 (N² + N) u.  The squares, their sum and the root each round by at
    most u relative, so sqrt(re² + im²), at most N, is within 2u relative,
    2Nu absolute (an underflow of the squares adds under 2^-74).  The rounding of
    the float64 count to float32 adds Nu, and its own error under u.  In all the
    error is under (N² + 11N) u; e = N (N + 64) u is over five times that,
    which also covers the float32 rounding (<= Nu) of the settle step's
    comparisons, and measured it is over 16 times the largest error.
    """
    if ctx.rho:
        half = 0.5 * (np.sign(_angular_g(ctx, omega)) - 1.0)
    x = np.subtract(omega, ctx.omega_a, out=omega)
    if not ctx.rho:
        y = x * (ctx.spacing * ctx.n)
        half = np.floor(y)                  # (sign(g) - 1) / 2, modulo 2
        half += np.floor(ctx.spacing * x)
        y -= np.rint(y)
        unsure = np.abs(y, out=y) < 1e-9
        if unsure.any():
            half[unsure] = 0.5 * (np.sign(_dirichlet(x[unsure], ctx.n, ctx.spacing)) - 1.0)
    turns = np.subtract(dist, ctx.dist_a, out=dist)
    turns *= 1.0 / lam
    x *= 0.5 * (ctx.n - 1) * ctx.spacing
    turns += x
    half *= 0.5
    turns += half
    turns -= np.rint(turns)
    turns *= 2.0 * np.pi
    return turns.astype(np.float32)


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
    peak, bit for bit as scipy would.  Both attack angles phi and pi - phi
    share an angular sine, so one band covers both.
    """
    g0 = scenario.search.g0
    if not g0 > 1.0:
        raise ValueError("lobe threshold g0 must exceed 1")
    per = []
    for ctx in _array_contexts(scenario):
        step = 1.0 / (32.0 * ctx.n * ctx.spacing)
        peak0 = float(_s_ee(ctx, ctx.omega_a))     # g at zero angular offset, S_AA > 0
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


@dataclass(frozen=True, slots=True)
class CandidatePosition:
    position: tuple[float, float]
    f_obj: float
    f_small_scale: float
    p_md: float
    label: str


@dataclass(frozen=True)
class SearchResult:
    candidates: tuple[CandidatePosition, ...]   # the _REPORTED of highest p_md, descending
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
    """Cells of the ys × xs grid outside every exclusion disc, by float64
    squared distances.  Each disc is evaluated on the rows and columns with
    squared offset under r² only: a rounded sum of non-negative terms is
    never below either, so no other cell is excluded."""
    allowed = np.ones((ys.size, xs.size), bool)
    for (cx, cy), r in [(scenario.alice.position, scenario.exclusion_alice)] + [
            (rrh.position, scenario.exclusion_rrh) for rrh in scenario.rrhs]:
        dy2, dx2 = (ys - cy) ** 2, (xs - cx) ** 2
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
    for i, j in combinations(range(len(side)), 2):
        mask |= side[i] & side[j]
    return mask


def _lobe_columns(ctxs: list[_ArrayContext], lobes: LobeSets, xs: np.ndarray,
                  ys: np.ndarray) -> list[tuple[int, int]]:
    """The columns of the ys × xs grid that can hold a lobe cell of
    _tile_fields, as disjoint (start, stop) runs in increasing order: [(0,
    xs.size)] where it keeps them all, [] where it keeps none.

    Keeps whole groups of _SCAN_STRIDE columns, scanning each centre.  Along
    a row |dω/dx| <= 1/dist, so within h, the largest float64 offset of a
    column from its group's centre, of a centre at distance r > h from an
    array ω moves by at most h/(r - h).  1e-12 more covers the rounding: each
    float64 ω is within 8u (u = 2^-53) of its exact value at its cell, and
    the rounding of h and r moves h/(r - h) by under 30u wherever it is
    under 2 (past 2 the widened bands cover all of [-1, 1]).
    """
    k = _SCAN_STRIDE
    centres = np.minimum(np.arange(0, xs.size, k) + k // 2, xs.size - 1)
    h = np.max(np.abs(xs - np.repeat(xs[centres], k)[:xs.size]))
    main, side = [], []
    for ctx, al in zip(ctxs, lobes.per_array):
        dist, omega = _point_geometry(ctx, xs[centres][None, :], ys[:, None])
        close = ~(dist > h)         # no bound on ω there (NaN at the array itself)
        bands = _in_bands(al, omega, h / np.where(close, np.inf, dist - h) + 1e-12)
        main.append(bands[0] | close)
        side.append(bands[1] | close)
    kept = _lobe_union(main, side).any(axis=0)
    edges = np.flatnonzero(np.diff(kept, prepend=False, append=False)) * k
    edges = np.minimum(edges, xs.size).tolist()
    return list(zip(edges[::2], edges[1::2]))


def _tile_fields(scenario: Scenario, ctxs: list[_ArrayContext], lobes: LobeSets,
                 xs: np.ndarray, ys: np.ndarray, evaluate: str | None):
    """(allowed, members, count) of the ys × xs tile: its _allowed_mask, its
    allowed lobe cells (_lobe_union of _in_bands on _point_geometry's ω), and
    the float32 fast small-scale count at the ``evaluate`` cells, "members"
    or "allowed", -inf elsewhere (None for ``evaluate`` None).  One pass
    over the column runs that _lobe_columns keeps (every column for
    "allowed"), in rows × columns slices of a run of at most _CHUNK_CELLS
    cells: each array's _point_geometry, taken once per chunk, decides its
    bands and gives its _count_term."""
    allowed = _allowed_mask(scenario, xs, ys)
    members = np.zeros(allowed.shape, bool)
    count = None if evaluate is None else np.full(allowed.shape, -np.inf, np.float32)
    runs = [(0, xs.size)] if evaluate == "allowed" else _lobe_columns(ctxs, lobes, xs, ys)
    lam = wavelength(scenario.carrier_frequency)
    spans = ((c, min(c + _CHUNK_CELLS, b)) for a, b in runs for c in range(a, b, _CHUNK_CELLS))
    for c0, c1 in spans:
        rows = _CHUNK_CELLS // (c1 - c0)
        for r0 in range(0, ys.size, rows):
            at = np.s_[r0:r0 + rows, c0:c1]
            px, py, ok = xs[None, c0:c1], ys[r0:r0 + rows, None], allowed[at]
            re = im = np.float32(0.0)
            bands = []
            for ctx, al in zip(ctxs, lobes.per_array):
                dist, omega = _point_geometry(ctx, px, py)
                bands.append(_in_bands(al, omega))
                if count is not None:
                    q = _count_term(ctx, lam, dist, omega)
                    re, im = re + np.cos(q), im + np.sin(q)
            members[at] = lobe = _lobe_union(*zip(*bands)) & ok
            if count is not None:
                count[at] = np.where(ok if evaluate == "allowed" else lobe,
                                     np.sqrt(re * re + im * im), -np.inf)
    return allowed, members, count


def _disc_local_maxima(grid: np.ndarray, r0: int, r1: int, eps_px: int, exact=None,
                       margin: float = 0.0) -> np.ndarray:
    """Flat indices into ``grid`` (float32, -inf off the members) of the
    members in rows r0:r1 that are >= every cell of their disc of radius
    ``eps_px``; plateaus count as maxima and NaN never does.  A disc row dy
    off the centre reaches isqrt(eps_px² - dy²) cells each side, so the disc
    maximum is a fold over dy of running row maxima, taken by doubling over
    strips of _STRIP_ROWS decided rows.  Each strip copies the columns from
    its first to its last member, with the disc's ``eps_px`` rows and columns
    around them, into a -inf buffer the size of a strip, so the temporaries
    are bounded by the strip and no copy of ``grid`` is made.

    With ``exact``, ``grid`` only filters: it holds a count within
    ``margin`` = e of the count that decides, which exact(flat indices)
    gives.  The contenders are the members within 2e of their disc's maximum
    on ``grid``; R holds, per contender c, the disc cells n with grid(n) >
    grid(c) - 2e, c among them, and the decision reads the exact count on R
    only.  A true maximum c is a contender: grid(c) >= exact(c) - e >=
    exact(n) - e >= grid(n) - 2e.  A disc cell outside R has exact(n) <=
    grid(n) + e <= grid(c) - e <= exact(c), so c is a maximum iff it is >=
    every cell of its R.  R is a function of ``grid``, not of the strips:
    each strip gathers its contenders' discs from its buffer, and one exact
    call settles R after the strips."""
    e, nx = eps_px, grid.shape[1]
    half = [math.isqrt(e * e - dy * dy) for dy in range(-e, e + 1)]
    wy, wx = (v - e for v in np.divmod(np.arange((2 * e + 1) ** 2), 2 * e + 1))
    in_disc, offset = wy * wy + wx * wx <= e * e, wy * nx + wx     # per disc window cell
    step = max(_CHUNK_CELLS // in_disc.size, 1)     # contenders a gather: bounds its temporaries
    found, owner, at = [np.empty(0, np.intp)], [], []
    pad = np.empty((_STRIP_ROWS + 2 * e, nx + 2 * e), np.float32)     # each strip's buffer
    for s0 in range(r0, r1, _STRIP_ROWS):
        s1 = min(s0 + _STRIP_ROWS, r1)
        cols = np.flatnonzero((grid[s0:s1] != -np.inf).any(axis=0))
        if cols.size == 0:
            continue
        c0, n = int(cols[0]), int(cols[-1]) + 1 - int(cols[0])
        y0, x0 = max(s0 - e, 0), max(c0 - e, 0)
        src = grid[y0:s1 + e, x0:c0 + n + e]
        buf = pad[:s1 - s0 + 2 * e, :n + 2 * e]     # from grid row s0 - e, column c0 - e
        buf.fill(-np.inf)
        buf[y0 - s0 + e:, x0 - c0 + e:][:src.shape[0], :src.shape[1]] = src
        runs = [buf]
        for j in range((2 * e + 1).bit_length() - 1):   # runs[j][:, x]: max of 2^j cells from x
            runs.append(np.maximum(runs[j][:, :-2 ** j], runs[j][:, 2 ** j:]))
        core = buf[e:e + s1 - s0, e:e + n]
        disc = core.copy()
        for w in set(half):
            j = (2 * w + 1).bit_length() - 1       # two runs of 2^j cover the 2w + 1 cells
            a, b = e - w, e + w + 1 - 2 ** j
            row_max = np.maximum(runs[j][:, a:a + n], runs[j][:, b:b + n])
            for i in (i for i, hw in enumerate(half) if hw == w):
                np.maximum(disc, row_max[i:i + s1 - s0], out=disc)
        disc -= 2.0 * margin
        iy, ix = np.divmod(np.flatnonzero((core != -np.inf) & (core >= disc)), n)
        if exact is not None:
            windows = np.lib.stride_tricks.sliding_window_view(buf, (2 * e + 1, 2 * e + 1))
            base = sum(f.size for f in found)
            for c in range(0, iy.size, step):
                cy, cx = iy[c:c + step], ix[c:c + step]
                near = windows[cy, cx].reshape(cy.size, -1) > core[cy, cx, None] - 2.0 * margin
                k, cell = np.divmod(np.flatnonzero(near & in_disc), in_disc.size)
                owner.append(k + base + c)
                at.append(cell)
        found.append((iy + s0) * nx + ix + c0)
    found = np.concatenate(found)
    if exact is None or found.size == 0:
        return found
    owner, at = np.concatenate(owner), np.concatenate(at)    # R, grouped by contender
    counts = exact(found[owner] + offset[at])
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
    for i, j in reversed(list(combinations(range(len(ctxs)), 2))):
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
    of ``scenario.search``'s radius.  The alignment objective is paid at them
    only, the miss probability at the ``max_candidates`` of best objective,
    and labels at the _REPORTED of highest miss probability, which it
    returns; ties go in row-major order.  Raises EmptyRegionError if no cell
    is allowed and NoCandidatesError if no allowed cell is a member.

    Each band is one _tile_fields pass: it decides the members and, with a
    disc of at least one cell, fills a float32 grid with the fast small-scale
    count at the members (the allowed cells with ``count_optima``).  The
    survivors are the disc-local maxima of the float32 _point_fields count on
    the members' grid, which _disc_local_maxima settles on R; with
    ``count_optima`` the same pass counts those of the allowed grid, the
    small-scale optima, as ``n_optima``.  With a smaller disc (always for a
    single array, whose count is flat) every member survives and every allowed
    cell is an optimum.  Both fields are paid at the survivors only, so memory
    is bounded by band, chunk and ``max_candidates``, not by lobe density.

    The grid is cut into bands of about _BAND_CELLS cells, whatever ``threads``
    is; each band is one task, on min(threads, bands) worker processes forked
    from this one, or inline for one.  A disc reaches ``halo`` rows past its
    centre, so a band's pass takes its rows and ``halo`` rows past each seam,
    and decides and counts its own rows only.  Each band settles on its own: a
    cell of R that discs on both sides of a seam reach is evaluated by both
    bands.  Each band returns its ``max_candidates`` (keep) survivors of best
    f_obj; this process buffers them and keeps the keep best once the buffer
    holds over 2·keep rows, and at the end: the order (f_obj descending,
    row-major ties) is total, so these are the rows, in order, of one sort
    of all bands', in at most 3·keep rows.  The miss probabilities run in
    mdp_optimal_pma_batch's _CHUNK chunks on the same workers.  Results
    depend neither on the band size nor on ``threads``.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _, eps_px, xs, ys = search_grid(scenario)
    ctxs = _array_contexts(scenario)
    lobes = lobe_sets(scenario)
    auth = make_authenticator(scenario)
    keep, nx, ny = scenario.search.max_candidates, xs.size, ys.size
    band = max(_BAND_CELLS // nx, 1)
    halo = max(eps_px, 0)
    margin = _fast_count_error(len(ctxs))
    evaluate = None if not halo else "allowed" if count_optima else "members"

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

    def walk_band(b0):
        """Rows b0:b0 + band, one _tile_fields pass over them and the ``halo``
        rows past each seam: n_allowed, n_members, n_optima (0 without
        ``count_optima``) and n_survivors, then the flat indices, f_obj and
        f_small_scale of the ``keep`` survivors of largest f_obj."""
        b1, w0 = min(b0 + band, ny), max(b0 - halo, 0)
        known, counts = np.empty(0, np.intp), np.empty(0, np.float32)

        def exact(cells):
            """The float32 of _point_fields' count at flat indices of the
            pass's rows, each cell evaluated once per band."""
            nonlocal known, counts
            new = np.sort(cells[~np.isin(cells, known)])
            new = new[np.diff(new, prepend=-1) > 0]
            if new.size:
                known = np.concatenate((known, new))
                counts = np.concatenate((counts, point_fields(w0 * nx + new, False)[0]
                                         .astype(np.float32)))
                order = np.argsort(known)
                known, counts = known[order], counts[order]
            return counts[np.searchsorted(known, cells)]

        allowed, members, grid = _tile_fields(scenario, ctxs, lobes, xs, ys[w0:b1 + halo], evaluate)
        own = np.s_[b0 - w0:b1 - w0]
        n_allowed, n_members = np.count_nonzero(allowed[own]), np.count_nonzero(members[own])
        if halo:        # the disc maxima of the allowed grid, then of the members' grid
            grids = (grid, np.where(members, grid, -np.inf)) if count_optima else (grid,)
            del allowed, members, grid
            found = [_disc_local_maxima(g, b0 - w0, b1 - w0, halo, exact, margin) for g in grids]
            del grids
            n_optima, idx = found[0].size if count_optima else 0, w0 * nx + found[-1]
        else:
            n_optima = n_allowed if count_optima else 0
            idx = np.flatnonzero(members[own]) + b0 * nx
        return n_allowed, n_members, n_optima, idx.size, *best(idx, *point_fields(idx))

    bands = range(0, ny, band)
    with _forked(min(threads, len(bands)), walk_band, rate) as run:
        totals, kept = np.zeros(4, int), []
        for *counts, idx, fobj, fss in run(0, bands):
            totals += counts
            kept.append((idx, fobj, fss))
            if sum(part[0].size for part in kept) > 2 * keep:
                kept = [best(*map(np.concatenate, zip(*kept)))]
        n_allowed, n_lobe, n_optima, n_survivors = totals.tolist()
        if not n_allowed:
            raise EmptyRegionError("exclusion zones cover the whole region")
        if not n_lobe:
            raise NoCandidatesError("no grid point falls on a usable lobe")
        idx, fobj, fss = best(*map(np.concatenate, zip(*kept)))
        chunks = (idx[c:c + _CHUNK] for c in range(0, idx.size, _CHUNK))
        p_md = np.concatenate(list(run(1, chunks)))
    top = np.lexsort((idx, -p_md))[:_REPORTED]     # p_md descending, row-major ties
    xs_c, ys_c = xs[idx[top] % nx], ys[idx[top] // nx]
    labels = _candidate_labels(ctxs, lobes, xs_c, ys_c)
    candidates = tuple(map(CandidatePosition, zip(xs_c.tolist(), ys_c.tolist()),
                           *(v[top].tolist() for v in (fobj, fss, p_md)), labels))
    return SearchResult(candidates, candidates[0].p_md, nx * ny, n_allowed, n_lobe,
                        idx.size, n_survivors, n_optima if count_optima else None)


def count_small_scale_optima(scenario: Scenario, threads: int = 1) -> int:
    """Disc-local maxima of the small-scale count over the whole allowed grid.

    The denominator of the "fraction of optima actually searched" figure of
    merit, as ``compare`` prints it: the ``n_optima`` of truncated_search with
    ``count_optima``, so it raises NoCandidatesError, as the search does, where
    the region holds allowed cells but no lobe cell.  For a single array or a
    disc under one cell every allowed cell is a (weak) maximum.
    """
    return truncated_search(scenario, threads, count_optima=True).n_optima
