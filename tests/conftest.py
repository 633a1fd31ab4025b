import numpy as np
import pytest
from scipy.linalg import block_diag, solve_triangular

from distpla import (BLOCK_SIZE, Region, RrhConfig, Scenario, SearchConfig,
                     TransmitterConfig, steering_vector, wavelength)
from distpla.monte_carlo import block_generator
from distpla.position_attack import (_angular_g, _array_contexts, _point_fields,
                                     _point_geometry, search_grid)


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
