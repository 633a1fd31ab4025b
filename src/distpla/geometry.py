"""Deployment geometry and Rice-fading channel statistics.

A scenario is a set of remote radio heads (RRHs), each a uniform linear
array, plus transmitter positions on a 2-D floor plan.  Every transmitter
sees each array through a line-of-sight Rice channel: the mean carries the
carrier phase and the array steering response, the covariance the diffuse
part, P_j/(K+1) times the scenario's antenna correlation rho^|k-l|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class RrhConfig:
    """One receive array: position, size, and its axis as a unit 2-vector."""

    id: str
    position: tuple[float, float]
    num_antennas: int
    array_axis: tuple[float, float] = (1.0, 0.0)


@dataclass(frozen=True)
class TransmitterConfig:
    position: tuple[float, float]
    tx_power: float = 1.0


@dataclass(frozen=True)
class Region:
    x_min: float
    x_max: float
    y_min: float
    y_max: float


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the position-attack searches.

    ``grid_resolution`` and ``small_scale_radius`` default to wavelength/10
    and wavelength/2 when left as None.  ``g0`` sets the lobe band edges:
    a band extends while the angular response stays above peak/g0.
    """

    grid_resolution: float | None = None
    g0: float = math.sqrt(2.0)
    small_scale_radius: float | None = None
    max_candidates: int = 20_000


@dataclass(frozen=True)
class Scenario:
    rrhs: tuple[RrhConfig, ...]
    alice: TransmitterConfig
    eve: TransmitterConfig
    region: Region
    carrier_frequency: float = 2.4e9
    antenna_spacing: float = 0.5          # in wavelengths
    path_loss_exponent: float = 2.0
    rice_factor: float = 10.0 ** 0.6      # linear K
    rho: float = 0.0                      # antenna correlation rho^|k-l|; 0 is none
    false_alarm_target: float = 1e-2
    exclusion_alice: float = 6.0
    exclusion_rrh: float = 3.0
    search: SearchConfig = field(default_factory=SearchConfig)

    def with_eve(self, position: tuple[float, float], tx_power: float | None = None) -> "Scenario":
        power = self.eve.tx_power if tx_power is None else tx_power
        return replace(self, eve=TransmitterConfig(tuple(position), power))


def wavelength(carrier_frequency: float) -> float:
    if carrier_frequency <= 0:
        raise ValueError(f"carrier frequency must be positive, got {carrier_frequency}")
    return SPEED_OF_LIGHT / carrier_frequency


def received_power(distance, path_loss_exponent: float,
                   carrier_frequency: float, tx_power: float = 1.0):
    """Free-space style power law (wavelength/(4 pi d))^beta * P_tx, elementwise in d."""
    d = np.asarray(distance, float)
    if np.any(d <= 0):
        raise ValueError(f"distance must be positive, got {distance}")
    base = wavelength(carrier_frequency) / (4.0 * np.pi * d)
    # Python's pow per element: numpy's vectorised power differs from it in
    # the last bit for some inputs, and every reported probability uses P
    gain = np.array([b ** path_loss_exponent for b in base.ravel().tolist()])
    power = gain.reshape(d.shape) * tx_power
    return float(power) if d.ndim == 0 else power


def steering_vector(omega, num_antennas: int, spacing: float) -> np.ndarray:
    """ULA response [1, e^{-j2 pi spacing omega}, ...]; omega may be an array."""
    omega = np.asarray(omega, float)
    n = np.arange(num_antennas)
    return np.exp(-2j * np.pi * spacing * np.multiply.outer(omega, n))


@dataclass(frozen=True)
class ChannelStatistics:
    """First and second moments of one transmitter's channel.

    ``mean`` is stacked over all arrays: array j's ``block_sizes[j]``
    antennas begin at index ``starts[j]``.  Its received power is
    ``powers[j]`` and its covariance ``variances[j]`` rho^|k-l| (the arrays
    are uncorrelated, so no covariance matrix is kept).
    """

    mean: np.ndarray
    variances: np.ndarray
    rho: float
    powers: np.ndarray
    block_sizes: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def starts(self) -> np.ndarray:
        return np.cumsum((0,) + self.block_sizes[:-1])


def rice_means(scenario: Scenario, positions, tx_power: float = 1.0):
    """Line-of-sight geometry of transmitters at each row of an (n, 2) array.

    Returns the stacked Rice means (n, N), with array j's block
    sqrt(P_j K/(K+1)) e^{-j 2 pi d_j / lambda} e(Omega_j), and the received
    powers P_j, distances d_j and angular sines Omega_j, each (n, N_RRH).
    """
    pts = np.asarray(positions, float).reshape(-1, 2)
    lam = wavelength(scenario.carrier_frequency)
    k_rice = scenario.rice_factor
    means, dists, omegas, powers = [], [], [], []
    for rrh in scenario.rrhs:
        delta = pts - np.asarray(rrh.position, float)
        d = np.hypot(delta[:, 0], delta[:, 1])
        if np.any(d == 0.0):
            raise ValueError(f"transmitter sits on RRH {rrh.id!r}")
        # row-wise 1-D dot products, rounded like ``delta_row @ axis``
        omega = (delta[:, None, :] @ np.asarray(rrh.array_axis, float))[:, 0] / d
        p = received_power(d, scenario.path_loss_exponent,
                           scenario.carrier_frequency, tx_power)
        amp = np.sqrt(p * k_rice / (k_rice + 1.0))
        carrier = amp * np.exp(1j * (-2.0 * np.pi * d / lam))
        means.append(carrier[:, None] * steering_vector(
            omega, rrh.num_antennas, scenario.antenna_spacing))
        dists.append(d)
        omegas.append(omega)
        powers.append(p)
    return (np.concatenate(means, axis=1), np.stack(powers, axis=1),
            np.stack(dists, axis=1), np.stack(omegas, axis=1))


def channel_statistics(scenario: Scenario, tx: TransmitterConfig) -> ChannelStatistics:
    """Rice statistics of ``tx`` as seen by every array in the scenario.

    Means and powers come from :func:`rice_means`; array j's diffuse
    variance is P_j/(K+1).
    """
    mean, powers = (a[0] for a in rice_means(scenario, tx.position, tx.tx_power)[:2])
    return ChannelStatistics(mean=mean, variances=powers / (scenario.rice_factor + 1.0),
                             rho=scenario.rho, powers=powers,
                             block_sizes=tuple(rrh.num_antennas for rrh in scenario.rrhs))


def alice_statistics(scenario: Scenario) -> ChannelStatistics:
    return channel_statistics(scenario, scenario.alice)


def eve_statistics(scenario: Scenario) -> ChannelStatistics:
    return channel_statistics(scenario, scenario.eve)
