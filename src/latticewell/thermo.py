"""Partition functions and thermodynamics of the lattice well gas.

Four routes to Z: the discrete sum over the N-1 lattice modes, the continuum
sum over parabolic levels, its closed Gaussian-integral form
L sqrt(m*/2 pi beta hbar^2), and the theta-function form (theta3(mu) - 1)/2
with mu = beta hbar^2 pi^2 / (2 m* L^2).  The theta form sums the same series
as the continuum sum, so it is not an independent route (see partition_theta).
Mean energy, free energy, and the two-level (Schottky) heat capacity derive
from these.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import K_B_SI, ParticleSpec, Spectrum

#: Relative size at which a series term stops the summation.
SERIES_RTOL = 1e-16
#: Hard cap on series length; hitting it raises SeriesCapExceeded.
SERIES_CAP = 10 ** 6
# Terms summed one by one with math.exp before the NumPy blocks start, and
# the largest block (8192 float64 terms = 64 KiB per temporary).
_SERIES_HEAD = 64
_SERIES_BLOCK_CAP = 8192


class SeriesCapExceeded(RuntimeError):
    """An infinite-series evaluation hit the term cap before converging."""


@dataclass(frozen=True)
class PartitionResult:
    """Partition function value with its derived F.

    ``log_Z`` is ln Z where the route computes it apart from Z, so that it
    survives an underflowed Z; when it is None, ln Z is taken from Z.
    """

    Z: float
    beta: float
    mu: float | None = None
    log_Z: float | None = None

    @property
    def free_energy(self) -> float:
        """F = -ln Z / beta."""
        if self.beta <= 0:
            raise ValueError(f"free energy needs beta > 0, got {self.beta!r}")
        log_Z = math.log(self.Z) if self.log_Z is None else self.log_Z
        return -log_Z / self.beta


def theta_argument(L: float, particle: ParticleSpec, beta: float) -> float:
    """mu = beta hbar^2 pi^2 / (2 m* L^2), the dimensionless theta argument."""
    return beta * particle.hbar ** 2 * math.pi ** 2 / (2.0 * particle.m_star * L * L)


def _gaussian_series(c: float) -> float:
    """sum_{n>=1} exp(-c n^2), truncated at machine precision.

    The terms are added one at a time in increasing n, and the sum stops
    after the first term with term <= SERIES_RTOL * (running total).  Both
    the stopping index and the last bits of the total depend on that order,
    and so do the golden CSVs: a pairwise or blocked sum would change them.

    The first _SERIES_HEAD terms are summed with libm's math.exp, so every
    series that stops there (c >= ~0.01, all the golden configs) is
    bit-identical to a plain loop.  Longer series go on in NumPy blocks:
    np.exp of the same arguments (-c n) n, then a sequential np.cumsum seeded
    with the carried total, which keeps the order.  np.exp differs from
    libm's exp by 1 ulp on ~5 % of arguments; over a long sum that moves the
    total by ~1 ulp.  Blocks double up to _SERIES_BLOCK_CAP terms, which
    bounds the temporaries at 64 KiB each whatever c is.  A sum S takes
    O(sqrt(ln(1/(SERIES_RTOL S)) / c)) terms at ~10 ns each in the tail, so
    one that hits SERIES_CAP raises after ~10 ms.
    """
    total = 0.0
    for n in range(1, _SERIES_HEAD + 1):
        term = math.exp(-c * n * n)
        total += term
        if term <= SERIES_RTOL * total:
            return total
    start, size = _SERIES_HEAD + 1, 256
    while start <= SERIES_CAP:
        n = np.arange(start, min(start + size, SERIES_CAP + 1), dtype=float)
        terms = np.exp((-c * n) * n)
        running = np.cumsum(np.concatenate(([total], terms)))[1:]
        stop = np.flatnonzero(terms <= SERIES_RTOL * running)
        if stop.size:
            return float(running[stop[0]])
        total = float(running[-1])
        start += n.size
        size = min(2 * size, _SERIES_BLOCK_CAP)
    raise SeriesCapExceeded(f"sum of exp(-{c:g} n^2) needs more than {SERIES_CAP} terms")


def partition_discrete(spectrum: Spectrum, beta: float) -> PartitionResult:
    """Direct sum over the N-1 lattice modes; Z(0) = N-1.

    ln Z is summed from the ground state up, ln Z = -beta E0 + ln sum
    exp(-beta (E - E0)), as mean_energy weights the modes, so it stays finite
    where Z underflows to 0.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta!r}")
    E = spectrum.energies
    Z = float(np.sum(np.exp(-beta * E)))
    E0 = float(E.min())
    log_Z = -beta * E0 + math.log(float(np.sum(np.exp(-beta * (E - E0)))))
    return PartitionResult(Z, beta, log_Z=log_Z)


def partition_continuum_sum(L: float, particle: ParticleSpec, beta: float) -> PartitionResult:
    """Converged sum over parabolic continuum levels exp(-mu n^2)."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    mu = theta_argument(L, particle, beta)
    return PartitionResult(_gaussian_series(mu), beta, mu)


def partition_continuum_closed(L: float, particle: ParticleSpec, beta: float) -> PartitionResult:
    """Closed Gaussian-integral form L sqrt(m*/2 pi beta hbar^2) = (1/2) sqrt(pi/mu)."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    mu = theta_argument(L, particle, beta)
    Z = L * math.sqrt(particle.m_star / (2.0 * math.pi * beta * particle.hbar ** 2))
    return PartitionResult(Z, beta, mu)


def theta3(mu: float) -> float:
    """theta3(mu) = sum over all integers of exp(-mu n^2), by direct summation."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    return 1.0 + 2.0 * _gaussian_series(mu)


def theta3_poisson(mu: float) -> float:
    """Poisson-resummed form sqrt(pi/mu) * theta3(pi^2/mu); equals theta3(mu)."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    c = math.pi * math.pi / mu
    return math.sqrt(math.pi / mu) * (1.0 + 2.0 * _gaussian_series(c))


def partition_theta(L: float, particle: ParticleSpec, beta: float) -> PartitionResult:
    """Continuum partition function as (theta3(mu) - 1) / 2.

    Not independent of partition_continuum_sum: theta3 sums the same
    _gaussian_series, so the two agree by construction.  That series is
    cross-checked against theta3_poisson instead.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    mu = theta_argument(L, particle, beta)
    return PartitionResult(0.5 * (theta3(mu) - 1.0), beta, mu)


def mean_energy(spectrum: Spectrum, beta: float) -> float:
    """Thermal mean energy -d ln Z / d beta of the discrete spectrum.

    The weights are shifted to the ground state, so they stay finite at
    large beta and are all 1 at beta = 0, where this is the spectral mean.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta!r}")
    E = spectrum.energies
    E0 = float(E.min())
    w = np.exp(-beta * (E - E0))
    return E0 + float(np.sum((E - E0) * w) / np.sum(w))


def mean_energy_continuum(L: float, particle: ParticleSpec, beta: float) -> float:
    """-d ln Z / d beta of the closed continuum form, by central difference.

    Analytically this is 1/(2 beta) (equipartition); the finite difference
    keeps the route independent of that identity.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    h = 1e-4 * beta
    zp = partition_continuum_closed(L, particle, beta + h).Z
    zm = partition_continuum_closed(L, particle, beta - h).Z
    return -(math.log(zp) - math.log(zm)) / (2.0 * h)


def characteristic_temperature(spectrum: Spectrum, k_B: float | None = None) -> float:
    """Theta = |E1 - E2| / (2 k_B), x = Theta / T; k_B defaults to 1 (natural) or K_B_SI (SI)."""
    if spectrum.lattice.N < 5:
        raise ValueError(
            f"two-level quantities need N >= 5 (E1 = E2 degeneracy below), got N={spectrum.lattice.N}"
        )
    if k_B is None:
        k_B = 1.0 if spectrum.particle.unit_mode == "natural" else K_B_SI
    return abs(spectrum.mode(1).energy - spectrum.mode(2).energy) / (2.0 * k_B)


def heat_capacity_two_level(spectrum: Spectrum, T: float, k_B: float | None = None) -> float:
    """Two-level heat capacity C_V/R = (x / cosh x)^2 with x = |E2 - E1|/(2 k_B T).

    Peaks near x ~ 1.2 and vanishes in both tails (Schottky anomaly).
    """
    if T <= 0:
        raise ValueError(f"temperature must be positive, got {T!r}")
    x = characteristic_temperature(spectrum, k_B) / T
    if x > 700:  # cosh would overflow; the value is already below 1e-600
        return 0.0
    r = x / math.cosh(x)
    return r * r
