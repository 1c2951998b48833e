"""Partition functions and thermodynamics of the lattice well gas.

Four routes to Z: the discrete sum over the N-1 lattice modes, the continuum
sum over parabolic levels, its closed Gaussian-integral form
L sqrt(m*/2 pi beta hbar^2), and the theta-function form (theta3(mu) - 1)/2
with mu = beta hbar^2 pi^2 / (2 m* L^2).  Below mu = 1 the four share no series
(the theta form sums Jacobi's, in pi^2/mu); from mu = 1 up theta and sum are one.
Every route returns a PartitionResult, which holds only Z and beta: mu comes
from theta_argument, and F = -ln Z / beta from Z itself, so a discrete Z that
underflows to 0 has no F (the CLI's F column is the closed form's).  Mean
energies and the two-level (Schottky) heat capacity derive from these.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import ParticleSpec, Spectrum, _scaled

#: Relative size at which a series term stops the summation.
SERIES_RTOL = 1e-16
#: Hard cap on series length; hitting it raises SeriesCapExceeded.
SERIES_CAP = 10 ** 6
# Terms summed one by one with math.exp before the NumPy blocks start, and
# the block length (8192 float64 terms = 64 KiB per temporary).
_SERIES_HEAD = 64
_SERIES_BLOCK_CAP = 8192


class SeriesCapExceeded(RuntimeError):
    """An infinite-series evaluation hit the term cap before converging."""


@dataclass(frozen=True)
class PartitionResult:
    """Partition function Z at inverse temperature beta, and its free energy."""

    Z: float
    beta: float

    @property
    def free_energy(self) -> float:
        """F = -ln Z / beta; a Z = 0 has no logarithm (ValueError), and an F that overflows raises OverflowError."""
        if self.beta <= 0:
            raise ValueError(f"free energy needs beta > 0, got {self.beta!r}")
        if not self.Z:
            raise ValueError(f"F = -ln Z/beta is undefined: Z underflows to 0 at beta={self.beta!r}")
        F = -math.log(self.Z) / self.beta
        if not math.isfinite(F):
            raise OverflowError(f"F = -ln Z/beta overflows at Z={self.Z!r}, beta={self.beta!r}")
        return F


def theta_argument(L: float, particle: ParticleSpec, beta: float) -> float:
    """mu = beta hbar^2 pi^2 / (2 m* L^2), the dimensionless theta argument.

    The continuum sum and the theta form compute mu first, so this is the one
    check of their arguments: beta > 0 and L > 0 (NaN fails both).  mu is
    formed from its factors' significands by spectrum._scaled, so it is inf only
    where its true value overflows, which is Z = 0, and 0 only where it
    underflows; an intermediate such as hbar hbar or 2 m* L^2 that leaves the
    normal range changes neither.
    """
    if not (beta > 0 and L > 0):
        raise ValueError(f"the continuum needs beta > 0 and L > 0, got beta={beta!r}, L={L!r}")
    (b, eb), (h, eh) = math.frexp(beta), math.frexp(particle.hbar)
    (m, em), (w, eL) = math.frexp(particle.m_star), math.frexp(L)
    return _scaled(b * (h * h) * math.pi ** 2 / (2.0 * m * w * w), eb + 2 * eh - em - 2 * eL)


def _gaussian_series(c: float) -> float:
    """sum_{n>=1} exp(-c n^2) = (theta3(c) - 1)/2, summed in increasing n up to a negligible term.

    Where one of the first _SERIES_HEAD terms can stop the sum
    (exp(-64^2 c) <= SERIES_RTOL * (1/2) sqrt(pi/c), c >= ~0.008, all the
    golden configs), they are summed one by one with libm's math.exp, and the
    head stops after the first term with term <= SERIES_RTOL * (running
    total).  Every series that stops there is bit-identical to a plain loop,
    whose sequential order sets the last bits of the golden CSVs.

    Past the head the sum stops at n* = ceil(sqrt(x/c)), x = -ln(SERIES_RTOL S),
    the first n with exp(-c n^2) <= SERIES_RTOL * S.  There (c < 40/64^2) Jacobi's
    identity theta3(c) = sqrt(pi/c) theta3(pi^2/c) makes S = (sqrt(pi/c) - 1)/2
    exact to double precision: it leaves out terms below exp(-pi^2/c) < exp(-1000).
    The running total at the stop is S less a tail below ~2e-12 S, and successive
    c n^2 differ by c (2n + 1) >= 5e-5, so the two stop rules pick different n
    only on a near-tie, where the sums differ by one term of at most half an ulp.
    The terms 1 ... n* (65 ... n* after a head that did not stop) are np.exp of
    the same arguments (-c n) n in blocks of _SERIES_BLOCK_CAP terms (64 KiB per
    temporary), each summed pairwise and added to the carried total, within ~3 eps
    of the exact sum of the terms (a sequential sum drifts ~sqrt(n) eps, ~1,000 eps
    at c = 2.5e-11).  np.exp differs from libm's exp by 1 ulp on ~5 % of
    arguments; over a long sum that moves the total by ~1 ulp.  A sum with
    n* > SERIES_CAP (c < ~2.475e-11), or with no n* (c not > 0, or
    SERIES_RTOL * S >= 1 at c <~ 1e-32), raises SeriesCapExceeded before any term.

    Stopping at n leaves out a tail below term * q / (1 - q) with
    q = exp(-2 c n), so the sum falls short by at most SERIES_RTOL * q/(1 - q)
    of itself, ~SERIES_RTOL / (2 c n) for small c n: machine precision for
    c >= ~0.01, but 8.7e-13 (~3,900 eps) at c = 1e-10.
    """
    start, total = 1, 0.0
    # c * 64^2 >= 40 always leaves the head able to stop; c = 0 and nan take the head
    if not (0.0 < c < 40.0 / _SERIES_HEAD ** 2
            and SERIES_RTOL * 0.5 * math.sqrt(math.pi / c) < math.exp(-c * _SERIES_HEAD ** 2)):
        for n in range(1, _SERIES_HEAD + 1):
            term = math.exp(-c * n * n)
            total += term
            if term <= SERIES_RTOL * total:
                return total
        start = _SERIES_HEAD + 1
    x = -math.log(SERIES_RTOL * 0.5 * (math.sqrt(math.pi / c) - 1.0)) if c > 0.0 else 0.0
    if not x > 0.0 or (stop := math.ceil(math.sqrt(x / c))) > SERIES_CAP:
        raise SeriesCapExceeded(f"sum of exp(-{c:g} n^2) needs more than {SERIES_CAP} terms")
    for first in range(start, stop + 1, _SERIES_BLOCK_CAP):
        n = np.arange(first, min(first + _SERIES_BLOCK_CAP, stop + 1), dtype=float)
        terms = n * -c
        terms *= n
        np.exp(terms, out=terms)
        total += float(terms.sum())
    return total


def partition_discrete(spectrum: Spectrum, beta: float) -> PartitionResult:
    """Direct sum over the N-1 lattice modes; Z(0) = N-1."""
    Z = float(np.sum(np.exp(-spectrum.boltzmann_beta(beta) * spectrum.energies)))
    return PartitionResult(Z, beta)


def partition_continuum_sum(L: float, particle: ParticleSpec, beta: float) -> PartitionResult:
    """Converged sum over parabolic continuum levels exp(-mu n^2)."""
    return PartitionResult(_gaussian_series(theta_argument(L, particle, beta)), beta)


def partition_continuum_closed(L: float, particle: ParticleSpec, beta: float) -> PartitionResult:
    """Closed Gaussian-integral form L sqrt(m*/2 pi beta hbar^2) = (1/2) sqrt(pi/mu).

    It is formed from its factors' significands by spectrum._scaled, so it raises
    OverflowError only where the true Z overflows, and is 0 only where it underflows.
    """
    if not (beta > 0 and L > 0):
        raise ValueError(f"the continuum needs beta > 0 and L > 0, got beta={beta!r}, L={L!r}")
    (m, em), (b, eb), (h, eh) = math.frexp(particle.m_star), math.frexp(beta), math.frexp(particle.hbar)
    Z = _scaled(m / (2.0 * math.pi * b * (h * h)), em - eb - 2 * eh, root=L)
    if Z == math.inf:
        raise OverflowError(f"Z_closed overflows at L={L!r}, beta={beta!r}")
    return PartitionResult(Z, beta)


def theta3(mu: float) -> float:
    """theta3(mu) = sum over all integers of exp(-mu n^2), by direct summation."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    return 1.0 + 2.0 * _gaussian_series(mu)


def theta3_poisson(mu: float) -> float:
    """Poisson-resummed form sqrt(pi/mu) * theta3(pi^2/mu); equals theta3(mu).

    sqrt(pi/mu) is formed from mu's significand by spectrum._scaled, so it is finite
    at a subnormal mu too, where pi/mu overflows (and theta3(inf) = 1); at a normal
    mu it has the bits of math.sqrt(math.pi / mu).
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    m, e = math.frexp(mu)
    return _scaled(math.pi / m, -e, root=1.0) * theta3(math.pi * math.pi / mu)


def partition_theta(L: float, particle: ParticleSpec, beta: float) -> PartitionResult:
    """Continuum partition function (theta3(mu) - 1) / 2; a mu that underflows to 0 raises OverflowError.

    Below mu = 1 it is (theta3_poisson(mu) - 1) / 2, a series in exp(-(pi^2/mu) n^2)
    that shares no term with the continuum sum.  That subtraction loses a factor
    theta3/(theta3 - 1) of accuracy (2.3 at mu = 1, 12.6 at mu = pi), so from mu = 1
    up this route is the direct series S = (theta3 - 1)/2 of partition_continuum_sum.
    """
    mu = theta_argument(L, particle, beta)
    if mu >= 1.0:
        return PartitionResult(_gaussian_series(mu), beta)
    if not mu:
        raise OverflowError(f"Z_theta needs mu > 0, but mu underflows to 0 at L={L!r}, beta={beta!r}")
    return PartitionResult(0.5 * (theta3_poisson(mu) - 1.0), beta)


def mean_energy(spectrum: Spectrum, beta: float) -> float:
    """Thermal mean energy -d ln Z / d beta of the discrete spectrum.

    The weights are shifted to the ground state, so they stay finite at
    large beta and are all 1 at beta = 0, where this is the spectral mean.
    """
    b = spectrum.boltzmann_beta(beta)
    E = spectrum.energies
    E0 = float(E[0])  # n_E = 1, the lowest mode bit for bit (tied with its mirror n_E = N - 1)
    gap = E - E0
    w = np.exp(-b * gap)
    return E0 + float((gap * w).sum() / w.sum())


def mean_energy_continuum(L: float, particle: ParticleSpec, beta: float) -> float:
    """-d ln Z / d beta of the closed continuum form, by central difference; an H that overflows raises OverflowError.

    Analytically this is 1/(2 beta) (equipartition); the finite difference
    keeps the route independent of that identity.  A Z_closed that underflows
    to 0 has no logarithm (ValueError).
    """
    h = 1e-4 * beta
    zp = partition_continuum_closed(L, particle, beta + h).Z
    zm = partition_continuum_closed(L, particle, beta - h).Z
    if not (zp and zm):
        raise ValueError(f"H_mean_continuum is undefined: Z_closed underflows to 0 at L={L!r}, beta={beta!r}")
    # h underflows to 0 below beta ~ 5e-320, where 1/(2 beta) overflows anyway
    H = -(math.log(zp) - math.log(zm)) / (2.0 * h) if h else math.inf
    if not math.isfinite(H):
        raise OverflowError(f"H_mean_continuum overflows at L={L!r}, beta={beta!r}")
    return H


def characteristic_temperature(spectrum: Spectrum) -> float:
    """Theta = |E1 - E2| / (2 k_B), x = Theta / T, with the particle's k_B."""
    if spectrum.lattice.N < 5:
        raise ValueError(f"two-level quantities need N >= 5 (E1 = E2 degeneracy below), got N={spectrum.lattice.N}")
    E1, E2 = (spectrum.epsilon0 * spectrum.e_tilde[:2]).tolist()  # the two lowest energies, not all N - 1
    return abs(E1 - E2) / (2.0 * spectrum.particle.k_B)


def heat_capacity_two_level(spectrum: Spectrum, T: float) -> float:
    """Two-level heat capacity C_V/R = (x / cosh x)^2 with x = |E2 - E1|/(2 k_B T).

    Peaks near x ~ 1.2 and vanishes in both tails (Schottky anomaly).
    """
    if T <= 0:
        raise ValueError(f"temperature must be positive, got {T!r}")
    x = characteristic_temperature(spectrum) / T
    if x > 700:  # cosh would overflow; the value is already below 1e-600
        return 0.0
    r = x / math.cosh(x)
    return r * r
