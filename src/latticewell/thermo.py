"""Partition functions and thermodynamics of the lattice well gas.

Four routes to Z: the discrete sum over the N-1 lattice modes, the continuum
sum over parabolic levels, its closed Gaussian-integral form
L sqrt(m*/2 pi beta hbar^2), and the theta-function form (theta3(mu) - 1)/2
with mu = beta hbar^2 pi^2 / (2 m* L^2).  Below mu = 1 the four share no series
(the theta form sums Jacobi's, in pi^2/mu); from mu = 1 up theta and sum are one,
and below the normal range of mu theta is the closed form less 1/2.
Every route returns a PartitionResult, which holds only Z and beta: mu comes
from theta_argument, and F = -ln Z / beta from Z itself, so a discrete Z that
underflows to 0 has no F (the CLI's F column is the closed form's).  Mean
energies and the two-level (Schottky) heat capacity derive from these.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .spectrum import ParticleSpec, Spectrum, _scaled

#: Relative size at which a series term stops the summation.
SERIES_RTOL = 1e-16
#: Hard cap on series length; hitting it raises SeriesCapExceeded.
SERIES_CAP = 10 ** 6
# Terms summed one by one with math.exp from c = 40/64^2 up, where one of them
# always stops the sum, and the NumPy block length below it (8192 float64 terms
# = 64 KiB per temporary).
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

    Two paths, split at c = 40/64^2 = 0.009765625.  From there up (every golden
    config, at mu and at pi^2/mu) the first _SERIES_HEAD terms are summed one by
    one with libm's math.exp, and the sum stops after the first term with
    term <= SERIES_RTOL * (running total).  One of them always stops it, since
    exp(-64^2 c) <= exp(-40) < SERIES_RTOL exp(-c).  Every such series is
    bit-identical to a plain loop, whose sequential order sets the last bits of
    the golden CSVs.  c = 0 and nan skip the head, and raise below.

    Below the split no head term runs.  The sum stops at n* = ceil(sqrt(x/c)),
    x = -ln(SERIES_RTOL S), the first n with exp(-c n^2) <= SERIES_RTOL * S.
    There Jacobi's identity theta3(c) = sqrt(pi/c) theta3(pi^2/c) makes
    S = (sqrt(pi/c) - 1)/2 exact to double precision: it leaves out terms below
    exp(-pi^2/c) < exp(-1000).  The running total at the stop is S less a tail
    below ~2e-12 S, and successive c n^2 differ by c (2n + 1) >= 5e-5, so the two
    stop rules pick different n only on a near-tie, where the sums differ by one
    term of at most half an ulp.  The terms 1 ... n* are np.exp of the same
    arguments (-c n) n in blocks of _SERIES_BLOCK_CAP terms (64 KiB per
    temporary), each summed pairwise, and the block sums are added exactly
    (math.fsum), within ~3 eps of the exact sum of the terms (a sequential sum
    drifts ~sqrt(n) eps, ~1,000 eps at c = 2.5e-11).  np.exp differs from libm's
    exp by 1 ulp on ~5 % of arguments; over a long sum that moves the total by
    ~1 ulp.  The terms past n*
    add up to ~term * q/(1 - q), q = exp(-2 c n*), up to ~8,900 eps of the sum at
    c = 2.5e-11, so their integral from n* + 1/2 on,
    (1/2) sqrt(pi/c) erfc(sqrt(c) (n* + 1/2)), is added; its own error is
    ~c n* term/12.  A sum with n* > SERIES_CAP (c < ~2.475e-11), or with no n*
    (c not > 0, or SERIES_RTOL * S >= 1 at c <~ 1e-32), raises SeriesCapExceeded
    before any term.

    Either path is within ~4 eps of the true sum.  Against a 40-digit Jacobi S,
    a sum of several blocks (c < ~4.4e-7) was within 1.9 eps over 5,000
    log-uniform c, and one block within 3.0 eps over 20,000 c in [1e-4, 40/64^2),
    where its pairwise sum holds the whole series.  Against a 40-digit sum over
    300 log-spaced c in [40/64^2, 50] the head was within 3.9 eps; its tail,
    below SERIES_RTOL/2 of the sum, is left out.
    """
    if c >= 40.0 / _SERIES_HEAD ** 2:  # from c * 64^2 >= 40 a head term always stops the sum
        total = 0.0
        for n in range(1, _SERIES_HEAD + 1):
            term = math.exp(-c * n * n)
            total += term
            if term <= SERIES_RTOL * total:
                return total
    x = -math.log(SERIES_RTOL * 0.5 * (math.sqrt(math.pi / c) - 1.0)) if c > 0.0 else 0.0
    if not x > 0.0 or (stop := math.ceil(math.sqrt(x / c))) > SERIES_CAP:
        raise SeriesCapExceeded(f"sum of exp(-{c:g} n^2) needs more than {SERIES_CAP} terms")
    sums = []
    for first in range(1, stop + 1, _SERIES_BLOCK_CAP):
        n = np.arange(first, min(first + _SERIES_BLOCK_CAP, stop + 1), dtype=float)
        terms = n * -c
        terms *= n
        np.exp(terms, out=terms)
        sums.append(float(terms.sum()))
    # the tail past n*: the integral of exp(-c m^2) from n* + 1/2 on
    return math.fsum(sums) + 0.5 * math.sqrt(math.pi / c) * math.erfc(math.sqrt(c) * (stop + 0.5))


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

    mu must be normal: a subnormal mu has already lost digits (partition_theta
    handles that range itself), and there pi/mu overflows.
    """
    if not mu >= sys.float_info.min:
        raise ValueError(f"mu must be positive and normal, got {mu!r}")
    return math.sqrt(math.pi / mu) * theta3(math.pi * math.pi / mu)


def partition_theta(L: float, particle: ParticleSpec, beta: float) -> PartitionResult:
    """Continuum partition function (theta3(mu) - 1) / 2.

    Below mu = 1 it is (theta3_poisson(mu) - 1) / 2, a series in exp(-(pi^2/mu) n^2)
    that shares no term with the continuum sum.  That subtraction loses a factor
    theta3/(theta3 - 1) of accuracy (2.3 at mu = 1, 12.6 at mu = pi), so from mu = 1
    up this route is the direct series S = (theta3 - 1)/2 of partition_continuum_sum.
    Below the normal range of mu (mu = 0 included) pi^2/mu overflows and
    theta3(pi^2/mu) = 1, so Z_theta = (1/2) sqrt(pi/mu) - 1/2 is Z_closed - 1/2:
    Z_closed takes sqrt(pi/mu) from the factors' significands, where a subnormal mu
    has lost digits.  It raises OverflowError only where Z_closed overflows.
    """
    mu = theta_argument(L, particle, beta)
    if mu >= 1.0:
        return PartitionResult(_gaussian_series(mu), beta)
    if mu < sys.float_info.min:
        return PartitionResult(partition_continuum_closed(L, particle, beta).Z - 0.5, beta)
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
