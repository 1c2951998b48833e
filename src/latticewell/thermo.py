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
import sys
from dataclasses import dataclass

import numpy as np

from .spectrum import ParticleSpec, Spectrum

#: Relative size at which a series term stops the summation.
SERIES_RTOL = 1e-16
#: Hard cap on series length; hitting it raises SeriesCapExceeded.
SERIES_CAP = 10 ** 6
# Terms summed one by one with math.exp before the NumPy blocks start, and
# the smallest and largest block (8192 float64 terms = 64 KiB per temporary).
_SERIES_HEAD = 64
_SERIES_BLOCK_MIN = 256
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
        F = -math.log(self.Z) / self.beta
        if not math.isfinite(F):
            raise OverflowError(f"F = -ln Z/beta overflows at Z={self.Z!r}, beta={self.beta!r}")
        return F


def theta_argument(L: float, particle: ParticleSpec, beta: float) -> float:
    """mu = beta hbar^2 pi^2 / (2 m* L^2), the dimensionless theta argument.

    Every continuum route computes mu first, so this is the one check of
    their arguments: beta > 0 and L > 0 (NaN fails both).  A 2 m* L^2 that
    underflows to 0 raises OverflowError; a mu = inf from a large beta is Z = 0.
    """
    if not (beta > 0 and L > 0):
        raise ValueError(f"the continuum needs beta > 0 and L > 0, got beta={beta!r}, L={L!r}")
    den = 2.0 * particle.m_star * L * L
    if not den:
        raise OverflowError(f"the theta argument mu = beta hbar^2 pi^2/(2 m* L^2) overflows at L={L!r}")
    return beta * particle.hbar ** 2 * math.pi ** 2 / den


def _gaussian_series(c: float) -> float:
    """sum_{n>=1} exp(-c n^2), summed in increasing n until a term is negligible.

    The sum stops after the first term with term <= SERIES_RTOL * (running
    total).  Where that happens in the libm head, the head's sequential
    order sets both the stop and the last bits of the total, and so the
    golden CSVs; beyond it the blocks are summed pairwise, within ~3 eps of
    the exact sum of their terms (a sequential sum drifts ~sqrt(n) eps,
    ~1,000 eps at c = 2.5e-11).

    Stopping at n leaves out a tail below term * q / (1 - q) with
    q = exp(-2 c n), so the sum falls short by at most SERIES_RTOL * q/(1 - q)
    of itself, ~SERIES_RTOL / (2 c n) for small c n: machine precision for
    c >= ~0.01, but 8.7e-13 (~3,900 eps) at c = 1e-10.

    The sum S is below B = (1/2) sqrt(pi/c).  Where the first _SERIES_HEAD
    terms can stop it (exp(-64^2 c) <= SERIES_RTOL * B, c >= ~0.008, all the
    golden configs), they are summed with libm's math.exp, so every series
    that stops there is bit-identical to a plain loop.  Below that no head
    term can stop it, and the NumPy blocks start at n = 1.  A block holds
    np.exp of the same arguments (-c n) n, summed pairwise and added to the
    carried total.  np.exp differs from libm's exp by 1 ulp on ~5 % of
    arguments; over a long sum that moves the total by ~1 ulp.  The first
    block covers the predicted length sqrt(ln(1/(SERIES_RTOL B)) / c),
    rounded up to a multiple of _SERIES_BLOCK_MIN and at most
    _SERIES_BLOCK_CAP; later blocks hold _SERIES_BLOCK_CAP terms, which
    bounds the temporaries at 64 KiB each whatever c is.  The stop rule is
    tested only in a block whose last term can meet it, from the first term
    that meets it against the block's end total, walking on term by term.
    The sum takes O(sqrt(ln(1/(SERIES_RTOL S)) / c)) terms at ~3 ns each
    (arange, two products, exp and the sum), so one that hits SERIES_CAP
    raises after ~3 ms.
    """
    start, size, total = 1, _SERIES_BLOCK_MIN, 0.0
    # c * 64^2 >= 40 always leaves the head able to stop; c = 0 and nan take the head
    if 0.0 < c < 40.0 / _SERIES_HEAD ** 2 and (
            tol := SERIES_RTOL * 0.5 * math.sqrt(math.pi / c)) < math.exp(-c * _SERIES_HEAD ** 2):
        # S is a little below B, so the sum stops at most ~1 term past this length; sizes
        # rounded to _SERIES_BLOCK_MIN keep the heap from growing on many distinct ones
        length = math.sqrt(math.log(1.0 / tol) / c) + 2.0
        size = min(_SERIES_BLOCK_MIN * math.ceil(length / _SERIES_BLOCK_MIN), _SERIES_BLOCK_CAP)
    else:
        for n in range(1, _SERIES_HEAD + 1):
            term = math.exp(-c * n * n)
            total += term
            if term <= SERIES_RTOL * total:
                return total
        start = _SERIES_HEAD + 1
    while start <= SERIES_CAP:
        n = np.arange(start, min(start + size, SERIES_CAP + 1), dtype=float)
        terms = n * -c
        terms *= n
        np.exp(terms, out=terms)
        # one pairwise sum per block; every running total in it is at most this bound and
        # the terms decrease, so no term before the first below SERIES_RTOL * bound stops the sum
        bound = total + float(terms.sum())
        if terms[-1] <= SERIES_RTOL * bound:
            i = int((terms <= SERIES_RTOL * bound).argmax())
            running = total + float(terms[:i + 1].sum())
            # bound also counts the terms after i, so term i can miss the stop against its own
            # running total: walk on to the stop, or on a rounding tie to the block's end
            while terms[i] > SERIES_RTOL * running and i + 1 < terms.size:
                i += 1
                running += float(terms[i])
            if terms[i] <= SERIES_RTOL * running:
                return running
        total = bound
        start += n.size
        size = _SERIES_BLOCK_CAP
    raise SeriesCapExceeded(f"sum of exp(-{c:g} n^2) needs more than {SERIES_CAP} terms")


def partition_discrete(spectrum: Spectrum, beta: float) -> PartitionResult:
    """Direct sum over the N-1 lattice modes; Z(0) = N-1."""
    Z = float(np.sum(np.exp(-spectrum.boltzmann_beta(beta) * spectrum.energies)))
    return PartitionResult(Z, beta)


def partition_continuum_sum(L: float, particle: ParticleSpec, beta: float) -> PartitionResult:
    """Converged sum over parabolic continuum levels exp(-mu n^2)."""
    return PartitionResult(_gaussian_series(theta_argument(L, particle, beta)), beta)


def partition_continuum_closed(L: float, particle: ParticleSpec, beta: float) -> PartitionResult:
    """Closed Gaussian-integral form L sqrt(m*/2 pi beta hbar^2) = (1/2) sqrt(pi/mu)."""
    theta_argument(L, particle, beta)  # the one check of beta and L
    d = 2.0 * math.pi * beta * particle.hbar ** 2
    r = particle.m_star / d if d else 0.0
    # split the root where d underflows to 0 or overflows, or m*/d under- or overflows, so that Z stays representable
    # (a normal r keeps L sqrt(r)); dividing by sqrt(beta) and hbar in turn, a product of the two cannot underflow to 0
    if not sys.float_info.min <= r < math.inf:
        Z = L * math.sqrt(particle.m_star / (2.0 * math.pi)) / math.sqrt(beta) / particle.hbar
    else:
        Z = L * math.sqrt(r)
    if not math.isfinite(Z):
        raise OverflowError(f"Z_closed overflows at L={L!r}, beta={beta!r}")
    return PartitionResult(Z, beta)


def theta3(mu: float) -> float:
    """theta3(mu) = sum over all integers of exp(-mu n^2), by direct summation."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    return 1.0 + 2.0 * _gaussian_series(mu)


def theta3_poisson(mu: float) -> float:
    """Poisson-resummed form sqrt(pi/mu) * theta3(pi^2/mu); equals theta3(mu)."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    return math.sqrt(math.pi / mu) * theta3(math.pi * math.pi / mu)


def partition_theta(L: float, particle: ParticleSpec, beta: float) -> PartitionResult:
    """Continuum partition function (theta3(mu) - 1) / 2; a Z that overflows raises OverflowError.

    Below mu = 1 it is (theta3_poisson(mu) - 1) / 2, a series in exp(-(pi^2/mu) n^2)
    that shares no term with the continuum sum.  That subtraction loses a factor
    theta3/(theta3 - 1) of accuracy (2.3 at mu = 1, 12.6 at mu = pi), so from mu = 1
    up this route is the direct series S = (theta3 - 1)/2 of partition_continuum_sum.
    """
    mu = theta_argument(L, particle, beta)
    if mu >= 1.0:
        return PartitionResult(_gaussian_series(mu), beta)
    if not mu or math.isinf(math.pi / mu):  # 2 m* L^2 overflowed, or mu is subnormal
        raise OverflowError(f"Z_theta overflows at L={L!r}, beta={beta!r}")
    return PartitionResult(0.5 * (theta3_poisson(mu) - 1.0), beta)


def mean_energy(spectrum: Spectrum, beta: float) -> float:
    """Thermal mean energy -d ln Z / d beta of the discrete spectrum.

    The weights are shifted to the ground state, so they stay finite at
    large beta and are all 1 at beta = 0, where this is the spectral mean.
    """
    b = spectrum.boltzmann_beta(beta)
    E = spectrum.energies
    E0 = float(E.min())
    gap = E - E0
    w = np.exp(-b * gap)
    return E0 + float((gap * w).sum() / w.sum())


def mean_energy_continuum(L: float, particle: ParticleSpec, beta: float) -> float:
    """-d ln Z / d beta of the closed continuum form, by central difference; an H that overflows raises OverflowError.

    Analytically this is 1/(2 beta) (equipartition); the finite difference
    keeps the route independent of that identity.
    """
    h = 1e-4 * beta
    zp = partition_continuum_closed(L, particle, beta + h).Z
    zm = partition_continuum_closed(L, particle, beta - h).Z
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
