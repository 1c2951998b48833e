"""Eigenvalues and eigenfunctions of the hard-wall well on a lattice.

With the two-step centered stencil the interior eigenproblem has exactly N-1
independent modes, dimensionless energies sin^2(pi n_E / N), and sine
eigenfunctions that vanish at the walls.  A dense matrix diagonalization of
the stencil Hamiltonian provides an independent cross-check of the closed
form, and the parabolic continuum spectrum is recovered as N -> infinity at
fixed width L = N*a.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeFunction, LatticeSpec

M_STAR_SI = 9.1e-31  # kg, the free-electron mass
HBAR_SI = 1.054e-34  # J s
K_B_SI = 1.38e-23    # J / K
_BETA_EPS0_CAP = 1e300  # see Spectrum.boltzmann_beta


@dataclass(frozen=True)
class ParticleSpec:
    """Effective mass, hbar and k_B: all 1 in natural units, or SI values."""

    m_star: float = 1.0
    hbar: float = 1.0
    k_B: float = 1.0

    def __post_init__(self):
        if not (self.m_star > 0 and self.hbar > 0 and self.k_B > 0):
            raise ValueError(f"m_star, hbar and k_B must be positive, got {self}")

    @classmethod
    def natural(cls) -> "ParticleSpec":
        return cls()

    @classmethod
    def si(cls, m_star: float = M_STAR_SI, hbar: float = HBAR_SI, k_B: float = K_B_SI) -> "ParticleSpec":
        return cls(m_star, hbar, k_B)

    def energy_scale(self, a: float) -> float:
        """hbar^2 / (2 m* a^2), the prefactor of every lattice eigenvalue.

        It is formed from its factors' significands by _scaled, so it raises
        OverflowError only where the true value overflows, and is 0 only where it underflows.
        """
        (h, eh), (m, em), (s, ea) = math.frexp(self.hbar), math.frexp(self.m_star), math.frexp(a)
        scale = _scaled(h * h / (2.0 * m * s * s), 2 * eh - em - 2 * ea)
        if scale == math.inf:
            raise OverflowError(f"the energy scale hbar^2/(2 m* a^2) overflows at a={a!r}, hbar={self.hbar!r}")
        return scale


def _scaled(v, E, root=None):
    """v 2^E with one ldexp, or root sqrt(v 2^E): the one rule by which units enter every scale.

    A unit formula is a product or quotient of positive factors x = m 2^e.  Its
    caller evaluates the formula on the significands m (math.frexp, 1/2 <= m < 1),
    in the formula's own association order, so no intermediate leaves the normal
    range, and passes the exponents' sum E, each e times the power its factor
    has.  Scaling by a power of two is exact in the normal range: wherever the
    formula on the factors themselves keeps every intermediate normal, the value
    has the same bits, and elsewhere it is rounded once from the significands
    instead of losing digits to an intermediate's under- or overflow.  A root
    halves an even exponent; an odd one first doubles the significand under the
    root, and root's own significand multiplies the square root.  A value that
    overflows comes back as inf, for the caller to name; an array v is scaled by
    np.ldexp.
    """
    if root is not None:  # E // 2 rounds down, so an odd E doubles the significand under the root
        m, e = math.frexp(root)
        v, E = m * math.sqrt(v * 2 ** (E % 2)), E // 2 + e
    try:
        return (math.ldexp if isinstance(v, float) else np.ldexp)(v, E)
    except OverflowError:
        return math.inf


def sin_pi_ratio(k, N: int):
    """sin(pi k / N) for an integer k or integer array k, exact at multiples of N.

    Folding k into [0, N/2] keeps the sine argument small, so large k*n mode
    products lose no precision and the wall zeros come out exactly +0.0.
    """
    r = np.asarray(k) % (2 * N)
    m = r % N
    s = np.sin(np.pi * np.minimum(m, N - m) / N)
    return np.where(r < N, s, -s) + 0.0  # + 0.0 turns the -0.0 at k = N mod 2N into +0.0


def sine_mode_matrix(N: int) -> np.ndarray:
    """Table sin(pi j n / N) of shape (N-1, N+1): modes j=1..N-1 on sites 0..N."""
    table = sin_pi_ratio(np.arange(2 * N), N)
    return table[np.outer(np.arange(1, N), np.arange(N + 1)) % (2 * N)]


def dimensionless_energy(n_E, N: int):
    """sin^2(pi n_E / N), the eigenvalue in units of the energy scale."""
    s = sin_pi_ratio(n_E, N)
    return s * s


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The complete set of N-1 modes for one lattice and particle.

    e_tilde is the read-only array of dimensionless energies over
    n_E = 1..N-1.  epsilon0, the energy scale, is formed on its first read
    (where it overflows, that read raises) and kept, so the per-row reads of
    boltzmann_beta and characteristic_temperature form it once; energies is
    epsilon0 times e_tilde, read-only, formed on the first read and kept.
    """

    lattice: LatticeSpec
    particle: ParticleSpec
    e_tilde: np.ndarray

    @functools.cached_property
    def epsilon0(self) -> float:
        return self.particle.energy_scale(self.lattice.a)

    @property
    def n_E(self) -> np.ndarray:
        return np.arange(1, self.lattice.N)

    @property  # not a cached_property: bench/tracer.py wraps this property's fget
    def energies(self) -> np.ndarray:
        E = self.__dict__.get("_energies")
        if E is None:
            E = self.epsilon0 * self.e_tilde
            E.setflags(write=False)
            object.__setattr__(self, "_energies", E)  # the dataclass is frozen
        return E

    def boltzmann_beta(self, beta: float) -> float:
        """beta for use inside exp(-beta E), capped so that beta * E cannot overflow.

        Every exponent is beta times an energy or a gap E - E0, and each of
        those is 0 or lies in [4 epsilon0/N^2, epsilon0].  Capping beta * epsilon0
        at 1e300 keeps every product finite, so NumPy warns of no overflow, and
        changes no factor: past the cap each nonzero exponent exceeds
        4e300/N^2 > 746 for any N below 1e148, and exp of it is 0.0 either way.
        This is the one check of beta >= 0 for every Boltzmann factor.
        """
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta!r}")
        return _BETA_EPS0_CAP / self.epsilon0 if beta * self.epsilon0 > _BETA_EPS0_CAP else beta

    def mode(self, n_E: int) -> int:
        """n_E as an int, once it is checked to be one of the N-1 modes.

        eigenfunction(n_E, lattice) needs no spectrum; this stays only for
        bench/workloads.py, which calls eigenfunction(spec.mode(1), lat).
        """
        if not 1 <= n_E <= self.lattice.N - 1:
            raise ValueError(f"n_E={n_E} outside [1, {self.lattice.N - 1}]")
        return int(n_E)


def energy_discrete(n_E: int, lattice: LatticeSpec, particle: ParticleSpec) -> float:
    """Lattice eigenvalue hbar^2/(2 m* a^2) * sin^2(pi n_E / N).

    n_E = 0 gives the null wave function (no solution) and n_E >= N aliases
    a lower mode, so only 1 <= n_E <= N-1 is accepted.
    """
    if not 1 <= n_E <= lattice.N - 1:
        raise ValueError(f"n_E={n_E} outside [1, {lattice.N - 1}]")
    return particle.energy_scale(lattice.a) * dimensionless_energy(n_E, lattice.N)


def energy_continuum(n_E, L: float, particle: ParticleSpec):
    """Parabolic continuum eigenvalue pi^2 n_E^2 times energy_scale(L) = hbar^2 / (2 m* L^2).

    It is formed from its factors' significands by _scaled, and can overflow
    where the lattice eigenvalue, at most energy_scale(a), does not.
    """
    n_E = np.asarray(n_E)
    if np.any(n_E < 1):
        raise ValueError(f"n_E must be >= 1, got {n_E}")
    (h, eh), (m, em), (w, eL) = math.frexp(particle.hbar), math.frexp(particle.m_star), math.frexp(L)
    with np.errstate(over="ignore"):
        E = _scaled(h * h / (2.0 * m * w * w) * math.pi ** 2 * n_E * n_E, 2 * eh - em - 2 * eL)
    if not np.isfinite(E).all():
        raise OverflowError(f"E_continuum = pi^2 n_E^2 hbar^2/(2 m* L^2) overflows at L={L!r}")
    return E


def build_spectrum(lattice: LatticeSpec, particle: ParticleSpec) -> Spectrum:
    """All N-1 modes in ascending n_E: their dimensionless energies sin^2(pi n_E / N)."""
    e_tilde = dimensionless_energy(np.arange(1, lattice.N), lattice.N)
    e_tilde.setflags(write=False)
    return Spectrum(lattice, particle, e_tilde)


def eigenfunction(n_E: int, lattice: LatticeSpec) -> LatticeFunction:
    """Mode n_E on sites 0..N: sqrt(2/L) sin(pi n_E n / N), or 1/sqrt(L) times the sine for n_E = N/2.

    Under the odd-site quadrature the square of the n_E = N/2 mode (N
    even) integrates to a*N instead of a*N/2, hence its constant.  sqrt(2/L)
    is formed by _scaled, so it is finite for every L, also where 2/L overflows.
    """
    N, L = lattice.N, lattice.L
    if not 1 <= n_E <= N - 1:
        raise ValueError(f"n_E={n_E} outside [1, {N - 1}]")
    w, eL = math.frexp(L)
    norm = 1.0 / math.sqrt(L) if 2 * n_E == N else _scaled(2.0 / w, -eL, root=1.0)
    return LatticeFunction(norm * sin_pi_ratio(n_E * np.arange(N + 1), N))


def build_hamiltonian_matrix(lattice: LatticeSpec) -> np.ndarray:
    """Dimensionless stencil Hamiltonian on interior sites 1..N-1.

    Row n carries 1/2 on the diagonal and -1/4 at |n - n'| = 2.  The stencil
    at rows 1 and N-1 reaches ghost sites -1 and N+1; closing them by odd
    reflection (psi(-1) = -psi(1), psi(N+1) = -psi(N-1)) folds +1/4 back onto
    those diagonal entries and keeps the sine modes exact eigenvectors, with
    eigenvalues sin^2(pi n_E / N).
    """
    i, j = np.ogrid[1:lattice.N, 1:lattice.N]
    ghosts = 0.25 * (i == 1) + 0.25 * (i == lattice.N - 1)
    return np.select([i == j, abs(i - j) == 2], [0.5 + ghosts, -0.25])


def numeric_spectrum(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (dense solver cross-check)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    asym = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if asym > 1e-12:
        raise ValueError(f"matrix asymmetry {asym:g} exceeds 1e-12")
    return np.linalg.eigvalsh(M)


def continuum_limit_error(n_E, N: int):
    """Relative deviation of the lattice eigenvalue from the continuum one.

    Equals 1 - (sin x / x)^2 with x = pi n_E / N, which is x^2/3 + O(x^4):
    second-order convergence in 1/N at fixed n_E.
    """
    n_E = np.asarray(n_E)
    if np.any((n_E < 1) | (n_E > N - 1)):
        raise ValueError(f"n_E={n_E} outside [1, {N - 1}]")
    x = np.pi * n_E / N
    s = np.sin(x) / x
    return 1.0 - s * s
