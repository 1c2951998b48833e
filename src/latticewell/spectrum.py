"""Eigenvalues and eigenfunctions of the hard-wall well on a lattice.

With the two-step centered stencil the interior eigenproblem has exactly N-1
independent modes, dimensionless energies sin^2(pi n_E / N), and sine
eigenfunctions that vanish at the walls.  A dense matrix diagonalization of
the stencil Hamiltonian provides an independent cross-check of the closed
form, and the parabolic continuum spectrum is recovered as N -> infinity at
fixed width L = N*a.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeFunction, LatticeSpec

HBAR_SI = 1.054e-34  # J s
K_B_SI = 1.38e-23    # J / K


@dataclass(frozen=True)
class ParticleSpec:
    """Effective mass and hbar in either natural (m* = hbar = 1) or SI units."""

    m_star: float = 1.0
    hbar: float = 1.0
    unit_mode: str = "natural"

    def __post_init__(self):
        if self.unit_mode not in ("natural", "SI"):
            raise ValueError(f"unit_mode must be 'natural' or 'SI', got {self.unit_mode!r}")
        if self.unit_mode == "natural" and (self.m_star != 1.0 or self.hbar != 1.0):
            raise ValueError("natural units fix m_star = hbar = 1")
        if self.m_star <= 0 or self.hbar <= 0:
            raise ValueError("m_star and hbar must be positive")

    @classmethod
    def natural(cls) -> "ParticleSpec":
        return cls()

    @classmethod
    def si(cls, m_star: float, hbar: float = HBAR_SI) -> "ParticleSpec":
        return cls(m_star, hbar, "SI")

    def energy_scale(self, a: float) -> float:
        """hbar^2 / (2 m* a^2), the prefactor of every lattice eigenvalue."""
        return self.hbar * self.hbar / (2.0 * self.m_star * a * a)


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


@dataclass(frozen=True)
class SpectralMode:
    """One eigenmode: quantum number, energies, and normalization constant."""

    n_E: int
    e_tilde: float
    energy: float
    norm_const: float


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The complete set of N-1 modes for one lattice and particle.

    e_tilde and norm_const are read-only arrays over n_E = 1..N-1.
    """

    lattice: LatticeSpec
    particle: ParticleSpec
    e_tilde: np.ndarray
    norm_const: np.ndarray

    @property
    def epsilon0(self) -> float:
        return self.particle.energy_scale(self.lattice.a)

    @property
    def n_E(self) -> np.ndarray:
        return np.arange(1, self.lattice.N)

    @property
    def energies(self) -> np.ndarray:
        return self.epsilon0 * self.e_tilde

    def mode(self, n_E: int) -> SpectralMode:
        if not 1 <= n_E <= self.lattice.N - 1:
            raise ValueError(f"n_E={n_E} outside [1, {self.lattice.N - 1}]")
        et = float(self.e_tilde[n_E - 1])
        return SpectralMode(int(n_E), et, self.epsilon0 * et, float(self.norm_const[n_E - 1]))


def energy_discrete(n_E: int, lattice: LatticeSpec, particle: ParticleSpec) -> float:
    """Lattice eigenvalue hbar^2/(2 m* a^2) * sin^2(pi n_E / N).

    n_E = 0 gives the null wave function (no solution) and n_E >= N aliases
    a lower mode, so only 1 <= n_E <= N-1 is accepted.
    """
    if not 1 <= n_E <= lattice.N - 1:
        raise ValueError(f"n_E={n_E} outside [1, {lattice.N - 1}]")
    return particle.energy_scale(lattice.a) * dimensionless_energy(n_E, lattice.N)


def energy_continuum(n_E, L: float, particle: ParticleSpec):
    """Parabolic continuum eigenvalue hbar^2 pi^2 / (2 m* L^2) * n_E^2."""
    n_E = np.asarray(n_E)
    if np.any(n_E < 1):
        raise ValueError(f"n_E must be >= 1, got {n_E}")
    return particle.hbar ** 2 * math.pi ** 2 / (2.0 * particle.m_star * L * L) * n_E * n_E


def build_spectrum(lattice: LatticeSpec, particle: ParticleSpec) -> Spectrum:
    """All N-1 modes in ascending n_E, with per-mode normalization constants.

    Every mode normalizes to sqrt(2/L) except n_E = N/2 (N even), whose
    square integrates to a*N instead of a*N/2 under the odd-site quadrature,
    so its constant is 1/sqrt(L).
    """
    N = lattice.N
    e_tilde = dimensionless_energy(np.arange(1, N), N)
    norm_const = np.full(N - 1, math.sqrt(2.0 / lattice.L))
    if N % 2 == 0:
        norm_const[N // 2 - 1] = 1.0 / math.sqrt(lattice.L)
    e_tilde.setflags(write=False)
    norm_const.setflags(write=False)
    return Spectrum(lattice, particle, e_tilde, norm_const)


def eigenfunction(mode: SpectralMode, lattice: LatticeSpec) -> LatticeFunction:
    """Normalized eigenfunction norm_const * sin(pi n_E n / N) on sites 0..N."""
    N = lattice.N
    if not 1 <= mode.n_E <= N - 1:
        raise ValueError(f"mode n_E={mode.n_E} does not belong to a lattice with N={N}")
    return LatticeFunction(mode.norm_const * sin_pi_ratio(mode.n_E * np.arange(N + 1), N))


def build_hamiltonian_matrix(lattice: LatticeSpec) -> np.ndarray:
    """Dimensionless stencil Hamiltonian on interior sites 1..N-1.

    Row n carries 1/2 on the diagonal and -1/4 at |n - n'| = 2.  The stencil
    at rows 1 and N-1 reaches ghost sites -1 and N+1; closing them by odd
    reflection (psi(-1) = -psi(1), psi(N+1) = -psi(N-1)) folds +1/4 back onto
    those diagonal entries and keeps the sine modes exact eigenvectors, with
    eigenvalues sin^2(pi n_E / N).
    """
    N = lattice.N
    M = np.zeros((N - 1, N - 1))
    for i in range(1, N):
        d = 0.5
        if i == 1:
            d += 0.25
        if i == N - 1:
            d += 0.25
        M[i - 1, i - 1] = d
        for nb in (i - 2, i + 2):
            if 1 <= nb <= N - 1:
                M[i - 1, nb - 1] = -0.25
    return M


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
