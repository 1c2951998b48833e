"""Canonical density matrices of the lattice well gas.

The unnormalized density matrix is built two independent ways: a spectral sum
(2/L) sum_j exp(-beta E_j) sin(pi j n/N) sin(pi j n'/N) over the N-1 modes,
and direct integration of the imaginary-time evolution
d rho / d f = (1/4)[rho(n+2) - 2 rho(n) + rho(n-2)] in the dimensionless
thermal variable f = beta * hbar^2/(2 m* a^2), starting from the lattice
delta rho(n, n'; 0) = delta_{nn'} / a.  The two-step stencil decouples the
even and odd sublattices, so both constructions tend to [1 + (-1)^(n+n')]
times the free-particle Gaussian kernel in the continuum limit: zero on pairs
with odd n + n' and doubled on pairs with even n + n'.
"""

import math
from dataclasses import dataclass

import numpy as np

from .calculus import definite_integral
from .lattice import LatticeFunction, LatticeSpec
from .spectrum import (
    ParticleSpec,
    Spectrum,
    build_hamiltonian_matrix,
    sine_mode_matrix,
)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """(N+1) x (N+1) grid of density-matrix values at inverse temperature beta."""

    rho: np.ndarray
    lattice: LatticeSpec
    beta: float

    def __post_init__(self):
        expected = self.lattice.N + 1
        if self.rho.shape != (expected, expected):
            raise ValueError(f"rho has shape {self.rho.shape}, expected ({expected}, {expected})")

    def diagonal(self) -> LatticeFunction:
        return LatticeFunction(np.diagonal(self.rho))


def density_matrix_spectral(spectrum: Spectrum, beta: float) -> DensityMatrix:
    """Spectral construction: (2/L) sum over all N-1 modes of e^{-beta E} sin sin.

    The 2/L weight is uniform across modes (including n_E = N/2 for even N,
    whose odd-site quadrature then overcounts the trace by e^{-beta E_{N/2}}).
    At beta = 0 the sum collapses to the lattice delta: identity/a on the
    interior block.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta!r}")
    lattice = spectrum.lattice
    V = sine_mode_matrix(lattice.N)                    # (N-1, N+1)
    A = np.exp(-0.5 * beta * spectrum.energies)[:, None] * V
    rho = (2.0 / lattice.L) * (A.T @ A)
    return DensityMatrix(rho, lattice, beta)


def density_matrix_normalized(dm: DensityMatrix, Z: float) -> DensityMatrix:
    """Divide by the partition function so the trace integral is unity (odd N)."""
    if Z <= 0:
        raise ValueError(f"partition function must be positive, got {Z!r}")
    return DensityMatrix(dm.rho / Z, dm.lattice, dm.beta)


def trace_integral(dm: DensityMatrix) -> float:
    """Discrete integral of the diagonal over [0, N]: the trace of the matrix.

    For the spectral matrix this reproduces the discrete partition function
    exactly when N is odd; for even N the n_E = N/2 mode contributes twice,
    adding e^{-beta E_{N/2}}.
    """
    return definite_integral(dm.diagonal(), 0, dm.lattice.N, dm.lattice.a)


def propagate_bloch(
    lattice: LatticeSpec,
    particle: ParticleSpec,
    beta_target: float,
    steps: int | None = None,
) -> DensityMatrix:
    """Integrate the imaginary-time evolution from the lattice delta to beta.

    Each column evolves independently under d rho/d f = -M rho, where M is
    the stencil Hamiltonian with the same odd-reflection ghost closure, and
    f runs from 0 to beta * hbar^2/(2 m* a^2).  Classical fourth-order
    Runge-Kutta with a fixed step; M's eigenvalues lie in (0, 1], so any
    step df <= 1 is stable and accuracy alone sets the default step count.
    """
    if beta_target < 0:
        raise ValueError(f"beta_target must be >= 0, got {beta_target!r}")
    N, a = lattice.N, lattice.a
    f_target = beta_target * particle.energy_scale(a)
    if steps is None:
        steps = max(1000, math.ceil(1000.0 * f_target))
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    df = f_target / steps
    if df > 1.0:
        raise ValueError(f"step df={df:g} exceeds the stability bound 1; increase steps")

    A = -build_hamiltonian_matrix(lattice)
    Y = np.eye(N - 1) / a
    if f_target > 0:
        for _ in range(steps):
            k1 = A @ Y
            k2 = A @ (Y + 0.5 * df * k1)
            k3 = A @ (Y + 0.5 * df * k2)
            k4 = A @ (Y + df * k3)
            Y = Y + (df / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    rho = np.zeros((N + 1, N + 1))
    rho[1:N, 1:N] = 0.5 * (Y + Y.T)
    return DensityMatrix(rho, lattice, beta_target)


def density_matrix_continuum(x: float, x_prime: float, beta: float, particle: ParticleSpec) -> float:
    """Free-particle Gaussian kernel sqrt(m*/2 pi beta hbar^2) e^{-m*(x-x')^2/(2 beta hbar^2)}."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    g = particle.m_star / (2.0 * beta * particle.hbar ** 2)
    d = x - x_prime
    return math.sqrt(g / math.pi) * math.exp(-g * d * d)

