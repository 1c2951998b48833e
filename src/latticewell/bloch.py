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

Since sin a sin b = [cos(a - b) - cos(a + b)]/2, the spectral sum is also
rho[n, n'] = [c(|n - n'|) - c(n + n')]/L with c(k) = sum_j exp(-beta E_j)
cos(pi j k/N), a DCT-I of the Boltzmann weights that one real FFT of length
2N gives (Strang, SIAM Rev. 1999; Martucci, IEEE TSP 1994): that is
density_matrix_spectral, and the paper's sum as written, density_matrix_dense,
is its reference.  Both take the closed-form spectrum, while the Bloch
integration takes only the stencil matrix, so the routes stay independent.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calculus import definite_integral
from .lattice import LatticeFunction, LatticeSpec
from .spectrum import ParticleSpec, Spectrum, build_hamiltonian_matrix, sine_mode_matrix
from .thermo import partition_continuum_closed


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """(N+1) x (N+1) grid of density-matrix values on the lattice's sites 0..N."""

    rho: np.ndarray
    lattice: LatticeSpec

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

    rho = [c(|n - n'|) - c(n + n')]/L (module docstring), with c(k),
    k = 0..N, from one rfft of the even extension (0, w, 0, w reversed) of
    w_j = e^{-beta E_j} and c(2N - k) = c(k): O(N log N) plus one (N+1)^2
    write.  Since w_j = w_{N-j} bit for bit, mirror modes cancel in c at odd
    k, which is set to exact zeros; so at every N rho is exactly symmetric
    and exactly +0.0 on the walls and on odd n + n'.  It agrees with
    density_matrix_dense to ~1e-15 of max |rho|; that error is absolute, so
    entries far below max |rho| keep less relative accuracy.
    """
    lattice = spectrum.lattice
    N, L = lattice.N, lattice.L
    w = np.exp(-spectrum.boltzmann_beta(beta) * spectrum.energies)
    c = np.fft.rfft(np.concatenate(([0.0], w, [0.0], w[::-1]))).real / (2.0 * L)  # c(k)/L, k = 0..N
    c[1::2] = 0.0
    W = sliding_window_view(np.concatenate((c[:0:-1], c, c[-2::-1])), N + 1)  # W[i, j] = c(|i + j - N|)/L
    return DensityMatrix(W[N::-1] - W[N:], lattice)


def density_matrix_dense(spectrum: Spectrum, beta: float) -> DensityMatrix:
    """The paper's sum as written, (2/L) A^T A of the e^{-beta E/2}-weighted sine table: the O(N^3) reference."""
    lattice = spectrum.lattice
    A = np.exp(-0.5 * spectrum.boltzmann_beta(beta) * spectrum.energies)[:, None] * sine_mode_matrix(lattice.N)
    return DensityMatrix((2.0 / lattice.L) * (A.T @ A), lattice)


def density_matrix_normalized(dm: DensityMatrix, Z: float) -> DensityMatrix:
    """Divide by the partition function so the trace integral is unity (odd N)."""
    if Z <= 0:
        raise ValueError(f"partition function must be positive, got {Z!r}")
    return DensityMatrix(dm.rho / Z, dm.lattice)


def trace_integral(dm: DensityMatrix) -> float:
    """Discrete integral of the diagonal over [0, N]: the trace of the matrix.

    For the spectral matrix this reproduces the discrete partition function
    exactly when N is odd; for even N the n_E = N/2 mode contributes twice,
    adding e^{-beta E_{N/2}}.
    """
    return definite_integral(dm.diagonal(), 0, dm.lattice.N, dm.lattice.a)


def propagate_bloch(lattice: LatticeSpec, particle: ParticleSpec, beta_target: float,
                    steps: int | None = None) -> DensityMatrix:
    """Integrate the imaginary-time evolution from the lattice delta to beta.

    Each column evolves under d rho/d f = -M rho, M the stencil Hamiltonian
    with the same odd-reflection ghost closure and f from 0 to
    beta hbar^2/(2 m* a^2), by classical RK4 in ``steps`` fixed steps df.
    The ODE is linear and autonomous, so one step is exactly Y <- (I + X) Y
    with X = H + H^2/2 + H^3/6 + H^4/24, H = -df M, and rho = (I + X)^steps/a.
    Left-to-right binary powering carries the power as I + R (squaring
    R <- 2R + R R, a set bit R <- R + X + R X), so X is never rounded into
    I + X as np.linalg.matrix_power would round it.  Once I + R has decayed
    (largest diagonal entry below 1/2) it is carried whole, as c I + R with
    c = 0, so that a rho far below 1/a keeps its relative accuracy too.
    The cost is O(N^3 log steps), at most 3 + 2 log2(steps) products.  M's
    eigenvalues lie in (0, 1], so any df <= 1 is stable and ``steps`` sets
    only the accuracy.
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
    H = -df * build_hamiltonian_matrix(lattice)
    I = np.eye(N - 1)
    X = H @ (I + H @ (I + H @ (I + H / 4.0) / 3.0) / 2.0)
    c, R = 1.0, X  # c I + R = (I + X)^k, k the leading bits of steps read so far
    for bit in bin(steps)[3:]:
        R = 2.0 * c * R + R @ R
        if bit == "1":
            R = R + c * X + R @ X
        if c and R.diagonal().max() < -0.5:
            c, R = 0.0, I + R
    rho = np.zeros((N + 1, N + 1))
    rho[1:N, 1:N] = (c * I + 0.5 * (R + R.T)) / a
    return DensityMatrix(rho, lattice)


def density_matrix_continuum(x: float, x_prime: float, beta: float, particle: ParticleSpec) -> float:
    """Free-particle Gaussian kernel sqrt(m*/2 pi beta hbar^2) e^{-m*(x-x')^2/(2 beta hbar^2)}.

    That is Z1 e^{-pi (Z1 (x - x'))^2} with Z1 = Z_closed of a unit width, so the kernel
    shares the closed form's check of beta and its one scaling rule, which leaves Z1
    finite and nonzero wherever its true value is; where (Z1 (x - x'))^2 overflows,
    e^{-inf} = 0 is the kernel's value.
    """
    Z = partition_continuum_closed(1.0, particle, beta).Z
    u = Z * (x - x_prime)
    return Z * math.exp(-math.pi * u * u)
