"""Hard-wall quantum well on a uniform lattice.

Centered-difference calculus, the sin^2 eigenvalue spectrum, canonical
density matrices from both spectral sums and imaginary-time propagation,
and partition-function thermodynamics, all with systematic checks of the
continuum limit N -> infinity at fixed width L = N*a.
"""

__version__ = "0.1.0"

from .bloch import (
    DensityMatrix,
    density_matrix_continuum,
    density_matrix_dense,
    density_matrix_normalized,
    density_matrix_spectral,
    propagate_bloch,
    trace_integral,
)
from .calculus import (
    SingularQuadrature,
    antiderivative,
    antiderivative_series,
    centered_diff1,
    centered_diff2,
    closed_form_antiderivative,
    definite_integral,
)
from .lattice import LatticeFunction, LatticeSpec
from .spectrum import (
    HBAR_SI,
    K_B_SI,
    M_STAR_SI,
    ParticleSpec,
    Spectrum,
    build_hamiltonian_matrix,
    build_spectrum,
    continuum_limit_error,
    dimensionless_energy,
    eigenfunction,
    energy_continuum,
    energy_discrete,
    numeric_spectrum,
    sin_pi_ratio,
    sine_mode_matrix,
)
from .thermo import (
    PartitionResult,
    SeriesCapExceeded,
    characteristic_temperature,
    heat_capacity_two_level,
    mean_energy,
    mean_energy_continuum,
    partition_continuum_closed,
    partition_continuum_sum,
    partition_discrete,
    partition_theta,
    theta3,
    theta3_poisson,
    theta_argument,
)
