"""Density matrices: spectral sum vs imaginary-time propagation, continuum kernel."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewell import bloch, calculus, spectrum
from latticewell.bloch import (
    density_matrix_continuum,
    density_matrix_dense,
    density_matrix_normalized,
    density_matrix_spectral,
    propagate_bloch,
    trace_integral,
)
from latticewell.lattice import LatticeFunction, LatticeSpec
from latticewell.spectrum import ParticleSpec, build_hamiltonian_matrix, build_spectrum
from latticewell.thermo import partition_discrete

NATURAL = ParticleSpec.natural()
EPS = sys.float_info.epsilon


def spectrum_for(N, a=1.0):
    return build_spectrum(LatticeSpec(N, a), NATURAL)


def _assert_exact_structure(rho):
    """Exactly symmetric, and exactly +0.0 on the walls and wherever n + n' is odd."""
    n = np.arange(rho.shape[0])
    zero = (n[:, None] + n) % 2 == 1
    zero[[0, -1]] = zero[:, [0, -1]] = True
    assert np.array_equal(rho, rho.T)
    assert np.all(rho[zero] == 0.0) and not np.any(np.signbit(rho[zero]))


def _rk4_stage_loop(lattice, particle, beta_target, steps):
    """The four-stage RK4 loop, one step at a time: the oracle of propagate_bloch."""
    N, a = lattice.N, lattice.a
    df = beta_target * particle.energy_scale(a) / steps
    A = -build_hamiltonian_matrix(lattice)
    Y = np.eye(N - 1) / a
    for _ in range(steps):
        k1 = A @ Y
        k2 = A @ (Y + 0.5 * df * k1)
        k3 = A @ (Y + 0.5 * df * k2)
        k4 = A @ (Y + df * k3)
        Y = Y + (df / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    rho = np.zeros((N + 1, N + 1))
    rho[1:N, 1:N] = 0.5 * (Y + Y.T)
    return rho


class TestSpectralConstruction:
    @pytest.mark.parametrize("N", [5, 9, 21, 65])
    def test_beta_zero_completeness_odd(self, N):
        a = 0.7
        dm = density_matrix_spectral(spectrum_for(N, a), 0.0)
        interior = dm.rho[1:N, 1:N]
        assert np.max(np.abs(interior - np.eye(N - 1) / a)) < 1e-10

    def test_beta_zero_completeness_even(self):
        # the sine basis has equal norms for every N, so the delta works for
        # even N too; only the trace quadrature overcounts
        for N in (8, 64):
            dm = density_matrix_spectral(spectrum_for(N, 0.5), 0.0)
            assert np.max(np.abs(dm.rho[1:N, 1:N] - np.eye(N - 1) / 0.5)) < 1e-10

    def test_symmetric_random_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            N = int(rng.integers(4, 40))
            beta = float(rng.uniform(0.0, 8.0))
            dm = density_matrix_spectral(spectrum_for(N), beta)
            assert np.array_equal(dm.rho, dm.rho.T)

    def test_boundary_rows_vanish(self):
        dm = density_matrix_spectral(spectrum_for(12), 1.5)
        assert np.all(dm.rho[0] == 0.0)
        assert np.all(dm.rho[12] == 0.0)
        assert np.all(dm.rho[:, 0] == 0.0)

    def test_large_beta_ground_block(self):
        # at beta*eps0 = 50 only the degenerate pair n_E = 1, N-1 survives
        N = 8
        spec = spectrum_for(N)
        beta = 50.0 / spec.epsilon0
        dm = density_matrix_spectral(spec, beta)
        lat = spec.lattice
        w = math.exp(-beta * spec.energies[0])
        truncated = np.zeros_like(dm.rho)
        for j in (1, N - 1):
            v = np.array([math.sin(math.pi * j * n / N) for n in range(N + 1)])
            truncated += (2.0 / lat.L) * w * np.outer(v, v)
        assert np.max(np.abs(dm.rho - truncated)) < 1e-3 * w

    def test_positive_semidefinite_interior(self):
        for N, be in [(11, 0.5), (20, 3.0)]:
            spec = spectrum_for(N)
            dm = density_matrix_spectral(spec, be / spec.epsilon0)
            eigs = np.linalg.eigvalsh(dm.rho[1:N, 1:N])
            assert eigs[0] >= -1e-10 * eigs[-1]

    @settings(deadline=None, derandomize=True)
    @given(
        N=st.integers(min_value=2, max_value=80),
        a=st.floats(min_value=1e-2, max_value=10.0),
        log_beta_eps0=st.floats(min_value=-3.0, max_value=2.0),
    )
    def test_symmetric_psd_and_trace_property(self, N, a, log_beta_eps0):
        spec = spectrum_for(N, a)
        beta = 10.0 ** log_beta_eps0 / spec.epsilon0
        dm = density_matrix_spectral(spec, beta)
        assert np.array_equal(dm.rho, dm.rho.T)
        scale = np.max(np.abs(dm.rho))
        assert np.linalg.eigvalsh(dm.rho)[0] >= -(N + 1) * np.finfo(float).eps * scale
        if N % 2:
            assert trace_integral(dm) == pytest.approx(partition_discrete(spec, beta).Z, rel=1e-12)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            density_matrix_spectral(spectrum_for(5), -0.5)


class TestFFTPath:
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 9, 12, 16, 31, 32, 33, 34])
    def test_matches_dense_product_with_exact_structure(self, N):
        spec = spectrum_for(N, 0.3)
        for be in (0.0, 0.8):
            beta = be / spec.epsilon0
            rho = density_matrix_spectral(spec, beta).rho
            ref = density_matrix_dense(spec, beta).rho
            assert np.max(np.abs(rho - ref)) <= 1e-14 * np.max(np.abs(ref)), be
            _assert_exact_structure(rho)

    @settings(deadline=None, derandomize=True)
    @given(
        N=st.integers(min_value=2, max_value=600),
        a=st.floats(min_value=1e-2, max_value=10.0),
        log_beta_eps0=st.floats(min_value=-4.0, max_value=3.0),
    )
    def test_matches_dense_product_property(self, N, a, log_beta_eps0):
        # odd and even N; for even N the n_E = N/2 mode pairs with itself
        spec = spectrum_for(N, a)
        beta = 10.0 ** log_beta_eps0 / spec.epsilon0
        rho = density_matrix_spectral(spec, beta).rho
        ref = density_matrix_dense(spec, beta).rho
        assert np.max(np.abs(rho - ref)) <= 1e-14 * np.max(np.abs(ref))
        _assert_exact_structure(rho)


class TestNormalization:
    def test_divide_by_one_is_identity(self):
        dm = density_matrix_spectral(spectrum_for(7), 2.0)
        dm2 = density_matrix_normalized(dm, 1.0)
        assert np.array_equal(dm.rho, dm2.rho)

    def test_unit_trace_odd_n(self):
        spec = spectrum_for(5)
        beta = 1.3 / spec.epsilon0
        dm = density_matrix_spectral(spec, beta)
        Z = partition_discrete(spec, beta).Z
        assert trace_integral(density_matrix_normalized(dm, Z)) == pytest.approx(1.0, abs=1e-12)

    def test_even_n_trace_anomaly(self):
        # N = 4, beta*eps0 = 1: trace = 1 + e^{-1}/Z with Z = 2e^{-1/2} + e^{-1}
        spec = spectrum_for(4)
        beta = 1.0 / spec.epsilon0
        dm = density_matrix_spectral(spec, beta)
        Z = partition_discrete(spec, beta).Z
        assert Z == pytest.approx(1.5809407605967092, rel=1e-14)
        tr = trace_integral(density_matrix_normalized(dm, Z))
        assert tr == pytest.approx(1.0 + math.exp(-1.0) / Z, abs=1e-12)

    def test_in_place_has_the_bits_of_the_quotient(self):
        dm = density_matrix_spectral(spectrum_for(9), 0.7)
        quotient = dm.rho / 3.7
        assert density_matrix_normalized(dm, 3.7, out=dm.rho).rho is dm.rho
        assert np.array_equal(dm.rho.view(np.int64), quotient.view(np.int64))

    @pytest.mark.parametrize("Z", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_z_outside_zero_to_inf(self, Z):
        # a NaN Z gave an all-NaN matrix and an infinite one an all-zero matrix
        dm = density_matrix_spectral(spectrum_for(5), 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            density_matrix_normalized(dm, Z)


class TestTraceIntegral:
    def test_beta_zero_odd(self):
        dm = density_matrix_spectral(spectrum_for(5), 0.0)
        assert trace_integral(dm) == pytest.approx(4.0, abs=1e-12)

    def test_beta_zero_even_overcounts_once(self):
        dm = density_matrix_spectral(spectrum_for(4), 0.0)
        assert trace_integral(dm) == pytest.approx(4.0, abs=1e-12)

    def test_equals_partition_odd_n(self):
        spec = spectrum_for(7, 0.6)
        for be in (0.3, 1.0, 4.0):
            beta = be / spec.epsilon0
            dm = density_matrix_spectral(spec, beta)
            assert trace_integral(dm) == pytest.approx(partition_discrete(spec, beta).Z, abs=1e-12)

    def test_reads_the_cumulative_antiderivative_not_the_series(self, monkeypatch):
        # antiderivative_series is the paper's series, kept only as the reference of antiderivative
        def series(*args):
            raise AssertionError("antiderivative_series is the reference, not a route")

        monkeypatch.setattr(calculus, "antiderivative_series", series)
        spec = spectrum_for(7, 0.6)
        beta = 1.0 / spec.epsilon0
        assert trace_integral(density_matrix_spectral(spec, beta)) == pytest.approx(
            partition_discrete(spec, beta).Z, abs=1e-12)
        assert calculus.definite_integral(LatticeFunction(np.ones(9)), 2, 7, 0.5) == pytest.approx(2.0, abs=1e-15)


class TestPropagation:
    def test_zero_time_returns_delta(self):
        lat = LatticeSpec(9, 0.5)
        dm = propagate_bloch(lat, NATURAL, 0.0)
        assert np.array_equal(dm.rho[1:9, 1:9], np.eye(8) / 0.5)
        assert np.all(dm.rho[0] == 0.0)

    @pytest.mark.parametrize("N", [11, 21])
    @pytest.mark.parametrize("be", [0.5, 2.0, 5.0])
    def test_matches_spectral(self, N, be):
        lat = LatticeSpec(N)
        spec = build_spectrum(lat, NATURAL)
        beta = be / spec.epsilon0
        steps = max(1000, math.ceil(1000 * be))
        prop = propagate_bloch(lat, NATURAL, beta, steps)
        ref = density_matrix_spectral(spec, beta)
        scale = np.max(np.abs(ref.rho))
        assert np.max(np.abs(prop.rho - ref.rho)) <= 1e-6 * scale

    def test_explicit_example_tolerance(self):
        # N = 21, beta*eps0 = 2, steps = 2000: agreement to 1e-8 absolute
        lat = LatticeSpec(21)
        spec = build_spectrum(lat, NATURAL)
        beta = 2.0 / spec.epsilon0
        prop = propagate_bloch(lat, NATURAL, beta, 2000)
        ref = density_matrix_spectral(spec, beta)
        assert np.max(np.abs(prop.rho - ref.rho)) <= 1e-8

    def test_linearity(self):
        # same dimensionless evolution (equal f = beta*eps0, equal N) applied
        # to initial data delta/a: halving 1/a halves every output entry
        f = 1.25
        lat1 = LatticeSpec(7, 1.0)
        lat2 = LatticeSpec(7, 2.0)
        beta1 = f / NATURAL.energy_scale(1.0)
        beta2 = f / NATURAL.energy_scale(2.0)
        r1 = propagate_bloch(lat1, NATURAL, beta1, 800)
        r2 = propagate_bloch(lat2, NATURAL, beta2, 800)
        assert np.max(np.abs(r2.rho - 0.5 * r1.rho)) < 1e-14

    @pytest.mark.parametrize("beta, steps", [(1.3, 1000), (5.0, 2500)])
    def test_default_steps_are_max_1000_and_1000_f(self, beta, steps):
        # epsilon0 = 1/2 at a = 1, so f = beta epsilon0 is 0.65 and 2.5: the default is
        # max(1000, ceil(1000 f)) steps, and the run is that explicit run bit for bit
        lat = LatticeSpec(9)
        assert np.array_equal(propagate_bloch(lat, NATURAL, beta).rho, propagate_bloch(lat, NATURAL, beta, steps).rho)

    @pytest.mark.parametrize("steps", [1, 2, 64, 1000, 2000, 5000])
    @pytest.mark.parametrize("N", [9, 11, 21])
    def test_powering_matches_stage_loop(self, N, steps):
        # f = beta * eps0 up to 5, with df <= 1/2 for the shortest runs
        lat = LatticeSpec(N)
        beta = min(0.5 * steps, 5.0) / NATURAL.energy_scale(lat.a)
        rho = propagate_bloch(lat, NATURAL, beta, steps).rho
        ref = _rk4_stage_loop(lat, NATURAL, beta, steps)
        assert np.max(np.abs(rho - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N, be, steps", [(31, 200.0, 200_000), (9, 400.0, 400_000)])
    def test_long_run_matches_spectral(self, N, be, steps):
        # at N = 9, be = 400 rho has decayed to ~1e-21: relative accuracy holds
        lat = LatticeSpec(N)
        spec = build_spectrum(lat, NATURAL)
        beta = be / spec.epsilon0
        rho = propagate_bloch(lat, NATURAL, beta, steps).rho
        ref = density_matrix_spectral(spec, beta).rho
        assert np.max(np.abs(rho - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_stability_guard(self):
        lat = LatticeSpec(5)
        # epsilon0 = 1/2, so two steps to beta = 10, 6 and 4 are df = 2.5, 1.5 and 1.0: df = 1 is stable
        for beta in (10.0, 6.0):
            with pytest.raises(ValueError, match="stability bound"):
                propagate_bloch(lat, NATURAL, beta, steps=2)
        assert np.isfinite(propagate_bloch(lat, NATURAL, 4.0, steps=2).rho).all()

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            propagate_bloch(LatticeSpec(5), NATURAL, 1.0, steps=0)

    @pytest.mark.parametrize("N", [2, 9, 64])
    def test_reads_no_spectral_kernel(self, N, monkeypatch):
        # the Bloch route checks the spectral routes only while it reads the stencil alone:
        # no spectrum, no sine table and no FFT
        def spectral(*args, **kwargs):
            raise AssertionError("propagate_bloch reached a spectral kernel")

        for name in ("build_spectrum", "sin_pi_ratio", "dimensionless_energy", "sine_mode_matrix"):
            for module in (spectrum, bloch):
                monkeypatch.setattr(module, name, spectral, raising=False)
        monkeypatch.setattr(np.fft, "rfft", spectral)
        lat = LatticeSpec(N, 0.5)
        rho = propagate_bloch(lat, NATURAL, 2.0 / NATURAL.energy_scale(lat.a)).rho
        assert rho.shape == (N + 1, N + 1) and np.all(np.isfinite(rho))

    @pytest.mark.parametrize("be", [1e-3, 1.0, 100.0])
    @pytest.mark.parametrize("N", [2, 3, 9, 10, 64, 65, 128, 255])
    def test_exact_structure(self, N, be):
        # the two-step stencil never couples the sublattices, so every product of the
        # powering keeps exact zeros on odd n + n', and the symmetrization is exact
        lat = LatticeSpec(N, 0.5)
        _assert_exact_structure(propagate_bloch(lat, NATURAL, be / NATURAL.energy_scale(lat.a)).rho)


class TestBlochResidual:
    def test_spectral_matrix_satisfies_bloch_equation(self):
        # central beta-difference of rho vs eps0 * stencil, interior rows
        N = 15
        spec = spectrum_for(N)
        eps0 = spec.epsilon0
        beta = 2.0 / eps0
        h = 1e-5 * beta
        rp = density_matrix_spectral(spec, beta + h).rho
        rm = density_matrix_spectral(spec, beta - h).rho
        dbeta = (rp - rm) / (2 * h)
        rho = density_matrix_spectral(spec, beta).rho
        stencil = 0.25 * (rho[4:N - 1, :] - 2 * rho[2:N - 3, :] + rho[0:N - 5, :])
        rhs = eps0 * stencil
        lhs = dbeta[2:N - 3, :]
        assert np.max(np.abs(lhs - rhs)) <= 1e-6 * np.max(np.abs(rhs))


class TestContinuumKernel:
    def test_diagonal_value(self):
        val = density_matrix_continuum(0.3, 0.3, 2.0, NATURAL)
        assert val == pytest.approx(math.sqrt(1 / (4 * math.pi)), rel=1e-15)

    def test_symmetry(self):
        assert density_matrix_continuum(0.2, 0.7, 1.5, NATURAL) == density_matrix_continuum(
            0.7, 0.2, 1.5, NATURAL
        )

    def test_unit_offset_natural(self):
        # (2 pi)^{-1/2} e^{-1/2}, scalar oracle
        assert density_matrix_continuum(1.0, 0.0, 1.0, NATURAL) == pytest.approx(
            0.24197072451914337, rel=1e-14
        )

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            density_matrix_continuum(0.0, 0.0, 0.0, NATURAL)
        with pytest.raises(ValueError):
            density_matrix_continuum(0.0, 0.0, math.nan, NATURAL)

    def test_where_the_root_overflows(self):
        # m*/(2 pi beta hbar^2) overflows at beta = 1e-320, but the peak ~ 4e159 is
        # representable, and off the diagonal (Z1 (x - x'))^2 overflows to a 0 tail
        beta = 1e-320
        with mpmath.workdps(40):
            exact = mpmath.sqrt(1 / (2 * mpmath.pi * mpmath.mpf(beta)))
        assert density_matrix_continuum(0.0, 0.0, beta, NATURAL) == pytest.approx(float(exact), rel=4 * EPS, abs=0)
        assert density_matrix_continuum(0.0, 1.0, beta, NATURAL) == 0.0

    def test_diagonal_integral_is_partition(self):
        # trapezoid quadrature of the diagonal over [0, L] equals Z_closed
        L, beta = 1.0, 0.05
        xs = np.linspace(0.0, L, 2001)
        diag = np.array([density_matrix_continuum(x, x, beta, NATURAL) for x in xs])
        Zc = L * math.sqrt(1 / (2 * math.pi * beta))
        assert np.trapezoid(diag, xs) == pytest.approx(Zc, rel=1e-12)


class TestContinuumLimitOfLattice:
    def test_sublattice_checkerboard_is_exact(self):
        # the 2-step stencil decouples even/odd sublattices: entries with odd
        # n + n' vanish identically (mirror modes n_E and N - n_E cancel there)
        N = 33
        spec = spectrum_for(N, 1.0 / N)
        dm = density_matrix_spectral(spec, 0.2 * 2 / math.pi ** 2)
        scale = np.max(np.abs(dm.rho))
        for n in range(1, N):
            for npr in range(1 + (n % 2 == 0), N, 2):
                if (n + npr) % 2 == 1:
                    assert abs(dm.rho[n, npr]) < 1e-13 * scale

    def test_even_sublattice_converges_to_doubled_gaussian(self):
        # on the carrying sublattice the amplitude tends to twice the free
        # Gaussian kernel (each of the two decoupled sublattices carries the
        # full delta weight); the error falls as O(1/N^2)
        L, mu = 1.0, 0.1
        beta = mu * 2 * L * L / math.pi ** 2
        errs = []
        for N in (65, 129, 257):
            lat = LatticeSpec(N, L / N)
            dm = density_matrix_spectral(build_spectrum(lat, NATURAL), beta)
            n = round(N / 3)
            npr = round(N / 2)
            if (n + npr) % 2 == 1:
                npr += 1
            target = 2.0 * density_matrix_continuum(n * lat.a, npr * lat.a, beta, NATURAL)
            errs.append(abs(dm.rho[n, npr] - target))
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0
