"""Density matrices: spectral sum vs imaginary-time propagation, continuum kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewell import (
    LatticeSpec,
    ParticleSpec,
    density_matrix_continuum,
    density_matrix_normalized,
    density_matrix_spectral,
    partition_discrete,
    propagate_bloch,
    build_spectrum,
    trace_integral,
)

NATURAL = ParticleSpec.natural()


def spectrum_for(N, a=1.0):
    return build_spectrum(LatticeSpec(N, a), NATURAL)


class TestSpectralConstruction:
    @pytest.mark.parametrize("N", [5, 9, 21])
    def test_beta_zero_completeness_odd(self, N):
        a = 0.7
        dm = density_matrix_spectral(spectrum_for(N, a), 0.0)
        interior = dm.rho[1:N, 1:N]
        assert np.max(np.abs(interior - np.eye(N - 1) / a)) < 1e-10

    def test_beta_zero_completeness_even(self):
        # the sine basis has equal norms for every N, so the delta works for
        # even N too; only the trace quadrature overcounts
        dm = density_matrix_spectral(spectrum_for(8, 0.5), 0.0)
        assert np.max(np.abs(dm.rho[1:8, 1:8] - np.eye(7) / 0.5)) < 1e-10

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
        w = math.exp(-beta * spec.mode(1).energy)
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

    def test_rejects_nonpositive_z(self):
        dm = density_matrix_spectral(spectrum_for(5), 1.0)
        with pytest.raises(ValueError):
            density_matrix_normalized(dm, 0.0)


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

    def test_stability_guard(self):
        lat = LatticeSpec(5)
        with pytest.raises(ValueError):
            propagate_bloch(lat, NATURAL, 10.0, steps=2)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            propagate_bloch(LatticeSpec(5), NATURAL, 1.0, steps=0)


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
