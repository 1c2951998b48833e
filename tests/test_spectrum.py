"""Spectrum of the hard-wall lattice well: closed form vs matrix diagonalization."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewell.bloch import DensityMatrix, propagate_bloch
from latticewell.calculus import centered_diff1, centered_diff2, definite_integral
from latticewell.lattice import LatticeFunction, LatticeSpec
from latticewell.spectrum import (
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

NATURAL = ParticleSpec.natural()
#: (n + 1)^2 on sites 0..6, nonzero on both walls, so the stencils see the zero extension beyond them.
SQUARES = LatticeFunction([(n + 1.0) ** 2 for n in range(7)])


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(1)
    with pytest.raises(ValueError):
        LatticeSpec(5, -0.1)
    lat = LatticeSpec(8, 0.5)
    assert lat.L == 4.0
    assert lat.coords().tolist() == [0.5 * n for n in range(9)]  # sites 0..N, no more


@pytest.mark.parametrize("call, expected", [
    (lambda: centered_diff1(SQUARES, 0, 0.5), 4.0),
    (lambda: centered_diff1(SQUARES, 6, 0.5), -36.0),
    (lambda: centered_diff2(SQUARES, 0, 0.5), 7.0),
    (lambda: centered_diff2(SQUARES, 1, 0.5), 8.0),
    (lambda: centered_diff2(SQUARES, 5, 0.5), -56.0),
    (lambda: centered_diff2(SQUARES, 6, 0.5), -73.0),
    (lambda: eigenfunction(7, LatticeSpec(5)), ValueError),
    (lambda: continuum_limit_error(8, 8), ValueError),
    (lambda: DensityMatrix(np.zeros((4, 4)), LatticeSpec(4)), ValueError),
    (lambda: propagate_bloch(LatticeSpec(4), NATURAL, -1.0), ValueError),
    (lambda: LatticeFunction([1.0, 2.0]), ValueError),
], ids=["diff1-site-0", "diff1-site-N", "diff2-site-0", "diff2-site-1", "diff2-site-N-1", "diff2-site-N",
        "eigenfunction-foreign-mode", "continuum-error-n-N", "density-matrix-shape", "bloch-negative-beta",
        "lattice-function-2-values"])
def test_wall_stencils_and_input_checks(call, expected):
    # beyond the walls f is 0, so f(-1) = f(N+1) = 0 enter the centered differences
    if isinstance(expected, float):
        assert call() == expected
    else:
        with pytest.raises(expected):
            call()


def test_particle_spec_validation():
    for bad in ((0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, -1.054e-34, 1.0), (1.0, 1.0, 0.0),
                (1.0, 1.0, -1.38e-23), (1.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            ParticleSpec(*bad)
    assert ParticleSpec.natural() == ParticleSpec(1.0, 1.0, 1.0)
    p = ParticleSpec.si(9.1e-31)
    assert (p.hbar, p.k_B) == (1.054e-34, 1.38e-23)
    assert ParticleSpec.si() == ParticleSpec(9.1e-31, 1.054e-34, 1.38e-23)


def test_sin_pi_ratio_exact_zeros_and_symmetry():
    for N in (5, 8, 101):
        assert sin_pi_ratio(0, N) == 0.0
        assert sin_pi_ratio(N, N) == 0.0
        assert sin_pi_ratio(7 * N, N) == 0.0
        for k in range(1, N):
            assert sin_pi_ratio(k, N) == sin_pi_ratio(N - k, N)
            assert sin_pi_ratio(k + 2 * N, N) == sin_pi_ratio(k, N)
            assert sin_pi_ratio(k + N, N) == -sin_pi_ratio(k, N)
        # an integer array gives the scalar values, and every zero is +0.0
        k = np.arange(-3 * N, 3 * N + 1)
        values = sin_pi_ratio(k, N)
        assert values.tolist() == [sin_pi_ratio(int(i), N) for i in k]
        zeros = values[k % N == 0]
        assert zeros.size == 7 and np.all(zeros == 0.0)
        assert all(math.copysign(1.0, z) == 1.0 for z in zeros.tolist() + [sin_pi_ratio(N, N)])


@pytest.mark.parametrize("N", [7, 8])
def test_sine_mode_matrix_gathers_sin_pi_ratio_bitwise(N):
    expected = np.array([[sin_pi_ratio(j * n, N) for n in range(N + 1)] for j in range(1, N)])
    assert sine_mode_matrix(N).tobytes() == expected.tobytes()


class TestEnergies:
    def test_band_edge_n2(self):
        lat = LatticeSpec(2)
        eps0 = NATURAL.energy_scale(lat.a)
        assert energy_discrete(1, lat, NATURAL) == eps0

    def test_half_band_n4(self):
        lat = LatticeSpec(4)
        eps0 = NATURAL.energy_scale(lat.a)
        assert energy_discrete(1, lat, NATURAL) == pytest.approx(0.5 * eps0, rel=1e-15)

    def test_large_lattice_near_continuum(self):
        lat = LatticeSpec(1000)
        eps0 = NATURAL.energy_scale(lat.a)
        e_d = energy_discrete(1, lat, NATURAL)
        assert e_d == pytest.approx(eps0 * math.sin(math.pi / 1000) ** 2, rel=1e-15)
        e_c = energy_continuum(1, lat.L, NATURAL)
        assert abs(e_d / e_c - 1) < 3.3e-6

    def test_rejects_bad_quantum_numbers(self):
        lat = LatticeSpec(6)
        for bad in (0, -1, 6, 7):
            with pytest.raises(ValueError):
                energy_discrete(bad, lat, NATURAL)
        with pytest.raises(ValueError):
            energy_continuum(0, 1.0, NATURAL)

    def test_continuum_value_natural_units(self):
        # hbar = m* = 1, L = 1: E_1 = pi^2/2, scalar oracle
        assert energy_continuum(1, 1.0, NATURAL) == pytest.approx(4.934802200544679, rel=1e-15)
        assert energy_continuum(2, 1.0, NATURAL) == pytest.approx(4 * energy_continuum(1, 1.0, NATURAL))

    def test_continuum_value_where_hbar_squared_pi_squared_overflows(self):
        # hbar^2 = 1e308 is finite, hbar^2 pi^2 is not; the energy scale divides by 2 m* L^2 first
        particle, L = ParticleSpec.si(hbar=1e154), 4e160
        with mpmath.workdps(40):
            exact = mpmath.mpf(1e154) ** 2 * mpmath.pi ** 2 / (2 * mpmath.mpf(9.1e-31) * mpmath.mpf(L) ** 2)
            assert energy_continuum(1, L, particle) == pytest.approx(float(exact), rel=2 * np.finfo(float).eps)

    def test_continuum_value_that_overflows_is_named(self):
        # at N = 24 the lattice E is at most epsilon = 1/(2 a^2) ~ 2.7e307, finite; pi^2 n_E^2 times
        # hbar^2/(2 m* L^2) ~ 4.6e304 is not from n_E = 20 on
        L, n_E = 3.286117576999689e-153, np.arange(1, 24)
        with pytest.raises(OverflowError, match="E_continuum"):
            energy_continuum(n_E, L, NATURAL)
        finite = n_E[:19]
        assert np.array_equal(energy_continuum(finite, L, NATURAL),
                              NATURAL.energy_scale(L) * math.pi ** 2 * finite * finite)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_energies_are_covariant_and_epsilon0_near_mpmath(self, data):
        # (a, hbar) -> (2^k a, 2^k hbar) leaves epsilon0, every lattice E and every E_continuum
        # bit for bit; epsilon0 = hbar hbar/(2 m* a a), 4 roundings of significands, is within
        # 2 eps of its 40-digit value wherever that is a normal float, and raises where it overflows
        def outcome(fn, *args):
            try:
                return fn(*args)
            except OverflowError:
                return OverflowError

        def same(x, y):
            return np.array_equal(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else x == y

        power = lambda lo, hi: st.floats(lo, hi).map(lambda u: 10.0 ** u)
        N, a = data.draw(st.integers(2, 64)), data.draw(power(-150, 150))
        particle = ParticleSpec.si(m_star=data.draw(power(-300, 300)), hbar=data.draw(power(-200, 200)))
        ea, eh = math.frexp(a)[1], math.frexp(particle.hbar)[1]  # normal floats have exponents -1021..1024
        k = data.draw(st.integers(max(-200, -1021 - ea, -1021 - eh), min(200, 1024 - ea, 1024 - eh)))
        scaled = ParticleSpec.si(m_star=particle.m_star, hbar=math.ldexp(particle.hbar, k))
        lat, lat2 = LatticeSpec(N, a), LatticeSpec(N, math.ldexp(a, k))
        eps0 = outcome(particle.energy_scale, a)
        assert same(eps0, outcome(scaled.energy_scale, lat2.a))
        assert same(outcome(lambda: build_spectrum(lat, particle).energies),
                    outcome(lambda: build_spectrum(lat2, scaled).energies))
        n_E = np.arange(1, N)
        assert same(outcome(energy_continuum, n_E, lat.L, particle), outcome(energy_continuum, n_E, lat2.L, scaled))
        with mpmath.workdps(40):
            exact = float(mpmath.mpf(particle.hbar) ** 2 / (2 * mpmath.mpf(particle.m_star) * mpmath.mpf(a) ** 2))
        if exact == math.inf:
            assert eps0 is OverflowError
        elif exact >= np.finfo(float).tiny:
            assert abs(eps0 - exact) <= 2 * np.finfo(float).eps * exact

    def test_degeneracy_exact(self):
        for N in (7, 12, 101):
            lat = LatticeSpec(N)
            for j in range(1, N):
                assert energy_discrete(j, lat, NATURAL) == energy_discrete(N - j, lat, NATURAL)

    def test_band_bounds(self):
        for N in (5, 16, 101):
            lat = LatticeSpec(N, 0.3)
            eps0 = NATURAL.energy_scale(lat.a)
            for j in range(1, N):
                e_d = energy_discrete(j, lat, NATURAL)
                assert 0.0 < e_d <= eps0
                assert e_d <= energy_continuum(j, lat.L, NATURAL)


class TestSpectrumObject:
    def test_mode_count(self):
        for N in (2, 5, 30):
            spec = build_spectrum(LatticeSpec(N), NATURAL)
            assert len(spec.n_E) == N - 1
            assert spec.e_tilde.shape == (N - 1,)

    def test_energies_are_formed_once_read_only_with_the_same_bits(self):
        spec = build_spectrum(LatticeSpec(9, 0.3), NATURAL)
        E = spec.energies
        assert spec.energies is E and not E.flags.writeable
        assert np.array_equal(E, spec.epsilon0 * spec.e_tilde)
        with pytest.raises(ValueError):
            E[0] = 0.0

    def test_e_tilde_is_read_only_whatever_array_it_is_built_from(self):
        # energies is cached from e_tilde, so a write to e_tilde would go unseen by it
        e_tilde = dimensionless_energy(np.arange(1, 5), 5)
        spec = Spectrum(LatticeSpec(5), NATURAL, e_tilde - e_tilde[0])
        assert not spec.e_tilde.flags.writeable
        with pytest.raises(ValueError):
            spec.e_tilde[0] = 1.0

    def test_energies_raise_where_the_energy_scale_overflows(self):
        # the spectrum is built, and the overflow raises at the first read of the energies
        spec = build_spectrum(LatticeSpec(4, 1e-160), NATURAL)
        for _ in range(2):
            with pytest.raises(OverflowError, match="energy scale"):
                spec.energies

    def test_norm_constants(self):
        # the constant is psi(1) / sin(pi n_E / N), and sin(pi n_E / N) = sin(pi (N - n_E) / N)
        lat = LatticeSpec(10, 0.5)
        L = 5.0
        for n_E in range(1, 10):
            expected = 1 / math.sqrt(L) if n_E == 5 else math.sqrt(2 / L)
            sine = math.sin(math.pi * min(n_E, 10 - n_E) / 10)
            assert eigenfunction(n_E, lat)(1) / sine == pytest.approx(expected, rel=1e-15)

    def test_mode_lookup(self):
        spec = build_spectrum(LatticeSpec(9), NATURAL)
        n_E = spec.mode(np.int64(3))
        assert n_E == 3 and type(n_E) is int
        for bad in (0, 9):
            with pytest.raises(ValueError, match=f"n_E={bad} outside \\[1, 8\\]"):
                spec.mode(bad)
            with pytest.raises(ValueError, match=f"n_E={bad} outside \\[1, 8\\]"):
                eigenfunction(bad, LatticeSpec(9))

    def test_mode_lookup_feeds_eigenfunction(self):
        # the path eigenfunction(spec.mode(n_E), lattice) gives the same bits as eigenfunction(n_E, lattice)
        for N in (2, 9, 10):
            lat = LatticeSpec(N, 0.3)
            spec = build_spectrum(lat, NATURAL)
            for n_E in spec.n_E:
                assert np.array_equal(eigenfunction(spec.mode(n_E), lat).values, eigenfunction(n_E, lat).values)


class TestEigenfunctions:
    def test_n2_midpoint(self):
        # N = 2 has a single mode, and it is the half-band mode n_E = N/2:
        # its square integrates to a*N, so the constant is 1/sqrt(L)
        lat = LatticeSpec(2)
        psi = eigenfunction(1, lat)
        assert psi(1) == pytest.approx(1 / math.sqrt(lat.L), rel=1e-15)
        sq = LatticeFunction(psi.values ** 2)
        assert definite_integral(sq, 0, 2, lat.a) == pytest.approx(1.0, abs=1e-15)

    def test_boundary_zeros_exact(self):
        for N in (5, 10, 33):
            lat = LatticeSpec(N, 0.7)
            for n_E in range(1, N):
                psi = eigenfunction(n_E, lat)
                assert psi(0) == 0.0
                assert psi(N) == 0.0

    def test_discrete_schroedinger_residual(self):
        # stencil eigen-relation on interior sites, tolerance 1e-12 * max|psi|
        for N in (10, 47, 200):
            lat = LatticeSpec(N)
            spec = build_spectrum(lat, NATURAL)
            for n_E, e_tilde in zip(spec.n_E, spec.e_tilde):
                psi = eigenfunction(n_E, lat)
                top = np.max(np.abs(psi.values))
                for n in range(2, N - 1):
                    resid = 0.25 * (psi(n + 2) - 2 * psi(n) + psi(n - 2)) + e_tilde * psi(n)
                    assert abs(resid) <= 1e-12 * top

    def test_unit_normalization_all_modes(self):
        # includes the n_E = N/2 mode with its 1/sqrt(L) constant
        for N in (9, 10, 21):
            lat = LatticeSpec(N, 0.4)
            for n_E in range(1, N):
                psi = eigenfunction(n_E, lat)
                sq = LatticeFunction(psi.values ** 2)
                assert definite_integral(sq, 0, N, lat.a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality_except_mirror_pairs(self):
        for N in (9, 12):
            lat = LatticeSpec(N)
            for j in range(1, N):
                for k in range(j + 1, N):
                    fj = eigenfunction(j, lat)
                    fk = eigenfunction(k, lat)
                    prod = LatticeFunction(fj.values * fk.values)
                    overlap = definite_integral(prod, 0, N, lat.a)
                    if j + k == N:
                        # mirror modes coincide on the odd sites, so the
                        # odd-site quadrature sees a full unit overlap
                        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
                    else:
                        assert overlap == pytest.approx(0.0, abs=1e-12)


class TestHamiltonianMatrix:
    def test_n4_entries(self):
        # rows assembled by hand with the odd-reflection ghost closure; N = 3
        # has both ghost corrections and no neighbours two sites apart
        for N, expected in (
            (3, [[0.75, 0.0], [0.0, 0.75]]),
            (4, [[0.75, 0.0, -0.25], [0.0, 0.5, 0.0], [-0.25, 0.0, 0.75]]),
        ):
            assert np.array_equal(build_hamiltonian_matrix(LatticeSpec(N)), np.array(expected))

    def test_n2_single_site(self):
        M = build_hamiltonian_matrix(LatticeSpec(2))
        assert np.array_equal(M, np.array([[1.0]]))

    def test_symmetry(self):
        for N in (2, 3, 4, 5, 10, 101, 500):
            M = build_hamiltonian_matrix(LatticeSpec(N))
            assert np.array_equal(M, M.T)

    def test_sine_modes_are_exact_eigenvectors(self):
        for N in (6, 15):
            M = build_hamiltonian_matrix(LatticeSpec(N))
            for j in range(1, N):
                v = np.array([sin_pi_ratio(j * n, N) for n in range(1, N)])
                et = dimensionless_energy(j, N)
                assert np.max(np.abs(M @ v - et * v)) < 1e-14


class TestNumericSpectrum:
    def test_n4_hand_diagonalization(self):
        # 3x3 characteristic polynomial factors as (1/2 - t)((3/4 - t)^2 - 1/16)
        eigs = numeric_spectrum(build_hamiltonian_matrix(LatticeSpec(4)))
        assert eigs == pytest.approx([0.5, 0.5, 1.0], abs=1e-12)

    def test_n2(self):
        eigs = numeric_spectrum(build_hamiltonian_matrix(LatticeSpec(2)))
        assert eigs == pytest.approx([1.0], abs=1e-15)

    @pytest.mark.parametrize("N", [4, 10, 101, 200])
    def test_matches_closed_form(self, N):
        eigs = numeric_spectrum(build_hamiltonian_matrix(LatticeSpec(N)))
        expected = np.sort([dimensionless_energy(j, N) for j in range(1, N)])
        assert np.max(np.abs(eigs - expected)) < 1e-10

    def test_rejects_asymmetric(self):
        M = np.array([[1.0, 2e-12], [0.0, 1.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            numeric_spectrum(M)
        # an asymmetry of exactly 1e-12 does not exceed the tolerance
        assert numeric_spectrum(np.array([[1.0, 1e-12], [0.0, 1.0]])) == pytest.approx([1.0, 1.0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            numeric_spectrum(np.zeros((2, 3)))


class TestContinuumLimit:
    def test_error_vanishes_for_small_modes(self):
        assert continuum_limit_error(1, 10 ** 6) < 1e-11

    def test_n100_taylor_value(self):
        # oracle: 1 - (sin x / x)^2 at x = pi/100, vs leading term x^2/3
        err = continuum_limit_error(1, 100)
        assert err == pytest.approx(3.2894352349244205e-4, rel=1e-12)
        assert abs(err - (math.pi / 100) ** 2 / 3) < 1e-3 * err

    def test_second_order_halving(self):
        for N in (50, 100, 400):
            ratio = continuum_limit_error(1, N) / continuum_limit_error(1, 2 * N)
            assert 3.5 < ratio < 4.5

    def test_eigenfunction_residual_cross_check(self):
        # centered_diff2 route: (d2 psi)(n) = -(2 m E / hbar^2) psi(n)
        lat = LatticeSpec(12, 0.5)
        spec = build_spectrum(lat, NATURAL)
        psi = eigenfunction(3, lat)
        coeff = 2.0 * NATURAL.m_star * spec.energies[2] / NATURAL.hbar ** 2
        for n in range(2, 11):
            lhs = centered_diff2(psi, n, lat.a)
            assert lhs == pytest.approx(-coeff * psi(n), abs=1e-12)
