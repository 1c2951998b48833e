"""Partition functions, mean energy, free energy, and the two-level heat capacity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewell import (
    LatticeSpec,
    ParticleSpec,
    PartitionResult,
    SeriesCapExceeded,
    build_spectrum,
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
from latticewell.thermo import SERIES_CAP, SERIES_RTOL, _gaussian_series

NATURAL = ParticleSpec.natural()

# Worked SI example: free electron in a 100 angstrom well at 300 K.  The
# library's hbar/k_B defaults are the rounded values 1.054e-34 and 1.38e-23;
# the unrounded electron mass is needed to land on the frozen outputs below.
ELECTRON = ParticleSpec.si(9.10938e-31)
L_WELL = 100e-10
BETA_300K = 1.0 / (1.38e-23 * 300.0)


def spectrum_for(N, a=1.0):
    return build_spectrum(LatticeSpec(N, a), NATURAL)


def beta_for_mu(mu, L=1.0):
    # natural units: mu = beta * pi^2 / (2 L^2)
    return mu * 2.0 * L * L / math.pi ** 2


EPS = np.finfo(float).eps


def _gaussian_series_reference(c):
    """The per-term loop: libm exp, sequential sum, same stop rule and cap."""
    total = 0.0
    for n in range(1, SERIES_CAP + 1):
        term = math.exp(-c * n * n)
        total += term
        if term <= SERIES_RTOL * total:
            return total
    raise SeriesCapExceeded(c)


class TestPartitionDiscrete:
    def test_beta_zero_counts_modes(self):
        assert partition_discrete(spectrum_for(5), 0.0).Z == 4.0

    def test_n4_frozen_value(self):
        # oracle: 2 e^{-1/2} + e^{-1}
        spec = spectrum_for(4)
        Z = partition_discrete(spec, 1.0 / spec.epsilon0).Z
        assert Z == pytest.approx(1.5809407605967092, rel=1e-14)

    def test_strictly_decreasing_in_beta(self):
        spec = spectrum_for(9)
        zs = [partition_discrete(spec, b).Z for b in np.linspace(0.0, 20.0, 15)]
        assert all(z1 > z2 for z1, z2 in zip(zs, zs[1:]))

    def test_ground_pair_dominates_at_low_temperature(self):
        spec = spectrum_for(4)
        beta = 100.0 / spec.epsilon0
        Z = partition_discrete(spec, beta).Z
        assert Z / (2.0 * math.exp(-beta * spec.mode(1).energy)) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            partition_discrete(spectrum_for(5), -1.0)

    def test_result_fields(self):
        spec = spectrum_for(6)
        res = partition_discrete(spec, 2.0)
        assert res.mu is None
        assert res.free_energy == pytest.approx(-math.log(res.Z) / 2.0)


class TestPartitionContinuum:
    def test_mu_one_frozen_sum(self):
        # oracle: direct summation of exp(-n^2)
        beta = beta_for_mu(1.0)
        res = partition_continuum_sum(1.0, NATURAL, beta)
        assert res.mu == pytest.approx(1.0, rel=1e-14)
        assert res.Z == pytest.approx(0.3863186024133261, rel=1e-13)

    def test_electron_example(self):
        res = partition_continuum_sum(L_WELL, ELECTRON, BETA_300K)
        assert res.mu == pytest.approx(0.1453657, abs=2e-6)
        assert res.Z == pytest.approx(1.8244170, abs=2e-6)

    def test_decreasing_in_beta(self):
        zs = [partition_continuum_sum(1.0, NATURAL, b).Z for b in (0.01, 0.05, 0.2, 1.0)]
        assert all(z1 > z2 for z1, z2 in zip(zs, zs[1:]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        log_mu=st.floats(min_value=-10.0, max_value=math.log10(20.0)),
        step=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_strictly_decreasing_in_beta_property(self, log_mu, step):
        # mu in [1e-10, 20] spans head-only series and long NumPy-tail series
        b1 = beta_for_mu(10.0 ** log_mu)
        b2 = b1 * (1.0 + step)
        assert partition_continuum_sum(1.0, NATURAL, b1).Z > partition_continuum_sum(1.0, NATURAL, b2).Z

    def test_closed_form_electron(self):
        res = partition_continuum_closed(L_WELL, ELECTRON, BETA_300K)
        assert res.Z == pytest.approx(2.3244170, abs=2e-6)

    def test_closed_equals_half_sqrt_pi_over_mu(self):
        for mu in (0.05, 0.3, 2.0):
            beta = beta_for_mu(mu)
            res = partition_continuum_closed(1.0, NATURAL, beta)
            assert res.Z == pytest.approx(0.5 * math.sqrt(math.pi / mu), rel=1e-13)

    def test_closed_linear_in_width(self):
        beta = 0.37
        z1 = partition_continuum_closed(1.0, NATURAL, beta).Z
        z2 = partition_continuum_closed(2.0, NATURAL, beta).Z
        assert z2 == pytest.approx(2 * z1, rel=1e-15)

    def test_rejects_nonpositive_beta(self):
        for fn in (partition_continuum_sum, partition_continuum_closed, partition_theta):
            with pytest.raises(ValueError):
                fn(1.0, NATURAL, 0.0)

    def test_series_cap(self):
        # mu ~ 1e-11 needs ~2.5e6 terms, beyond the 1e6 cap
        with pytest.raises(SeriesCapExceeded):
            partition_continuum_sum(1.0, NATURAL, beta_for_mu(1e-11))


class TestTheta:
    def test_mu_one_frozen(self):
        assert theta3(1.0) == pytest.approx(1.772637204826652, rel=1e-13)

    def test_large_mu_two_terms(self):
        mu = 30.0
        assert theta3(mu) == pytest.approx(1.0 + 2.0 * math.exp(-mu), rel=1e-15)

    def test_small_mu_gaussian_asymptote(self):
        mu = 0.01
        assert theta3(mu) == pytest.approx(math.sqrt(math.pi / mu), rel=1e-12)

    def test_poisson_identity_across_range(self):
        for mu in np.geomspace(0.05, 20.0, 25):
            d = theta3(float(mu))
            p = theta3_poisson(float(mu))
            assert abs(d - p) <= 1e-12 * d

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(log_mu=st.floats(min_value=-10.0, max_value=math.log10(20.0)))
    def test_poisson_identity_property(self, log_mu):
        # a sequential sum of n positive terms is within ~n eps of exact
        mu = 10.0 ** log_mu
        n_terms = math.ceil(math.sqrt(37.0 / mu))
        d = theta3(mu)
        assert abs(d - theta3_poisson(mu)) <= (n_terms + 4) * EPS * d

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            theta3(0.0)
        with pytest.raises(ValueError):
            theta3_poisson(-1.0)

    def test_partition_theta_matches_sum(self):
        for mu in (0.05, 0.145, 1.0, 5.0):
            beta = beta_for_mu(mu)
            zt = partition_theta(1.0, NATURAL, beta).Z
            zs = partition_continuum_sum(1.0, NATURAL, beta).Z
            assert abs(zt - zs) <= 1e-9 * zs

    def test_theta_vs_closed_constant(self):
        # Z_closed - Z_theta -> 1/2 with exponentially small corrections
        for mu in (0.05, 0.1, 0.145, 0.15):
            beta = beta_for_mu(mu)
            zc = partition_continuum_closed(1.0, NATURAL, beta).Z
            zt = partition_theta(1.0, NATURAL, beta).Z
            assert zc - zt == pytest.approx(0.5, abs=1e-4)


class TestGaussianSeries:
    """The blocked kernel against the per-term loop it replaced."""

    def test_head_series_equal_reference(self):
        # series that stop within the libm head are bit-identical, which keeps
        # the goldens; the four partition.csv betas at N = 6 among them
        golden = [theta_argument(6.0, NATURAL, float(b)) for b in np.linspace(0.5, 4.0, 4)]
        for c in [*np.geomspace(0.01, 50.0, 40).tolist(), *golden]:
            assert _gaussian_series(c) == _gaussian_series_reference(c)

    def test_long_series_within_16_eps(self):
        # np.exp is within 1 ulp of libm's exp, and the sum order is the same
        for c in np.geomspace(1e-10, 10.0, 41).tolist():
            ref = _gaussian_series_reference(c)
            assert abs(_gaussian_series(c) - ref) <= 16 * EPS * ref

    def test_cap_decision_matches_reference(self):
        # the 1e6-term cap falls at c ~ 2.47511e-11
        inside, outside = 2.4752e-11, 2.4750e-11
        ref = _gaussian_series_reference(inside)
        assert abs(_gaussian_series(inside) - ref) <= 16 * EPS * ref
        for fn in (_gaussian_series, _gaussian_series_reference):
            with pytest.raises(SeriesCapExceeded):
                fn(outside)


class TestMeanEnergy:
    def test_zero_beta_limit_n4(self):
        # all weights are 1 at beta = 0: the unweighted spectral mean
        spec = spectrum_for(4)
        assert mean_energy(spec, 0.0) == pytest.approx(
            (2.0 / 3.0) * spec.epsilon0, rel=1e-15
        )

    def test_ground_state_dominance(self):
        spec = spectrum_for(8)
        beta = 300.0 / spec.epsilon0
        assert mean_energy(spec, beta) == pytest.approx(spec.mode(1).energy, rel=1e-12)

    def test_matches_log_derivative_of_partition(self):
        # central difference of ln Z with relative step 1e-4 as oracle
        for N, be in [(11, 0.5), (21, 2.0), (34, 5.0)]:
            spec = spectrum_for(N)
            beta = be / spec.epsilon0
            h = 1e-4 * beta
            zp = partition_discrete(spec, beta + h).Z
            zm = partition_discrete(spec, beta - h).Z
            fd = -(math.log(zp) - math.log(zm)) / (2 * h)
            assert mean_energy(spec, beta) == pytest.approx(fd, rel=1e-6)

    def test_continuum_equipartition(self):
        beta = beta_for_mu(0.01)
        assert mean_energy_continuum(1.0, NATURAL, beta) == pytest.approx(
            1.0 / (2 * beta), rel=1e-4
        )

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            mean_energy(spectrum_for(5), -0.5)
        with pytest.raises(ValueError):
            mean_energy_continuum(1.0, NATURAL, -1.0)

    def test_variance_nonnegative(self):
        # -d<H>/dbeta = Var(H) >= 0, finite differences at random betas
        spec = spectrum_for(13)
        rng = np.random.default_rng(2)
        for beta in rng.uniform(0.1, 30.0, size=10):
            h = 1e-4 * beta
            dm = (mean_energy(spec, beta + h) - mean_energy(spec, beta - h)) / (2 * h)
            assert dm <= 1e-12


class TestFreeEnergy:
    def test_unit_partition(self):
        assert PartitionResult(1.0, 2.0).free_energy == 0.0

    def test_e_partition(self):
        res = PartitionResult(math.e, 2.0)
        assert res.free_energy == pytest.approx(-0.5, rel=1e-15)

    def test_electron_value(self):
        # F = -k_B T ln Z at Z = 1.8245, T = 300 K, scalar oracle
        res = PartitionResult(1.8245, BETA_300K)
        assert res.free_energy == pytest.approx(-2.4894067443426725e-21, rel=1e-12)

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            PartitionResult(2.0, 0.0).free_energy

    def test_underflowed_discrete_partition(self):
        # Z underflows to 0 at beta = 1e5; ln Z from the ground state up does not
        spec = spectrum_for(6)
        beta = 1e5
        res = partition_discrete(spec, beta)
        E = spec.energies.tolist()
        E0 = min(E)
        expected = E0 - math.log(math.fsum(math.exp(-beta * (e - E0)) for e in E)) / beta
        assert res.Z == 0.0
        assert res.free_energy == pytest.approx(expected, rel=1e-12)

    def test_convexity_of_log_partition(self):
        # ln Z decreasing and convex in beta (finite differences)
        spec = spectrum_for(9)
        rng = np.random.default_rng(8)
        for beta in rng.uniform(0.2, 25.0, size=10):
            h = 1e-3 * beta
            lz = [math.log(partition_discrete(spec, b).Z) for b in (beta - h, beta, beta + h)]
            assert lz[2] < lz[0]  # decreasing
            assert lz[0] - 2 * lz[1] + lz[2] >= -1e-12  # convex


class TestTwoLevel:
    def test_rejects_small_lattices(self):
        for N in (2, 3, 4):
            with pytest.raises(ValueError):
                characteristic_temperature(spectrum_for(N))


class TestHeatCapacity:
    def test_characteristic_temperature_n6(self):
        # |sin^2(pi/6) - sin^2(2pi/6)| = 1/2, so Theta = eps0/4 at k_B = 1
        spec = spectrum_for(6)
        assert characteristic_temperature(spec) == pytest.approx(0.25 * spec.epsilon0, rel=1e-14)

    def test_theta_scales_with_energy_scale(self):
        t1 = characteristic_temperature(build_spectrum(LatticeSpec(6, 1.0), NATURAL))
        t2 = characteristic_temperature(build_spectrum(LatticeSpec(6, 2.0), NATURAL))
        assert t1 == pytest.approx(4 * t2, rel=1e-14)

    def test_theta_vanishes_for_fine_lattices(self):
        # Taylor: |Delta E| -> 3 pi^2 eps0 / N^2
        N = 2000
        spec = spectrum_for(N)
        expected = 1.5 * math.pi ** 2 * spec.epsilon0 / N ** 2
        assert characteristic_temperature(spec) == pytest.approx(expected, rel=1e-2)

    def test_tails_vanish(self):
        spec = spectrum_for(6)
        theta = characteristic_temperature(spec)
        assert heat_capacity_two_level(spec, theta / 0.03) < 1e-3
        assert heat_capacity_two_level(spec, theta / 15.0) < 1e-3
        assert heat_capacity_two_level(spec, theta / 800.0) == 0.0

    def test_peak_against_bisection_oracle(self):
        # independent oracle: solve x tanh x = 1 by bisection, then compare
        # the curve maximum over a fine temperature grid
        lo, hi = 1.0, 1.5
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid * math.tanh(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        x_star = 0.5 * (lo + hi)
        c_star = (x_star / math.cosh(x_star)) ** 2
        assert x_star == pytest.approx(1.1996786402577338, abs=1e-10)
        assert c_star == pytest.approx(0.4392288398906451, abs=1e-12)

        spec = spectrum_for(6)
        theta = characteristic_temperature(spec)
        temps = np.geomspace(theta / 15.0, theta / 0.03, 600)
        curve = [heat_capacity_two_level(spec, float(T)) for T in temps]
        assert max(curve) == pytest.approx(c_star, abs=1e-3)
        assert heat_capacity_two_level(spec, theta / x_star) == pytest.approx(c_star, rel=1e-12)

    def test_matches_second_log_derivative(self):
        # C_V/R = beta^2 d^2 ln Z2 / dbeta^2, central differences step 1e-3*beta
        spec = spectrum_for(6)
        for x in (0.3, 1.2, 4.0):
            theta = characteristic_temperature(spec)
            T = theta / x
            beta = 1.0 / T
            h = 1e-3 * beta
            E1, E2 = spec.mode(1).energy, spec.mode(2).energy
            lz = [math.log(math.exp(-b * E1) + math.exp(-b * E2)) for b in (beta - h, beta, beta + h)]
            fd = beta ** 2 * (lz[0] - 2 * lz[1] + lz[2]) / (h * h)
            assert heat_capacity_two_level(spec, T) == pytest.approx(fd, abs=1e-5)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            heat_capacity_two_level(spectrum_for(6), 0.0)


class TestDiscreteToContinuum:
    def test_partition_converges_to_doubled_continuum(self):
        # the bounded sin^2 band is mirror-symmetric, so the lattice partition
        # function tends to twice the continuum sum; gaps fall as O(1/N^2)
        L, mu = 1.0, 0.1
        beta = beta_for_mu(mu, L)
        z_cont = partition_continuum_sum(L, NATURAL, beta).Z
        gaps = []
        for N in (65, 129, 257):
            spec = build_spectrum(LatticeSpec(N, L / N), NATURAL)
            z_d = partition_discrete(spec, beta).Z
            gaps.append(z_d - 2.0 * z_cont)
        assert all(g > 0 for g in gaps)  # lattice energies sit below continuum
        assert gaps[0] / gaps[1] >= 3.0
        assert gaps[1] / gaps[2] >= 3.0
