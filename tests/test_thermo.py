"""Partition functions, mean energy, free energy, and the two-level heat capacity."""

import math
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewell import thermo
from latticewell.lattice import LatticeSpec
from latticewell.spectrum import ParticleSpec, build_spectrum
from latticewell.thermo import (
    SERIES_CAP,
    SERIES_RTOL,
    PartitionResult,
    SeriesCapExceeded,
    _gaussian_series,
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
#: From this c up the series is the 64-term libm head; below it, np.exp blocks from n = 1 and a tail.
HEAD_FROM = 40.0 / 64 ** 2


def _gaussian_series_reference_stop(c, rtol=SERIES_RTOL):
    """The per-term loop: libm exp, sequential sum, same stop rule and cap; (sum, last n)."""
    total = 0.0
    for n in range(1, SERIES_CAP + 1):
        term = math.exp(-c * n * n)
        total += term
        if term <= rtol * total:
            return total, n
    raise SeriesCapExceeded(c)


def _gaussian_series_reference(c):
    return _gaussian_series_reference_stop(c)[0]


def _tail(c, n):
    """The block path's tail past n: the integral of exp(-c m^2) from n + 1/2 on, as _gaussian_series adds it."""
    return 0.5 * math.sqrt(math.pi / c) * math.erfc(math.sqrt(c) * (n + 0.5))


def _gaussian_series_exact(c, rtol=SERIES_RTOL):
    """The reference loop's libm terms up to its stop, summed exactly and rounded once (math.fsum).

    Below HEAD_FROM, where the blocks run, the tail past that stop is added too.
    """
    _, n = _gaussian_series_reference_stop(c, rtol)
    total = math.fsum(math.exp(-c * k * k) for k in range(1, n + 1))
    return total + _tail(c, n) if c < HEAD_FROM else total


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
        assert Z / (2.0 * math.exp(-beta * spec.energies[0])) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            partition_discrete(spectrum_for(5), -1.0)

    def test_result_fields(self):
        spec = spectrum_for(6)
        res = partition_discrete(spec, 2.0)
        assert [f.name for f in fields(res)] == ["Z", "beta"]
        assert res.free_energy == pytest.approx(-math.log(res.Z) / 2.0)


class TestPartitionContinuum:
    def test_mu_one_frozen_sum(self):
        # oracle: direct summation of exp(-n^2)
        beta = beta_for_mu(1.0)
        res = partition_continuum_sum(1.0, NATURAL, beta)
        assert theta_argument(1.0, NATURAL, beta) == pytest.approx(1.0, rel=1e-14)
        assert res.Z == pytest.approx(0.3863186024133261, rel=1e-13)

    def test_electron_example(self):
        res = partition_continuum_sum(L_WELL, ELECTRON, BETA_300K)
        assert theta_argument(L_WELL, ELECTRON, BETA_300K) == pytest.approx(0.1453657, abs=2e-6)
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

    def test_closed_form_where_the_ratio_underflows(self):
        # m*/(2 pi beta hbar^2) ~ 1e-328 underflows, but Z_closed ~ 1.5e-13 is representable
        particle, L, beta = ParticleSpec.si(hbar=1e154), 4e150, 1e-12
        with mpmath.workdps(40):
            exact = L * mpmath.sqrt(mpmath.mpf(particle.m_star) / (2 * mpmath.pi * beta * mpmath.mpf(particle.hbar) ** 2))
        assert partition_continuum_closed(L, particle, beta).Z == pytest.approx(float(exact), rel=4 * EPS, abs=0)

    def test_closed_form_where_hbar_squared_underflows(self):
        # hbar^2 ~ 1e-340 underflows, so 2 pi beta hbar^2 = 0, but Z_closed ~ 1.5e160 is representable
        particle, L, beta = ParticleSpec.si(hbar=1e-170), 4.0, 1e-10
        with mpmath.workdps(40):
            exact = L * mpmath.sqrt(mpmath.mpf(particle.m_star) / (2 * mpmath.pi * beta * mpmath.mpf(particle.hbar) ** 2))
        assert partition_continuum_closed(L, particle, beta).Z == pytest.approx(float(exact), rel=4 * EPS, abs=0)
        # at hbar = beta = 1e-300 the true Z ~ 1e434 overflows, and says so
        with pytest.raises(OverflowError, match="Z_closed overflows"):
            partition_continuum_closed(L, ParticleSpec.si(hbar=1e-300), 1e-300)

    def test_closed_form_where_the_ratio_overflows(self):
        # m*/(2 pi beta hbar^2) ~ 1.6e309 overflows, but Z_closed ~ 4e154 is representable
        beta = 1e-310
        with mpmath.workdps(40):
            exact = mpmath.sqrt(1 / (2 * mpmath.pi * mpmath.mpf(beta)))
        assert partition_continuum_closed(1.0, NATURAL, beta).Z == pytest.approx(float(exact), rel=4 * EPS, abs=0)

    def test_theta_argument_where_hbar_squared_overflows(self):
        # hbar^2 = 1e320 overflows: mu = inf is the documented Z = 0, where pow would raise
        assert theta_argument(1.0, ParticleSpec.si(hbar=1e160), 1.0) == math.inf

    @pytest.mark.parametrize("L, particle", [
        (1e160, ParticleSpec.si(m_star=1.0, hbar=1e160)),
        (10.0, ParticleSpec.si(m_star=1e306, hbar=1e155)),
    ], ids=["mu-pi-squared-over-2", "mu-493"])
    def test_theta_argument_where_both_squares_overflow(self, L, particle):
        # hbar hbar and 2 m* L^2 both overflow: inf/inf made mu NaN, which the continuum sum
        # reported as its series cap; the sum is checked at the returned mu, since exp(-mu)
        # scales mu's own rounding by mu
        mu = theta_argument(L, particle, 1.0)
        with mpmath.workdps(40):
            hbar, m_star = mpmath.mpf(particle.hbar), mpmath.mpf(particle.m_star)
            exact_mu = mpmath.pi ** 2 * hbar ** 2 / (2 * m_star * mpmath.mpf(L) ** 2)
            exact = mpmath.nsum(lambda n: mpmath.exp(-mpmath.mpf(mu) * n * n), [1, mpmath.inf])
        assert mu == pytest.approx(float(exact_mu), rel=4 * EPS, abs=0)
        assert partition_continuum_sum(L, particle, 1.0).Z == pytest.approx(float(exact), rel=4 * EPS, abs=0)

    def test_split_root_of_a_normal_quotient_keeps_its_root(self):
        # r = m*/(2 pi beta hbar^2) underflows but m*/(2 pi) is normal: Z is, bit for bit, the
        # root of that quotient divided by sqrt(beta) and hbar in turn
        L, particle, beta = 4e150, ParticleSpec.si(hbar=1e154), 1e-12
        expected = L * math.sqrt(particle.m_star / (2.0 * math.pi)) / math.sqrt(beta) / particle.hbar
        assert partition_continuum_closed(L, particle, beta).Z == expected

    @pytest.mark.parametrize("L, particle", [
        (1.0, ParticleSpec.si(hbar=1e160)),
        (1e150, ParticleSpec.si(m_star=5e-324, hbar=1.0)),
        (1e150, ParticleSpec.si(m_star=1e-320, hbar=1.0)),
    ], ids=["hbar-squared-overflows", "m-star-5e-324", "m-star-1e-320"])
    def test_closed_form_of_a_split_root_against_mpmath(self, L, particle):
        # hbar hbar = inf, or a subnormal m* that m*/(2 pi) rounded to 0 (5e-324) or by 2e-4 (1e-320):
        # Z comes from the factors' significands, and keeps every digit
        with mpmath.workdps(40):
            exact = L * mpmath.sqrt(mpmath.mpf(particle.m_star) / (2 * mpmath.pi * mpmath.mpf(particle.hbar) ** 2))
        assert partition_continuum_closed(L, particle, 1.0).Z == pytest.approx(float(exact), rel=2 * EPS, abs=0)

    def test_closed_form_that_underflows_names_its_logarithms(self):
        # Z_closed ~ 4e-331 underflows to 0: F and H_mean_continuum name it instead of libm's "math domain error"
        L, particle, beta = 1e-160, ParticleSpec.si(m_star=1e160, hbar=1e100), 1e300
        res = partition_continuum_closed(L, particle, beta)
        assert res.Z == 0.0
        with pytest.raises(ValueError, match="F = -ln Z/beta is undefined: Z underflows to 0"):
            res.free_energy
        with pytest.raises(ValueError, match="H_mean_continuum is undefined: Z_closed underflows to 0"):
            mean_energy_continuum(L, particle, beta)

    def test_closed_linear_in_width(self):
        beta = 0.37
        z1 = partition_continuum_closed(1.0, NATURAL, beta).Z
        z2 = partition_continuum_closed(2.0, NATURAL, beta).Z
        assert z2 == pytest.approx(2 * z1, rel=1e-15)

    def test_rejects_nonpositive_beta(self):
        for fn in (partition_continuum_sum, partition_continuum_closed, partition_theta):
            with pytest.raises(ValueError):
                fn(1.0, NATURAL, 0.0)

    @pytest.mark.parametrize("L", [-1.0, 0.0, math.nan])
    def test_rejects_bad_width(self, L):
        for fn in (partition_continuum_sum, partition_continuum_closed, partition_theta, mean_energy_continuum):
            with pytest.raises(ValueError):
                fn(L, NATURAL, 1.0)

    def test_series_cap(self):
        # mu ~ 1e-11 needs ~2.5e6 terms, beyond the 1e6 cap
        with pytest.raises(SeriesCapExceeded):
            partition_continuum_sum(1.0, NATURAL, beta_for_mu(1e-11))


def _outcome(fn, *args):
    """fn(*args), as Z where it is a PartitionResult, or the type of the error it raised."""
    try:
        value = fn(*args)
    except (ArithmeticError, SeriesCapExceeded) as exc:
        return type(exc)
    return getattr(value, "Z", value)


def _assert_near_exact(value, exact, eps, overflow):
    """value is within eps * EPS of a 40-digit exact value that is a normal float, and overflow where it overflows."""
    x = float(exact)
    if x == math.inf:
        assert value == overflow, value
    elif x >= np.finfo(float).tiny:
        assert isinstance(value, float) and abs(value - x) <= eps * EPS * x, (value, x)


class TestPowerOfTwoScaling:
    """Units enter once, as significands with their powers of two kept aside."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_mu_and_every_Z_are_covariant_and_near_mpmath(self, data):
        # (L, beta) -> (2^k L, 4^k beta) leaves mu and each continuum Z bit for bit, and
        # mu and Z_closed lie near their 40-digit values wherever those are normal floats,
        # inf and OverflowError where they overflow: no intermediate's under- or overflow
        # shows.  Z_closed is 5 roundings and pi's under a root, then a root and a product:
        # within 2 eps.  mu keeps the golden association order beta (hbar hbar) pi^2/(2 m* L L),
        # 7 roundings with pi^2's: within 4 eps (2.31 eps at worst over 15,680 normal mu).
        power = lambda lo, hi: st.floats(lo, hi).map(lambda u: 10.0 ** u)
        L, beta = data.draw(power(-150, 150)), data.draw(power(-300, 300))
        particle = ParticleSpec.si(m_star=data.draw(power(-300, 300)), hbar=data.draw(power(-200, 200)))
        eL, eb = math.frexp(L)[1], math.frexp(beta)[1]  # normal floats have exponents -1021..1024
        k = data.draw(st.integers(max(-200, -1021 - eL, -((1021 + eb) // 2)), min(200, 1024 - eL, (1024 - eb) // 2)))
        L2, beta2 = math.ldexp(L, k), math.ldexp(beta, 2 * k)
        for fn in (theta_argument, partition_continuum_closed, partition_continuum_sum, partition_theta):
            assert _outcome(fn, L, particle, beta) == _outcome(fn, L2, particle, beta2), (fn.__name__, k)
        with mpmath.workdps(40):
            b, h, m, w = map(mpmath.mpf, (beta, particle.hbar, particle.m_star, L))
            _assert_near_exact(theta_argument(L, particle, beta), b * h * h * mpmath.pi ** 2 / (2 * m * w * w),
                               4, math.inf)
            _assert_near_exact(_outcome(partition_continuum_closed, L, particle, beta),
                               w * mpmath.sqrt(m / (2 * mpmath.pi * b * h * h)), 2, OverflowError)


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
        for mu in (0.0, -1.0):
            with pytest.raises(ValueError):
                theta3_poisson(mu)

    def test_partition_theta_matches_sum(self):
        for mu in (0.05, 0.145, 1.0, 5.0):
            beta = beta_for_mu(mu)
            zt = partition_theta(1.0, NATURAL, beta).Z
            zs = partition_continuum_sum(1.0, NATURAL, beta).Z
            assert abs(zt - zs) <= 1e-9 * zs

    def test_partition_theta_at_large_mu(self):
        # (1 + 2S) - 1 would cancel S once S < eps (mu > ~37)
        for mu in np.geomspace(0.01, 50.0, 60):
            beta = beta_for_mu(float(mu))
            zt = partition_theta(1.0, NATURAL, beta).Z
            zs = partition_continuum_sum(1.0, NATURAL, beta).Z
            assert zt > 0 and abs(zt - zs) <= 1e-12 * zs

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(log_mu=st.floats(min_value=-10.0, max_value=math.log10(50.0)))
    def test_partition_theta_matches_sum_property(self, log_mu):
        # below mu = 1 two independent series, each within ~n_terms eps of exact;
        # from mu = 1 up one and the same series
        beta = beta_for_mu(10.0 ** log_mu)
        mu = theta_argument(1.0, NATURAL, beta)
        zt = partition_theta(1.0, NATURAL, beta).Z
        zs = partition_continuum_sum(1.0, NATURAL, beta).Z
        if mu < 1.0:
            n_terms = math.ceil(math.sqrt(37.0 / mu))
            assert abs(zt - zs) <= (n_terms + 4) * EPS * zs
        else:
            assert zt == zs

    def test_partition_theta_sums_the_direct_series_only_from_mu_one(self, monkeypatch):
        # below mu = 1 the series runs at pi^2/mu (theta3_poisson), never at mu itself
        real, args = _gaussian_series, []
        monkeypatch.setattr(thermo, "_gaussian_series", lambda c: args.append(c) or real(c))
        for mu, direct in ((1e-8, False), (0.1, False), (0.999, False), (1.0, True), (2.0, True), (50.0, True)):
            args.clear()
            beta = beta_for_mu(mu)
            m = theta_argument(1.0, NATURAL, beta)
            assert (m >= 1.0) == direct
            partition_theta(1.0, NATURAL, beta)
            assert args == ([m] if direct else [math.pi * math.pi / m])

    def test_partition_theta_below_series_cap(self):
        # the direct series needs ~6e6 terms at mu = 1e-12; the Poisson side needs one
        beta = beta_for_mu(1e-12)
        with pytest.raises(SeriesCapExceeded):
            partition_continuum_sum(1.0, NATURAL, beta)
        zt = partition_theta(1.0, NATURAL, beta).Z
        zc = partition_continuum_closed(1.0, NATURAL, beta).Z
        assert abs(zt - (zc - 0.5)) <= 4 * EPS * zt

    @pytest.mark.parametrize("L, beta", [(1.0, 1e-310), (1.0, 5e-324)])
    def test_partition_theta_overflow(self, L, beta):
        # pi/mu overflows at a subnormal mu, but Z_theta ~ (1/2) sqrt(pi/mu) does not: it is
        # Z_closed - 1/2, whose root is taken from the factors, not from the rounded mu
        mu = theta_argument(L, NATURAL, beta)
        assert 0.0 < mu < np.finfo(float).tiny and math.isinf(math.pi / mu)
        zt = partition_theta(L, NATURAL, beta).Z
        zc = partition_continuum_closed(L, NATURAL, beta).Z
        assert abs(zt - (zc - 0.5)) <= 4 * EPS * zt

    def test_partition_theta_where_mu_underflows_to_zero(self):
        # mu ~ 4.9e-200 ** 2 underflows to 0, but Z_theta = L/sqrt(2 pi beta) - 1/2 ~ 3.99e199 does not
        assert theta_argument(1e200, NATURAL, 1.0) == 0.0
        exact = mpmath.mpf(1e200) / mpmath.sqrt(2 * mpmath.pi) - mpmath.mpf(0.5)
        assert partition_theta(1e200, NATURAL, 1.0).Z == pytest.approx(float(exact), rel=2 * EPS, abs=0)

    def test_partition_theta_below_the_normal_mu_range_against_mpmath(self):
        # log-uniform (L, beta) with mu below the normal range, mu = 0 among them; a root of
        # the rounded mu lost up to 21 % at mu = 5e-324, and mu = 0 raised
        rng = np.random.default_rng(27)
        points = zip(10.0 ** rng.uniform(150.0, 300.0, 600), 10.0 ** rng.uniform(-3.0, 3.0, 600))
        points = [(L, beta) for L, beta in points if theta_argument(L, NATURAL, beta) < np.finfo(float).tiny]
        assert len(points) >= 500 and any(theta_argument(L, NATURAL, beta) == 0.0 for L, beta in points)
        worst = 0.0
        with mpmath.workdps(40):
            for L, beta in points:
                exact = mpmath.mpf(L) / mpmath.sqrt(2 * mpmath.pi * mpmath.mpf(beta)) - mpmath.mpf(0.5)
                zt = partition_theta(L, NATURAL, beta).Z
                worst = max(worst, float(abs((zt - exact) / exact)) / EPS)
        assert worst <= 2.0

    def test_partition_theta_where_two_m_star_L_squared_overflows(self):
        # 2 m* L^2 = 2e308 overflowed to mu = 0 and raised; mu ~ 4.9e-308 is normal, and
        # Z_theta = (sqrt(pi/mu) - 1)/2 ~ 4e153 is Z_closed - 1/2
        L = 1e154
        zt = partition_theta(L, NATURAL, 1.0).Z
        assert zt == pytest.approx(partition_continuum_closed(L, NATURAL, 1.0).Z, rel=4 * EPS, abs=0)

    def test_theta_vs_closed_constant(self):
        # Z_closed - Z_theta -> 1/2 with exponentially small corrections
        for mu in (0.05, 0.1, 0.145, 0.15):
            beta = beta_for_mu(mu)
            zc = partition_continuum_closed(1.0, NATURAL, beta).Z
            zt = partition_theta(1.0, NATURAL, beta).Z
            assert zc - zt == pytest.approx(0.5, abs=1e-4)


class TestGaussianSeries:
    """The blocked kernel against the per-term loop it replaced and the exact sum of its terms."""

    def test_head_series_equal_reference(self):
        # series that stop within the libm head are bit-identical, which keeps
        # the goldens; the four partition.csv betas at N = 6 among them
        golden = [theta_argument(6.0, NATURAL, float(b)) for b in np.linspace(0.5, 4.0, 4)]
        for c in [*np.geomspace(0.01, 50.0, 40).tolist(), *golden]:
            assert _gaussian_series(c) == _gaussian_series_reference(c)

    def test_golden_series_take_the_head(self):
        # partition.csv sums the series at mu (Z_continuum_sum, and Z_theta from mu = 1) and at
        # pi^2/mu (Z_theta below mu = 1); every one is at least 40/64^2, so every golden series
        # is the libm head, summed term by term in order, and that order sets the goldens' bits
        for b in np.linspace(0.5, 4.0, 4).tolist():
            mu = theta_argument(6.0, NATURAL, b)
            assert min(mu, math.pi * math.pi / mu) >= HEAD_FROM, b

    def test_long_series_within_4_eps_of_exact_sum(self):
        # np.exp is within 1 ulp of libm's exp and each block is summed pairwise, so
        # the value is the exact sum of the reference's terms (plus the tail below
        # 40/64^2) up to a few eps; the sequential loop itself drifts from it by up to ~1,000 eps
        for c in np.geomspace(1e-10, 10.0, 41).tolist():
            exact = _gaussian_series_exact(c)
            assert abs(_gaussian_series(c) - exact) <= 4 * EPS * exact, c

    def test_cap_decision_matches_reference(self):
        # the 1e6-term cap falls at c ~ 2.47511e-11
        inside, outside = 2.4752e-11, 2.4750e-11
        exact = _gaussian_series_exact(inside)
        assert abs(_gaussian_series(inside) - exact) <= 4 * EPS * exact
        for fn in (_gaussian_series, _gaussian_series_reference):
            with pytest.raises(SeriesCapExceeded):
                fn(outside)

    def test_stop_at_exactly_the_cap_returns(self):
        # at this c the stop n* = ceil(sqrt(x/c)) is SERIES_CAP itself, so the sum runs (n* >= SERIES_CAP
        # would raise), and one float below it n* is SERIES_CAP + 1; with its tail the sum is the
        # Jacobi value (sqrt(pi/c) - 1)/2 to a few eps
        c = 2.4751070341549482e-11
        assert _gaussian_series(c) == pytest.approx(0.5 * (math.sqrt(math.pi / c) - 1.0), rel=4 * EPS)
        with pytest.raises(SeriesCapExceeded):
            _gaussian_series(float(np.nextafter(c, 0.0)))

    @pytest.fixture
    def exp_calls(self, monkeypatch):
        """The arguments of every math.exp call the series makes: one per head term."""
        calls = []

        class SpyMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def exp(self, x):
                calls.append(x)
                return math.exp(x)

        monkeypatch.setattr(thermo, "math", SpyMath())
        return calls

    @staticmethod
    def _blocks(c, n, block=8192):
        """np.exp of (-c k) k for k = 1 ... n in blocks of `block`, each summed pairwise, their sums by fsum, plus the tail."""
        sums = []
        for first in range(1, n + 1, block):
            k = np.arange(first, min(first + block, n + 1), dtype=float)
            sums.append(float(np.exp(k * -c * k).sum()))
        return math.fsum(sums) + _tail(c, n)

    def test_head_rule_keeps_every_head_stop(self, exp_calls):
        # every c >= 40/64^2 (the split itself included) runs the libm head, which stops within
        # its 64 terms and is bit-identical to the reference loop; below it the blocks run and
        # no math.exp is called
        heads = 0
        for c in [*np.geomspace(1e-3, 0.05, 401).tolist(), HEAD_FROM, float(np.nextafter(HEAD_FROM, 0.0))]:
            ref, n = _gaussian_series_reference_stop(c)
            exp_calls.clear()
            value = _gaussian_series(c)
            if c >= HEAD_FROM:
                heads += 1
                assert n <= 64 and value == ref and len(exp_calls) == n, c
            else:
                assert exp_calls == [], c
                exact = _gaussian_series_exact(c)
                assert abs(value - exact) <= 4 * EPS * exact, c
        assert 0 < heads < 403

    def test_no_head_below_mu_1e_3(self, exp_calls):
        for c in [*np.geomspace(1e-10, 1e-3, 29).tolist(), float(np.nextafter(HEAD_FROM, 0.0))]:
            exp_calls.clear()
            _gaussian_series(c)
            assert exp_calls == [], c
        exp_calls.clear()
        _gaussian_series(0.01)  # stops at n = 59, within the head
        assert len(exp_calls) == 59

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_block_boundaries_keep_the_stop(self, monkeypatch, block):
        # blocks of 1-7 terms put the stop n* on a block's first and last term, and the
        # last block must end there, bit for bit (a last block of one or two terms
        # dropped moves the sum by about an ulp).  The block sums are added exactly
        # (math.fsum), so even blocks of one term do not drift with n.
        monkeypatch.setattr(thermo, "_SERIES_BLOCK_CAP", block)
        for c in [*np.geomspace(1e-6, 1e-2, 13).tolist(), 0.009, 0.02]:
            exact = _gaussian_series_exact(c)
            n = _gaussian_series_reference_stop(c)[1]
            value = _gaussian_series(c)
            assert abs(value - exact) <= 4 * EPS * exact, c
            assert c >= HEAD_FROM or value == self._blocks(c, n, block), c

    def test_blocks_end_at_the_reference_stop(self):
        # below 40/64^2 the stop n* is a formula in S = (sqrt(pi/c) - 1)/2; the value is, bit for
        # bit, the reference loop's n terms as np.exp blocks of 8192 from n = 1, each summed pairwise,
        # plus the tail
        for c in np.geomspace(1e-7, 0.008, 300).tolist():
            n = _gaussian_series_reference_stop(c)[1]
            assert _gaussian_series(c) == self._blocks(c, n), c

    def test_split_band_sums_blocks_from_1(self, exp_calls):
        # for c in ~[0.0084412, 0.0084543] n* = 65, one past a 64-term head; just below the split
        # such a c is, bit for bit, np.exp blocks from n = 1 plus the tail, with no math.exp
        # call, and at the split itself the libm head runs and stops there
        for c in [0.0084413, 0.0084542, float(np.nextafter(HEAD_FROM, 0.0))]:
            n = _gaussian_series_reference_stop(c)[1]
            exp_calls.clear()
            assert _gaussian_series(c) == self._blocks(c, n), c
            assert exp_calls == [], c
        ref, n = _gaussian_series_reference_stop(HEAD_FROM)
        exp_calls.clear()
        assert _gaussian_series(HEAD_FROM) == ref
        assert len(exp_calls) == n <= 64

    @pytest.mark.parametrize("c", [2.4750e-11, 1e-13, 1e-300, 0.0, math.nan])
    def test_cap_raises_before_any_term(self, monkeypatch, exp_calls, c):
        # the stop is known up front, so a sum past SERIES_CAP, or one without a stop
        # (c = 0, nan, or SERIES_RTOL * S >= 1), computes no np.exp term; and none of
        # them runs the libm head, so c = 0 and nan make no math.exp call either
        calls = []

        class SpyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, *args, **kwargs):
                calls.append(args)
                return np.exp(*args, **kwargs)

        monkeypatch.setattr(thermo, "np", SpyNumpy())
        with pytest.raises(SeriesCapExceeded, match=f"needs more than {SERIES_CAP} terms"):
            _gaussian_series(c)
        assert calls == []
        assert exp_calls == []

    @staticmethod
    def _error_against_jacobi(c):
        """(value - S)/S in eps, S the 40-digit Jacobi (sqrt(pi/c) theta3(pi^2/c) - 1)/2 to two terms."""
        with mpmath.workdps(40):
            cm = mpmath.mpf(c)
            S = (mpmath.sqrt(mpmath.pi / cm) * (1 + 2 * mpmath.exp(-mpmath.pi ** 2 / cm)) - 1) / 2
            return float((mpmath.mpf(_gaussian_series(c)) - S) / S) / EPS

    @pytest.mark.parametrize("c", [2.5e-11, 1e-10, 1e-9, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 8e-3])
    def test_tail_bound_against_mpmath(self, c):
        # stopping at n leaves out a tail of ~term q/(1 - q), q = exp(-2 c n), up to ~8,900 eps
        # of the sum at c = 2.5e-11; the integral of exp(-c m^2) from n + 1/2 on restores it to
        # within ~c n term/12, and the blocks are summed pairwise, so the value is within a few
        # eps of the 40-digit S (a sequential sum of n terms would drift ~sqrt(n) eps)
        error = self._error_against_jacobi(c)
        assert abs(error) <= 4, error

    def test_tail_bound_against_mpmath_over_log_uniform_c(self):
        # 200 seeded log-uniform c over the whole block path, [2.48e-11, 40/64^2).  Below 4e-7
        # n* > 8192, so the sum spans several blocks; their sums are added exactly (math.fsum),
        # and the value is within 2 eps of the 40-digit S (added one after another they reached
        # 5.3 eps).  From 4e-7 up one block's pairwise np.sum sets the error, up to 3.0 eps
        # over 20,000 c in [1e-4, 40/64^2), so those keep the 4 eps of the fixed points above.
        rng = np.random.default_rng(26)
        for c in np.exp(rng.uniform(math.log(2.48e-11), math.log(HEAD_FROM), 200)).tolist():
            error = self._error_against_jacobi(c)
            assert abs(error) <= (2 if c < 4e-7 else 4), (c, error)


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
        assert mean_energy(spec, beta) == pytest.approx(spec.energies[0], rel=1e-12)

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
        # Z underflows to 0 at beta = 1e5, and 0 has no logarithm: the CLI's
        # F column comes from the closed form instead
        res = partition_discrete(spectrum_for(6), 1e5)
        assert res.Z == 0.0
        with pytest.raises(ValueError, match="Z underflows to 0"):
            res.free_energy

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(N=st.integers(min_value=5, max_value=4096), si=st.booleans())
    def test_theta_is_half_the_lowest_gap_property(self, N, si):
        # the same float64 products eps0 * e_tilde as every other energy, to the bit
        particle, a = (ParticleSpec.si(), 1e-9) if si else (NATURAL, 1.0)
        spec = build_spectrum(LatticeSpec(N, a), particle)
        eps0 = spec.epsilon0
        expected = abs(eps0 * spec.e_tilde[0] - eps0 * spec.e_tilde[1]) / (2.0 * particle.k_B)
        assert characteristic_temperature(spec) == expected


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
        # x = 800 lies where math.cosh raises (x > ~710.5), so this pins the guard's place too
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
            E1, E2 = spec.energies[:2]
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
