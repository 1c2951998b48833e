"""Acceptance gate: one test per numbered criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from latticewell.bloch import (
    density_matrix_continuum,
    density_matrix_normalized,
    density_matrix_spectral,
    propagate_bloch,
    trace_integral,
)
from latticewell.calculus import (
    antiderivative,
    antiderivative_series,
    centered_diff1,
    closed_form_antiderivative,
    definite_integral,
)
from latticewell.lattice import LatticeFunction, LatticeSpec
from latticewell.spectrum import (
    ParticleSpec,
    build_hamiltonian_matrix,
    build_spectrum,
    continuum_limit_error,
    dimensionless_energy,
    eigenfunction,
    numeric_spectrum,
)
from latticewell.thermo import (
    characteristic_temperature,
    heat_capacity_two_level,
    mean_energy,
    mean_energy_continuum,
    partition_continuum_closed,
    partition_continuum_sum,
    partition_discrete,
    partition_theta,
    theta_argument,
)
from latticewell.cli import main as cli_main
from test_cli import GOLDEN, GOLDEN_ARGS

NATURAL = ParticleSpec.natural()


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL  {desc}")
        raise
    print(f"criterion {num:2d} PASS  {desc}")


def test_criterion_1_calculus_identities():
    with criterion(1, "derivative/antiderivative round trip and closed forms <= 1e-10"):
        rng = np.random.default_rng(101)
        for _ in range(40):
            N = int(rng.integers(10, 201))
            a = float(rng.uniform(0.2, 2.0))
            vals = np.zeros(N + 1)
            vals[2:N - 1] = rng.normal(size=N - 3)
            f = LatticeFunction(vals)
            F = antiderivative(f, a)
            for n in rng.integers(1, N, size=8):
                n = int(n)
                assert abs(centered_diff1(F, n, a) - f(n)) <= 1e-10

            j = int(rng.integers(1, N))
            if j in (0, N) or 2 * j == N:
                continue
            alpha = math.pi * j / N
            for kind, integrand in (
                ("cos", math.cos),
                ("sin", math.sin),
                ("sin2", lambda t: math.sin(t) ** 2),
            ):
                n = int(rng.integers(1, N))
                diff = 0.5 * (
                    closed_form_antiderivative(kind, alpha, n + 1)
                    - closed_form_antiderivative(kind, alpha, n - 1)
                )
                assert abs(diff - integrand(n * alpha)) <= 1e-10
                g = LatticeFunction([integrand(m * alpha) for m in range(N + 1)])
                n1 = int(rng.integers(0, N - 2))
                n2 = n1 + 2 * int(rng.integers(1, (N - n1) // 2 + 1))
                series = antiderivative_series(g, n2, 1.0) - antiderivative_series(g, n1, 1.0)
                closed = closed_form_antiderivative(kind, alpha, n2) - closed_form_antiderivative(
                    kind, alpha, n1
                )
                assert abs(series - closed) <= 1e-10


def test_criterion_2_spectrum_oracle_equivalence():
    with criterion(2, "matrix eigenvalues multiset-match the closed form <= 1e-10*eps0"):
        for N in (4, 10, 101, 200):
            eigs = numeric_spectrum(build_hamiltonian_matrix(LatticeSpec(N)))
            expected = np.sort([dimensionless_energy(j, N) for j in range(1, N)])
            assert np.max(np.abs(eigs - expected)) <= 1e-10
        eigs4 = numeric_spectrum(build_hamiltonian_matrix(LatticeSpec(4)))
        assert np.max(np.abs(eigs4 - np.array([0.5, 0.5, 1.0]))) <= 1e-10


def test_criterion_3_continuum_limit_of_energies():
    with criterion(3, "energy error tracks (pi nE/N)^2/3 and quarters per N-doubling"):
        errs = {}
        for N in (100, 200, 400, 800):
            err = continuum_limit_error(1, N)
            taylor = (math.pi / N) ** 2 / 3.0
            assert abs(err - taylor) <= 0.2 * taylor
            errs[N] = err
        for N in (100, 200, 400):
            ratio = errs[N] / errs[2 * N]
            assert 3.5 <= ratio <= 4.5


def test_criterion_4_normalization_and_completeness():
    with criterion(4, "unit norms for every mode; beta=0 matrix is identity/a"):
        for N in (10, 21):
            lat = LatticeSpec(N, 0.5)
            spec = build_spectrum(lat, NATURAL)
            for n_E in spec.n_E:
                psi = eigenfunction(n_E, lat)
                sq = LatticeFunction(psi.values ** 2)
                assert abs(definite_integral(sq, 0, N, lat.a) - 1.0) <= 1e-12
        for N in (5, 21):
            a = 0.7
            dm = density_matrix_spectral(build_spectrum(LatticeSpec(N, a), NATURAL), 0.0)
            assert np.max(np.abs(dm.rho[1:N, 1:N] - np.eye(N - 1) / a)) <= 1e-10


def test_criterion_5_bloch_equation():
    with criterion(5, "propagated matrix matches spectral <= 1e-6; Bloch residual <= 1e-6"):
        N = 21
        lat = LatticeSpec(N)
        spec = build_spectrum(lat, NATURAL)
        eps0 = spec.epsilon0
        for be in (0.5, 2.0, 5.0):
            beta = be / eps0
            steps = math.ceil(1000 * be)  # df <= 1e-3
            prop = propagate_bloch(lat, NATURAL, beta, steps)
            ref = density_matrix_spectral(spec, beta)
            assert np.max(np.abs(prop.rho - ref.rho)) <= 1e-6

        beta = 2.0 / eps0
        h = 1e-5 * beta
        dbeta = (
            density_matrix_spectral(spec, beta + h).rho
            - density_matrix_spectral(spec, beta - h).rho
        ) / (2 * h)
        rho = density_matrix_spectral(spec, beta).rho
        stencil = 0.25 * (rho[4:N - 1, :] - 2 * rho[2:N - 3, :] + rho[0:N - 5, :])
        rhs = eps0 * stencil
        assert np.max(np.abs(dbeta[2:N - 3, :] - rhs)) <= 1e-6 * np.max(np.abs(rhs))


def test_criterion_6_trace_relation():
    with criterion(6, "trace integral = Z (odd N) or Z + e^{-beta E_{N/2}} (even N)"):
        for N in (5, 7, 21):
            spec = build_spectrum(LatticeSpec(N), NATURAL)
            for be in (0.5, 2.0):
                beta = be / spec.epsilon0
                dm = density_matrix_spectral(spec, beta)
                assert abs(trace_integral(dm) - partition_discrete(spec, beta).Z) <= 1e-12
        for N in (4, 10):
            spec = build_spectrum(LatticeSpec(N), NATURAL)
            for be in (0.5, 2.0):
                beta = be / spec.epsilon0
                dm = density_matrix_spectral(spec, beta)
                anomaly = math.exp(-beta * spec.energies[N // 2 - 1])
                expect = partition_discrete(spec, beta).Z + anomaly
                assert abs(trace_integral(dm) - expect) <= 1e-12


def test_criterion_7_electron_worked_example():
    with criterion(7, "electron, L = 100 A, T = 300 K: mu, Z_closed, theta identity"):
        # hbar = 1.054e-34 and k_B = 1.38e-23 (the library SI defaults); the
        # pinned outputs require the unrounded electron mass 9.10938e-31 kg
        particle = ParticleSpec.si(9.10938e-31)
        L = 100e-10
        beta = 1.0 / (1.38e-23 * 300.0)
        z_sum = partition_continuum_sum(L, particle, beta)
        z_theta = partition_theta(L, particle, beta)
        z_closed = partition_continuum_closed(L, particle, beta)
        assert abs(theta_argument(L, particle, beta) - 0.14537) <= 1e-4
        assert abs(z_closed.Z - 2.3245) <= 1e-3
        assert abs(z_sum.Z - z_theta.Z) <= 1e-9 * z_sum.Z
        assert abs((z_closed.Z - z_sum.Z) - 0.5) <= 1e-4


def test_criterion_8_mean_energy():
    with criterion(8, "mean energy matches d(ln Z)/dbeta; equipartition at mu = 0.01"):
        for N, be in ((11, 0.5), (21, 2.0), (34, 5.0)):
            spec = build_spectrum(LatticeSpec(N), NATURAL)
            beta = be / spec.epsilon0
            h = 1e-4 * beta
            fd = -(
                math.log(partition_discrete(spec, beta + h).Z)
                - math.log(partition_discrete(spec, beta - h).Z)
            ) / (2 * h)
            assert abs(mean_energy(spec, beta) - fd) <= 1e-6 * abs(fd)
        L = 1.0
        beta = 0.01 * 2.0 * L * L / math.pi ** 2  # mu = 0.01
        equi = 1.0 / (2.0 * beta)
        assert abs(mean_energy_continuum(L, NATURAL, beta) - equi) <= 1e-4 * equi


def test_criterion_9_heat_capacity_peak():
    with criterion(9, "Schottky curve: single peak 0.4392 at x = 1.1997, vanishing tails"):
        lo, hi = 1.0, 1.5  # independent bisection for x tanh x = 1
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid * math.tanh(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        x_star = 0.5 * (lo + hi)
        assert abs(x_star - 1.1997) <= 1e-3

        spec = build_spectrum(LatticeSpec(6), NATURAL)
        theta = characteristic_temperature(spec)
        temps = np.geomspace(theta / 15.0, theta / 0.03, 400)
        curve = np.array([heat_capacity_two_level(spec, float(T)) for T in temps])
        assert abs(np.max(curve) - 0.4392) <= 1e-3
        peak_value = heat_capacity_two_level(spec, theta / x_star)
        assert abs(peak_value - 0.4392) <= 1e-3
        assert curve[0] < 1e-3 and curve[-1] < 1e-3  # x = 15 and x = 0.03 tails
        rising = np.diff(curve) > 0
        flips = np.count_nonzero(np.diff(rising.astype(int)))
        assert flips == 1  # one interior maximum, no other sign change


def test_criterion_10_density_matrix_continuum_limit():
    with criterion(10, "lattice density matrix vs [1 + (-1)^(n+n')] x Gaussian kernel, factor >= 3 per doubling"):
        # The density matrix sums all N - 1 modes (criteria 4 and 6), and the
        # two-step stencil decouples the even and odd sublattices: the mirror
        # modes n_E and N - n_E are exactly degenerate, so the lattice matrix
        # tends pointwise to [1 + (-1)^(n+n')] times the free Gaussian kernel
        # (zero on odd pairs, doubled on even pairs), the same law as
        # Z_discrete -> 2 Z_continuum.  The error is the maximum over the 2x2
        # block n in {n0, n0+1}, n' in {n0', n0'+1}, which always holds both
        # parities, so each N checks the doubled and the vanishing entries.
        L, mu = 1.0, 0.1
        beta = mu * 2.0 * L * L / math.pi ** 2
        errs = []
        for N in (65, 129, 257):
            lat = LatticeSpec(N, L / N)
            dm = density_matrix_spectral(build_spectrum(lat, NATURAL), beta)
            n0, npr0 = round(N / 3), round(N / 2)
            err = 0.0
            for n in (n0, n0 + 1):
                for npr in (npr0, npr0 + 1):
                    parity = 1 + (-1) ** (n + npr)
                    kernel = density_matrix_continuum(n * lat.a, npr * lat.a, beta, NATURAL)
                    err = max(err, abs(dm.rho[n, npr] - parity * kernel))
            errs.append(err)
        msg = f"block errors {[f'{e:.4g}' for e in errs]} for N = 65, 129, 257"
        assert errs[0] / errs[1] >= 3.0, msg
        assert errs[1] / errs[2] >= 3.0, msg


def test_criterion_11_cli_determinism(capsys):
    with criterion(11, "golden-file byte equality for one config per subcommand"):
        for name, args in GOLDEN_ARGS.items():
            assert cli_main(args) == 0
            out = capsys.readouterr().out
            assert out == (GOLDEN / name).read_text(), f"golden mismatch for {name}"
            assert cli_main(args) == 0
            assert capsys.readouterr().out == out
