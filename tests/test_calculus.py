"""Difference/antidifference operators: frozen examples and randomized identities."""

import math

import numpy as np
import pytest

from latticewell.calculus import (
    SingularQuadrature,
    antiderivative,
    antiderivative_series,
    centered_diff1,
    centered_diff2,
    closed_form_antiderivative,
    definite_integral,
)
from latticewell.lattice import LatticeFunction


def lattice_fn(g, N):
    return LatticeFunction([g(n) for n in range(N + 1)])


class TestCenteredDiff1:
    def test_constant_is_zero(self):
        f = lattice_fn(lambda n: 7.25, 12)
        for n in range(1, 12):
            assert centered_diff1(f, n, 1.0) == 0.0

    def test_exact_on_quadratic(self):
        # (n+1)^2 - (n-1)^2 = 4n, so the difference quotient is exactly 2n
        f = lattice_fn(lambda n: float(n * n), 10)
        assert centered_diff1(f, 3, 1.0) == 6.0
        for n in range(1, 10):
            assert centered_diff1(f, n, 1.0) == 2.0 * n

    def test_sine_sample(self):
        # oracle: (sin 3a - sin a)/2 at a = pi/3, frozen by scalar evaluation
        alpha = math.pi / 3
        f = lattice_fn(lambda n: math.sin(n * alpha), 8)
        assert centered_diff1(f, 2, 1.0) == pytest.approx(-0.43301270189221924, abs=1e-12)

    def test_spacing_scaling(self):
        f = lattice_fn(lambda n: float(n), 6)
        assert centered_diff1(f, 3, 0.5) == pytest.approx(2.0)

    def test_rejects_out_of_range_site(self):
        f = lattice_fn(lambda n: 1.0, 5)
        with pytest.raises(ValueError):
            centered_diff1(f, -1, 1.0)
        with pytest.raises(ValueError):
            centered_diff1(f, 6, 1.0)


class TestCenteredDiff2:
    def test_constant_is_zero(self):
        # interior sites only: the 4-point stencil clips outside [2, N-2]
        f = lattice_fn(lambda n: -3.0, 10)
        for n in range(2, 9):
            assert centered_diff2(f, n, 1.0) == 0.0

    def test_exact_on_quadratic(self):
        f = lattice_fn(lambda n: float(n * n), 10)
        for n in range(2, 9):
            assert centered_diff2(f, n, 1.0) == 2.0

    def test_exact_on_cubic(self):
        # ((n+2)^3 - 2n^3 + (n-2)^3)/4 = 6n exactly
        f = lattice_fn(lambda n: float(n ** 3), 12)
        for n in range(2, 11):
            assert centered_diff2(f, n, 1.0) == pytest.approx(6.0 * n, rel=1e-15)

    def test_sine_identity(self):
        # oracle: trig identity sin((n+-2)phi) sum -> -sin^2(phi) sin(n phi)
        phi = math.pi / 5
        f = lattice_fn(lambda n: math.sin(n * phi), 12)
        expected = -math.sin(phi) ** 2 * math.sin(4 * phi)
        assert centered_diff2(f, 4, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_first_diff_not_exact_on_cubic(self):
        # degree-3 breaks the 2-point stencil: ((n+1)^3-(n-1)^3)/2 = 3n^2 + 1
        f = lattice_fn(lambda n: float(n ** 3), 8)
        assert centered_diff1(f, 4, 1.0) == pytest.approx(3 * 16 + 1)


class TestAntiderivativeSeries:
    def test_zero_function(self):
        f = lattice_fn(lambda n: 0.0, 9)
        assert all(antiderivative_series(f, n, 1.0) == 0.0 for n in range(10))

    def test_indicator_values(self):
        # only odd-offset sites beyond n contribute: frozen by finite summation
        f = lattice_fn(lambda n: 1.0 if n == 4 else 0.0, 9)
        assert antiderivative_series(f, 1, 1.0) == -2.0
        assert antiderivative_series(f, 3, 1.0) == -2.0
        assert antiderivative_series(f, 5, 1.0) == 0.0

    def test_round_trip_random_functions(self):
        # centered_diff1(antiderivative(f)) == f on interior sites when the
        # support stays inside [2, N-2]
        rng = np.random.default_rng(42)
        for _ in range(40):
            N = int(rng.integers(8, 60))
            a = float(rng.uniform(0.1, 3.0))
            vals = np.zeros(N + 1)
            vals[2:N - 1] = rng.normal(size=N - 3)
            f = LatticeFunction(vals)
            F = antiderivative(f, a)
            for n in range(1, N):
                assert centered_diff1(F, n, a) == pytest.approx(f(n), abs=1e-12)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 64])
    def test_antiderivative_matches_series_at_every_site(self, N):
        # the cumulative sum adds in another order: allow a few ulps of the absolute sum
        rng = np.random.default_rng(N)
        a = 0.7
        f = LatticeFunction(rng.normal(size=N + 1))
        F = antiderivative(f, a)
        tol = 4 * (N + 1) * np.finfo(float).eps * 2 * a * np.sum(np.abs(f.values))
        for n in range(N + 1):
            assert abs(F(n) - antiderivative_series(f, n, a)) <= tol


class TestDefiniteIntegral:
    def test_unit_function_even_n(self):
        # the odd-site quadrature counts N/2 odd sites for even N
        N = 10
        f = lattice_fn(lambda n: 1.0, N)
        assert definite_integral(f, 0, N, 1.0) == pytest.approx(N, abs=1e-12)
        assert definite_integral(f, 0, N, 0.25) == pytest.approx(0.25 * N, abs=1e-12)

    @pytest.mark.parametrize("N,j", [(10, 3), (9, 2), (12, 5), (21, 8)])
    def test_sine_squared_generic_mode(self, N, j):
        f = lattice_fn(lambda n: math.sin(math.pi * j * n / N) ** 2, N)
        assert definite_integral(f, 0, N, 1.0) == pytest.approx(N / 2, abs=1e-10)

    def test_sine_squared_half_mode(self):
        # j = N/2: every odd site contributes 1, integral is a*N not a*N/2
        N = 12
        f = lattice_fn(lambda n: math.sin(math.pi * n / 2) ** 2, N)
        assert definite_integral(f, 0, N, 1.0) == pytest.approx(N, abs=1e-12)

    def test_rejects_reversed_limits(self):
        f = lattice_fn(lambda n: 1.0, 8)
        with pytest.raises(ValueError):
            definite_integral(f, 5, 3, 1.0)


class TestClosedForms:
    def test_kind_one(self):
        for n in (0, 1, 5, 17):
            assert closed_form_antiderivative("one", 0.7, n) == float(n)

    def test_kind_cos_sample(self):
        # sin(2pi/3)/sin(pi/3) = 1, scalar oracle
        assert closed_form_antiderivative("cos", math.pi / 3, 2) == pytest.approx(1.0, abs=1e-12)

    def test_singular_sin2(self):
        with pytest.raises(SingularQuadrature):
            closed_form_antiderivative("sin2", math.pi / 2, 3)

    def test_singular_cos(self):
        with pytest.raises(SingularQuadrature):
            closed_form_antiderivative("cos", math.pi, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            closed_form_antiderivative("tan", 0.3, 1)

    @pytest.mark.parametrize("kind", ["one", "cos", "sin", "sin2"])
    def test_difference_identity(self, kind):
        # each closed form is an antidifference: (F(n+1) - F(n-1))/2 = f(n)
        integrand = {
            "one": lambda n, al: 1.0,
            "cos": lambda n, al: math.cos(n * al),
            "sin": lambda n, al: math.sin(n * al),
            "sin2": lambda n, al: math.sin(n * al) ** 2,
        }[kind]
        rng = np.random.default_rng(3)
        for _ in range(50):
            N = int(rng.integers(5, 200))
            j = int(rng.integers(1, N))
            if j in (0, N) or 2 * j == N:
                continue
            alpha = math.pi * j / N
            n = int(rng.integers(1, N))
            lhs = 0.5 * (
                closed_form_antiderivative(kind, alpha, n + 1)
                - closed_form_antiderivative(kind, alpha, n - 1)
            )
            assert lhs == pytest.approx(integrand(n, alpha), abs=1e-10)

    @pytest.mark.parametrize("kind", ["cos", "sin", "sin2"])
    def test_matches_series_differences(self, kind):
        # series and closed form agree on differences between same-parity
        # sites; the stencil's kernel contains (-1)^n as well as constants,
        # so the two antiderivatives may differ by a parity-dependent shift
        integrand = {
            "cos": math.cos,
            "sin": math.sin,
            "sin2": lambda t: math.sin(t) ** 2,
        }[kind]
        rng = np.random.default_rng(11)
        for _ in range(30):
            N = int(rng.integers(8, 120))
            j = int(rng.integers(1, N))
            if j in (0, N) or 2 * j == N:
                continue
            alpha = math.pi * j / N
            f = lattice_fn(lambda n: integrand(n * alpha), N)
            n1 = int(rng.integers(0, N - 1))
            n2 = int(rng.integers(n1 + 1, N + 1))
            if (n2 - n1) % 2 == 1:
                n2 -= 1
            if n2 == n1:
                continue
            series = antiderivative_series(f, n2, 1.0) - antiderivative_series(f, n1, 1.0)
            closed = closed_form_antiderivative(kind, alpha, n2) - closed_form_antiderivative(
                kind, alpha, n1
            )
            assert series == pytest.approx(closed, abs=1e-10)
