"""Centered difference and antidifference operators on a uniform lattice.

The first derivative couples sites n-1, n+1 and the second derivative couples
n-2, n, n+2 (symmetric two-step stencils).  Inverting the first-difference
operator as a series of translations gives a summation rule for discrete
integrals; because lattice functions vanish outside [0, N], the series always
terminates.
"""

import math

import numpy as np

from .lattice import LatticeFunction

#: Below this magnitude a sine denominator counts as singular.  Any admissible
#: mode angle pi*j/N with N <= 1e6 keeps |sin| far above it.
SINGULAR_TOL = 1e-12


class SingularQuadrature(ValueError):
    """A closed-form antidifference hit a vanishing sine denominator."""


def _check_site(n: int, N: int) -> None:
    if not 0 <= n <= N:
        raise ValueError(f"site index {n} outside [0, {N}]")


def centered_diff1(f: LatticeFunction, n: int, a: float) -> float:
    """First centered difference (f(n+1) - f(n-1)) / (2a)."""
    _check_site(n, f.N)
    return (f(n + 1) - f(n - 1)) / (2.0 * a)


def centered_diff2(f: LatticeFunction, n: int, a: float) -> float:
    """Second centered difference (f(n+2) - 2 f(n) + f(n-2)) / (4 a^2)."""
    _check_site(n, f.N)
    return (f(n + 2) - 2.0 * f(n) + f(n - 2)) / (4.0 * a * a)


def antiderivative_series(f: LatticeFunction, n: int, a: float) -> float:
    """Antidifference of f at site n from the translation-operator series.

    Expanding the inverse centered difference in translations gives
    F(n) = -2a * sum_{k>=0} f(n + 2k + 1); the zero extension of f truncates
    the sum at the support edge.  The centered difference of F reproduces f
    wherever the neighbouring antidifference values are unclipped.
    """
    _check_site(n, f.N)
    total = 0.0
    for m in range(n + 1, f.N + 1, 2):
        total += f.values[m]
    return -2.0 * a * total


def antiderivative(f: LatticeFunction, a: float) -> LatticeFunction:
    """antiderivative_series on every site 0..N, in O(N).

    tail[k] = f(k) + f(k+2) + ... is a reverse cumulative sum over the sites
    of k's parity, and F(n) = -2a tail[n+1].  The sums run from the top site
    down, so values differ from the series in the last digits.
    """
    v = f.values
    tail = np.zeros(v.size + 1)
    for parity in (0, 1):
        tail[parity:v.size:2] = np.cumsum(v[parity::2][::-1])[::-1]
    return LatticeFunction(-2.0 * a * tail[1:])


def definite_integral(f: LatticeFunction, n_min: int, n_max: int, a: float) -> float:
    """Discrete definite integral F(n_max) - F(n_min), F the O(N) antiderivative.

    The difference of the two series telescopes to 2a times a sum of f over
    sites of alternating parity between the limits; over the full range
    (0, N) only the odd sites contribute.
    """
    _check_site(n_min, f.N)
    _check_site(n_max, f.N)
    if n_min > n_max:
        raise ValueError(f"n_min={n_min} exceeds n_max={n_max}")
    F = antiderivative(f, a).values
    return float(F[n_max] - F[n_min])


def closed_form_antiderivative(kind: str, alpha: float, n: int) -> float:
    """Closed-form antidifference at site n, unit-spacing convention.

    kind "one":  n
    kind "cos":  sin(n alpha) / sin(alpha)
    kind "sin":  -cos(n alpha) / sin(alpha)
    kind "sin2": n/2 - sin(2 n alpha) / (2 sin(2 alpha))

    Physical scaling by the spacing a is applied by the caller (the definite
    integral carries the 2a factor).
    """
    if kind == "one":
        return float(n)
    if kind in ("cos", "sin"):
        s = math.sin(alpha)
        if abs(s) < SINGULAR_TOL:
            raise SingularQuadrature(f"sin(alpha) vanishes for alpha={alpha!r}")
        if kind == "cos":
            return math.sin(n * alpha) / s
        return -math.cos(n * alpha) / s
    if kind == "sin2":
        s2 = math.sin(2.0 * alpha)
        if abs(s2) < SINGULAR_TOL:
            raise SingularQuadrature(f"sin(2 alpha) vanishes for alpha={alpha!r}")
        return 0.5 * n - 0.5 * math.sin(2.0 * n * alpha) / s2
    raise ValueError(f"unknown antidifference kind {kind!r}")
