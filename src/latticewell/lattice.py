"""Uniform integer lattices and finitely supported functions sampled on them."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of a uniform lattice: sites n = 0..N with spacing a.

    The physical coordinate of site n is x_n = a*n and the total width is
    L = N*a.
    """

    N: int
    a: float = 1.0

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise ValueError(f"site-count bound N must be an integer >= 2, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if not self.a > 0:
            raise ValueError(f"lattice spacing a must be positive, got {self.a!r}")
        if not math.isfinite(self.N * self.a):
            raise OverflowError(f"width L = N*a overflows at N={self.N}, a={self.a!r}")

    @property
    def L(self) -> float:
        return self.N * self.a

    def coords(self) -> np.ndarray:
        """Physical coordinates x_n = a*n for n = 0..N."""
        return self.a * np.arange(self.N + 1)


class LatticeFunction:
    """Real values on sites 0..N, extended by zero outside that range.

    The zero extension gives every function finite support, which turns the
    antidifference operator series into a finite sum.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1 or arr.size < 3:
            raise ValueError("values must be one-dimensional with at least 3 entries (N >= 2)")
        arr.setflags(write=False)
        self.values = arr

    @property
    def N(self) -> int:
        return self.values.size - 1

    def __call__(self, n: int) -> float:
        if 0 <= n <= self.N:
            return float(self.values[n])
        return 0.0

    def __repr__(self) -> str:
        return f"LatticeFunction(N={self.N})"
