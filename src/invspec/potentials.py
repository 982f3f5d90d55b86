"""Potential coefficients q(x) on [0,1] for the Neumann problems.

Four representations: constant, piecewise-linear grid, single cosine mode,
and polynomial in x.  All are immutable and evaluate to real values.  Each
kind writes its formula twice: once as the scalar call q(x), which the
forward solver's mesh builder uses, and once as the vectorized
`sample(xs)`, for the Simpson mean and other array work.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core import as_count, as_finite_float, horner
from .errors import InputError

__all__ = [
    "Potential",
    "ConstantPotential",
    "GridPotential",
    "CosinePotential",
    "PolyPotential",
]

TWO_PI = 2.0 * math.pi


class Potential:
    """Common interface: scalar call, vectorized sample, and solver hooks."""

    kind = "abstract"

    def __call__(self, x: float) -> float:
        """q(x) at one abscissa."""
        raise NotImplementedError

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on a numpy array of abscissae."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Interior kink locations the integrator should land on exactly."""
        return ()

    def total_variation(self) -> float:
        """Integral of |q'| over [0,1]; sets each eigenvalue's search window and the sanity gate."""
        raise NotImplementedError

    def lower_bound(self) -> float:
        """A value <= min q(x); used to start eigenvalue bracketing."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantPotential(Potential):
    value: float

    kind = "constant"

    def __post_init__(self):
        object.__setattr__(self, "value", as_finite_float(self.value, "constant value"))

    def sample(self, xs):
        return np.full_like(np.asarray(xs, dtype=float), self.value)

    def __call__(self, x):
        return self.value

    def total_variation(self) -> float:
        return 0.0

    def lower_bound(self) -> float:
        return self.value


@dataclass(frozen=True)
class GridPotential(Potential):
    """Piecewise-linear interpolant through (nodes, values)."""

    nodes: tuple[float, ...]
    values: tuple[float, ...]

    kind = "grid"

    def __post_init__(self):
        nodes = tuple(as_finite_float(x, f"nodes[{i}]") for i, x in enumerate(self.nodes))
        values = tuple(as_finite_float(v, f"values[{i}]") for i, v in enumerate(self.values))
        if len(nodes) != len(values):
            raise InputError(
                f"grid needs equally many nodes and values, got {len(nodes)} vs {len(values)}"
            )
        if len(nodes) < 2:
            raise InputError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise InputError(f"nodes[0] must be 0, got {nodes[0]}")
        if nodes[-1] != 1.0:
            raise InputError(f"nodes[{len(nodes) - 1}] must be 1, got {nodes[-1]}")
        for i in range(1, len(nodes)):
            if nodes[i] <= nodes[i - 1]:
                raise InputError(f"nodes[{i}] = {nodes[i]} is not strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def sample(self, xs):
        return np.interp(np.asarray(xs, dtype=float), self.nodes, self.values)

    def __call__(self, x):
        nodes, values = self.nodes, self.values
        if x <= 0.0:
            return values[0]
        if x >= 1.0:
            return values[-1]
        i = bisect.bisect_right(nodes, x)
        x0 = nodes[i - 1]
        v0 = values[i - 1]
        return v0 + (values[i] - v0) * (x - x0) / (nodes[i] - x0)

    def breakpoints(self) -> tuple[float, ...]:
        return self.nodes[1:-1]

    def total_variation(self) -> float:
        return float(sum(abs(b - a) for a, b in zip(self.values, self.values[1:])))

    def lower_bound(self) -> float:
        return min(self.values)


@dataclass(frozen=True)
class CosinePotential(Potential):
    """q(x) = amplitude * cos(2*pi*frequency*x)."""

    amplitude: float
    frequency: int

    kind = "cosine"

    def __post_init__(self):
        object.__setattr__(self, "amplitude", as_finite_float(self.amplitude, "amplitude"))
        object.__setattr__(self, "frequency", as_count(self.frequency, "frequency", 0))

    def sample(self, xs):
        return self.amplitude * np.cos(TWO_PI * self.frequency * np.asarray(xs, dtype=float))

    def __call__(self, x):
        return self.amplitude * math.cos(TWO_PI * self.frequency * x)

    def total_variation(self) -> float:
        # integral of |A * 2 pi k sin(2 pi k x)| over one unit = 4 |A| k
        return 4.0 * abs(self.amplitude) * self.frequency

    def lower_bound(self) -> float:
        if self.frequency == 0:
            return self.amplitude
        return -abs(self.amplitude)


@dataclass(frozen=True)
class PolyPotential(Potential):
    """q(x) = coeffs[0] + coeffs[1] x + ... in ascending powers."""

    coeffs: tuple[float, ...]

    kind = "poly_in_x"

    def __post_init__(self):
        coeffs = tuple(
            as_finite_float(c, f"coeffs[{i}]") for i, c in enumerate(self.coeffs)
        )
        if not coeffs:
            raise InputError("polynomial potential needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def sample(self, xs):
        return horner(self.coeffs, np.asarray(xs, dtype=float))

    def __call__(self, x):
        return horner(self.coeffs, x)

    def total_variation(self) -> float:
        deriv = tuple((k + 1) * c for k, c in enumerate(self.coeffs[1:]))
        if not deriv:
            return 0.0
        xs = np.linspace(0.0, 1.0, 513)
        return float(np.trapezoid(np.abs(horner(deriv, xs)), xs))

    def lower_bound(self) -> float:
        return float(self.sample(np.linspace(0.0, 1.0, 513)).min()) - 1.0
