"""Potential coefficients q(x) on [0,1] for the Neumann problems.

Four representations: constant, piecewise-linear grid, single cosine mode,
and polynomial in x.  All are immutable and evaluate to real values.  Each
kind writes its formula once, as the scalar call q(x): the forward solver's
mesh builder reads q only through it, and takes the mean of q from the
mesh it builds.  Each also gives one enclosure, `bounds()`, of q on
[0, 1], from which the forward solver brackets every eigenvalue: exact for
the constant, grid and cosine kinds, sampled and padded by a bound on the
curvature for polynomials.
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
    """Common interface: scalar call, breakpoints and enclosure."""

    kind = "abstract"

    def __call__(self, x: float) -> float:
        """q(x) at one abscissa."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Interior kink locations the integrator should land on exactly."""
        return ()

    def bounds(self) -> tuple[float, float]:
        """(lower, upper) with lower <= q(x) <= upper on [0, 1].

        By min-max, lam_k lies in [(k pi)^2 + lower, (k pi)^2 + upper]: the
        forward solver brackets each eigenvalue with this enclosure.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantPotential(Potential):
    value: float

    kind = "constant"

    def __post_init__(self):
        object.__setattr__(self, "value", as_finite_float(self.value, "constant value"))

    def __call__(self, x):
        return self.value

    def bounds(self) -> tuple[float, float]:
        return self.value, self.value


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

    def bounds(self) -> tuple[float, float]:
        return min(self.values), max(self.values)


@dataclass(frozen=True)
class CosinePotential(Potential):
    """q(x) = amplitude * cos(2*pi*frequency*x)."""

    amplitude: float
    frequency: int

    kind = "cosine"

    def __post_init__(self):
        object.__setattr__(self, "amplitude", as_finite_float(self.amplitude, "amplitude"))
        object.__setattr__(self, "frequency", as_count(self.frequency, "frequency", 0))

    def __call__(self, x):
        return self.amplitude * math.cos(TWO_PI * self.frequency * x)

    def bounds(self) -> tuple[float, float]:
        if self.frequency == 0:
            return self.amplitude, self.amplitude
        return -abs(self.amplitude), abs(self.amplitude)


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

    def __call__(self, x):
        return horner(self.coeffs, x)

    def bounds(self) -> tuple[float, float]:
        # the extremes of 513 samples h = 1/512 apart, padded: an extremum
        # between samples exceeds them by at most h^2/8 max|q''|, and on
        # [0, 1] |q''| <= sum k (k - 1) |c_k|; the pad is twice that, and 1
        # at least
        vals = horner(self.coeffs, np.linspace(0.0, 1.0, 513))
        curv = sum(k * (k - 1) * abs(c) for k, c in enumerate(self.coeffs))
        pad = max(1.0, curv / (4.0 * 512.0**2))
        return float(vals.min()) - pad, float(vals.max()) + pad
