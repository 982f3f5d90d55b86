"""Shared numeric domain types and thresholds: polynomials, spectra, reports.

Everything here is an immutable value object; all operations are pure
functions of their inputs and safe for concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError

# |g|, the scaled determinant, at or below RESIDUAL_TOL counts as a zero;
# points closer than CLUSTER_RADIUS count as one (duplicate interpolation
# nodes, a zero and its conjugate partner).  Keep CLUSTER_RADIUS
# >= RESIDUAL_TOL: find_det_eigenvalues nudges a box by multiples of
# CLUSTER_RADIUS and counts on that step being no smaller than the residual
# floor.
RESIDUAL_TOL = 1e-9
CLUSTER_RADIUS = 1e-8

__all__ = [
    "Eigenvalue",
    "Polynomial",
    "RoundTripReport",
    "Spectrum",
    "horner",
    "poly_eval",
    "poly_max_abs_diff",
    "spectra_match",
]


def as_finite_complex(value, what: str = "value") -> complex:
    """Coerce to complex, rejecting NaN/Inf components."""
    try:
        z = complex(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} is not a number: {value!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InputError(f"{what} must be finite, got {z!r}")
    return z


def as_finite_float(value, what: str = "value") -> float:
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} is not a real number: {value!r}") from exc
    if not math.isfinite(x):
        raise InputError(f"{what} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector c_0..c_s in ascending powers.

    The degree is declared by the vector length, never inferred: trailing
    zero coefficients are legitimate data (a zero leading coefficient must
    survive a round trip through reconstruction).
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(as_finite_complex(c, "coefficient") for c in self.coeffs)
        if not coeffs:
            raise InputError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def horner(coeffs, z):
    """c_0 + c_1 z + ... + c_s z^s by the Horner recurrence; z a scalar or a numpy array."""
    acc = 0 * z
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def poly_eval(p: Polynomial, z) -> complex:
    """Evaluate the polynomial at one point."""
    return horner(p.coeffs, complex(z))


def poly_max_abs_diff(p: Polynomial, q: Polynomial) -> float:
    """Max coefficient-wise absolute difference of two same-degree polynomials."""
    if p.degree != q.degree:
        raise InputError(
            f"polynomials are incomparable: degrees {p.degree} != {q.degree}"
        )
    return max(abs(a - b) for a, b in zip(p.coeffs, q.coeffs))


@dataclass(frozen=True)
class RoundTripReport:
    """One recovery of known coefficients; in report files nodes_used is keyed "nodes"."""

    true_coeffs: Polynomial
    recovered: Polynomial
    max_coeff_error: float
    condition: float
    nodes_used: tuple[complex, ...]
    wall_time_ms: float

    def __post_init__(self):
        expected = poly_max_abs_diff(self.true_coeffs, self.recovered)
        if self.max_coeff_error != expected:
            raise InputError(
                f"max_coeff_error {self.max_coeff_error!r} does not match the "
                f"coefficient difference {expected!r}"
            )


class Eigenvalue(NamedTuple):
    """One spectrum entry: a value and its algebraic multiplicity."""

    value: complex | float
    multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue entries strictly increasing in (re, im); real-typed values stay floats."""

    entries: tuple[Eigenvalue, ...]

    def __post_init__(self):
        entries = []
        for value, mult in self.entries:
            if isinstance(value, numbers.Real):
                z = as_finite_float(value, "spectrum value")
            else:
                z = as_finite_complex(value, "spectrum value")
            m = int(mult)
            if m < 1:
                raise InputError(f"multiplicity must be >= 1, got {mult}")
            entries.append(Eigenvalue(z, m))
        keys = [(z.real, z.imag) for z, _ in entries]
        if any(k0 >= k1 for k0, k1 in zip(keys, keys[1:])):
            # a repeated value is one entry with the summed multiplicity
            raise InputError("spectrum entries must strictly increase in (re, im)")
        object.__setattr__(self, "entries", tuple(entries))

    @property
    def values(self) -> tuple[complex | float, ...]:
        return tuple(e.value for e in self.entries)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(e.multiplicity for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


def as_positive_tol(value, what: str) -> float:
    """A finite tolerance > 0; a NaN one would make every comparison pass."""
    x = as_finite_float(value, what)
    if x <= 0.0:
        raise InputError(f"{what} must be strictly positive, got {x}")
    return x


def as_count(value, what: str, least: int = 1) -> int:
    """An integer >= least; 2.5 is an InputError, not a truncation or a TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{what} must be >= {least}, got {value}")
    return int(value)


def spectra_match(s1: Spectrum, s2: Spectrum, tol: float) -> bool:
    """True iff the spectra pair off in order within ``tol`` with equal multiplicities."""
    tol = as_positive_tol(tol, "tol")
    if len(s1) != len(s2):
        return False
    for (z1, m1), (z2, m2) in zip(s1, s2):
        if m1 != m2 or abs(z1 - z2) > tol:
            return False
    return True
