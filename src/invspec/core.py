"""Shared numeric domain types and thresholds: polynomials, spectra, reports.

Everything here is an immutable value object; all operations are pure
functions of their inputs and safe for concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegreeMismatchError, InputError

# |g|, the scaled determinant, at or below RESIDUAL_TOL counts as a zero;
# roots closer than CLUSTER_RADIUS merge into one entry.  Keep CLUSTER_RADIUS
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

    def __call__(self, z) -> complex:
        return poly_eval(self, z)


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
        raise DegreeMismatchError(
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


def _sort_key(z: complex):
    return (z.real, z.imag)


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
        keys = [_sort_key(z) for z, _ in entries]
        if any(k0 >= k1 for k0, k1 in zip(keys, keys[1:])):
            # a repeated value is one entry with the summed multiplicity
            raise InputError("spectrum entries must strictly increase in (re, im)")
        object.__setattr__(self, "entries", tuple(entries))

    @classmethod
    def from_points(
        cls, points, cluster_radius: float = CLUSTER_RADIUS, multiplicities=None
    ) -> "Spectrum":
        """Build a spectrum from an unsorted multiset of points.

        Points closer than ``cluster_radius`` (transitively) are merged into
        one entry at their multiplicity-weighted centroid, multiplicities
        summed.  Merging iterates until all representatives are pairwise
        separated by more than the radius.
        """
        pts = [as_finite_complex(z, "point") for z in points]
        if multiplicities is None:
            mults = [1] * len(pts)
        else:
            mults = [int(m) for m in multiplicities]
            if len(mults) != len(pts):
                raise InputError("multiplicities and points must have equal length")
        items = list(zip(pts, mults))
        while True:
            merged = _merge_once(items, cluster_radius)
            if len(merged) == len(items):
                items = merged
                break
            items = merged
        items.sort(key=lambda e: _sort_key(e[0]))
        return cls(tuple(items))

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


def _merge_once(items, radius):
    """One round of connected-component merging by BFS over the radius graph."""
    n = len(items)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        component = []
        while queue:
            i = queue.pop()
            component.append(i)
            zi = items[i][0]
            for j in range(n):
                if not seen[j] and abs(zi - items[j][0]) <= radius:
                    seen[j] = True
                    queue.append(j)
        total = sum(items[i][1] for i in component)
        centroid = sum(items[i][0] * items[i][1] for i in component) / total
        out.append((centroid, total))
    return out


def as_positive_tol(value, what: str) -> float:
    """A finite tolerance > 0; a NaN one would make every comparison pass."""
    x = as_finite_float(value, what)
    if x <= 0.0:
        raise InputError(f"{what} must be strictly positive, got {x}")
    return x


def spectra_match(s1: Spectrum, s2: Spectrum, tol: float) -> bool:
    """True iff the spectra pair off in order within ``tol`` with equal multiplicities."""
    tol = as_positive_tol(tol, "tol")
    if len(s1) != len(s2):
        return False
    for (z1, m1), (z2, m2) in zip(s1, s2):
        if m1 != m2 or abs(z1 - z2) > tol:
            return False
    return True
