"""Experiment harness: round trips, uniqueness probes, spectrum comparison.

A round trip generates the determinant spectrum of a known boundary
polynomial, reconstructs the coefficients from the located eigenvalues,
and reports the coefficient error next to the Vandermonde condition; over
a seeded suite this witnesses that the eigenvalue data determines the
coefficients uniquely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .char_det import BoundaryPolynomialProblem, SearchBox, find_det_eigenvalues
from .core import (
    CLUSTER_RADIUS,
    Polynomial,
    RoundTripReport,
    Spectrum,
    as_count,
    as_positive_tol,
    horner,
    poly_max_abs_diff,
    spectra_match,
)
from .errors import InputError, NumericalError
from .potentials import Potential
from .reconstruct import reconstruct_coeffs, select_reconstruction_nodes
from .sl_forward import free_spectrum_verdict, neumann_eigenvalues

__all__ = [
    "ExperimentConfig",
    "RoundTripReport",
    "UniquenessReport",
    "CompareReport",
    "roundtrip",
    "run_seeded_suite",
    "uniqueness_probe",
    "compare_neumann",
]

DEFAULT_BOX = SearchBox(-8.0, 8.0, -30.0, 30.0)

_COEFF_BOUND = 2.0
MAX_ROOTS = 80
# two determinant spectra match when paired roots lie within this distance
_MATCH_TOL = 1e-6
# relative size of A - B at which a zero of a counts as one of b too
_SHARED_TOL = 1e-11


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    degree_range: tuple[int, int] = (0, 3)
    search_box: SearchBox = field(default_factory=lambda: DEFAULT_BOX)
    trials: int = 1

    def __post_init__(self):
        as_count(self.seed, "seed", 0)
        as_count(self.trials, "trials")
        lo, hi = self.degree_range
        if lo < 0 or hi < lo:
            raise InputError(f"bad degree range {self.degree_range}")


@dataclass(frozen=True)
class UniquenessReport:
    spectra_matched: bool
    shared_zeros: int
    max_coeff_error_a: float
    max_coeff_error_b: float
    condition_a: float
    condition_b: float
    passed: bool


@dataclass(frozen=True)
class CompareReport:
    gaps: tuple[float, ...]
    matched: bool
    free_spectrum_a: bool
    free_spectrum_b: bool
    zero_potential_flag: bool


def _roots(prob, cfg: ExperimentConfig, needed: int, nearest=False) -> Spectrum:
    """The roots in the configured box; NumericalError when it holds fewer than needed."""
    nearest = needed if nearest else None
    roots = find_det_eigenvalues(prob, cfg.search_box, MAX_ROOTS, nearest=nearest)
    if len(roots) < needed:
        raise NumericalError(
            f"needed {needed} determinant roots but found {len(roots)} in the search box"
        )
    return roots


def _recover(a: Polynomial, roots: Spectrum, start: float):
    """Recover a from its located roots; wall time counts from perf_counter() = start."""
    nodes = select_reconstruction_nodes(roots, a.degree)
    rec = reconstruct_coeffs(nodes)
    return RoundTripReport(
        true_coeffs=a,
        recovered=rec.coefficients,
        max_coeff_error=poly_max_abs_diff(a, rec.coefficients),
        condition=rec.vandermonde_condition,
        nodes_used=nodes,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
    )


def roundtrip(a: Polynomial, cfg: ExperimentConfig) -> RoundTripReport:
    """Locate determinant eigenvalues of a known polynomial and recover it."""
    lo, hi = cfg.degree_range
    if not lo <= a.degree <= hi:
        raise InputError(
            f"polynomial degree {a.degree} outside configured range [{lo}, {hi}]"
        )
    start = time.perf_counter()
    # the s+1 nodes are the smallest-modulus roots, so the search stops once they are certified
    roots = _roots(BoundaryPolynomialProblem(a), cfg, a.degree + 1, nearest=True)
    return _recover(a, roots, start)


def run_seeded_suite(cfg: ExperimentConfig) -> tuple[RoundTripReport, ...]:
    """cfg.trials independent round trips with seeded random coefficients.

    Coefficients are drawn independently and uniformly from [-2, 2];
    degrees uniformly from degree_range.
    Identical configs produce identical reports (modulo wall time).
    """
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.degree_range
    reports = []
    for _ in range(cfg.trials):
        degree = int(rng.integers(lo, hi + 1))
        coeffs = tuple(float(c) for c in rng.uniform(-_COEFF_BOUND, _COEFF_BOUND, degree + 1))
        reports.append(roundtrip(Polynomial(coeffs), cfg))
    return tuple(reports)


def _shared_zeros(a: Polynomial, b: Polynomial, roots_a: Spectrum, roots_b: Spectrum) -> int:
    """Zeros of a, with multiplicity, that b's spectrum lists within _MATCH_TOL and where A = B.

    At a zero z of a's determinant A(z) = rhs_value(z), so z is a zero of
    b's iff B(z) = A(z).  Distance alone does not tell, since far zeros
    move little with A: those of distinct pairs often lie within _MATCH_TOL
    of each other.  So A - B must also vanish at z, to _SHARED_TOL times
    sum (|a_k| + |b_k|) |z|^k, the rounding scale of evaluating it.
    """
    diff = [c - d for c, d in zip(a.coeffs, b.coeffs)]
    sizes = [abs(c) + abs(d) for c, d in zip(a.coeffs, b.coeffs)]
    return sum(
        m for z, m in roots_a
        if any(abs(z - w) <= _MATCH_TOL for w in roots_b.values)
        and abs(horner(diff, z)) <= _SHARED_TOL * horner(sizes, abs(z))
    )


def uniqueness_probe(a: Polynomial, a_tilde: Polynomial, cfg: ExperimentConfig) -> UniquenessReport:
    """Check injectivity of coefficients -> eigenvalues on one pair.

    At a zero of the determinant A equals rhs_value, so two distinct
    polynomials of degree s share at most s zeros, and s + 1 zeros
    determine A.  The probe passes iff each spectrum reconstructs its own
    generator, to a coefficient error of at most 1e-9 max(1, condition),
    and the pair shares at most s zeros (all of them when the pair is
    identical).  The bound is tight: a + c (lam - z_1)...(lam - z_s)
    over s zeros z_i of a shares exactly those.
    """
    if a.degree != a_tilde.degree:
        raise InputError(
            f"probe needs equal degrees, got {a.degree} vs {a_tilde.degree}"
        )
    sep = poly_max_abs_diff(a, a_tilde)
    if 0.0 < sep < 10.0 * CLUSTER_RADIUS:
        raise InputError(
            f"polynomials are distinct but closer than 10x the cluster radius ({sep:.3e})"
        )
    start = time.perf_counter()
    # the shared count covers whole spectra, so both searches cover the whole box
    roots_a = _roots(BoundaryPolynomialProblem(a), cfg, a.degree + 1)
    roots_b = _roots(BoundaryPolynomialProblem(a_tilde), cfg, a.degree + 1)
    matched = spectra_match(roots_a, roots_b, _MATCH_TOL)
    shared = _shared_zeros(a, a_tilde, roots_a, roots_b)
    rep_a = _recover(a, roots_a, start)
    rep_b = _recover(a_tilde, roots_b, start)
    own = all(r.max_coeff_error <= 1e-9 * max(1.0, r.condition) for r in (rep_a, rep_b))
    return UniquenessReport(
        spectra_matched=matched,
        shared_zeros=shared,
        max_coeff_error_a=rep_a.max_coeff_error,
        max_coeff_error_b=rep_b.max_coeff_error,
        condition_a=rep_a.condition,
        condition_b=rep_b.condition,
        passed=own and (matched if sep == 0.0 else shared <= a.degree),
    )


def compare_neumann(qa: Potential, qb: Potential, count: int, match_tol: float) -> CompareReport:
    """Compare the Neumann spectra of two potentials.

    Reports per-index gaps and, when both spectra sit on the free spectrum
    within match_tol, raises the zero-potential flag: agreement with the
    free spectrum forces a vanishing potential.
    """
    match_tol = as_positive_tol(match_tol, "match_tol")
    sa = neumann_eigenvalues(qa, count)
    sb = neumann_eigenvalues(qb, count)
    gaps = tuple(abs(x - y) for x, y in zip(sa.values, sb.values))
    matched = spectra_match(sa, sb, match_tol)
    free_a = free_spectrum_verdict(sa, match_tol)
    free_b = free_spectrum_verdict(sb, match_tol)
    return CompareReport(
        gaps=gaps,
        matched=matched,
        free_spectrum_a=free_a,
        free_spectrum_b=free_b,
        zero_potential_flag=matched and free_a and free_b,
    )
