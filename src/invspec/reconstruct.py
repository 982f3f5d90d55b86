"""Recovery of boundary-polynomial coefficients from determinant eigenvalues.

Each eigenvalue lam of the determinant problem pins one linear
equation A(lam) = rhs_value(lam); s+1 pairwise-distinct eigenvalues give a
Vandermonde system whose unique solution is the coefficient vector.  In
exact arithmetic any admissible node set works; numerically the system can
be arbitrarily ill-conditioned, so every result carries a condition
estimate and the residual bounds scale with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .char_det import BoundaryPolynomialProblem, _exp_terms, delta_scaled_eval
from .core import (
    CLUSTER_RADIUS,
    RESIDUAL_TOL,
    Polynomial,
    Spectrum,
    as_finite_complex,
    poly_eval,
)
from .errors import InputError, NumericalError

__all__ = [
    "ReconstructionResult",
    "rhs_value",
    "vandermonde_solve",
    "condition_estimate",
    "reconstruct_coeffs",
    "select_reconstruction_nodes",
]

_POLE_TOL = 1e-12
_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class ReconstructionResult:
    coefficients: Polynomial
    node_residuals: tuple[float, ...]
    vandermonde_condition: float


def rhs_value(lam: complex) -> complex:
    """Right-hand side of the linear system at one eigenvalue.

    Evaluates -((1 - e^{-lam})/lam) / (2 e^{-lam} - 1), the value of A that
    makes the scaled determinant vanish at lam; it is -1 at the origin.
    e^lam = 2 is a pole and never an eigenvalue, so hitting it signals a
    bad input node.
    """
    lam, em, g1, _ = _exp_terms(as_finite_complex(lam, "lambda"))
    if abs(2.0 * em - 1.0) <= _POLE_TOL:
        raise InputError(
            f"lambda = {lam!r} sits on the pole e^lam = 2; it cannot be a "
            "determinant eigenvalue"
        )
    return -g1 / (2.0 * em - 1.0)


def _bjorck_pereyra(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Progressive elimination specialized to Vandermonde structure, O(n^2).

    Stage one builds divided differences; stage two converts the Newton
    form to monomial coefficients by synthetic division.
    """
    a = values.astype(complex).copy()
    n = len(a) - 1
    for k in range(n):
        for i in range(n, k, -1):
            a[i] = (a[i] - a[i - 1]) / (nodes[i] - nodes[i - k - 1])
    for k in range(n - 1, -1, -1):
        for i in range(k, n):
            a[i] -= a[i + 1] * nodes[k]
    return a


def condition_estimate(nodes) -> float:
    """1-norm condition estimate of the Vandermonde matrix on these nodes.

    Exact for tiny systems; otherwise the inverse norm comes from a
    standard norm-estimator iteration on the LU factors.
    """
    nodes = np.asarray([as_finite_complex(z, "node") for z in nodes], dtype=complex)
    n = len(nodes)
    if n == 0:
        raise InputError("condition estimate needs at least one node")
    if n == 1:
        return 1.0
    V = np.vander(nodes, increasing=True)
    norm1 = float(np.abs(V).sum(axis=0).max())
    try:
        if n <= 4:
            inv_norm = float(np.abs(np.linalg.inv(V)).sum(axis=0).max())
        else:
            lu, piv = scipy.linalg.lu_factor(V)
            op = scipy.sparse.linalg.LinearOperator(
                (n, n),
                matvec=lambda x: scipy.linalg.lu_solve((lu, piv), x),
                rmatvec=lambda x: scipy.linalg.lu_solve((lu, piv), x, trans=2),
                dtype=complex,
            )
            inv_norm = float(scipy.sparse.linalg.onenormest(op))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        return float("inf")
    return norm1 * inv_norm


def vandermonde_solve(nodes, values) -> Polynomial:
    """Unique degree-n polynomial with A(node_i) = value_i.

    Solved by the structured progressive elimination.  Raises
    NumericalError when the condition estimate exceeds 1e12: there the
    problem itself is ill-posed, and no solver would give a trustworthy
    answer.
    """
    return _solve(nodes, values)[0]


def _solve(nodes, values) -> tuple[Polynomial, float]:
    """vandermonde_solve, also returning the condition estimate it used."""
    nodes = np.asarray([as_finite_complex(z, "node") for z in nodes], dtype=complex)
    values = np.asarray([as_finite_complex(v, "value") for v in values], dtype=complex)
    if len(nodes) != len(values):
        raise InputError(
            f"need equally many nodes and values, got {len(nodes)} vs {len(values)}"
        )
    if len(nodes) == 0:
        raise InputError("need at least one node")
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if abs(nodes[i] - nodes[j]) <= CLUSTER_RADIUS:
                raise InputError(
                    f"duplicate interpolation nodes {i} and {j}: "
                    f"{complex(nodes[i])!r} vs {complex(nodes[j])!r}"
                )
    cond = condition_estimate(nodes)
    if cond > _CONDITION_LIMIT:
        raise NumericalError(
            f"Vandermonde condition {cond:.3e} exceeds {_CONDITION_LIMIT:.0e}: "
            "the nodes are too close to determine the coefficients"
        )
    poly = Polynomial(tuple(_bjorck_pereyra(nodes, values)))
    max_val = float(np.abs(values).max())
    resid = max(abs(poly_eval(poly, z) - v) for z, v in zip(nodes, values))
    bound = 1e-10 * cond * max_val
    if resid > bound and max_val > 0.0:
        raise NumericalError(
            f"interpolation residual {resid:.3e} exceeds {bound:.3e} "
            f"(condition {cond:.3e})"
        )
    return poly, cond


def select_reconstruction_nodes(spectrum: Spectrum, degree: int) -> tuple[complex, ...]:
    """Pick s+1 nodes from a spectrum's values: smallest modulus first.

    Small-modulus nodes empirically give the best Vandermonde conditioning;
    ties break by (re, im) so the choice is deterministic.
    """
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    values = [complex(z) for z in spectrum.values]
    if len(values) < degree + 1:
        raise InputError(
            f"degree {degree} needs {degree + 1} eigenvalues, got {len(values)}"
        )
    values.sort(key=lambda z: (abs(z), z.real, z.imag))
    return tuple(values[: degree + 1])


def reconstruct_coeffs(nodes) -> ReconstructionResult:
    """Recover the degree len(nodes) - 1 polynomial pinned by these eigenvalues.

    The nodes must be pairwise distinct.  Residuals |g| of the scaled
    determinant are recomputed at every node z with the recovered
    coefficients; |g| max(1, |z|) must stay below RESIDUAL_TOL times the
    condition estimate, since g's term (1 - e^{-z})/z scales like 1/|z|.
    """
    values = [rhs_value(z) for z in nodes]
    poly, cond = _solve(nodes, values)
    prob = BoundaryPolynomialProblem(poly)
    residuals = tuple(abs(delta_scaled_eval(prob, z)) for z in nodes)
    bound = RESIDUAL_TOL * cond
    worst = max(r * max(1.0, abs(z)) for r, z in zip(residuals, nodes))
    if worst > bound:
        raise NumericalError(
            f"reconstruction residual {worst:.3e} exceeds {bound:.3e} "
            f"(condition {cond:.3e})"
        )
    return ReconstructionResult(poly, residuals, cond)
