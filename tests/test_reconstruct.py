import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from invspec import reconstruct
from invspec import (
    BoundaryPolynomialProblem,
    InputError,
    NumericalError,
    Polynomial,
    SearchBox,
    Spectrum,
    condition_estimate,
    find_det_eigenvalues,
    poly_eval,
    poly_max_abs_diff,
    reconstruct_coeffs,
    rhs_value,
    select_reconstruction_nodes,
    vandermonde_solve,
)
from oracles import mp, mp_real_root_bisect, mp_vandermonde_solve, rhs_printed_form

TWO_PI = 2.0 * math.pi
BOX = SearchBox(-8.0, 8.0, -30.0, 30.0)


# -- right-hand side ---------------------------------------------------------

def test_rhs_exact_values():
    got = rhs_value(1j * math.pi)
    want = -2j / (3.0 * math.pi)
    assert abs(got - want) <= 1e-15
    assert abs(rhs_value(TWO_PI * 1j)) <= 1e-15


def test_rhs_excluded_nodes():
    # the origin is an ordinary node: A = -1 puts a zero of delta there
    assert rhs_value(0.0) == -1
    with pytest.raises(InputError):
        rhs_value(math.log(2.0))
    with pytest.raises(InputError):
        rhs_value(math.log(2.0) + TWO_PI * 1j)


def test_rhs_printed_vs_reduced_form(rng):
    for _ in range(100):
        lam = complex(rng.uniform(-10, 10), rng.uniform(-20, 20))
        if abs(lam) < 1e-3 or abs(cmath.exp(lam) - 2.0) < 1e-3:
            continue
        printed = rhs_printed_form(lam)
        reduced = rhs_value(lam)
        assert abs(printed - reduced) <= 1e-12 * max(1.0, abs(reduced))


# -- Vandermonde solver -------------------------------------------------------

def test_vandermonde_two_point_line():
    p = vandermonde_solve([1.0, 2.0], [3.0, 5.0])
    assert p.coeffs == (1.0 + 0j, 2.0 + 0j)


def test_vandermonde_single_node():
    p = vandermonde_solve([4.0 + 1j], [2.5 - 1j])
    assert p.coeffs == (2.5 - 1j,)


def test_vandermonde_duplicate_nodes_error():
    with pytest.raises(InputError, match="0 and 2"):
        vandermonde_solve([1.0, 2.0, 1.0 + 1e-12], [0.0, 0.0, 0.0])


def test_vandermonde_ill_conditioned_nodes_raise():
    nodes = (1.0, 1.0 + 1e-5, 1.0 + 2e-5, 1.0 + 3e-5)
    assert condition_estimate(nodes) > 1e12
    with pytest.raises(NumericalError, match="condition"):
        vandermonde_solve(nodes, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(NumericalError, match="condition"):
        reconstruct_coeffs(nodes)


def test_vandermonde_matches_extended_precision_oracle(rng):
    for degree in range(1, 7):
        for _ in range(6):
            nodes = []
            while len(nodes) < degree + 1:
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if all(abs(z - w) > 0.2 for w in nodes):
                    nodes.append(z)
            values = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in nodes]
            got = vandermonde_solve(nodes, values).coeffs
            want = [complex(w) for w in mp_vandermonde_solve(nodes, values)]
            scale = max(1.0, max(abs(w) for w in want))
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8 * scale


def test_vandermonde_recovers_known_degree_six(rng):
    coeffs = tuple(complex(a, b) for a, b in rng.uniform(-2, 2, (7, 2)))
    truth = Polynomial(coeffs)
    nodes = [cmath.exp(2j * math.pi * k / 7) * (1.0 + 0.1 * k) for k in range(7)]
    values = [poly_eval(truth, z) for z in nodes]
    got = vandermonde_solve(nodes, values)
    assert poly_max_abs_diff(truth, got) <= 1e-8 * max(1.0, max(abs(c) for c in coeffs))


# -- conditioning -------------------------------------------------------------

def test_condition_trivials():
    assert condition_estimate([1.0]) == 1.0
    assert condition_estimate([1.0, 1.0]) == math.inf
    assert abs(condition_estimate([1.0, -1.0]) - 2.0) <= 1e-12
    assert condition_estimate([1.0, 1.001]) >= 1e3


def test_condition_is_the_exact_one_norm_product(rng):
    for n in range(1, 13):
        for _ in range(5):
            nodes = [complex(a, b) for a, b in rng.uniform(-6, 6, (n, 2))]
            V = mp.matrix([[mp.mpc(z) ** j for j in range(n)] for z in nodes])
            W = V**-1
            want = max(sum(abs(V[r, c]) for r in range(n)) for c in range(n)) * max(
                sum(abs(W[r, c]) for r in range(n)) for c in range(n)
            )
            # the inverse's rounding error grows with the condition itself
            if want <= 1e10:
                assert abs(condition_estimate(nodes) - want) <= 1e-11 * want


def test_import_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, invspec; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_condition_monotone_gate(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        nodes = [complex(a, b) for a, b in rng.uniform(-3, 3, (n, 2))]
        base = condition_estimate(nodes)
        extended = condition_estimate(nodes + [complex(4.0, 1.0)])
        assert extended >= base / 10.0


# -- full reconstruction ------------------------------------------------------

def test_reconstruction_input_validation():
    with pytest.raises(InputError):
        reconstruct_coeffs(())
    assert reconstruct_coeffs((0.0 + 0j,)).coefficients.coeffs == (-1.0 + 0j,)
    with pytest.raises(InputError, match=r": \(1\+0j\) vs \(1\+1e-10j\)$"):
        reconstruct_coeffs((1.0 + 0j, 1.0 + 1e-10j))


def test_reconstruct_from_interpolation_identity(rng):
    # rhs values produced from a known polynomial directly, bypassing the
    # determinant: recovery is plain interpolation
    truth = Polynomial((0.5, -1.5, 2.0))
    nodes = (1.0 + 1j, -2.0 + 0.5j, 3.0 - 1j)
    values = [poly_eval(truth, z) for z in nodes]
    got = vandermonde_solve(nodes, values)
    cond = condition_estimate(nodes)
    assert poly_max_abs_diff(truth, got) <= 1e-10 * cond


def test_reconstruct_degree_zero_from_oracle_root():
    root = float(mp_real_root_bisect((1.0,), 1.0, 2.0))
    rec = reconstruct_coeffs((complex(root),))
    assert abs(rec.coefficients.coeffs[0] - 1.0) <= 1e-9
    assert rec.vandermonde_condition == 1.0


def test_reconstruct_degree_one_roundtrip():
    truth = Polynomial((1.0, 2.0))
    roots = find_det_eigenvalues(BoundaryPolynomialProblem(truth), BOX, 64)
    nodes = select_reconstruction_nodes(roots, 1)
    rec = reconstruct_coeffs(nodes)
    assert poly_max_abs_diff(truth, rec.coefficients) <= 1e-7
    assert max(rec.node_residuals) <= 1e-9 * rec.vandermonde_condition


def test_permutation_invariance():
    truth = Polynomial((0.7, -1.2, 0.4))
    roots = find_det_eigenvalues(BoundaryPolynomialProblem(truth), BOX, 64)
    nodes = list(select_reconstruction_nodes(roots, 2))
    base = reconstruct_coeffs(tuple(nodes)).coefficients
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        shuffled = tuple(nodes[i] for i in perm)
        rec = reconstruct_coeffs(shuffled).coefficients
        assert poly_max_abs_diff(base, rec) <= 1e-12


def test_conjugate_closure_gives_real_coefficients():
    truth = Polynomial((1.0, 2.0))
    roots = find_det_eigenvalues(BoundaryPolynomialProblem(truth), BOX, 64)
    values = [r.value for r in roots]
    pair = next(
        (z, w)
        for z in values
        for w in values
        if z.imag > 1e-6 and abs(z.conjugate() - w) <= 1e-8
    )
    rec = reconstruct_coeffs(pair)
    assert max(abs(c.imag) for c in rec.coefficients.coeffs) <= 1e-10
    assert poly_max_abs_diff(truth, rec.coefficients) <= 1e-7


def test_node_selection_policy():
    values = Spectrum(((-1.0 + 0j, 1), (0.5 + 2j, 1), (1.0 + 0j, 1), (3.0 + 0j, 1)))
    picked = select_reconstruction_nodes(values, 1)
    assert picked == (-1.0 + 0j, 1.0 + 0j)
    with pytest.raises(InputError):
        select_reconstruction_nodes(values, 5)
    with pytest.raises(InputError):
        select_reconstruction_nodes(values, -1)


def test_uniqueness_on_separated_pairs(rng):
    # reconstruction from a polynomial's own nodes returns that polynomial,
    # never its partner, once the pair is separated
    for degree in (0, 1, 2, 3):
        a = Polynomial(tuple(float(c) for c in rng.uniform(-2, 2, degree + 1)))
        shift = np.zeros(degree + 1)
        shift[int(rng.integers(0, degree + 1))] = 0.35
        b = Polynomial(tuple(float(c) for c in (np.array([x.real for x in a.coeffs]) + shift)))
        assert poly_max_abs_diff(a, b) >= 0.1
        roots = find_det_eigenvalues(BoundaryPolynomialProblem(a), BOX, 64)
        nodes = select_reconstruction_nodes(roots, degree)
        rec = reconstruct_coeffs(nodes)
        err_a = poly_max_abs_diff(rec.coefficients, a)
        err_b = poly_max_abs_diff(rec.coefficients, b)
        assert err_a <= 1e-6 * max(1.0, rec.vandermonde_condition)
        assert err_b >= 0.1


@pytest.mark.parametrize(
    "call",
    [
        lambda: condition_estimate([]),
        lambda: condition_estimate([1.0, "x"]),
        lambda: vandermonde_solve([1.0, 2.0], [3.0]),
        lambda: vandermonde_solve([], []),
        lambda: vandermonde_solve([1.0, math.nan], [1.0, 2.0]),
        lambda: rhs_value(math.inf),
    ],
)
def test_input_checks(call):
    with pytest.raises(InputError):
        call()


def test_interpolation_residual_check(monkeypatch):
    # coefficients off by 1e-3 miss every node value
    solve = reconstruct._bjorck_pereyra
    monkeypatch.setattr(reconstruct, "_bjorck_pereyra", lambda z, v: solve(z, v) + 1e-3)
    with pytest.raises(NumericalError, match="interpolation residual"):
        vandermonde_solve([1.0, 2.0], [3.0, 5.0])


def test_reconstruction_residual_check(monkeypatch):
    # a determinant that does not vanish where rhs_value says A pins a zero
    monkeypatch.setattr(reconstruct, "delta_scaled_eval", lambda prob, z: 1e-3)
    with pytest.raises(NumericalError, match="reconstruction residual"):
        reconstruct_coeffs((1.0 + 2j, -0.5 + 7j))
