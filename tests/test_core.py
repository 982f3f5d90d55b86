import math

import numpy as np
import pytest

from invspec import (
    InputError,
    Polynomial,
    Spectrum,
    poly_eval,
    poly_max_abs_diff,
    spectra_match,
)
from invspec.core import CLUSTER_RADIUS
from oracles import mp_power_sum_eval, union_find_clusters

REL_TOL = 1e-14
LIN_TOL = 1e-13


def test_poly_eval_direct_sum():
    assert poly_eval(Polynomial((1.0, 2.0)), 2.0) == 5.0


def test_poly_eval_constant():
    p = Polynomial((3.5 - 1.0j,))
    for z in (0.0, 2.0, -1.0 + 4.0j):
        assert poly_eval(p, z) == 3.5 - 1.0j


def test_poly_eval_matches_power_sum_oracle(rng):
    for _ in range(50):
        s = int(rng.integers(0, 7))
        coeffs = tuple(complex(a, b) for a, b in rng.uniform(-3, 3, (s + 1, 2)))
        z = complex(*rng.uniform(-3, 3, 2))
        p = Polynomial(coeffs)
        got = poly_eval(p, z)
        want = complex(mp_power_sum_eval(coeffs, z))
        assert abs(got - want) <= REL_TOL * max(1.0, abs(want))


def test_poly_eval_linear_in_coefficients(rng):
    for _ in range(100):
        s = int(rng.integers(0, 6))
        c1 = tuple(complex(a, b) for a, b in rng.uniform(-2, 2, (s + 1, 2)))
        c2 = tuple(complex(a, b) for a, b in rng.uniform(-2, 2, (s + 1, 2)))
        z = complex(*rng.uniform(-2, 2, 2))
        p, q = Polynomial(c1), Polynomial(c2)
        lhs = poly_eval(Polynomial(tuple(a + b for a, b in zip(c1, c2))), z)
        rhs = poly_eval(p, z) + poly_eval(q, z)
        assert abs(lhs - rhs) <= LIN_TOL * max(1.0, abs(lhs), abs(rhs))


def test_polynomial_keeps_trailing_zeros():
    p = Polynomial((1.0, 0.0, 0.0))
    assert p.degree == 2
    assert p.coeffs == (1.0 + 0j, 0j, 0j)


def test_polynomial_rejects_non_finite():
    with pytest.raises(InputError):
        Polynomial((1.0, float("nan")))
    with pytest.raises(InputError):
        Polynomial(())


def test_max_abs_diff_trivials():
    p = Polynomial((1.0, 2.0))
    assert poly_max_abs_diff(p, p) == 0.0
    assert poly_max_abs_diff(p, Polynomial((1.0, 2.5))) == 0.5


def test_max_abs_diff_matches_elementwise_scan(rng):
    for _ in range(25):
        s = int(rng.integers(0, 6))
        c1 = tuple(complex(a, b) for a, b in rng.uniform(-2, 2, (s + 1, 2)))
        c2 = tuple(complex(a, b) for a, b in rng.uniform(-2, 2, (s + 1, 2)))
        got = poly_max_abs_diff(Polynomial(c1), Polynomial(c2))
        want = max(abs(a - b) for a, b in zip(c1, c2))
        assert got == want


def test_max_abs_diff_degree_mismatch():
    with pytest.raises(InputError, match="polynomials are incomparable: degrees 0 != 1"):
        poly_max_abs_diff(Polynomial((1.0,)), Polynomial((1.0, 0.0)))


def test_spectra_match_trivials():
    s = Spectrum(((0.0 + 0j, 1), (math.pi**2 + 0j, 1)))
    assert spectra_match(s, s, 1e-12)
    assert not spectra_match(Spectrum(((0j, 1),)), Spectrum(((0j, 2),)), 1e-12)
    tol = 1e-6
    s1 = Spectrum(((1.0 + 0j, 1),))
    s2 = Spectrum(((1.0 + tol / 2 + 0j, 1),))
    assert spectra_match(s1, s2, tol)
    assert not spectra_match(s1, Spectrum(((1.0 + 2 * tol, 1),)), tol)
    assert not spectra_match(s, Spectrum(((0j, 1),)), tol)
    for bad in (float("nan"), 0.0, -1.0):
        with pytest.raises(InputError):
            spectra_match(s, s, bad)


def test_spectra_match_reflexive_symmetric(rng):
    for _ in range(100):
        n = int(rng.integers(1, 6))
        pts = [complex(a, b) for a, b in rng.uniform(-5, 5, (n, 2))]
        ones = [1] * n
        s1 = Spectrum(tuple(union_find_clusters(pts, ones, CLUSTER_RADIUS)))
        jittered = [z + complex(*rng.uniform(-1e-8, 1e-8, 2)) for z in pts]
        s2 = Spectrum(tuple(union_find_clusters(jittered, ones, CLUSTER_RADIUS)))
        assert spectra_match(s1, s1, 1e-12)
        tol = 1e-6
        assert spectra_match(s1, s2, tol) == spectra_match(s2, s1, tol)


def test_spectrum_requires_sorted_entries():
    with pytest.raises(InputError):
        Spectrum(((1.0 + 0j, 1), (0.0 + 0j, 1)))
    with pytest.raises(InputError):
        Spectrum(((1.0, 1), (0.5, 1)))
    with pytest.raises(InputError):
        Spectrum(((1.0, 1), (1.0, 1)))
    with pytest.raises(InputError):
        Spectrum(((1.0 + 0j, 0),))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Polynomial(("one",)),
        lambda: Polynomial((None,)),
        lambda: Spectrum((("one", 1),)),
        lambda: Spectrum(((math.inf, 1),)),
        lambda: spectra_match(Spectrum(()), Spectrum(()), "tight"),
        lambda: spectra_match(Spectrum(()), Spectrum(()), None),
    ],
)
def test_input_checks(call):
    with pytest.raises(InputError):
        call()
