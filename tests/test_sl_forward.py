import math

import numpy as np
import pytest

from invspec import sl_forward
from invspec import (
    ConstantPotential,
    CosinePotential,
    GridPotential,
    InputError,
    PolyPotential,
    Spectrum,
    eigenvalue_count_below,
    free_spectrum_verdict,
    mean_value,
    neumann_eigenvalues,
    rayleigh_mean_gap,
    shoot_miss,
)
from conftest import seeded_grid_potential, seeded_potential_mix
from oracles import fd_neumann_eigenvalues

PI2 = math.pi**2


def test_shoot_miss_free_problem():
    q = ConstantPotential(0.0)
    assert abs(shoot_miss(q, PI2)) <= 1e-9
    assert abs(shoot_miss(q, 0.0)) <= 1e-9


def test_shoot_miss_constant_shift():
    q = ConstantPotential(5.0)
    assert abs(shoot_miss(q, 5.0 + PI2)) <= 1e-9


def test_shoot_miss_sign_structure():
    # between consecutive eigenvalues the miss keeps one sign
    q = ConstantPotential(0.0)
    assert shoot_miss(q, 0.5 * PI2) != 0.0
    assert shoot_miss(q, 2.5 * PI2) != 0.0


def test_count_below_free_problem():
    q = ConstantPotential(0.0)
    assert eigenvalue_count_below(q, 1.0) == 1
    assert eigenvalue_count_below(q, PI2 + 0.1) == 2
    assert eigenvalue_count_below(q, -1.0) == 0


def test_count_below_monotone_sweep(rng):
    potentials = [
        ConstantPotential(2.0),
        CosinePotential(1.0, 1),
        seeded_grid_potential(rng, n_nodes=6),
    ]
    for q in potentials:
        counts = [eigenvalue_count_below(q, mu) for mu in np.linspace(-5.0, 120.0, 100)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_count_below_agrees_with_matrix_oracle():
    q = CosinePotential(1.0, 1)
    oracle = fd_neumann_eigenvalues(q, 8)
    for mu in np.linspace(-1.0, 160.0, 40):
        want = int(np.sum(oracle < mu))
        assert eigenvalue_count_below(q, mu) == want


def test_free_spectrum_eigenvalues():
    spec = neumann_eigenvalues(ConstantPotential(0.0), 20)
    for n, lam in enumerate(spec.values):
        target = (n * math.pi) ** 2
        assert abs(lam - target) <= 1e-8 * max(1.0, target)


def test_constant_shift_spectrum():
    spec = neumann_eigenvalues(ConstantPotential(5.0), 10)
    for n, lam in enumerate(spec.values):
        assert abs(lam - ((n * math.pi) ** 2 + 5.0)) <= 1e-8


def test_cosine_spectrum_matches_oracle():
    q = CosinePotential(1.0, 1)
    got = neumann_eigenvalues(q, 6)
    want = fd_neumann_eigenvalues(q, 6)
    assert max(abs(a - b) for a, b in zip(got.values, want)) <= 1e-6


def test_shift_covariance_sample(rng):
    for _ in range(3):
        q = seeded_grid_potential(rng, n_nodes=6)
        base = neumann_eigenvalues(q, 8)
        for c in (-3.0, 1.0, 7.0):
            shifted = neumann_eigenvalues(q.shifted(c), 8)
            assert max(abs(s - b - c) for b, s in zip(base.values, shifted.values)) <= 1e-8


def test_eigenvalue_simplicity(rng):
    potentials = [
        CosinePotential(3.0, 2),
        seeded_grid_potential(rng, n_nodes=7, bound=8.0),
        ConstantPotential(-4.0),
    ]
    for q in potentials:
        spec = neumann_eigenvalues(q, 12)
        gaps = [b - a for a, b in zip(spec.values, spec.values[1:])]
        assert min(gaps) >= 1e-4


def test_count_requires_positive():
    with pytest.raises(InputError):
        neumann_eigenvalues(ConstantPotential(0.0), 0)
    with pytest.raises(InputError):
        neumann_eigenvalues(ConstantPotential(0.0), 1, eig_tol=0.0)


def test_no_shooting_shot_repeats_a_lambda(monkeypatch):
    # y(1) for the residual floor comes out of the refinement, not a second shot
    shots = []
    integrate = sl_forward._integrate

    def recording(qf, breaks, lam, loc_tol, track_phase):
        if not track_phase:
            shots.append(lam)
        return integrate(qf, breaks, lam, loc_tol, track_phase)

    monkeypatch.setattr(sl_forward, "_integrate", recording)
    for q in (
        ConstantPotential(1.5),
        GridPotential((0.0, 0.4, 1.0), (1.0, -2.0, 0.5)),
        CosinePotential(1.0, 1),
        PolyPotential((0.5, -1.0, 2.0)),
    ):
        shots.clear()
        neumann_eigenvalues(q, 8)
        assert len(shots) == len(set(shots))


def test_neumann_spectrum_validates_monotone():
    spec = neumann_eigenvalues(CosinePotential(1.0, 1), 6)
    assert spec.multiplicities == (1,) * 6
    assert all(isinstance(lam, float) for lam in spec.values)
    assert all(b > a for a, b in zip(spec.values, spec.values[1:]))
    with pytest.raises(InputError):
        Spectrum(((1.0, 1), (0.5, 1)))
    with pytest.raises(InputError):
        neumann_eigenvalues(ConstantPotential(0.0), 0)


def test_free_spectrum_verdict_cases():
    spec0 = neumann_eigenvalues(ConstantPotential(0.0), 8)
    assert free_spectrum_verdict(spec0, 1e-6)
    spec1 = neumann_eigenvalues(ConstantPotential(1.0), 8)
    assert not free_spectrum_verdict(spec1, 1e-6)


def test_free_spectrum_verdict_small_cosine():
    # the dense oracle puts the first-mode shift near 0.005, well over tol
    q = CosinePotential(0.01, 1)
    oracle = fd_neumann_eigenvalues(q, 4)
    assert abs(oracle[1] - PI2) > 1e-4
    spec = neumann_eigenvalues(q, 4)
    assert not free_spectrum_verdict(spec, 1e-6)


def test_rayleigh_trivials():
    lam0, mean = rayleigh_mean_gap(ConstantPotential(0.0))
    assert abs(lam0) <= 1e-8 and abs(mean) <= 1e-12
    lam0, mean = rayleigh_mean_gap(ConstantPotential(3.0))
    assert abs(lam0 - 3.0) <= 1e-8 and abs(mean - 3.0) <= 1e-12


def test_rayleigh_cosine_gap_matches_oracle():
    q = CosinePotential(1.0, 1)
    lam0, mean = rayleigh_mean_gap(q)
    assert abs(mean) <= 1e-10
    assert lam0 < -1e-3
    oracle0 = fd_neumann_eigenvalues(q, 1)[0]
    assert abs(lam0 - oracle0) <= 1e-6


def test_mean_value_simpson():
    assert abs(mean_value(CosinePotential(2.0, 3))) <= 1e-10
    assert abs(mean_value(GridPotential((0.0, 1.0), (1.0, 3.0))) - 2.0) <= 1e-9


def test_asymptotic_sanity_gate(rng):
    # drift of high eigenvalues from (n pi)^2 + mean stays under the loose gate
    for _ in range(3):
        q = seeded_potential_mix(rng)
        spec = neumann_eigenvalues(q, 9)
        qbar = mean_value(q)
        gate = max(1.0, q.total_variation())
        for n in range(5, 9):
            assert abs(spec.values[n] - (n * math.pi) ** 2 - qbar) <= gate
