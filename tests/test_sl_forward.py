import math

import numpy as np
import pytest

from invspec import sl_forward
from invspec import (
    BracketingError,
    ConstantPotential,
    CosinePotential,
    GridPotential,
    InputError,
    IntegrationError,
    NumericalError,
    PolyPotential,
    Spectrum,
    eigenvalue_count_below,
    free_spectrum_verdict,
    mean_value,
    neumann_eigenvalues,
    rayleigh_mean_gap,
    shoot_miss,
)
from conftest import seeded_grid_potential, seeded_potential_mix, shifted_grid
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
            shifted = neumann_eigenvalues(shifted_grid(q, c), 8)
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


SHOT_POTENTIALS = (
    ConstantPotential(1.5),
    GridPotential((0.0, 0.4, 1.0), (1.0, -2.0, 0.5)),
    CosinePotential(1.0, 1),
    PolyPotential((0.5, -1.0, 2.0)),
)


def record_shots(monkeypatch):
    """The lambdas of every shooting shot; phase shots are not recorded."""
    shots = []
    integrate = sl_forward._integrate

    def recording(qf, breaks, lam, loc_tol, track_phase):
        if not track_phase:
            shots.append(lam)
        return integrate(qf, breaks, lam, loc_tol, track_phase)

    monkeypatch.setattr(sl_forward, "_integrate", recording)
    return shots


def test_no_shooting_shot_repeats_a_lambda(monkeypatch):
    # y(1) for the residual floor comes out of the refinement, not a second shot
    shots = record_shots(monkeypatch)
    for q in SHOT_POTENTIALS:
        shots.clear()
        neumann_eigenvalues(q, 8)
        assert len(shots) == len(set(shots))


def test_newton_takes_few_shots_per_eigenvalue(monkeypatch):
    # safeguarded Newton takes about 3.5 shooting shots per eigenvalue here
    shots = record_shots(monkeypatch)
    for q in SHOT_POTENTIALS:
        neumann_eigenvalues(q, 8)
    assert len(shots) <= 5 * 8 * len(SHOT_POTENTIALS)


def test_integral_of_y_squared_for_a_constant_potential():
    # y = cos(w x) with w = sqrt(lam - c).  Simpson's rule is 0.1-2.9% off at
    # lam - c = 10, 1e2, 1e3 and 1e4, but up to 22% near lam - c = 400, where
    # each step turns y^2 through up to 6 rad.  Newton needs only the slope's
    # sign, which positive weights keep, and its rough size: an error e in M
    # makes each step near lam_k shrink the error by a factor e
    c = 3.0
    for lam in c + np.geomspace(0.5, 1e5, 60):
        omega = math.sqrt(lam - c)
        want = 0.5 + math.sin(2.0 * omega) / (4.0 * omega)
        m = sl_forward._integrate(lambda x: c, (), lam, 1e-12, False)[3]
        assert abs(m - want) <= 0.25 * want, lam


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


def strong_potentials(rng):
    """Two of each kind, with values up to 200 and cosine frequencies up to 8."""
    for _ in range(2):
        yield ConstantPotential(float(rng.uniform(-200.0, 200.0)))
        yield seeded_grid_potential(rng, bound=200.0, lattice=10)
        yield CosinePotential(float(rng.uniform(20.0, 200.0)), int(rng.integers(1, 9)))
        coeffs = rng.uniform(-50.0, 50.0, int(rng.integers(2, 6)))
        yield PolyPotential(tuple(float(c) for c in coeffs))


def test_strong_potentials_count_and_solve():
    # below a strong potential's spectrum the phase must be scaled by
    # sqrt(q - lam), as above it: a fixed scale there miscounted
    for i, q in enumerate(strong_potentials(np.random.default_rng(5))):
        oracle = fd_neumann_eigenvalues(q, 12)
        for mu in [oracle[0] - 5.0, *(0.5 * (oracle[:-1] + oracle[1:]))]:
            assert eigenvalue_count_below(q, mu) == int(np.sum(oracle < mu)), (q, mu)
        if i < 4:
            got = neumann_eigenvalues(q, 12).values
            assert max(abs(a - b) for a, b in zip(got, oracle)) <= 1e-6, q
    # lam_0 = -1.749 here, and a fixed scale counted 2 eigenvalues below -6.7
    assert eigenvalue_count_below(CosinePotential(82.28616787857973, 7), -6.7) == 0


def test_grid_nodes_closer_than_the_step_floor():
    # a breakpoint 5e-15 past another counts as landed instead of asking for a 5e-15 step
    def first_three(gap):
        q = GridPotential((0.0, 0.5, 0.5 + gap, 1.0), (0.0, 1.0, -1.0, 0.0))
        return neumann_eigenvalues(q, 3)

    near = first_three(5e-15).values
    assert max(abs(a - b) for a, b in zip(near, first_three(2e-14).values)) <= 1e-9


def test_free_spectrum_verdict_needs_entries():
    with pytest.raises(InputError):
        free_spectrum_verdict(Spectrum(()), 1e-6)


# -- every guard that stays fires ------------------------------------------


def test_far_below_the_spectrum_caps_growth_and_renormalizes(monkeypatch):
    # q - lam = 1e8: the growth cap 80/sqrt(q - lam) sets every step, and y,
    # which grows like e^(1e4) across [0, 1], stays finite by renormalization
    steps = []
    step = sl_forward._step

    def spy(qf, lam, x, h, y, p):
        steps.append(h)
        return step(qf, lam, x, h, y, p)

    monkeypatch.setattr(sl_forward, "_step", spy)
    y, p, _, m = sl_forward._integrate(lambda x: 0.0, (), -1e8, 1e-12, True)
    assert math.isfinite(y) and math.isfinite(p)
    assert math.isfinite(m) and m > 0.0
    assert max(steps) <= 80.0 / 1e4
    assert eigenvalue_count_below(ConstantPotential(0.0), -1e8) == 0


def test_step_underflow():
    q = CosinePotential(1.0, 1)
    with pytest.raises(IntegrationError, match="underflow"):
        sl_forward._integrate(q.evaluator(), q.breakpoints(), 3.0, 0.0, False)


class LyingLowerBound(ConstantPotential):
    def lower_bound(self) -> float:
        return max(self.value + 5.0, 0.0)


class UnderReportedVariation(CosinePotential):
    def total_variation(self) -> float:
        return 0.0


def test_a_lying_lower_bound_is_widened():
    spec = neumann_eigenvalues(LyingLowerBound(0.0), 3)
    assert max(abs(lam - (n * math.pi) ** 2) for n, lam in enumerate(spec.values)) <= 1e-8
    # lam_0 = -1e5 lies below all four starts, -1, -21, -241 and -2651
    with pytest.raises(BracketingError, match="#0"):
        neumann_eigenvalues(LyingLowerBound(-1e5), 1)


def test_count_bisection_stalls_on_a_window_that_misses():
    # a window of half-width 2 around mean q = 0 misses lam_0 near -190
    with pytest.raises(BracketingError, match="#0"):
        neumann_eigenvalues(UnderReportedVariation(200.0, 1), 1)


def test_residual_floor_and_predecessor_checks(monkeypatch):
    q = ConstantPotential(0.0)
    monkeypatch.setattr(sl_forward, "_newton_refine", lambda miss, k, a, *rest: (a, 1.0, 1.0))
    with pytest.raises(NumericalError, match="residual"):
        neumann_eigenvalues(q, 2)
    monkeypatch.setattr(sl_forward, "_newton_refine", lambda *args: (-1.0, 0.0, 1.0))
    with pytest.raises(NumericalError, match="#1 not above its predecessor"):
        neumann_eigenvalues(q, 2)


def test_asymptotic_sanity_gate_fires(monkeypatch):
    # a mean off by 1.5 moves every guess by 1.5: inside the window of
    # half-width 2, outside the gate of 1
    monkeypatch.setattr(sl_forward, "mean_value", lambda q: 1.5)
    with pytest.raises(NumericalError, match="#5 violates the asymptotic sanity gate"):
        neumann_eigenvalues(ConstantPotential(0.0), 6)


def fake_miss(*results):
    """A miss that returns the given (y'(1), y(1), M) in turn and records each lambda."""
    shots = []
    it = iter(results)

    def miss(lam):
        shots.append(lam)
        return next(it)

    return miss, shots


def test_newton_step_that_leaves_the_bracket_bisects():
    # step 10 from the midpoint 2 leaves [0, 4]; y'(1) > 0 puts 2 below lam_0,
    # so the bracket becomes [2, 4] and the next shot is at 3, where y'(1) = 0
    miss, shots = fake_miss((1.0, 1.0, 0.1), (0.0, 1.0, 1.0))
    assert sl_forward._newton_refine(miss, 0, 0.0, 4.0, 1e-10) == (3.0, 0.0, 1.0)
    assert shots == [2.0, 3.0]
    # for lam_1 the same sign puts 2 above it: the bracket becomes [0, 2]
    miss, shots = fake_miss((1.0, -1.0, 0.1), (0.0, 1.0, 1.0))
    assert sl_forward._newton_refine(miss, 1, 0.0, 4.0, 1e-10)[0] == 1.0
    assert shots == [2.0, 1.0]


def test_newton_stop_takes_one_last_shot_unless_the_step_vanishes():
    # a step below the stop width ends the search; its end is shot once and
    # kept when its |y'(1)| is smaller
    miss, shots = fake_miss((1e-10, 1.0, 1.0), (1e-20, 2.0, 1.0))
    assert sl_forward._newton_refine(miss, 0, 0.0, 4.0, 1e-10) == (2.0 + 1e-10, 1e-20, 2.0)
    assert shots == [2.0, 2.0 + 1e-10]
    miss, shots = fake_miss((1e-10, 1.0, 1.0), (1e-8, 2.0, 1.0))
    assert sl_forward._newton_refine(miss, 0, 0.0, 4.0, 1e-10) == (2.0, 1e-10, 1.0)
    # 2 + 1e-17 == 2: no second shot at the same lambda
    miss, shots = fake_miss((1e-17, 1.0, 1.0))
    assert sl_forward._newton_refine(miss, 0, 0.0, 4.0, 1e-10) == (2.0, 1e-17, 1.0)
    assert shots == [2.0]


def test_newton_refinement_stalls_after_100_iterations():
    # every step points out of the bracket, and none is ever small
    miss, shots = fake_miss(*[(1.0, -1.0, 1e-3)] * 100)
    with pytest.raises(NumericalError, match="#0 refinement stalled"):
        sl_forward._newton_refine(miss, 0, 0.0, 4.0, 1e-10)
    assert len(shots) == 100
    # a real input: in the barrier 5000 x^2 the growing solution swamps the
    # shot, so y(1) and y'(1) change sign together between two neighbouring
    # doubles near sqrt(5000); the bracket closes on them while every Newton
    # step stays above 0.5
    with pytest.raises(NumericalError, match="#0 refinement stalled on \\[70.71067811"):
        neumann_eigenvalues(PolyPotential((0.0, 0.0, 5000.0)), 1)
