import math

import numpy as np
import pytest

from invspec import sl_forward
from invspec import (
    ConstantPotential,
    CosinePotential,
    GridPotential,
    InputError,
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
from oracles import Pointwise, fd_neumann_eigenvalues

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
    # at mu = 1e6 a cell of length 0.5 turns y through about 160 pi, and its
    # count of whole turns must still add up exactly
    for c in (0.0, -150.0, 150.0):
        q = ConstantPotential(c)
        for n in range(1, 321):
            mid = 0.5 * (((n - 1) * math.pi) ** 2 + (n * math.pi) ** 2) + c
            assert eigenvalue_count_below(q, mid) == n, (c, n)


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
    oracle = fd_neumann_eigenvalues(Pointwise(q), 8)
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
    want = fd_neumann_eigenvalues(Pointwise(q), 6)
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
    with pytest.raises(InputError, match="count must be an integer"):
        neumann_eigenvalues(ConstantPotential(0.0), 2.5)
    with pytest.raises(InputError):
        neumann_eigenvalues(ConstantPotential(0.0), 1, eig_tol=0.0)


SHOT_POTENTIALS = (
    ConstantPotential(1.5),
    GridPotential((0.0, 0.4, 1.0), (1.0, -2.0, 0.5)),
    CosinePotential(1.0, 1),
    PolyPotential((0.5, -1.0, 2.0)),
)


def record_shots(monkeypatch):
    """The lambdas of every shot."""
    shots = []
    shoot = sl_forward._shoot

    def recording(cells, lam):
        shots.append(lam)
        return shoot(cells, lam)

    monkeypatch.setattr(sl_forward, "_shoot", recording)
    return shots


def test_shot_work_does_not_grow_with_lambda(monkeypatch):
    # the mesh depends on q alone, so a shot at 1e8 makes as many Magnus
    # steps as one at 1e2, mesh building included; its count of whole turns
    # per cell still puts mid-gap points between the right eigenvalues
    steps = []
    propagate = sl_forward._propagate

    def counted(*args):
        steps.append(1)
        return propagate(*args)

    monkeypatch.setattr(sl_forward, "_propagate", counted)
    for q in SHOT_POTENTIALS:
        work = []
        for lam in (1e2, 1e4, 1e6, 1e8):
            steps.clear()
            n = round(math.sqrt(lam) / math.pi)
            mid = ((n - 0.5) * math.pi) ** 2 + mean_value(q)
            assert eigenvalue_count_below(q, mid) == n, (q, lam)
            work.append(len(steps))
        assert len(set(work)) == 1, (q, work)


def test_tight_tolerances_return():
    # eig_tol / 1000 is below what step doubling resolves, so the mesh stops
    # at its floor instead of raising the step-underflow NumericalError
    for q in SHOT_POTENTIALS[1:]:
        base = neumann_eigenvalues(q, 10).values
        for tol in (1e-12, 1e-13, 1e-14):
            got = neumann_eigenvalues(q, 10, tol).values
            assert max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(got, base)) <= 1e-10


def test_no_shooting_shot_repeats_a_lambda(monkeypatch):
    # y(1) for the residual floor comes out of the refinement, not a second
    # shot, and the shot at the lower bound is not repeated
    shots = record_shots(monkeypatch)
    for q in SHOT_POTENTIALS:
        shots.clear()
        neumann_eigenvalues(q, 8)
        assert len(shots) == len(set(shots))


def test_newton_takes_few_shots_per_eigenvalue(monkeypatch):
    # every shot counts: safeguarded Newton takes about 3.3 per eigenvalue
    # here, the shot that checks the lower bound included
    shots = record_shots(monkeypatch)
    for q in SHOT_POTENTIALS:
        neumann_eigenvalues(q, 8)
    assert len(shots) <= 5 * 8 * len(SHOT_POTENTIALS)


def test_integral_of_y_squared_for_a_constant_potential():
    # y = cos(w x) with w = sqrt(lam - c), or cosh(w x) with w = sqrt(c - lam).
    # The shot returns M in the scale of its y(1), so M / y(1)^2 is compared
    # with the exact integral over cos(w)^2 or cosh(w)^2; near lam = c each
    # cell takes M from its series branch
    c = 3.0
    q = ConstantPotential(c)
    gaps = np.geomspace(1e-3, 1e5, 40)
    for lam in c + np.concatenate([-gaps, [0.0], gaps]):
        p, y, _, m = sl_forward._one_shot(q, lam)
        w = math.sqrt(abs(lam - c))
        if lam > c:
            want = (0.5 + math.sin(2.0 * w) / (4.0 * w)) / math.cos(w) ** 2
        elif lam < c:
            want = 0.5 / math.cosh(w) ** 2 + math.tanh(w) / (2.0 * w)
        else:
            want = 1.0
        assert abs(m / y**2 - want) <= 1e-9 * want, lam


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
    oracle = fd_neumann_eigenvalues(Pointwise(q), 4)
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
    oracle0 = fd_neumann_eigenvalues(Pointwise(q), 1)[0]
    assert abs(lam0 - oracle0) <= 1e-6


def test_rayleigh_mean_gap_builds_one_mesh(monkeypatch):
    q = CosinePotential(65.87652577774243, 8)
    want = (neumann_eigenvalues(q, 1).values[0], mean_value(q))
    meshes = []
    mesh = sl_forward._mesh
    monkeypatch.setattr(sl_forward, "_mesh", lambda *args: meshes.append(args) or mesh(*args))
    # the same values, bit for bit, as the solve and the mean taken apart
    assert rayleigh_mean_gap(q) == want
    assert len(meshes) == 1


def test_mean_value_is_exact_on_kinks_off_a_lattice():
    assert abs(mean_value(CosinePotential(2.0, 3))) <= 1e-10
    assert abs(mean_value(GridPotential((0.0, 1.0), (1.0, 3.0))) - 2.0) <= 1e-9
    # the mesh lands on every kink, so its sum is the trapezoid sum of the
    # grid; the kinks lie off any 2001-point lattice
    nodes = (0.0, 0.12345678, 0.43210987, 0.4322, 0.77777, 1.0)
    values = (3.0, -7.5, 10.25, -2.0, 4.0, -4.5)
    exact = math.fsum(
        (x1 - x0) * (v0 + v1) / 2.0
        for x0, x1, v0, v1 in zip(nodes, nodes[1:], values, values[1:])
    )
    assert abs(mean_value(GridPotential(nodes, values)) - exact) <= 1e-14


def test_asymptotic_sanity_gate(rng):
    # lam_k in [(k pi)^2 + lower, (k pi)^2 + upper], up to the solver's error
    for _ in range(3):
        q = seeded_potential_mix(rng)
        lower, upper = q.bounds()
        for k, lam in enumerate(neumann_eigenvalues(q, 9).values):
            slack = 1e-9 * max(1.0, abs(lam))
            assert (k * math.pi) ** 2 + lower - slack <= lam <= (k * math.pi) ** 2 + upper + slack


def strong_potentials(rng):
    """Two of each kind, with values up to 200 and cosine frequencies up to 8."""
    for _ in range(2):
        yield ConstantPotential(float(rng.uniform(-200.0, 200.0)))
        yield seeded_grid_potential(rng, bound=200.0, lattice=10)
        yield CosinePotential(float(rng.uniform(20.0, 200.0)), int(rng.integers(1, 9)))
        coeffs = rng.uniform(-50.0, 50.0, int(rng.integers(2, 6)))
        yield PolyPotential(tuple(float(c) for c in coeffs))


def test_strong_potentials_count_and_solve():
    # below a strong potential's spectrum a Pruefer phase of fixed scale
    # miscounted; the zeros of y need no scale
    for i, q in enumerate(strong_potentials(np.random.default_rng(5))):
        oracle = fd_neumann_eigenvalues(Pointwise(q), 12)
        for mu in [oracle[0] - 5.0, *(0.5 * (oracle[:-1] + oracle[1:]))]:
            assert eigenvalue_count_below(q, mu) == int(np.sum(oracle < mu)), (q, mu)
        if i < 4:
            got = neumann_eigenvalues(q, 12).values
            assert max(abs(a - b) for a, b in zip(got, oracle)) <= 1e-6, q
    # lam_0 = -1.749 here, and a phase of fixed scale counted 2 below -6.7
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
    # an infinite tol would pass any spectrum, and a NaN or negative one none
    spec = Spectrum(((5.0, 1), (7.0, 1)))
    for tol in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(InputError, match="tol"):
            free_spectrum_verdict(spec, tol)


# -- every guard that stays fires ------------------------------------------


def test_far_below_the_spectrum_caps_growth_and_renormalizes():
    # q - lam = 1e8: the growth cap 80/sqrt(q - lam) sets every cell, and y,
    # which grows like e^(1e4) across [0, 1], stays finite by renormalization.
    # A shot below lower - 1 builds its mesh at its own lam
    q = ConstantPotential(0.0)
    cells = sl_forward._mesh(q, -1e8, sl_forward.EIG_TOL)
    assert max(h for h, _, _ in cells) <= 80.0 / 1e4
    p, y, _, m = sl_forward._shoot(cells, -1e8)
    assert math.isfinite(y) and math.isfinite(p)
    assert math.isfinite(m) and m > 0.0
    assert eigenvalue_count_below(q, -1e8) == 0


def test_step_underflow(monkeypatch):
    # with no floor under the mesh tolerance, a tolerance of 0 is never met
    monkeypatch.setattr(sl_forward, "_MESH_TOL_FLOOR", 0.0)
    q = CosinePotential(1.0, 1)
    with pytest.raises(NumericalError, match="integrator step underflow at x="):
        sl_forward._mesh(q, 3.0, 0.0)


class LyingLowerBound(ConstantPotential):
    def bounds(self) -> tuple[float, float]:
        return max(self.value + 5.0, 0.0), self.value


class UnderstatedUpperBound(CosinePotential):
    def bounds(self) -> tuple[float, float]:
        return -abs(self.amplitude), 1.0


def test_a_lying_lower_bound_raises():
    # the count at lower - 1 must be 0: here it is 1 (lam_0 = 0 < 4),
    # and 1 again for lam_0 = -1e5 below the start -1
    with pytest.raises(NumericalError, match="could not bracket eigenvalue #0 in window"):
        neumann_eigenvalues(LyingLowerBound(0.0), 1)
    with pytest.raises(NumericalError, match="could not bracket eigenvalue #0 in window"):
        neumann_eigenvalues(LyingLowerBound(-1e5), 1)


def test_a_window_that_misses_raises_after_the_eigenvalues_below_it():
    # the bracket for lam_k runs from lo to (k pi)^2 + upper + 1, so an upper
    # bound of 1 still holds lam_0 and lam_1 below the top; it misses lam_2
    # near 75.7, above its top 4 pi^2 + 2
    q = UnderstatedUpperBound(200.0, 1)
    got = neumann_eigenvalues(q, 2).values
    assert max(abs(a - b) for a, b in zip(got, fd_neumann_eigenvalues(Pointwise(q), 2))) <= 1e-6
    with pytest.raises(NumericalError, match="could not bracket eigenvalue #2 in window"):
        neumann_eigenvalues(q, 3)


def test_residual_floor_and_predecessor_checks(monkeypatch):
    q = ConstantPotential(0.0)
    monkeypatch.setattr(sl_forward, "_newton_refine", lambda shoot, k, a, *rest: (a, 1.0, 1.0))
    with pytest.raises(NumericalError, match="residual"):
        neumann_eigenvalues(q, 2)
    monkeypatch.setattr(sl_forward, "_newton_refine", lambda *args: (-1.0, 0.0, 1.0))
    with pytest.raises(NumericalError, match="#1 not above its predecessor"):
        neumann_eigenvalues(q, 2)


class OverstatedLowerBound(CosinePotential):
    def bounds(self) -> tuple[float, float]:
        return -30.0, 150.0


def test_asymptotic_sanity_gate_fires():
    # lam_0 = -29.53 clears the start lower - 1 = -31, but lam_1 = -22.57 lies
    # below pi^2 - 30 - 1 = -21.13
    match = r"eigenvalue #1 = -22.5688 lies below its min-max enclosure \[-20.1304, 159.87\]"
    with pytest.raises(NumericalError, match=match):
        neumann_eigenvalues(OverstatedLowerBound(150.0, 3), 2)


def fake_shoot(*results):
    """A shoot that returns the given (y'(1), y(1), count, M) in turn and records each lambda."""
    shots = []
    it = iter(results)

    def shoot(lam):
        shots.append(lam)
        return next(it)

    return shoot, shots


def test_newton_step_that_leaves_the_bracket_bisects():
    # the count moves one end of the bracket.  For lam_1 on [0, 4] from 2,
    # count 1 puts 2 below lam_1, and the step 100 leaves [2, 4], so the
    # next shot is at 3; count 2 puts 3 above it, and the step -100 leaves
    # [2, 3], so the next is at 2.5, where y'(1) = 0
    shoot, shots = fake_shoot((1.0, 1.0, 1, 0.01), (1.0, -1.0, 2, 0.01), (0.0, 1.0, 1, 1.0))
    assert sl_forward._newton_refine(shoot, 1, 0.0, 4.0, 2.0, 1e-10) == (2.5, 0.0, 1.0)
    assert shots == [2.0, 3.0, 2.5]
    # a start outside the bracket begins at its midpoint
    shoot, shots = fake_shoot((0.0, 1.0, 1, 1.0))
    assert sl_forward._newton_refine(shoot, 1, 0.0, 4.0, -5.0, 1e-10)[0] == 2.0


def test_a_small_step_stops_only_on_a_count_of_k_or_k_plus_1():
    # both small steps land in the bracket, but a shot that counted 3 is
    # near lam_2 or above, and one that counted 0 is below lam_0: neither
    # stops the search for lam_1.  The second step lands on b = 2, which
    # bisects [2 - e, 2]
    e = 2.0**-40
    shoot, shots = fake_shoot((-e, 1.0, 3, 1.0), (e, 1.0, 0, 1.0), (0.0, 1.0, 1, 1.0))
    assert sl_forward._newton_refine(shoot, 1, 0.0, 4.0, 2.0, 1e-10)[0] == 2.0 - e / 2
    assert shots == [2.0, 2.0 - e, 2.0 - e / 2]


def test_a_small_step_out_of_the_bracket_bisects():
    # count 1 puts 2 above lam_0, so the small step up to 2 + 1e-12 leads to
    # lam_1, not lam_0: the search bisects [0, 2] instead of stopping
    shoot, shots = fake_shoot((1e-12, 1.0, 1, 1.0), (0.0, 1.0, 0, 1.0))
    assert sl_forward._newton_refine(shoot, 0, 0.0, 4.0, 2.0, 1e-10)[0] == 1.0
    assert shots == [2.0, 1.0]


def test_a_shot_above_lam_k_stops_only_on_a_step_down():
    # a count of k + 1 puts the shot in (lam_k, lam_{k+1}], where a step up
    # leads to lam_{k+1}.  At 2 the step 1e-17 rounds away, so 2 + step ==
    # 2 == b: the search bisects [0, 2] instead of returning 2
    shoot, shots = fake_shoot((1e-17, 1.0, 1, 1.0), (0.0, 1.0, 0, 1.0))
    assert sl_forward._newton_refine(shoot, 0, 0.0, 4.0, 2.0, 1e-10) == (1.0, 0.0, 1.0)
    assert shots == [2.0, 1.0]
    # the same shot stepping down stops
    shoot, shots = fake_shoot((-1e-17, 1.0, 1, 1.0))
    assert sl_forward._newton_refine(shoot, 0, 0.0, 4.0, 2.0, 1e-10) == (2.0, -1e-17, 1.0)


def test_a_loose_stop_returns_lam_k_not_lam_k_plus_1():
    # at tol 1e-4 a shot for lam_4 lands on lam_5 = 261.014 and counts 5,
    # with a step of +8.5e-15 that rounds away: it must not stop the search
    q = CosinePotential(150.0, 3)
    tight = neumann_eigenvalues(q, 5).values
    loose = neumann_eigenvalues(q, 5, 1e-4).values
    assert max(abs(a - b) / abs(b) for a, b in zip(loose, tight)) <= 1e-4


def test_a_loose_stop_is_relative_to_lam_not_to_the_bracket():
    # lam_0 = -0.859 lies far above the bracket's bottom, lower - 1 = -66.9,
    # so a stop width of 1e-2 times the bracket's ends (0.669) would stop a
    # step of -0.585 short of it, and the residual floor would raise
    q = CosinePotential(65.87652577774243, 8)
    tight = neumann_eigenvalues(q, 12).values
    loose = neumann_eigenvalues(q, 12, 1e-2).values
    assert max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(loose, tight)) <= 1e-2


def test_a_bracket_under_the_stop_width_shoots_its_top_before_giving_up():
    # at eig_tol 2 the stop width 4 exceeds the whole bracket [2, 4]; the
    # shot at the top counts 1, so lam_0 lies below it and the search goes
    # on: the step 100 leaves the bracket and bisects to 3
    shoot, shots = fake_shoot((1.0, 1.0, 0, 0.01), (1.0, 1.0, 1, 1.0), (0.0, 1.0, 0, 1.0))
    assert sl_forward._newton_refine(shoot, 0, 0.0, 4.0, 2.0, 2.0) == (3.0, 0.0, 1.0)
    assert shots == [2.0, 4.0, 3.0]


def test_loose_tolerances_bracket_every_eigenvalue():
    # at eig_tol 2 the stop width covers lam_4's whole window, so only a shot
    # at the top tells whether lam_4 lies below it; each value must lie
    # between its neighbours
    q = CosinePotential(150.0, 3)
    tight = neumann_eigenvalues(q, 13).values
    for tol in (0.5, 2.0):
        got = neumann_eigenvalues(q, 12, tol).values
        assert got[0] < tight[1]
        for k in range(1, 12):
            assert tight[k - 1] < got[k] < tight[k + 1], (tol, k)


def test_a_window_top_that_counts_too_few_raises():
    # no shot ever counts past k, so lam_0 may lie above the window's top;
    # the search gives up once the bracket under the top is below the stop
    # width, about 33 halvings of [3, 4], and a shot at the top counts 0 too
    shoot, shots = fake_shoot(*[(1.0, 1.0, 0, 1.0)] * 100)
    with pytest.raises(NumericalError, match="could not bracket eigenvalue #0 in window"):
        sl_forward._newton_refine(shoot, 0, 0.0, 4.0, 2.0, 1e-10)
    assert len(shots) <= 40
    # Newton steps that creep up by 1e-3 never narrow the bracket: all 100 shots
    shoot, shots = fake_shoot(*[(1e-3, 1.0, 0, 1.0)] * 100)
    with pytest.raises(NumericalError, match="could not bracket eigenvalue #0 in window"):
        sl_forward._newton_refine(shoot, 0, 0.0, 4.0, 2.0, 1e-10)
    assert len(shots) == 100
    # lam_0 just below the top: the stop test runs first, so it still returns
    shoot, shots = fake_shoot((1e-3, 1.0, 0, 1.0), (1e-11, 1.0, 0, 1.0), (0.0, 1.0, 0, 1.0))
    _, f, _ = sl_forward._newton_refine(shoot, 0, 0.0, 4.0, 4.0 - 1e-3 - 2e-11, 1e-10)
    assert f == 0.0 and len(shots) == 3


def test_newton_stop_takes_one_last_shot_unless_the_step_vanishes():
    # a step below the stop width ends the search; its end is shot once and
    # kept when its |y'(1)| is smaller
    shoot, shots = fake_shoot((1e-10, 1.0, 0, 1.0), (1e-20, 2.0, 0, 1.0))
    assert sl_forward._newton_refine(shoot, 0, 0.0, 4.0, 2.0, 1e-10) == (2.0 + 1e-10, 1e-20, 2.0)
    assert shots == [2.0, 2.0 + 1e-10]
    shoot, shots = fake_shoot((1e-10, 1.0, 0, 1.0), (1e-8, 2.0, 0, 1.0))
    assert sl_forward._newton_refine(shoot, 0, 0.0, 4.0, 2.0, 1e-10) == (2.0, 1e-10, 1.0)
    # 2 + 1e-17 == 2: no second shot at the same lambda
    shoot, shots = fake_shoot((1e-17, 1.0, 0, 1.0))
    assert sl_forward._newton_refine(shoot, 0, 0.0, 4.0, 2.0, 1e-10) == (2.0, 1e-17, 1.0)
    assert shots == [2.0]


def test_newton_refinement_stalls_after_100_iterations():
    # every shot counts past k, every step points out of the bracket, and
    # none is ever small
    shoot, shots = fake_shoot(*[(1.0, -1.0, 1, 1e-3)] * 100)
    with pytest.raises(NumericalError, match="#0 refinement stalled"):
        sl_forward._newton_refine(shoot, 0, 0.0, 4.0, 2.0, 1e-10)
    assert len(shots) == 100
    # a real input: in the barrier 5000 x^2 the growing solution swamps the
    # shot, so y(1) and y'(1) change sign together between two neighbouring
    # doubles near sqrt(5000); the bracket closes on them while every Newton
    # step stays above 0.5
    with pytest.raises(NumericalError, match="#0 refinement stalled on \\[70.71067811"):
        neumann_eigenvalues(PolyPotential((0.0, 0.0, 5000.0)), 1)
