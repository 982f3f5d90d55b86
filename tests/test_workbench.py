import dataclasses
import math

import numpy as np
import pytest

from invspec import (
    BoundaryPolynomialProblem,
    ExperimentConfig,
    InputError,
    NumericalError,
    Polynomial,
    SearchBox,
    find_det_eigenvalues,
    roundtrip,
    run_seeded_suite,
    uniqueness_probe,
)
from invspec import workbench
from invspec.workbench import DEFAULT_BOX, compare_neumann
from invspec import ConstantPotential, CosinePotential, GridPotential
from oracles import fd_neumann_eigenvalues, tight_pair

TWO_PI = 2.0 * math.pi


def test_roundtrip_zero_polynomial():
    report = roundtrip(Polynomial((0.0,)), ExperimentConfig())
    assert report.max_coeff_error <= 1e-9
    # g(0) = 1 + a_0 = 1, so the node comes from the 2 pi i k family
    assert abs(abs(report.nodes_used[0]) - TWO_PI) <= 1e-6


def test_roundtrip_degree_one():
    report = roundtrip(Polynomial((1.0, 2.0)), ExperimentConfig())
    assert report.max_coeff_error <= 1e-7
    assert report.condition < 1e3
    assert report.wall_time_ms > 0.0


@pytest.mark.parametrize("a0", [-0.9999333009372378, -1.0 + 3e-5, -1.0 + 1e-7, -1.0 + 1e-9])
def test_roundtrip_a0_near_minus_one(a0):
    # delta(0) = 1 + a_0 nearly vanishes, so one zero sits next to the origin
    report = roundtrip(Polynomial((a0, 0.8822855617524055)), ExperimentConfig(degree_range=(1, 1)))
    assert report.max_coeff_error <= 1e-6 * report.condition


def test_roundtrip_degree_must_fit_range():
    cfg = ExperimentConfig(degree_range=(0, 1))
    with pytest.raises(InputError):
        roundtrip(Polynomial((1.0, 1.0, 1.0)), cfg)


def test_roundtrip_too_few_roots():
    cfg = ExperimentConfig(search_box=SearchBox(0.1, 0.2, 0.1, 0.2), degree_range=(0, 0))
    with pytest.raises(NumericalError, match="needed 1 determinant roots but found 0 in the"):
        roundtrip(Polynomial((0.0,)), cfg)


def test_roundtrip_small_box_raises_after_one_search(monkeypatch):
    # the caller's box of half-height 0.1 misses the node at 2 pi i, and the
    # search is not repeated on a wider box
    searches = []

    def counted(*args, **kwargs):
        searches.append(args[1])
        return find_det_eigenvalues(*args, **kwargs)

    monkeypatch.setattr(workbench, "find_det_eigenvalues", counted)
    box = SearchBox(-0.1, 0.1, -0.1, 0.1)
    with pytest.raises(NumericalError, match="needed 1 determinant roots but found 0 in the"):
        roundtrip(Polynomial((0.0,)), ExperimentConfig(search_box=box, degree_range=(0, 0)))
    assert searches == [box]


def test_seeded_suite_deterministic():
    cfg = ExperimentConfig(seed=42, trials=4, degree_range=(0, 2))
    first = run_seeded_suite(cfg)
    second = run_seeded_suite(cfg)
    for a, b in zip(first, second):
        assert a.true_coeffs == b.true_coeffs
        assert a.recovered == b.recovered
        assert a.max_coeff_error == b.max_coeff_error
        assert a.condition == b.condition
        assert a.nodes_used == b.nodes_used


def test_widening_keeps_roots(rng):
    prob = BoundaryPolynomialProblem(Polynomial((0.9, -0.4, 1.1)))
    boxes = [SearchBox(-2.0 * f, 2.0 * f, -7.0 * f, 7.0 * f) for f in 1.5 ** np.arange(5)]
    previous = []
    for box in boxes:
        roots = [r.value for r in find_det_eigenvalues(prob, box, 64)]
        for z in previous:
            assert any(abs(z - w) <= 1e-8 for w in roots)
        previous = roots


def test_uniqueness_distinct_constants():
    report = uniqueness_probe(Polynomial((1.0,)), Polynomial((2.0,)), ExperimentConfig())
    assert not report.spectra_matched
    assert report.shared_zeros == 0
    assert report.passed
    assert report.max_coeff_error_a <= 1e-7
    assert report.max_coeff_error_b <= 1e-7


def test_uniqueness_identical_pair():
    p = Polynomial((0.5, -1.0))
    report = uniqueness_probe(p, p, ExperimentConfig())
    assert report.spectra_matched
    roots = find_det_eigenvalues(BoundaryPolynomialProblem(p), DEFAULT_BOX, 80)
    assert report.shared_zeros == len(roots)
    assert report.passed
    assert report.max_coeff_error_a == report.max_coeff_error_b


def test_uniqueness_counts_the_zeros_a_tight_pair_shares():
    a = Polynomial((0.5, 1.0, -0.3))
    roots = find_det_eigenvalues(BoundaryPolynomialProblem(a), DEFAULT_BOX, 80, nearest=2)
    z1, z2 = roots.values[:2]
    b = Polynomial(tuple(c + 0.7 * d for c, d in zip(a.coeffs, (z1 * z2, -(z1 + z2), 1.0))))
    report = uniqueness_probe(a, b, ExperimentConfig())
    assert not report.spectra_matched
    assert report.shared_zeros == 2
    assert report.passed


def test_uniqueness_far_zeros_close_in_distance_are_not_shared():
    # far zeros move little with A: six pairs of zeros of these two lie
    # within the match tolerance, and none is a zero of both
    a = Polynomial((0.14322292494737443, 1.670706932453843, 1.9258633955552122))
    b = Polynomial((0.7655243241210514, 1.670706932453843, 1.9258633955552122))
    roots = [find_det_eigenvalues(BoundaryPolynomialProblem(p), DEFAULT_BOX, 80) for p in (a, b)]
    close = [z for z in roots[0].values if min(abs(z - w) for w in roots[1].values) <= 1e-6]
    assert len(close) == 6
    report = uniqueness_probe(a, b, ExperimentConfig())
    assert report.shared_zeros == 0
    assert report.passed


def test_uniqueness_fails_a_tight_pair_recovered_with_an_error(monkeypatch):
    # both recoveries of this s = 3 pair have condition above 2000, so an
    # own-recovery rule of 1e-6 x condition would accept an error of 1e-3
    a, b = (Polynomial(c) for c in tight_pair(np.random.default_rng(0), 3))
    report = uniqueness_probe(a, b, ExperimentConfig())
    assert report.passed and report.shared_zeros == 3
    recover = workbench.reconstruct_coeffs

    def off_by_1e_3(nodes):
        rec = recover(nodes)
        shifted = Polynomial(tuple(c + 1e-3 for c in rec.coefficients.coeffs))
        return dataclasses.replace(rec, coefficients=shifted)

    monkeypatch.setattr(workbench, "reconstruct_coeffs", off_by_1e_3)
    report = uniqueness_probe(a, b, ExperimentConfig())
    assert report.shared_zeros == 3
    errors = (report.max_coeff_error_a, report.max_coeff_error_b)
    assert max(errors) <= 1e-6 * min(report.condition_a, report.condition_b)
    assert min(errors) >= 1e-3
    assert not report.passed


def test_uniqueness_rejects_close_but_distinct():
    cfg = ExperimentConfig()
    with pytest.raises(InputError):
        uniqueness_probe(Polynomial((1.0,)), Polynomial((1.0 + 1e-9,)), cfg)
    with pytest.raises(InputError):
        uniqueness_probe(Polynomial((1.0,)), Polynomial((1.0, 0.0)), cfg)


def test_compare_identical_zero_potentials():
    report = compare_neumann(ConstantPotential(0.0), ConstantPotential(0.0), 5, 1e-6)
    assert report.matched
    assert report.zero_potential_flag
    assert max(report.gaps) <= 1e-10


def test_compare_shifted_constant():
    report = compare_neumann(ConstantPotential(0.0), ConstantPotential(0.5), 5, 1e-6)
    assert not report.matched
    assert not report.zero_potential_flag
    assert max(abs(g - 0.5) for g in report.gaps) <= 1e-8


def test_compare_cosine_against_sampled_grid():
    # 101-point piecewise-linear sampling shifts the second eigenvalue by
    # about h^2 (2 pi)^2 / 24 ~ 1.6e-4; the dense oracle confirms the gaps,
    # so the match tolerance is frozen from that bound
    qc = CosinePotential(1.0, 1)
    nodes = tuple(np.linspace(0.0, 1.0, 101))
    qg = GridPotential(nodes, tuple(float(v) for v in qc.sample(np.array(nodes))))
    report = compare_neumann(qc, qg, 6, 2.5e-4)
    assert report.matched
    oracle_gaps = np.abs(
        fd_neumann_eigenvalues(qc, 6) - fd_neumann_eigenvalues(qg, 6)
    )
    assert max(abs(g - o) for g, o in zip(report.gaps, oracle_gaps)) <= 1e-6
    assert max(report.gaps) <= 2.5e-4
    # index 1 carries the dominant interpolation shift
    assert report.gaps[1] == max(report.gaps)


def test_only_roundtrip_stops_early(monkeypatch):
    # uniqueness_probe compares whole spectra, so its searches must not stop early
    calls = []

    def recorded(*args, **kwargs):
        roots = find_det_eigenvalues(*args, **kwargs)
        calls.append((kwargs.get("nearest"), args, roots))
        return roots

    monkeypatch.setattr(workbench, "find_det_eigenvalues", recorded)
    a, b = Polynomial((0.5, -1.0)), Polynomial((0.5, -0.6))
    uniqueness_probe(a, b, ExperimentConfig())
    assert [nearest for nearest, _, _ in calls] == [None, None]
    for _, args, roots in calls:
        assert len(roots) == len(find_det_eigenvalues(*args))
    calls.clear()
    roundtrip(a, ExperimentConfig())
    assert [nearest for nearest, _, _ in calls] == [2]


@pytest.mark.parametrize(
    "kwargs",
    [{"trials": 0}, {"degree_range": (-1, 2)}, {"degree_range": (3, 2)}, {"trials": 2.5}],
)
def test_experiment_config_checks(kwargs):
    with pytest.raises(InputError):
        ExperimentConfig(**kwargs)
