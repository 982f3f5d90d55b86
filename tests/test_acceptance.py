"""Acceptance suite.

One test per criterion; each prints a single verdict line (run with -s to
see them live, they also appear in captured output on failure).  Oracle
values come from tests/oracles.py: finite differences with Richardson
extrapolation for the forward problem, extended-precision arithmetic for
polynomial and linear-algebra checks.
"""

import math
import time

import numpy as np

from invspec import (
    BoundaryPolynomialProblem,
    ConstantPotential,
    CosinePotential,
    ExperimentConfig,
    Polynomial,
    SearchBox,
    count_zeros,
    delta_deriv,
    delta_scaled_eval,
    find_det_eigenvalues,
    neumann_eigenvalues,
    poly_max_abs_diff,
    rayleigh_mean_gap,
    run_seeded_suite,
    uniqueness_probe,
    vandermonde_solve,
)
from invspec.cli import main as cli_main
from invspec.fileio import (
    emit_potential,
    emit_report,
    emit_spectrum,
    parse_potential,
    parse_report,
    parse_spectrum,
)
from conftest import seeded_grid_potential, seeded_potential_mix
from oracles import fd_neumann_eigenvalues, mp_vandermonde_solve

TWO_PI = 2.0 * math.pi


def _verdict(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_free_neumann_spectrum():
    start = time.perf_counter()
    spec = neumann_eigenvalues(ConstantPotential(0.0), 20)
    elapsed = time.perf_counter() - start
    worst = 0.0
    for n, lam in enumerate(spec.values):
        target = (n * math.pi) ** 2
        worst = max(worst, abs(lam - target) / max(1.0, target))
    _verdict(
        1,
        worst <= 1e-8 and elapsed < 2.0,
        f"free spectrum: max scaled error {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_shift_covariance():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        q = seeded_grid_potential(rng, bound=2.0)
        base = neumann_eigenvalues(q, 8)
        for c in (-3.0, 1.0, 7.0):
            shifted = neumann_eigenvalues(q.shifted(c), 8)
            worst = max(worst, max(abs(s - b - c) for b, s in zip(base.values, shifted.values)))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        worst <= 1e-8 and elapsed < 30.0,
        f"shift covariance: worst error {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_3_method_cross_check():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        q = seeded_grid_potential(rng, lattice=10, bound=2.0)
        shoot = neumann_eigenvalues(q, 5)
        oracle = fd_neumann_eigenvalues(q, 5)
        worst = max(worst, max(abs(a - b) for a, b in zip(shoot.values, oracle)))
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        worst <= 1e-6 and elapsed < 60.0,
        f"shooting vs matrix oracle: worst gap {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_4_rigidity_witness():
    rng = np.random.default_rng(404)
    ok = True
    detail = []
    for i in range(50):
        if i % 5 == 0:
            q = ConstantPotential(float(rng.uniform(-2, 2)))
            constant = True
        else:
            q = seeded_potential_mix(rng)
            constant = isinstance(q, ConstantPotential)
        lam0, mean = rayleigh_mean_gap(q)
        if lam0 > mean + 1e-8:
            ok = False
            detail.append(f"inequality violated at trial {i}")
            break
        tight = abs(lam0 - mean) <= 1e-8
        if tight != constant:
            ok = False
            detail.append(f"equality/kind mismatch at trial {i} (gap {mean - lam0:.3e})")
            break
    qc = CosinePotential(1.0, 1)
    lam0, mean = rayleigh_mean_gap(qc)
    oracle0 = fd_neumann_eigenvalues(qc, 1)[0]
    cos_ok = (mean - lam0) > 1e-3 and abs(lam0 - oracle0) <= 1e-6
    if not cos_ok:
        detail.append(f"cosine gap {mean - lam0:.3e}, oracle delta {abs(lam0 - oracle0):.3e}")
    _verdict(
        4,
        ok and cos_ok,
        "rigidity: inequality and equality-iff-constant on 50 potentials; "
        f"cosine gap {mean - lam0:.4e} matches oracle"
        + ("" if ok and cos_ok else "; " + "; ".join(detail)),
    )


def test_criterion_5_analytic_zero_set():
    start = time.perf_counter()
    prob = BoundaryPolynomialProblem(Polynomial((0.0,)))
    roots = find_det_eigenvalues(prob, SearchBox(-1.0, 1.0, -20.0, 20.0), 16)
    elapsed = time.perf_counter() - start
    want = sorted(TWO_PI * k for k in (-3, -2, -1, 1, 2, 3))
    got = sorted(r.value.imag for r in roots)
    ok = (
        len(roots) == 6
        and all(r.multiplicity == 1 for r in roots)
        and max(abs(g - w) for g, w in zip(got, want)) <= 1e-9
        and max(abs(r.value.real) for r in roots) <= 1e-9
        and elapsed < 5.0
    )
    _verdict(5, ok, f"zero set 2*pi*i*k, |k|<=3: {len(roots)} roots, {elapsed:.2f}s")


def test_criterion_6_argument_principle_consistency():
    rng = np.random.default_rng(606)
    violations = 0
    checked = 0
    for degree in (0, 1, 2, 3):
        for _ in range(3):
            coeffs = tuple(float(c) for c in rng.uniform(-2, 2, degree + 1))
            prob = BoundaryPolynomialProblem(Polynomial(coeffs))
            for box in (
                SearchBox(-8.0, 8.0, -30.0, 30.0),
                SearchBox(-5.0, 5.0, -15.0, 15.0),
                SearchBox(-2.5, 4.0, 3.0, 25.0),
            ):
                roots = find_det_eigenvalues(prob, box, 64)
                mult = sum(r.multiplicity for r in roots)
                if count_zeros(prob, box) != mult:
                    violations += 1
                checked += 1
    _verdict(6, violations == 0, f"count vs located roots on {checked} boxes: {violations} violations")


def test_criterion_7_derivative_validation():
    rng = np.random.default_rng(707)
    h = 1e-6
    worst = 0.0
    for degree in (0, 1, 2, 3):
        prob = BoundaryPolynomialProblem(
            Polynomial(tuple(float(c) for c in rng.uniform(-2, 2, degree + 1)))
        )
        for _ in range(100):
            lam = complex(rng.uniform(-6, 6), rng.uniform(-12, 12))
            fd = (delta_scaled_eval(prob, lam + h) - delta_scaled_eval(prob, lam - h)) / (2 * h)
            an = delta_deriv(prob, lam)
            worst = max(worst, abs(fd - an) / max(1.0, abs(fd)))
    _verdict(7, worst <= 1e-5, f"derivative vs central difference: worst rel {worst:.3e}")


def test_criterion_8_roundtrip_theorem_witness():
    start = time.perf_counter()
    failures = []
    conditions = []
    for degree in (0, 1, 2, 3):
        cfg = ExperimentConfig(seed=800 + degree, degree_range=(degree, degree), trials=20)
        reports = run_seeded_suite(cfg)
        for r in reports:
            conditions.append(r.condition)
            if r.max_coeff_error > 1e-6 * r.condition:
                failures.append((degree, r.max_coeff_error, r.condition))
    elapsed = time.perf_counter() - start
    frac_small = sum(1 for c in conditions if c < 1e6) / len(conditions)
    ok = not failures and frac_small >= 0.9 and elapsed < 120.0
    _verdict(
        8,
        ok,
        f"round trip: 80 trials, worst err/cond ok={not failures}, "
        f"{100 * frac_small:.0f}% well-conditioned, {elapsed:.1f}s",
    )


def test_criterion_9_vandermonde_oracle_equivalence():
    rng = np.random.default_rng(909)
    worst = 0.0
    for degree in range(0, 7):
        for _ in range(5):
            nodes = []
            while len(nodes) < degree + 1:
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if all(abs(z - w) > 0.25 for w in nodes):
                    nodes.append(z)
            values = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in nodes]
            got = vandermonde_solve(nodes, values).coeffs
            want = [complex(w) for w in mp_vandermonde_solve(nodes, values)]
            scale = max(1.0, max(abs(w) for w in want))
            worst = max(worst, max(abs(g - w) for g, w in zip(got, want)) / scale)
    _verdict(9, worst <= 1e-8, f"structured vs extended-precision solve: worst rel {worst:.3e}")


def test_criterion_10_uniqueness_probes():
    rng = np.random.default_rng(1010)
    start = time.perf_counter()
    all_pass = True
    for i in range(10):
        degree = int(rng.integers(0, 3))
        a = tuple(float(c) for c in rng.uniform(-2, 2, degree + 1))
        b = list(a)
        idx = int(rng.integers(0, degree + 1))
        b[idx] += float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.8))
        pa, pb = Polynomial(a), Polynomial(tuple(b))
        assert poly_max_abs_diff(pa, pb) >= 0.1
        report = uniqueness_probe(pa, pb, ExperimentConfig())
        if not report.passed:
            all_pass = False
            break
    elapsed = time.perf_counter() - start
    _verdict(10, all_pass and elapsed < 60.0, f"10 uniqueness probes, {elapsed:.1f}s")


def test_criterion_11_serialization(tmp_path, capsys):
    rng = np.random.default_rng(1111)
    ok = True
    for _ in range(20):
        q = seeded_potential_mix(rng)
        ok = ok and parse_potential(emit_potential(q)) == q

        n = int(rng.integers(1, 6))
        pts = [complex(x, y) for x, y in rng.uniform(-9, 9, (n, 2))]
        from invspec import Spectrum

        spec = Spectrum.from_points(pts, multiplicities=[int(m) for m in rng.integers(1, 3, n)])
        text = emit_spectrum(spec)
        ok = ok and parse_spectrum(text) == spec and emit_spectrum(parse_spectrum(text)) == text

        s = int(rng.integers(0, 4))
        true_p = Polynomial(tuple(float(c) for c in rng.uniform(-2, 2, s + 1)))
        rec_p = Polynomial(tuple(c + 1e-10j for c in true_p.coeffs))
        from invspec import RoundTripReport

        doc = RoundTripReport(
            true_coeffs=true_p,
            recovered=rec_p,
            max_coeff_error=poly_max_abs_diff(true_p, rec_p),
            condition=float(rng.uniform(1.0, 1e5)),
            nodes_used=tuple(complex(x, y) for x, y in rng.uniform(-8, 8, (s + 1, 2))),
            wall_time_ms=float(rng.uniform(0.1, 50.0)),
        )
        rt = emit_report(doc)
        ok = ok and parse_report(rt) == doc and emit_report(parse_report(rt)) == rt

    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "grid", "nodes": [0.0, 0.7, 0.4, 1.0], "values": [1, 2, 3, 4]}')
    rc = cli_main(["eigen", "--potential", str(bad), "--count", "2"])
    err = capsys.readouterr().err
    ok = ok and rc == 2 and "nodes[2]" in err

    empty = tmp_path / "empty.json"
    empty.write_text('{"entries": []}')
    rc2 = cli_main(["reconstruct", "--degree", "0", "--eigs", str(empty)])
    err2 = capsys.readouterr().err
    ok = ok and rc2 == 2 and "entries" in err2

    _verdict(11, ok, "serialization identities and exit-code-2 diagnostics")
