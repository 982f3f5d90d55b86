"""The error surface: one class per way a caller reacts, and the CLI line each failure prints."""

import dataclasses

import pytest

import invspec
from invspec import (
    BoundaryPolynomialProblem,
    ConstantPotential,
    CosinePotential,
    ExperimentConfig,
    InputError,
    NumericalError,
    Polynomial,
    SearchBox,
    find_det_eigenvalues,
    neumann_eigenvalues,
    poly_max_abs_diff,
    roundtrip,
    sl_forward,
    workbench,
)
from invspec.cli import main
from invspec.fileio import emit_potential


def test_the_package_exports_exactly_the_kept_error_classes():
    exported = {
        name for name in dir(invspec)
        if isinstance(getattr(invspec, name), type)
        and issubclass(getattr(invspec, name), Exception)
    }
    assert exported == {
        "InvspecError", "InputError", "SchemaError", "NumericalError", "BoundaryZeroError",
    }


def _potential_file(tmp_path, q):
    path = tmp_path / "q.json"
    path.write_text(emit_potential(q))
    return str(path)


def step_underflow(monkeypatch, tmp_path):
    # with no floor under the mesh tolerance, a tolerance of 1e-303 is never met
    monkeypatch.setattr(sl_forward, "_MESH_TOL_FLOOR", 0.0)
    q = CosinePotential(1.0, 1)
    argv = ["eigen", "--potential", _potential_file(tmp_path, q), "--count", "1", "--tol", "1e-300"]
    return lambda: neumann_eigenvalues(q, 1, 1e-300), argv


def bracketing(monkeypatch, tmp_path):
    # a lower bound above lam_0 = 0 leaves no shot below the spectrum
    monkeypatch.setattr(ConstantPotential, "bounds", lambda self: (self.value + 5.0,) * 2)
    q = ConstantPotential(0.0)
    argv = ["eigen", "--potential", _potential_file(tmp_path, q), "--count", "1"]
    return lambda: neumann_eigenvalues(q, 1), argv


def too_few_roots(monkeypatch, tmp_path):
    # the box misses the one node at 2 pi i
    cfg = ExperimentConfig(search_box=SearchBox(-0.1, 0.1, -0.1, 0.1), degree_range=(0, 0))
    argv = ["roundtrip", "--coeffs", "0", "--box", "-0.1,0.1,-0.1,0.1"]
    return lambda: roundtrip(Polynomial((0.0,)), cfg), argv


def max_roots(monkeypatch, tmp_path):
    prob = BoundaryPolynomialProblem(Polynomial((1.0,)))
    argv = ["det-roots", "--coeffs", "1", "--box", "-8,8,-1e5,1e5", "--max-roots", "10"]
    return lambda: find_det_eigenvalues(prob, SearchBox(-8.0, 8.0, -1e5, 1e5), 10), argv


def far_box(monkeypatch, tmp_path):
    # cut lines 2 pi apart round to one float this far from the real axis
    prob = BoundaryPolynomialProblem(Polynomial((1.0,)))
    argv = ["det-roots", "--coeffs", "1", "--box", "-8,8,1e20,2e20"]
    return lambda: find_det_eigenvalues(prob, SearchBox(-8.0, 8.0, 1e20, 2e20), 80), argv


def negative_seed(monkeypatch, tmp_path):
    argv = ["roundtrip", "--seed", "-1", "--degree", "1"]
    return lambda: ExperimentConfig(seed=-1, degree_range=(1, 1)), argv


def degree_mismatch(monkeypatch, tmp_path):
    # a recovery one degree too high reaches the comparison inside the round trip
    recover = workbench.reconstruct_coeffs

    def padded(nodes):
        rec = recover(nodes)
        return dataclasses.replace(rec, coefficients=Polynomial(rec.coefficients.coeffs + (0.0,)))

    monkeypatch.setattr(workbench, "reconstruct_coeffs", padded)
    argv = ["roundtrip", "--coeffs", "0.7,-1.2"]
    return lambda: poly_max_abs_diff(Polynomial((1.0,)), Polynomial((1.0, 0.0))), argv


@pytest.mark.parametrize(
    "arrange, cls, message, code, line",
    [
        (step_underflow, NumericalError, "integrator step underflow at x=", 1,
         "numerical failure: integrator step underflow at x=0.000100001 for lambda=-2.0"),
        (bracketing, NumericalError, "could not bracket eigenvalue #0 in window", 1,
         "numerical failure: could not bracket eigenvalue #0 in window [4, 4]"),
        (too_few_roots, NumericalError, "needed 1 determinant roots but found 0", 1,
         "numerical failure: needed 1 determinant roots but found 0 in the search box"),
        (max_roots, NumericalError, "more than max_roots=10 zeros in the box", 1,
         "numerical failure: more than max_roots=10 zeros in the box (9 already located)"),
        (far_box, NumericalError, "cut lines 2 pi apart round to one float", 1,
         "numerical failure: cut lines 2 pi apart round to one float at |Im lam| = 2e+20: "
         "the box reaches too far from the real axis"),
        (negative_seed, InputError, "seed must be >= 0, got -1", 2,
         "error: seed must be >= 0, got -1"),
        (degree_mismatch, InputError, "polynomials are incomparable: degrees 0 != 1", 2,
         "error: polynomials are incomparable: degrees 1 != 2"),
    ],
)
def test_each_failure_raises_its_base_class_and_prints_one_line(
    arrange, cls, message, code, line, monkeypatch, tmp_path, capsys
):
    call, argv = arrange(monkeypatch, tmp_path)
    with pytest.raises(cls, match=message) as err:
        call()
    assert type(err.value) is cls
    assert main(argv) == code
    assert capsys.readouterr().err == line + "\n"
