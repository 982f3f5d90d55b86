"""The names the benchmark's traced run wraps must stay where it looks for them.

perfbench/tracing.py replaces each name in WRAPS inside the namespace of its
caller and names the span after the module that defines the function. A
refactor that moves or renames one of them would leave its per-layer metric
empty without any error, so this pins the surface.
"""

import importlib
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

from tracing import WRAPS  # noqa: E402

# (namespace, name) -> module that defines the function: the span prefix
SPAN_PREFIX = {
    ("invspec.sl_forward", "neumann_eigenvalues"): "sl_forward",
    ("invspec.workbench", "roundtrip"): "workbench",
    ("invspec.workbench", "find_det_eigenvalues"): "char_det",
    ("invspec.workbench", "select_reconstruction_nodes"): "reconstruct",
    ("invspec.workbench", "reconstruct_coeffs"): "reconstruct",
    ("invspec.cli", "main"): "cli",
    ("invspec.cli", "find_det_eigenvalues"): "char_det",
    ("invspec.cli", "emit_spectrum"): "fileio",
    ("invspec.cli", "save_text"): "fileio",
    ("invspec.cli", "load_spectrum"): "fileio",
    ("invspec.cli", "select_reconstruction_nodes"): "reconstruct",
    ("invspec.cli", "reconstruct_coeffs"): "reconstruct",
    ("invspec.reconstruct", "condition_estimate"): "reconstruct",
    ("invspec.char_det", "delta_scaled_eval"): "char_det",
    ("invspec.char_det", "delta_deriv"): "char_det",
}


def test_every_wrap_has_a_known_prefix():
    assert {(m, n) for m, n, _ in WRAPS} == set(SPAN_PREFIX)


@pytest.mark.parametrize("module_name,name,kind", WRAPS)
def test_wrapped_name_resolves_to_its_span_prefix(module_name, name, kind):
    fn = getattr(importlib.import_module(module_name), name)
    assert callable(fn)
    assert fn.__module__.rsplit(".", 1)[-1] == SPAN_PREFIX[(module_name, name)]


def test_shot_ladder_entry_points_exist():
    # the argument shapes perfbench/run.py and perfbench/workloads.py use
    from invspec import (
        BoundaryPolynomialProblem,
        ConstantPotential,
        ExperimentConfig,
        Polynomial,
        SearchBox,
        count_zeros,
        sl_forward,
        workbench,
    )

    q = ConstantPotential(1.0)
    assert math.isfinite(sl_forward.shoot_miss(q, 1e2))
    assert sl_forward.eigenvalue_count_below(q, 1e2) == 4
    p = Polynomial((1.0, 2.0))
    assert count_zeros(BoundaryPolynomialProblem(p), SearchBox(-8.0, 8.0, -30.0, 30.0)) > 0
    report = workbench.roundtrip(p, ExperimentConfig(degree_range=(1, 1)))
    assert report.max_coeff_error <= 1e-6 * report.condition
    assert len(sl_forward.neumann_eigenvalues(q, 8)) == 8
