import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from invspec import ConstantPotential, CosinePotential, GridPotential, PolyPotential


def seeded_grid_potential(rng, n_nodes=None, bound=2.0, lattice=None):
    """Random piecewise-linear potential; lattice-aligned nodes when asked."""
    if lattice is not None:
        nodes = tuple(np.linspace(0.0, 1.0, lattice + 1))
    else:
        n = int(n_nodes if n_nodes is not None else rng.integers(4, 9))
        interior = np.sort(rng.uniform(0.05, 0.95, n - 2))
        nodes = (0.0, *interior, 1.0)
    values = tuple(float(v) for v in rng.uniform(-bound, bound, len(nodes)))
    return GridPotential(nodes, values)


def shifted_grid(q, c):
    """The grid potential q(x) + c."""
    return GridPotential(q.nodes, tuple(v + c for v in q.values))


def seeded_potential_mix(rng, bound=2.0):
    """One potential of a random kind, non-degenerate amplitudes."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return ConstantPotential(float(rng.uniform(-bound, bound)))
    if kind == 1:
        return seeded_grid_potential(rng, bound=bound)
    if kind == 2:
        amp = float(rng.uniform(0.4, bound))
        return CosinePotential(amp, int(rng.integers(1, 4)))
    coeffs = tuple(float(c) for c in rng.uniform(-bound, bound, int(rng.integers(2, 5))))
    return PolyPotential(coeffs)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
