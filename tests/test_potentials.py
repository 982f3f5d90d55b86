import math

import numpy as np
import pytest

from conftest import seeded_potential_mix
from invspec import (
    ConstantPotential,
    CosinePotential,
    GridPotential,
    InputError,
    PolyPotential,
    Potential,
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: GridPotential((0.0, 1.0), (1.0,)),
        lambda: GridPotential((0.0,), (1.0,)),
        lambda: GridPotential((0.1, 1.0), (1.0, 2.0)),
        lambda: GridPotential((0.0, 0.9), (1.0, 2.0)),
        lambda: GridPotential((0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 3.0, 4.0)),
        lambda: GridPotential((0.0, math.nan, 1.0), (1.0, 2.0, 3.0)),
        lambda: CosinePotential(1.0, 1.5),
        lambda: CosinePotential(1.0, True),
        lambda: CosinePotential(1.0, -1),
        lambda: PolyPotential(()),
        lambda: ConstantPotential("one"),
    ],
)
def test_input_checks(call):
    with pytest.raises(InputError):
        call()


def test_interface_defaults():
    q = ConstantPotential(2.5)
    assert q(0.3) == 2.5
    assert q.breakpoints() == ()
    # a cosine of frequency 0 is the constant amplitude; a polynomial of
    # small curvature has its sampled extremes padded by 1
    assert CosinePotential(-1.5, 0).bounds() == (-1.5, -1.5)
    assert PolyPotential((3.0,)).bounds() == (2.0, 4.0)
    base = Potential()
    with pytest.raises(NotImplementedError):
        base.bounds()
    with pytest.raises(NotImplementedError):
        base(0.5)


def test_bounds_enclose_q(rng):
    # lower <= q(x) <= upper on a grid ten times finer than a polynomial's
    # sampling, for each kind, with values up to 200
    xs = np.linspace(0.0, 1.0, 10001)
    seen = set()
    for bound in (2.0, 200.0):
        for _ in range(50):
            q = seeded_potential_mix(rng, bound=bound)
            seen.add(q.kind)
            lower, upper = q.bounds()
            vals = [q(x) for x in xs]
            assert lower <= min(vals) and max(vals) <= upper, q
    assert seen == {"constant", "grid", "cosine", "poly_in_x"}
    # a parabola of curvature 2e8 whose zero lies halfway between two of the
    # polynomial's 513 samples, where they read 95.37: a pad of 1 misses it
    x0 = 0.5 + 1.0 / 1024.0
    narrow = PolyPotential((1e8 * x0**2, -2e8 * x0, 1e8))
    lower, upper = narrow.bounds()
    vals = [narrow(x) for x in (x0, *xs)]
    assert lower <= min(vals) and max(vals) <= upper


def test_scalar_call_matches_numpy_formulas(rng):
    # each kind writes q once, as q(x); the formulas here are numpy's own
    worst = 0.0
    seen = set()
    for _ in range(200):
        q = seeded_potential_mix(rng)
        seen.add(q.kind)
        xs = np.array([0.0, 1.0, *q.breakpoints(), *rng.uniform(0.0, 1.0, 20)])
        if q.kind == "constant":
            want = np.full_like(xs, q.value)
        elif q.kind == "grid":
            want = np.interp(xs, q.nodes, q.values)
        elif q.kind == "cosine":
            want = q.amplitude * np.cos(2.0 * np.pi * q.frequency * xs)
        else:
            want = np.polynomial.polynomial.polyval(xs, q.coeffs)
        for x, v in zip(xs, want):
            worst = max(worst, abs(q(float(x)) - v) / max(1.0, abs(v)))
    assert seen == {"constant", "grid", "cosine", "poly_in_x"}
    assert worst <= 1e-15
