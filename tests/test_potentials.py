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
    # a cosine of frequency 0 is the constant amplitude; a polynomial's
    # sampled extremes are padded by 1
    assert CosinePotential(-1.5, 0).bounds() == (-1.5, -1.5)
    assert PolyPotential((3.0,)).bounds() == (2.0, 4.0)
    base = Potential()
    with pytest.raises(NotImplementedError):
        base.bounds()
    with pytest.raises(NotImplementedError):
        base(0.5)
    with pytest.raises(NotImplementedError):
        base.sample(np.zeros(2))


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
            vals = q.sample(xs)
            assert lower <= vals.min() and vals.max() <= upper, q
    assert seen == {"constant", "grid", "cosine", "poly_in_x"}


def test_scalar_call_agrees_with_sample(rng):
    # each kind writes its formula twice; the mesh builder uses q(x), the Simpson mean sample
    worst = 0.0
    for _ in range(200):
        q = seeded_potential_mix(rng)
        xs = [0.0, 1.0, *q.breakpoints(), *rng.uniform(0.0, 1.0, 20)]
        for x, v in zip(xs, q.sample(np.array(xs))):
            worst = max(worst, abs(q(float(x)) - v) / max(1.0, abs(v)))
    assert worst <= 1e-15
