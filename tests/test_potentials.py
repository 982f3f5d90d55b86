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
    # a cosine of frequency 0 is the constant amplitude, a degree-0 polynomial has no variation
    assert CosinePotential(-1.5, 0).lower_bound() == -1.5
    assert PolyPotential((3.0,)).total_variation() == 0.0
    base = Potential()
    for hook in (base.total_variation, base.lower_bound):
        with pytest.raises(NotImplementedError):
            hook()
    with pytest.raises(NotImplementedError):
        base(0.5)
    with pytest.raises(NotImplementedError):
        base.sample(np.zeros(2))


def test_scalar_call_agrees_with_sample(rng):
    # each kind writes its formula twice; the mesh builder uses q(x), the Simpson mean sample
    worst = 0.0
    for _ in range(200):
        q = seeded_potential_mix(rng)
        xs = [0.0, 1.0, *q.breakpoints(), *rng.uniform(0.0, 1.0, 20)]
        for x, v in zip(xs, q.sample(np.array(xs))):
            worst = max(worst, abs(q(float(x)) - v) / max(1.0, abs(v)))
    assert worst <= 1e-15
