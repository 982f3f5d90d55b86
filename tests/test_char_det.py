import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invspec import (
    BoundaryPolynomialProblem,
    BoundaryZeroError,
    ExperimentConfig,
    InputError,
    NumericalError,
    Polynomial,
    SearchBox,
    count_zeros,
    delta_deriv,
    delta_scaled_eval,
    find_det_eigenvalues,
    poly_eval,
    rhs_value,
    roundtrip,
    select_reconstruction_nodes,
)
from invspec import char_det
from invspec.core import CLUSTER_RADIUS, RESIDUAL_TOL
from oracles import (
    OverflowRangeError,
    delta_eval,
    mp_delta,
    mp_real_root_bisect,
    ode_residual,
    y1_eval,
    y2_eval,
)

TWO_PI = 2.0 * math.pi

# frozen from the extended-precision bisection oracle (40+ digits)
REAL_ROOT_A0_ONE = 1.44557491115154808


def prob(*coeffs):
    return BoundaryPolynomialProblem(Polynomial(tuple(coeffs)))


def seeded_problem(rng, degree):
    return prob(*(float(c) for c in rng.uniform(-2, 2, degree + 1)))


# -- fundamental solutions -------------------------------------------------

def test_initial_values():
    for lam in (1.0, -2.0 + 1.5j, 3j, 0.5):
        assert abs(y1_eval(lam, 0.0) - 1.0) <= 1e-14
        assert abs(y2_eval(lam, 0.0)) <= 1e-14


def test_initial_slopes_by_central_difference():
    h = 1e-6
    for lam in (1.0, -2.0 + 1.5j, 3j):
        d1 = (y1_eval(lam, h) - y1_eval(lam, -h)) / (2 * h)
        d2 = (y2_eval(lam, h) - y2_eval(lam, -h)) / (2 * h)
        assert abs(d1) <= 1e-8
        assert abs(d2 - 1.0) <= 1e-8


def test_y2_removable_singularity():
    for x in (0.25, 0.5, 1.0):
        assert abs(y2_eval(1e-9, x) - x) <= 1e-8


def test_ode_residual_spot_values():
    for lam in (1.0, 2j, -3.0):
        for x in (0.0, 0.5, 1.0):
            r1, r2 = ode_residual(lam, x)
            scale = 1e-10 * (1.0 + abs(lam) ** 2 * math.exp(2.0 * complex(lam).real * x))
            assert r1 <= scale and r2 <= scale


def test_ode_residual_grid():
    res = np.linspace(-3.0, 3.0, 10)
    ims = np.linspace(-5.0, 5.0, 10)
    xs = np.linspace(0.0, 1.0, 10)
    for re in res:
        for im in ims:
            lam = complex(re, im)
            if abs(lam) < 1e-6:
                continue
            for x in xs:
                r1, r2 = ode_residual(lam, x)
                scale = 1e-10 * (1.0 + abs(lam) ** 2 * math.exp(2.0 * re * x))
                assert r1 <= scale and r2 <= scale


# -- determinant evaluation -------------------------------------------------

def test_delta_free_zeros():
    p = prob(0.0)
    for k in (-2, -1, 1, 2):
        lam = TWO_PI * 1j * k
        assert abs(delta_eval(p, lam)) <= 1e-12 * math.exp(2.0 * abs(lam.real) + 1)


def test_delta_at_origin_limit():
    assert abs(delta_eval(prob(0.0), 0.0) - 1.0) <= 1e-14
    assert abs(delta_eval(prob(1.0), 0.0) - 2.0) <= 1e-14
    assert abs(delta_eval(prob(-0.25, 3.0), 1e-9) - 0.75) <= 1e-7


def test_scaling_identity_seeded(rng):
    for degree in (0, 1, 2, 3):
        p = seeded_problem(rng, degree)
        for _ in range(250):
            lam = complex(rng.uniform(-20, 20), rng.uniform(-40, 40))
            direct = delta_scaled_eval(p, lam)
            via_delta = cmath.exp(-2.0 * lam) * delta_eval(p, lam)
            assert abs(direct - via_delta) <= 1e-12 * (1.0 + abs(direct))


def test_scaled_free_zeros():
    p = prob(0.0)
    for k in (-3, -1, 1, 2):
        assert abs(delta_scaled_eval(p, TWO_PI * 1j * k)) <= 1e-13 * (1 + TWO_PI * abs(k))


def test_scaled_at_log_two_is_half():
    # 2 e^{-lam} - 1 vanishes there, so the polynomial cannot contribute and
    # g = (1 - 1/2) / ln 2
    for coeffs in ((0.0,), (1.0, 2.0), (-3.0, 0.5, 1.0)):
        val = delta_scaled_eval(prob(*coeffs), math.log(2.0))
        assert abs(val - 0.5 / math.log(2.0)) <= 1e-14


def test_real_root_against_bisection_oracle():
    root = mp_real_root_bisect((1.0,), 1.0, 2.0)
    assert abs(float(root) - REAL_ROOT_A0_ONE) <= 1e-14
    found = find_det_eigenvalues(prob(1.0), SearchBox(-10.0, 10.0, -0.4, 0.4), 8)
    assert len(found) == 1
    assert abs(found[0].value - REAL_ROOT_A0_ONE) <= 1e-10
    # unscaled determinant, re-evaluated in extended precision, stays tiny
    assert abs(complex(mp_delta((1.0,), complex(found[0].value)))) <= 1e-12


def test_delta_overflow_guard():
    with pytest.raises(OverflowRangeError, match="delta_scaled_eval"):
        delta_eval(prob(1.0), 400.0)
    # the scaled form stays finite in the same range
    assert abs(delta_scaled_eval(prob(1.0), 400.0)) < 1e6


def test_delta_deriv_free_case():
    # A = 0 leaves g = (1 - e^{-lam})/lam, whose derivative is
    # ((1 + lam) e^{-lam} - 1)/lam^2, -1/2 at the origin
    p = prob(0.0)
    assert abs(delta_deriv(p, 0.0) + 0.5) <= 1e-14
    for lam in (0.7, 1j, -2.0 + 0.3j):
        want = ((1.0 + lam) * cmath.exp(-lam) - 1.0) / lam**2
        assert abs(delta_deriv(p, lam) - want) <= 1e-13 * (1 + abs(cmath.exp(-lam)))


def test_delta_deriv_matches_central_difference(rng):
    h = 1e-6
    for degree in (0, 1, 2, 3):
        p = seeded_problem(rng, degree)
        for _ in range(100):
            lam = complex(rng.uniform(-6, 6), rng.uniform(-10, 10))
            fd = (delta_scaled_eval(p, lam + h) - delta_scaled_eval(p, lam - h)) / (2 * h)
            an = delta_deriv(p, lam)
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(fd))


def test_delta_deriv_spot_case():
    p = prob(1.0, 2.0)
    h = 1e-6
    fd = (delta_scaled_eval(p, 1.0 + h) - delta_scaled_eval(p, 1.0 - h)) / (2 * h)
    assert abs(delta_deriv(p, 1.0) - fd) <= 1e-5 * abs(fd)


def test_array_path_matches_scalar_path_near_the_origin():
    # the array path takes the series of g1 = (1 - e^{-lam})/lam and g1'
    # over its small entries in one array Horner; the scalar path, one
    # point at a time.  g and g' add terms of size about 1 there and can
    # cancel, so they are compared relative to max(1, |g|).  Outside the
    # radius both paths divide by lam, and numpy's complex division rounds
    # apart from Python's: up to 4.4e-15 relative in g1' just outside the
    # radius, where e^{-lam} - g1 cancels
    r = char_det._SERIES_RADIUS
    angles = np.exp(1j * np.linspace(0.0, TWO_PI, 7, endpoint=False))
    moduli = (0.0, 1e-300, 1e-12, 1e-3, 0.05, 0.5 * r, r * (1 - 1e-12), r, r * (1 + 1e-12))
    moduli += (0.15, 2.0)
    pts = np.array([m * a for m in moduli for a in angles] + [1e-8, -0.07 + 0.02j, 3.0 - 4.0j])
    inside = pts.real * pts.real + pts.imag * pts.imag < r**2
    assert 0 < inside.sum() < len(pts)
    _, _, g1, g1p = char_det._exp_terms(pts)
    for z, a, b in zip(pts[inside], g1[inside], g1p[inside]):
        _, _, want_a, want_b = char_det._exp_terms(complex(z))
        assert abs(a - want_a) <= 1e-15 * abs(want_a) and abs(b - want_b) <= 1e-15 * abs(want_b)
    for p in (prob(0.0), prob(1.0, 2.0), prob(-0.25, 3.0, 0.5j), prob(0.3 - 1j, -2.0, 0.0, 1.5)):
        for f in (delta_scaled_eval, delta_deriv):
            for z, v, series in zip(pts, f(p, pts), inside):
                want = f(p, complex(z))
                tol = 1e-15 if series else 1e-14
                assert abs(v - want) <= tol * max(1.0, abs(want)), (f.__name__, z)


# -- zero counting and location ---------------------------------------------

def test_count_zeros_free_examples():
    p = prob(0.0)
    assert count_zeros(p, SearchBox(-1.0, 1.0, 5.0, 8.0)) == 1
    assert count_zeros(p, SearchBox(-1.0, 1.0, -14.0, 14.0)) == 4


def test_count_zeros_boundary_collision():
    # the top edge passes exactly through a zero
    with pytest.raises(BoundaryZeroError):
        count_zeros(prob(0.0), SearchBox(-1.0, 1.0, 0.5, TWO_PI))


def spy_on_dhat(monkeypatch):
    """Record the kind of every g-and-g' evaluation the winding makes."""
    calls = []
    real = char_det._g_and_slope

    def spy(p, lam):
        calls.append("array" if isinstance(lam, np.ndarray) else "scalar")
        return real(p, lam)

    monkeypatch.setattr(char_det, "_g_and_slope", spy)
    return calls


def test_one_exp_terms_call_per_point_or_batch(monkeypatch):
    calls = []
    exp_terms = char_det._exp_terms
    monkeypatch.setattr(char_det, "_exp_terms", lambda lam: calls.append(lam) or exp_terms(lam))
    # far from every zero the first pass accepts every segment: one batch
    assert count_zeros(prob(0.0), SearchBox(-1.0, 1.0, 1.0, 5.0)) == 0
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray)
    # Newton evaluates g and g' at each iterate, the final extra step's too,
    # with one call, so no point is evaluated twice
    calls.clear()
    z = char_det._newton_polish(prob(0.0), 0.1 + 6.0j, SearchBox(-1.0, 1.0, 5.0, 8.0))
    assert abs(z - TWO_PI * 1j) <= 1e-12
    assert len(calls) > 2
    assert len(set(calls)) == len(calls)


def test_winding_first_pass_and_scalar_refinement(monkeypatch):
    # the zero at 2 pi i sits just outside, then just inside, the top edge:
    # the first pass rejects the segments nearest it and the scalar loop
    # bisects them
    p = prob(0.0)
    calls = spy_on_dhat(monkeypatch)
    for im_max, want in ((TWO_PI - 1e-3, 0), (TWO_PI + 1e-3, 1)):
        calls.clear()
        assert count_zeros(p, SearchBox(-1.0, 1.0, 0.5, im_max)) == want
        assert calls.count("array") == 1
        assert calls.count("scalar") > 0
    # far from every zero the first pass accepts every segment
    calls.clear()
    assert count_zeros(p, SearchBox(-1.0, 1.0, 1.0, 5.0)) == 0
    assert calls == ["array"]


def scalar_winding(p, box):
    """The winding as one scalar stack over every contour segment: the reference."""
    pts = char_det._edge_points(box)
    vals = delta_scaled_eval(p, pts)
    if (np.abs(vals) <= RESIDUAL_TOL).any():
        raise BoundaryZeroError(complex(pts[int(np.argmin(np.abs(vals)))]))
    ders = np.abs(delta_deriv(p, pts))
    stack = [
        (complex(pts[i - 1]), complex(vals[i - 1]), float(ders[i - 1]),
         complex(pts[i]), complex(vals[i]), float(ders[i]))
        for i in range(len(pts) - 1, 0, -1)
    ]
    total = 0.0
    while stack:
        z0, f0, d0, z1, f1, d1 = stack.pop()
        jump = cmath.phase(f1 / f0)
        seg = abs(z1 - z0)
        if abs(jump) < math.pi / 2 and seg * max(d0, d1) / min(abs(f0), abs(f1)) <= 0.5:
            total += jump
            continue
        if seg < 1e-12 * (1.0 + abs(z0)):
            if abs(jump) < math.pi / 2:
                total += jump
                continue
            raise BoundaryZeroError(0.5 * (z0 + z1))
        zm = 0.5 * (z0 + z1)
        fm = delta_scaled_eval(p, zm)
        if abs(fm) <= RESIDUAL_TOL:
            raise BoundaryZeroError(zm)
        dm = abs(delta_deriv(p, zm))
        stack += [(zm, fm, dm, z1, f1, d1), (z0, f0, d0, zm, fm, dm)]
    return round(total / TWO_PI)


def test_winding_matches_scalar_reference(rng):
    cases = []
    for k in range(60):
        re = np.sort(rng.uniform(-8.0, 8.0, 2))
        im = np.sort(rng.uniform(-30.0, 30.0, 2))
        cases.append((seeded_problem(rng, k % 4), SearchBox(re[0], re[1], im[0], im[1])))
    # top edges a hair off, and exactly on, the zeros at 2 pi i n; re = 0
    # is a contour sample of the first box and falls between samples of the
    # second, where only bisection reaches it
    for n in (1, 2, 3):
        for re_min in (-1.0, -0.7):
            for off in (-1e-9, -1e-11, 0.0, 1e-11, 1e-9):
                cases.append((prob(0.0), SearchBox(re_min, re_min + 2.0, 0.5, n * TWO_PI + off)))
    # zeros on the bottom and the top edge: the first in contour order is reported
    cases.append((prob(0.0), SearchBox(-0.7, 1.3, -TWO_PI, TWO_PI)))
    # zeros at -0.046, just outside the left edge, and 0.046 inside: their
    # phase turns nearly cancel across one segment, so only the derivative
    # bound sends that segment to bisection
    cases.append((prob(-1.0046049418264393, -1.5066417509464398), SearchBox(0.0, 8.0, -30.0, 0.66)))
    for p, box in cases:
        try:
            want = scalar_winding(p, box)
        except BoundaryZeroError as err:
            with pytest.raises(BoundaryZeroError) as got:
                count_zeros(p, box)
            assert got.value.location == err.location
        else:
            assert count_zeros(p, box) == want


def _box_in(lo, hi):
    return st.tuples(
        st.floats(lo, hi, allow_nan=False), st.floats(lo, hi, allow_nan=False)
    ).filter(lambda t: abs(t[0] - t[1]) >= 0.05).map(sorted)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    coeffs=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=4),
    re=_box_in(-8.0, 8.0),
    im=_box_in(-30.0, 30.0),
)
def test_count_zeros_adds_over_quadrisection(coeffs, re, im):
    p = prob(*coeffs)
    box = SearchBox(re[0], re[1], im[0], im[1])
    try:
        whole = count_zeros(p, box)
        parts = sum(count_zeros(p, kid) for kid in box.split(0.5, 0.511))
    except BoundaryZeroError:
        assume(False)
    assert whole == parts


def test_find_free_zero_set():
    roots = find_det_eigenvalues(prob(0.0), SearchBox(-1.0, 1.0, 1.0, 20.0), 16)
    assert [r.multiplicity for r in roots] == [1, 1, 1]
    got = sorted(r.value.imag for r in roots)
    want = [TWO_PI, 2 * TWO_PI, 3 * TWO_PI]
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9
    assert max(abs(r.value.real) for r in roots) <= 1e-9


def test_find_filters_origin_and_retries_boundary():
    # the bottom edge passes through the origin, which is no zero when
    # a_0 != -1, and the top edge through the zero at 6 pi i; retries must
    # perturb the box, and the origin never appears in the results
    roots = find_det_eigenvalues(prob(0.0), SearchBox(-1.0, 1.0, 0.0, 3 * TWO_PI), 16)
    imag = sorted(r.value.imag for r in roots)
    assert len(roots) == 3
    assert max(abs(g - w) for g, w in zip(imag, [TWO_PI, 2 * TWO_PI, 3 * TWO_PI])) <= 1e-9


def test_find_max_roots_exceeded():
    with pytest.raises(NumericalError, match=r"more than max_roots=3 zeros in the box \("):
        find_det_eigenvalues(prob(0.0), SearchBox(-1.0, 1.0, -20.0, 20.0), 3)


def test_seeded_roots_residuals_and_consistency(rng):
    box = SearchBox(-8.0, 8.0, -30.0, 30.0)
    for degree in (1, 2):
        p = seeded_problem(rng, degree)
        roots = find_det_eigenvalues(p, box, 64)
        assert roots, "expected at least one zero in the default box"
        for r in roots:
            bound = RESIDUAL_TOL * (1.0 + abs(r.value * poly_eval(p.poly, r.value)))
            assert abs(delta_scaled_eval(p, r.value)) <= bound
        assert count_zeros(p, box) == sum(r.multiplicity for r in roots)


def test_conjugate_symmetry_and_pairing(rng):
    p = seeded_problem(rng, 2)
    for _ in range(100):
        lam = complex(rng.uniform(-8, 8), rng.uniform(-20, 20))
        a = delta_scaled_eval(p, lam.conjugate())
        b = delta_scaled_eval(p, lam).conjugate()
        assert abs(a - b) <= 1e-13 * (1.0 + abs(b))
    roots = find_det_eigenvalues(p, SearchBox(-8.0, 8.0, -30.0, 30.0), 64)
    values = [r.value for r in roots]
    for v in values:
        assert any(abs(v.conjugate() - w) <= 1e-8 for w in values)


def test_free_roots_kill_second_solution_at_one():
    # with no polynomial term the determinant reduces to y2 at the right end
    roots = find_det_eigenvalues(prob(0.0), SearchBox(-1.0, 1.0, -20.0, 20.0), 16)
    for r in roots:
        assert abs(y2_eval(r.value, 1.0)) <= 1e-9 * math.exp(2.0 * r.value.real)


def test_sorted_output(rng):
    p = seeded_problem(rng, 2)
    roots = find_det_eigenvalues(p, SearchBox(-8.0, 8.0, -30.0, 30.0), 64)
    keys = [(r.value.real, r.value.imag) for r in roots]
    assert keys == sorted(keys)


def test_zero_pair_hugging_subdivision_line():
    # regression: this polynomial has a zero at -0.04451..., next to the
    # origin and to the re = -0.05 line that quadrisection generates, where a
    # full phase turn was once aliased
    p = prob(-0.88307565067498, 1.232614137367198, 0.2549359558185622, -1.9869462712475712)
    box = SearchBox(-8.0, 8.0, -30.0, 30.0)
    roots = find_det_eigenvalues(p, box, 64)
    small = [r.value for r in roots if abs(r.value) < 0.1]
    assert len(small) == 1
    assert abs(small[0] - (-0.044513766784407494)) <= 1e-9
    assert count_zeros(p, box) == sum(r.multiplicity for r in roots)


DEFAULT_BOX = SearchBox(-8.0, 8.0, -30.0, 30.0)


@pytest.mark.parametrize("coeffs", [(-1.0,), (-1.0, 0.8822855617524055)])
def test_origin_is_an_ordinary_eigenvalue(coeffs):
    # a_0 = -1 makes delta(0) = 1 + a_0 vanish, and g'(0) = 3/2 + a_1 does not
    p = prob(*coeffs)
    roots = find_det_eigenvalues(p, DEFAULT_BOX, 80)
    at_origin = [r for r in roots if abs(r.value) <= 1e-12]
    assert len(at_origin) == 1 and at_origin[0].multiplicity == 1
    assert rhs_value(0.0) == -1
    s = len(coeffs) - 1
    report = roundtrip(p.poly, ExperimentConfig(degree_range=(s, s)))
    assert report.max_coeff_error <= 1e-6 * report.condition


def test_real_coefficients_give_exact_conjugate_pairs(rng):
    cases = [(
        prob(0.22089843280147337, -1.4927828656269049, 1.1439869738448398, 0.13134087934371497),
        SearchBox(-10.0, 10.0, -80.0, 80.0),
    )]
    cases += [(seeded_problem(rng, i % 4), DEFAULT_BOX) for i in range(16)]
    for p, box in cases:
        values = find_det_eigenvalues(p, box, 80).values
        for i, z in enumerate(values):
            if z.imag != 0.0:
                # the bit-exact conjugate is listed, and the -im member first
                j = values.index(z.conjugate())
                assert j == (i + 1 if z.imag < 0 else i - 1)
    # the complex Newton polish leaves 1e-53 and 1e-50 of imaginary noise on these
    real = [z for z in find_det_eigenvalues(*cases[0], 80).values if abs(z.imag) < 1e-6]
    assert [z.real for z in real] == [-9.881438853445527, 1.483795050545004]
    assert [z.imag for z in real] == [0.0, 0.0]


# -- strip search against the whole-box quadrisection ------------------------


# where the reference cuts a box in four; it moves on to the next pair when a
# child's contour hits a zero or the children's counts disagree with the parent's
REFERENCE_FRACTIONS = (
    (0.5, 0.511),
    (0.53, 0.489),
    (0.47, 0.523),
    (0.511, 0.477),
    (0.489, 0.533),
    (0.545, 0.461),
)


def quadrisection_roots(p, box):
    """The whole-box quadrisection search the strip search replaced: the reference.

    One winding of the whole box, then quadrisection with Newton from each
    count-1 box's centre; a zero on the boundary nudges the box outward.
    """
    def collect(bx):
        found = []

        def visit(b, count):
            if count == 0:
                return
            if count == 1:
                z = char_det._newton_polish(p, b.center, b)
                if z is not None and b.contains(z):
                    found.append((z, 1))
                    return
            if b.diameter <= CLUSTER_RADIUS:
                found.append((b.center, count))
                return
            for fr, fi in REFERENCE_FRACTIONS:
                kids = b.split(fr, fi)
                try:
                    counts = [count_zeros(p, k) for k in kids]
                except BoundaryZeroError:
                    continue
                if sum(counts) == count:
                    break
            else:
                raise BoundaryZeroError(b.center)
            for k, c in zip(kids, counts):
                visit(k, c)

        visit(bx, count_zeros(p, bx))
        return found

    for attempt in range(6):
        try:
            raw = collect(box)
            break
        except BoundaryZeroError:
            box = box.expanded(CLUSTER_RADIUS * (attempt + 1) * 1.618)
    else:
        raise AssertionError("the reference search never left the boundary")
    return [(z, m) for z, m in raw if abs(z) > CLUSTER_RADIUS]


def assert_same_roots(got, want, rel=1e-12):
    """Equal multiplicity sums, and every wanted root has a located neighbour."""
    assert sum(got.multiplicities) == sum(m for _, m in want)
    assert len(got) == len(want)
    for z, _ in want:
        assert min(abs(z - g) for g in got.values) <= rel * abs(z)


def test_strip_search_matches_quadrisection_reference(rng):
    boxes = (DEFAULT_BOX, SearchBox(-8.0, 8.0, -80.0, 80.0), SearchBox(-2.5, 4.0, 3.0, 25.0))
    for i in range(60):
        coeffs = rng.uniform(-2.0, 2.0, i % 4 + 1)
        if (i // 4) % 2:
            coeffs = coeffs + 1j * rng.uniform(-2.0, 2.0, i % 4 + 1)
        p = prob(*(c.item() for c in coeffs))
        box = boxes[i % 3]
        assert_same_roots(find_det_eigenvalues(p, box, 80), quadrisection_roots(p, box))
    # A = 0: the zeros sit at 2 pi i k, not near ln 2 + 2 pi i k, and the
    # outer strips are clipped by the box
    box = SearchBox(-1.0, 1.0, -20.0, 20.0)
    assert_same_roots(find_det_eigenvalues(prob(0.0), box, 16), quadrisection_roots(prob(0.0), box))


def test_zero_on_a_cut_line_shifts_the_lines(monkeypatch):
    # A(lam) = rhs_value(z0) puts a zero of delta exactly at z0, on the first
    # cut line Im = pi
    z0 = 0.3 + math.pi * 1j
    p = prob(rhs_value(z0))
    assert abs(delta_scaled_eval(p, z0)) <= 1e-15
    roots = find_det_eigenvalues(p, DEFAULT_BOX, 80)
    assert len(roots) == 9
    assert_same_roots(roots, quadrisection_roots(p, DEFAULT_BOX))
    # nudging the outer box alone never moves a cut line off the zero
    unshifted = tuple((0.0, fr, fi) for _, fr, fi in char_det._ATTEMPTS)
    monkeypatch.setattr(char_det, "_ATTEMPTS", unshifted)
    with pytest.raises(BoundaryZeroError) as err:
        find_det_eigenvalues(p, DEFAULT_BOX, 80)
    assert abs(err.value.location - z0) <= 1e-6


def test_newton_miss_in_a_count_one_strip_quadrisects(monkeypatch):
    # the box's one zero is -0.733; Newton from ln 2 clamped to the box's
    # right edge, -0.1, leaves the region instead
    p = prob(1.0, 2.0)
    box = SearchBox(-8.0, -0.1, -3.0, 3.0)
    starts = []
    polish = char_det._newton_polish

    def spy(pr, z, region):
        result = polish(pr, z, region)
        starts.append((z, result))
        return result

    monkeypatch.setattr(char_det, "_newton_polish", spy)
    roots = find_det_eigenvalues(p, box, 8)
    assert starts[0][0] == -0.1 and starts[0][1] is None
    assert len(starts) > 1
    assert_same_roots(roots, [(-0.7331889155010706 + 0j, 1)])


def test_box_edge_on_a_cut_line():
    # this top edge rounds onto the cut line at Im = 13 pi, leaving an empty strip
    box = SearchBox(-1.0, 1.0, TWO_PI * 6.5 - 20.0, TWO_PI * 6.5)
    roots = find_det_eigenvalues(prob(0.0), box, 16)
    assert_same_roots(roots, [(TWO_PI * k * 1j, 1) for k in (4, 5, 6)], rel=1e-9)


def test_max_roots_counts_zeros_off_the_origin():
    # the box holds 3 zeros and not the origin
    box = SearchBox(-1.0, 1.0, 1.0, 20.0)
    assert len(find_det_eigenvalues(prob(0.0), box, 3)) == 3
    with pytest.raises(NumericalError, match="more than max_roots=2 zeros in the box"):
        find_det_eigenvalues(prob(0.0), box, 2)


def sorted_strips(box, shift):
    """Every strip of the box, made at once and sorted by (distance, Im min): the reference."""
    re0 = min(max(math.log(2.0), box.re_min), box.re_max)
    dx = max(box.re_min, 0.0, -box.re_max)
    strips = []
    k_lo = math.floor((box.im_min - shift) / TWO_PI + 0.5)
    for k in range(k_lo, math.ceil((box.im_max - shift) / TWO_PI - 0.5) + 1):
        lo = max(box.im_min, TWO_PI * (k - 0.5) + shift)
        hi = min(box.im_max, TWO_PI * (k + 0.5) + shift)
        if lo < hi:
            start = complex(re0, min(max(TWO_PI * k, lo), hi))
            strip = SearchBox(box.re_min, box.re_max, lo, hi)
            strips.append((math.hypot(dx, max(lo, 0.0, -hi)), strip, start))
    return sorted(strips, key=lambda e: (e[0], e[1].im_min))


def test_lazy_strips_keep_the_sorted_order(rng):
    # far from the imaginary axis the distances of nearby strips round to
    # the same float, and the tie goes to the strip below
    shifts = [row[0] for row in char_det._ATTEMPTS]
    ties = 0
    for i in range(1000):
        height = float(rng.choice((1.0, 10.0, 100.0, 1000.0)))
        im_min = float(rng.uniform(-height, height))
        if i % 5 == 0:
            im_min = TWO_PI * (int(rng.integers(-5, 5)) + 0.5)  # on a cut line
        im_max = im_min + float(rng.uniform(1e-3, 2.0 * height))
        re_min = float(rng.choice((0.0, 1e3, 1e9, 1e16))) * float(rng.uniform(-1.0, 1.0))
        re_max = re_min + max(1e-3, abs(re_min) * float(rng.uniform(0.0, 1e-3)))
        if i % 7 == 0:
            re_min, re_max = -8.0, 8.0
        shift = shifts[i % 6] if i % 2 else float(rng.uniform(-50.0, 50.0))
        box = SearchBox(re_min, re_max, im_min, im_max)
        want = sorted_strips(box, shift)
        assert list(char_det._strips(box, shift)) == want, (box, shift)
        ties += len({d for d, _, _ in want}) < len(want)
    assert ties >= 50


def test_a_tall_box_makes_few_strips_before_max_roots(monkeypatch):
    # +-1e5 holds 31,831 strips, about one zero in each, and the search stops at the 11th zero
    made = []

    class Counted(SearchBox):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr(char_det, "SearchBox", Counted)
    with pytest.raises(NumericalError, match="more than max_roots=10 zeros in the box"):
        find_det_eigenvalues(prob(1.0), SearchBox(-8.0, 8.0, -1e5, 1e5), 10)
    assert 0 < len(made) < 100


def test_nearest_certifies_the_smallest_modulus_roots(rng):
    for i in range(24):
        s = i % 4
        p = seeded_problem(rng, s)
        full = find_det_eigenvalues(p, DEFAULT_BOX, 80)
        near = find_det_eigenvalues(p, DEFAULT_BOX, 80, nearest=s + 1)
        # nothing at or below the (s+1)-th smallest returned modulus is missing
        cut = sorted(abs(z) for z in near.values)[s]
        want = [(z, m) for z, m in full if abs(z) <= cut]
        assert all(min(abs(z - w) for w in near.values) <= 1e-12 * abs(z) for z, _ in want)
        # conjugates whose moduli tie to the last bit may trade places
        picked = select_reconstruction_nodes(near, s)
        for z in select_reconstruction_nodes(full, s):
            assert min(min(abs(z - w), abs(z.conjugate() - w)) for w in picked) <= 1e-12 * abs(z)


def test_nearest_stops_early(monkeypatch):
    windings = []
    count = char_det.count_zeros

    def spy(p, box):
        windings.append(box)
        return count(p, box)

    monkeypatch.setattr(char_det, "count_zeros", spy)
    p = prob(0.7)
    full = find_det_eigenvalues(p, DEFAULT_BOX, 80)
    n_full = len(windings)
    windings.clear()
    near = find_det_eigenvalues(p, DEFAULT_BOX, 80, nearest=1)
    assert len(windings) < n_full
    assert len(near) < len(full)
    with pytest.raises(InputError):
        find_det_eigenvalues(p, DEFAULT_BOX, 80, nearest=0)


def test_a_double_zero_raises_boundary_zero_error():
    # |g| grows like d^2 away from a double zero, so a contour within about
    # 3e-5 of it trips the residual floor before quadrisection isolates it
    for z0 in (1 + 3j, 0.4 + 0.2j, -2 + 9j):
        _, em, g1, g1p = char_det._exp_terms(z0)
        r = -g1 / (2.0 * em - 1.0)
        a1 = (2.0 * r * em - g1p) / (2.0 * em - 1.0)
        p = prob(r - a1 * z0, a1)
        assert abs(delta_scaled_eval(p, z0)) <= 1e-15 and abs(delta_deriv(p, z0)) <= 1e-15
        with pytest.raises(BoundaryZeroError) as err:
            find_det_eigenvalues(p, DEFAULT_BOX, 80)
        assert abs(err.value.location - z0) <= 1e-2


@pytest.mark.parametrize(
    "call",
    [
        lambda: SearchBox(1.0, 1.0, 0.0, 1.0),
        lambda: SearchBox(0.0, 1.0, 2.0, -2.0),
        lambda: SearchBox(0.0, float("inf"), 0.0, 1.0),
        lambda: find_det_eigenvalues(prob(1.0), DEFAULT_BOX, 0),
        lambda: find_det_eigenvalues(prob(1.0), DEFAULT_BOX, 80, nearest=0),
        lambda: find_det_eigenvalues(prob(1.0), DEFAULT_BOX, 2.5),
        lambda: find_det_eigenvalues(prob(1.0), DEFAULT_BOX, 80, nearest=1.5),
    ],
)
def test_input_checks(call):
    with pytest.raises(InputError):
        call()


# -- every guard that stays fires ------------------------------------------


def test_contour_sample_on_a_zero():
    # the box's top-left corner, a contour sample, is the zero 2 pi i itself
    with pytest.raises(BoundaryZeroError) as err:
        count_zeros(prob(0.0), SearchBox(0.0, 1.0, 0.5, TWO_PI))
    assert err.value.location == TWO_PI * 1j


def fake_determinant(monkeypatch, g, dg):
    """Replace g and g' inside char_det by functions of a scalar or an array."""
    monkeypatch.setattr(char_det, "_g_and_slope", lambda p, z: (g(z), dg(z)))


def test_segment_underflow_raises_on_a_small_jump(monkeypatch):
    # g' reads huge at the corner 1 + 0.5i alone, so the derivative bound
    # fails on the segments ending there down to the length floor; a zero
    # phase jump does not let such a segment pass, so the search retries
    corner = 1.0 + 0.5j
    fake_determinant(
        monkeypatch,
        lambda z: np.ones_like(z) if isinstance(z, np.ndarray) else 1.0 + 0j,
        lambda z: np.where(z == corner, 1e300, 0.0),
    )
    with pytest.raises(BoundaryZeroError) as err:
        count_zeros(prob(0.0), SearchBox(0.0, 1.0, 0.5, 1.0))
    assert abs(err.value.location - corner) <= 1e-11


def test_segment_underflow_raises_on_a_large_jump(monkeypatch):
    # g flips sign across re = 0.3, a phase jump of pi that no segment resolves
    fake_determinant(
        monkeypatch,
        lambda z: np.where(np.real(z) < 0.3, 1.0 + 0j, -1.0 + 0j),
        lambda z: np.zeros(np.shape(z)),
    )
    with pytest.raises(BoundaryZeroError) as err:
        count_zeros(prob(0.0), SearchBox(0.0, 1.0, 0.5, 1.0))
    assert abs(err.value.location - (0.3 + 0.5j)) <= 1e-12


def test_open_contour_gives_a_non_integer_winding(monkeypatch):
    # the first three edges alone turn g about half way around its zero
    edges = char_det._edge_points
    monkeypatch.setattr(char_det, "_edge_points", lambda box: edges(box)[:-24])
    with pytest.raises(NumericalError, match="not close to an integer"):
        count_zeros(prob(0.0), SearchBox(-1.0, 1.0, 5.0, 8.0))


def test_clockwise_contour_gives_a_negative_count(monkeypatch):
    edges = char_det._edge_points
    monkeypatch.setattr(char_det, "_edge_points", lambda box: edges(box)[::-1])
    box = SearchBox(-1.0, 1.0, 5.0, 8.0)
    # a BoundaryZeroError, so find_det_eigenvalues retries with moved lines
    with pytest.raises(BoundaryZeroError, match="negative zero count -1") as err:
        count_zeros(prob(0.0), box)
    assert err.value.location == box.center


def test_newton_gives_up_on_a_zero_derivative(monkeypatch):
    g_and_slope = char_det._g_and_slope
    monkeypatch.setattr(char_det, "_g_and_slope", lambda p, z: (g_and_slope(p, z)[0], 0j))
    assert char_det._newton_polish(prob(0.0), 0.1 + 6.0j, SearchBox(-1.0, 1.0, 5.0, 8.0)) is None


def test_newton_stalls_after_50_iterations(monkeypatch):
    # a benchmark round trip (roundtrip, seed 1, item 297) starts Newton here;
    # it wanders inside the region without converging
    derivs = []
    g_and_slope = char_det._g_and_slope
    monkeypatch.setattr(
        char_det, "_g_and_slope", lambda p, z: derivs.append(z) or g_and_slope(p, z)
    )
    p = prob(0.1275684588324153, -1.0211702521405979)
    region = SearchBox(0.0, 4.0, 0.06911503837897559, 1.6391510997517034)
    assert char_det._newton_polish(p, 2 + 0.8541330690653395j, region) is None
    assert len(derivs) == 50


def test_quadrisection_depth_limit(monkeypatch):
    # a count that never resolves: one zero at the origin that Newton never finds
    monkeypatch.setattr(char_det, "_newton_polish", lambda p, z, region: None)
    monkeypatch.setattr(char_det, "count_zeros", lambda p, box: int(box.contains(0j)))
    with pytest.raises(NumericalError, match="quadrisection depth exceeded"):
        find_det_eigenvalues(prob(0.0), SearchBox(-1.0, 1.3, -0.7, 1.1), 8)


def test_quadrisection_split_guards(monkeypatch):
    box = SearchBox(-1.0, 1.0, -1.0, 1.0)
    row = char_det._ATTEMPTS[0]
    # the children claim one zero each, four against the parent's two
    monkeypatch.setattr(char_det, "count_zeros", lambda p, b: 2 if b == box else 1)
    with pytest.raises(BoundaryZeroError, match=r"children count \[1, 1, 1, 1\], parent 2") as err:
        char_det._collect_roots(prob(0.0), box, 8, None, row)
    assert err.value.location == box.center

    def on_every_split(p, b):
        if b == box:
            return 2
        raise BoundaryZeroError(b.center)

    monkeypatch.setattr(char_det, "count_zeros", on_every_split)
    with pytest.raises(BoundaryZeroError) as err:
        char_det._collect_roots(prob(0.0), box, 8, None, row)
    assert err.value.location == box.split(*row[1:])[0].center


def spy_splits(monkeypatch):
    """The (re, im) fractions of every SearchBox.split call, in order."""
    fractions = []
    split = SearchBox.split

    def spy(self, fr, fi):
        fractions.append((fr, fi))
        return split(self, fr, fi)

    monkeypatch.setattr(SearchBox, "split", spy)
    return fractions


def test_a_split_mismatch_retries_with_the_next_attempt(monkeypatch):
    # the strip nearest the origin holds two zeros, so the search splits it
    p = prob(0.5, 1.0, -0.3)
    want = find_det_eigenvalues(p, DEFAULT_BOX, 80)
    fractions = spy_splits(monkeypatch)
    count = char_det.count_zeros
    first = char_det._ATTEMPTS[0][1:]

    def miscount(pr, b):
        # every child of a split at attempt 0's fractions claims one zero too many
        return count(pr, b) + (fractions[-1:] == [first] and b.width < 16.0)

    monkeypatch.setattr(char_det, "count_zeros", miscount)
    got = find_det_eigenvalues(p, DEFAULT_BOX, 80)
    # one split on attempt 0, then every split of the search on attempt 1
    assert fractions[0] == first and fractions[1:]
    assert set(fractions[1:]) == {char_det._ATTEMPTS[1][1:]}
    assert_same_roots(got, [(z, 1) for z in want.values])


def test_a_negative_child_count_retries_with_the_next_attempt(monkeypatch):
    # the strip nearest the origin holds two zeros, so the search splits it
    p = prob(0.5, 1.0, -0.3)
    want = find_det_eigenvalues(p, DEFAULT_BOX, 80)
    fractions = spy_splits(monkeypatch)
    edges = char_det._edge_points
    first = char_det._ATTEMPTS[0][1:]

    def reversed_on_first_split(box):
        # the children of a split at attempt 0's fractions wind clockwise,
        # so the one holding a zero counts -1
        pts = edges(box)
        return pts[::-1] if fractions[-1:] == [first] and box.width < 16.0 else pts

    monkeypatch.setattr(char_det, "_edge_points", reversed_on_first_split)
    got = find_det_eigenvalues(p, DEFAULT_BOX, 80)
    assert fractions[0] == first and fractions[1:]
    assert set(fractions[1:]) == {char_det._ATTEMPTS[1][1:]}
    assert_same_roots(got, [(z, 1) for z in want.values])


def test_a_split_mismatch_on_every_attempt_raises(monkeypatch):
    # one strip of two zeros whose children always claim one each
    box = SearchBox(-1.0, 1.0, -1.0, 1.0)
    fractions = spy_splits(monkeypatch)
    monkeypatch.setattr(char_det, "count_zeros", lambda p, b: 2 if b.width > 1.5 else 1)
    with pytest.raises(BoundaryZeroError):
        find_det_eigenvalues(prob(0.0), box, 8)
    assert fractions == [row[1:] for row in char_det._ATTEMPTS]


def test_each_retry_nudges_the_box_and_the_last_error_is_raised(monkeypatch):
    box = SearchBox(-1.0, 1.0, -1.0, 1.0)
    searched, raised = [], []
    collect = char_det._collect_roots

    def spy(p, b, *rest):
        searched.append(b)
        try:
            return collect(p, b, *rest)
        except BoundaryZeroError as err:
            raised.append(err)
            raise

    monkeypatch.setattr(char_det, "_collect_roots", spy)
    # one strip of two zeros whose children always claim one each
    monkeypatch.setattr(char_det, "count_zeros", lambda p, b: 2 if b.width > 1.5 else 1)
    with pytest.raises(BoundaryZeroError) as err:
        find_det_eigenvalues(prob(0.0), box, 8)
    assert len(searched) == len(raised) == len(char_det._ATTEMPTS) == 6
    # attempt k searches the box grown by 1.618 j CLUSTER_RADIUS for each j < k
    for k, got in enumerate(searched, 1):
        grown = sum(1.618 * j * CLUSTER_RADIUS for j in range(1, k))
        want = box.expanded(grown)
        assert [got.re_min, got.re_max, got.im_min, got.im_max] == pytest.approx(
            [want.re_min, want.re_max, want.im_min, want.im_max], rel=0.0, abs=1e-15
        )
    assert err.value is raised[-1]


def test_root_residual_bound(monkeypatch):
    # Newton that returns its start unchanged leaves a residual far above the bound
    monkeypatch.setattr(char_det, "_newton_polish", lambda p, z, region: z)
    with pytest.raises(NumericalError, match="above its bound"):
        find_det_eigenvalues(prob(1.0), DEFAULT_BOX, 80)


def test_overflow_left_of_minus_709_is_a_numerical_error():
    p = prob(1.0, 2.0)
    for lam in (-800.0, np.array([0j, -710.0 + 1j])):
        for f in (delta_scaled_eval, delta_deriv):
            with pytest.raises(NumericalError, match="overflows at lam = "):
                f(p, lam)
    with pytest.raises(NumericalError, match=r"\(-800"):
        find_det_eigenvalues(p, SearchBox(-800.0, -790.0, -1.0, 1.0), 8)
