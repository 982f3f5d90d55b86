"""Characteristic determinant of the boundary-polynomial problem and its zeros.

The problem couples a second-order constant-coefficient ODE in x (with the
spectral parameter entering the coefficients) to a boundary condition that
carries a polynomial in the spectral parameter.  Its eigenvalues are the
zeros of an entire function delta(lam); the overflow-safe scaled form

    g(lam) = exp(-2 lam) * delta(lam)
           = (1 - exp(-lam)) / lam + A(lam) * (2 exp(-lam) - 1)

is entire, with g(0) = 1 + a_0, and has exactly the zeros of delta with
equal multiplicities, lam = 0 among them when a_0 = -1.

Zeros are located by the argument principle: adaptive boundary sampling of
a rectangle gives the winding number (= zero count with multiplicity).  At
a zero e^{-lam} = (lam A - 1)/(2 lam A - 1), which tends to 1/2 when A is
not zero, so far from the origin the zeros sit near ln 2 + 2 pi i k, one
per horizontal strip of height 2 pi.  The search box is therefore cut into
such strips, each counted by one winding and, nearest the origin first,
solved by Newton on g from its asymptotic zero; recursive quadrisection
isolates the zeros of any strip Newton does not solve (Delves and Lyness,
Math. Comp. 21, 1967).  For every A the cut lines are laid symmetric about
the real axis: the strip holding the axis is searched whole, and each strip
above it also stands for its mirror image, whose zeros are the conjugates
of those of conj(A) in the strip.  When A is real, g(conj lam) =
conj g(lam), so one winding and one solve serve both images and give each
zero and its exact conjugate wherever they lie in the box; a complex A
winds and solves each mirror image itself.

Each point, or array of points, gets g and g' from one evaluation (one
e^{-lam}, one A(lam)), and `count_zeros` is the one winding for all boxes.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CLUSTER_RADIUS,
    RESIDUAL_TOL,
    Polynomial,
    Spectrum,
    as_count,
    as_finite_float,
    horner,
    poly_eval,
)
from .errors import BoundaryZeroError, InputError, NumericalError

__all__ = [
    "BoundaryPolynomialProblem",
    "SearchBox",
    "delta_scaled_eval",
    "delta_deriv",
    "count_zeros",
    "find_det_eigenvalues",
]

_HALF_PI = 0.5 * math.pi
_TWO_PI = 2.0 * math.pi
_SAMPLES_PER_UNIT = 8.0


@dataclass(frozen=True)
class BoundaryPolynomialProblem:
    """The determinant problem for one boundary polynomial; A' is derived once."""

    poly: Polynomial
    deriv_coeffs: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = self.poly.coeffs[1:]
        object.__setattr__(self, "deriv_coeffs", tuple(k * c for k, c in enumerate(coeffs, 1)))


@dataclass(frozen=True)
class SearchBox:
    """Closed axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        for name in ("re_min", "re_max", "im_min", "im_max"):
            object.__setattr__(self, name, as_finite_float(getattr(self, name), name))
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InputError(
                f"degenerate search box [{self.re_min}, {self.re_max}] x "
                f"[{self.im_min}, {self.im_max}]"
            )

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (
            self.re_min - margin <= z.real <= self.re_max + margin
            and self.im_min - margin <= z.imag <= self.im_max + margin
        )

    def expanded(self, delta: float) -> "SearchBox":
        return SearchBox(
            self.re_min - delta, self.re_max + delta, self.im_min - delta, self.im_max + delta
        )

    def split(self, fr: float, fi: float):
        """Four children tiling the box, cut at the given interior fractions."""
        rm = self.re_min + fr * self.width
        im = self.im_min + fi * self.height
        return (
            SearchBox(self.re_min, rm, self.im_min, im),
            SearchBox(rm, self.re_max, self.im_min, im),
            SearchBox(self.re_min, rm, im, self.im_max),
            SearchBox(rm, self.re_max, im, self.im_max),
        )


# inside this modulus 1 - e^{-lam} cancels, so (1 - e^{-lam})/lam comes from
# its Taylor series, whose dropped terms stay below 3e-18 there
_SERIES_RADIUS = 0.1
_G1_SERIES = tuple((-1.0) ** k / math.factorial(k + 1) for k in range(11))
_G1_DERIV_SERIES = tuple(k * c for k, c in enumerate(_G1_SERIES))[1:]
_EXP_LIMIT = math.log(np.finfo(float).max)


def _overflow_error(lam) -> NumericalError:
    return NumericalError(f"e^(-lam) overflows at lam = {complex(lam)!r} (re lam below -709.78)")


def _exp_terms(lam):
    """lam, e^{-lam}, g1 = (1 - e^{-lam})/lam and g1'; scalars take cmath.exp, far cheaper.

    Raises NumericalError where e^{-lam} overflows.
    """
    if isinstance(lam, np.ndarray):
        # |e^{-lam}| = e^{-re lam} overflows only left of re lam = -_EXP_LIMIT
        if lam.real.min() < -_EXP_LIMIT:
            raise _overflow_error(lam[np.argmin(lam.real)])
        em = np.exp(-lam)
        # the scalar branch's test, op for op (np.abs and abs can round apart)
        small = lam.real * lam.real + lam.imag * lam.imag < _SERIES_RADIUS**2
        # series entries divide by 1, not by a possible 0, then take the series
        den = np.where(small, 1.0, lam)
        g1 = (1.0 - em) / den
        g1p = (em - g1) / den
        if small.any():
            g1[small] = horner(_G1_SERIES, lam[small])
            g1p[small] = horner(_G1_DERIV_SERIES, lam[small])
        return lam, em, g1, g1p
    lam = complex(lam)
    try:
        em = cmath.exp(-lam)
    except OverflowError:
        raise _overflow_error(lam) from None
    if lam.real * lam.real + lam.imag * lam.imag < _SERIES_RADIUS**2:
        return lam, em, horner(_G1_SERIES, lam), horner(_G1_DERIV_SERIES, lam)
    g1 = (1.0 - em) / lam
    return lam, em, g1, (em - g1) / lam


def _g_and_slope(prob: BoundaryPolynomialProblem, lam):
    """g and g' at a scalar or an array, from one _exp_terms call and one A(lam)."""
    lam, em, g1, g1p = _exp_terms(lam)
    a_val, tail = horner(prob.poly.coeffs, lam), 2.0 * em - 1.0
    ap_val = horner(prob.deriv_coeffs, lam)
    return g1 + a_val * tail, g1p + ap_val * tail - 2.0 * a_val * em


def delta_scaled_eval(prob: BoundaryPolynomialProblem, lam):
    """Overflow-safe scaled determinant g = e^{-2 lam} delta.

    g is entire with g(0) = 1 + a_0, and its zeros are exactly those of
    delta, with equal multiplicities.  Takes a complex scalar or a numpy
    array of points.
    """
    return _g_and_slope(prob, lam)[0]


def delta_deriv(prob: BoundaryPolynomialProblem, lam):
    """Analytic derivative of the scaled determinant g, at a scalar or an array."""
    return _g_and_slope(prob, lam)[1]


def _edge_points(box: SearchBox):
    """Counterclockwise contour samples, closed (last point equals first)."""
    corners = [
        complex(box.re_min, box.im_min),
        complex(box.re_max, box.im_min),
        complex(box.re_max, box.im_max),
        complex(box.re_min, box.im_max),
        complex(box.re_min, box.im_min),
    ]
    pts = []
    for z0, z1 in zip(corners[:-1], corners[1:]):
        n = max(12, int(abs(z1 - z0) * _SAMPLES_PER_UNIT) + 1)
        # linspace(0, 1, n, endpoint=False) bit for bit, in under half the time
        ts = np.arange(n) * (1.0 / n)
        pts.append(z0 + ts * (z1 - z0))
    pts.append(np.array([corners[-1]]))
    return np.concatenate(pts)


def count_zeros(prob: BoundaryPolynomialProblem, box: SearchBox) -> int:
    """Zeros of the determinant inside the box, counted with multiplicity.

    The count is the winding number of g along the box boundary (argument
    principle).  A segment is accepted only when its phase jump is below
    pi/2 AND len * max|g'| / min|g|, taken at its two endpoints, is at most
    1/2.  The endpoint values of |g'| stand in for its maximum on the
    segment, so this makes aliasing of a zero between samples unlikely, not
    impossible: a rigorous bound is ROADMAP item 3.  A sample with |g| at
    or below RESIDUAL_TOL, a segment that still fails at the length floor
    (1e-12 relative), or a count below zero raises BoundaryZeroError; a
    winding far from an integer, NumericalError.

    The first pass tests every segment between contour samples at once, in
    numpy.  Only the segments that fail it are bisected, one at a time and
    in contour order, by the scalar loop.  The bisection stays scalar on
    purpose: over the `roundtrip` benchmark's seed-1 items 0-299, a winding
    bisects a mean of 6.2 midpoints (median 0), and one scalar
    `_g_and_slope` costs about 3.4 us against about 46 us for one call on
    an array of 4 points (2 shared vCPUs, Python 3.11, numpy 2.4).  So
    batching each bisection round into one array call would cost more than
    the whole scalar loop.
    """
    pts = _edge_points(box)
    vals, ders = _g_and_slope(prob, pts)
    mags, ders = np.abs(vals), np.abs(ders)
    if (mags <= RESIDUAL_TOL).any():
        raise BoundaryZeroError(complex(pts[int(np.argmin(mags))]))

    jumps = np.angle(vals[1:] / vals[:-1])
    excursions = (
        np.abs(np.diff(pts)) * np.maximum(ders[:-1], ders[1:]) / np.minimum(mags[:-1], mags[1:])
    )
    accepted = (np.abs(jumps) < _HALF_PI) & (excursions <= 0.5)
    total = float(jumps[accepted].sum())
    # pushed last to first, so the stack pops them in contour order
    stack = [
        (
            complex(pts[i]), complex(vals[i]), float(ders[i]),
            complex(pts[i + 1]), complex(vals[i + 1]), float(ders[i + 1]),
        )
        for i in np.flatnonzero(~accepted)[::-1].tolist()
    ]
    while stack:
        z0, f0, d0, z1, f1, d1 = stack.pop()
        jump = cmath.phase(f1 / f0)
        seg = abs(z1 - z0)
        excursion = seg * max(d0, d1) / min(abs(f0), abs(f1))
        if abs(jump) < _HALF_PI and excursion <= 0.5:
            total += jump
            continue
        if seg < 1e-12 * (1.0 + abs(z0)):
            raise BoundaryZeroError(0.5 * (z0 + z1))
        zm = 0.5 * (z0 + z1)
        fm, dm = _g_and_slope(prob, zm)
        if abs(fm) <= RESIDUAL_TOL:
            raise BoundaryZeroError(zm)
        stack.append((zm, fm, abs(dm), z1, f1, d1))
        stack.append((z0, f0, d0, zm, fm, abs(dm)))
    w = total / _TWO_PI
    k = round(w)
    if abs(w - k) > 0.2:
        raise NumericalError(f"winding number {w:.4f} is not close to an integer")
    if k < 0:
        raise BoundaryZeroError(box.center, f"negative zero count {k} in the box at {box.center!r}")
    return int(k)


def _newton_polish(prob, z0: complex, region: SearchBox):
    """Newton on g from z0; None when it leaves the region or stalls."""
    z = complex(z0)
    margin = 0.5 * region.diameter + 10.0 * CLUSTER_RADIUS
    # converging polishes in 4,800 seeded round trips took at most 42
    # iterations; one still going at 50 has stalled, and quadrisection takes over
    for _ in range(50):
        f, df = _g_and_slope(prob, z)
        if df == 0:
            return None
        step = f / df
        z -= step
        if not region.contains(z, margin):
            return None
        if abs(step) <= 1e-13 * (1.0 + abs(z)):
            # one extra iteration parks the residual at the noise floor
            f, df = _g_and_slope(prob, z)
            if df != 0:
                z -= f / df
            return z
    return None


# One row per search attempt: (cut-line shift, re and im split fractions).
# The cut lines +-(2 pi (k + 1/2) + shift) keep at least 2.3 away from every
# asymptotic zero ln 2 + 2 pi i k, above the axis and below it, since
# |shift| <= 0.83 < pi - 2.3; the imaginary fractions stay off 0.5, since a
# symmetric box would otherwise put its split line exactly on the real
# axis, where real-coefficient zeros live.
_ATTEMPTS = (
    (0.0, 0.5, 0.511),
    (0.37, 0.53, 0.489),
    (-0.29, 0.47, 0.523),
    (0.61, 0.511, 0.477),
    (-0.53, 0.489, 0.533),
    (0.83, 0.545, 0.461),
)


def _strips(box: SearchBox, shift: float):
    """The box cut at Im = +-(2 pi (k + 1/2) + shift), nearest the origin first.

    Yields (distance from the origin, strip, Newton start, images), the
    start being the asymptotic zero ln 2 + 2 pi i k clamped into the strip.
    A tall box has millions of strips and a search may stop after a few, so
    they are made lazily.

    The layout is symmetric about the real axis.  The axis strip, between
    the two lines nearest the axis and cut by the box, comes first with
    images None.  Then the strips above it cover box | conj(box) there, cut
    once more at the mirror of the box edge nearer the axis, so each lies in
    the box, has its mirror image in the box, or both.  Their images say
    which of the two lie in the box: False for the strip itself, True for
    its mirror image.  No strip below the axis strip is made.  NumericalError
    before the first strip when the box reaches so far from the axis that
    cut lines 2 pi apart could round to one float.
    """
    top = max(box.im_max, -box.im_min)
    # each cut line is computed to within ulp(top), so two neighbours stay apart below 2 ulp = 2 pi
    if 2.0 * math.ulp(top) >= _TWO_PI:
        raise NumericalError(
            f"cut lines 2 pi apart round to one float at |Im lam| = {top:g}: "
            f"the box reaches too far from the real axis"
        )
    re0 = min(max(math.log(2.0), box.re_min), box.re_max)
    dx = max(box.re_min, 0.0, -box.re_max)

    def strip(lo, hi, k, images=None):
        start = complex(re0, min(max(_TWO_PI * k, lo), hi))
        dist = math.hypot(dx, max(lo, 0.0, -hi))
        return dist, SearchBox(box.re_min, box.re_max, lo, hi), start, images

    cut = _TWO_PI * 0.5 + shift
    if max(box.im_min, -cut) < min(box.im_max, cut):
        yield strip(max(box.im_min, -cut), min(box.im_max, cut), 0)
    # above the axis strip: the box's own part, and the mirror of its part below
    parts = [
        (max(lo, cut), hi, flip)
        for lo, hi, flip in ((box.im_min, box.im_max, False), (-box.im_max, -box.im_min, True))
        if max(lo, cut) < hi
    ]
    if not parts:
        return
    bottom = min(p[0] for p in parts)
    # two parts both start at the axis strip; the lower top is one more cut
    inner = min(p[1] for p in parts)
    for k in itertools.count(max(1, math.floor((bottom - shift) / _TWO_PI + 0.5))):
        lo = max(bottom, _TWO_PI * (k - 0.5) + shift)
        if lo >= top:
            return
        hi = min(top, _TWO_PI * (k + 0.5) + shift)
        for a, b in ((lo, min(hi, inner)), (max(lo, inner), hi)):
            if a < b:
                images = tuple(f for p_lo, p_hi, f in parts if p_lo <= a and b <= p_hi)
                yield strip(a, b, k, images)


def _collect_roots(prob, box: SearchBox, max_roots: int, nearest: int | None, row):
    """Strip-by-strip search with one row of _ATTEMPTS; returns the located zeros, each simple.

    A strip of count 1 is solved by Newton from its start; a strip that
    Newton misses, or that holds more zeros, is quadrisected with its known
    count, at the row's split fractions.  The zeros of A in a strip's
    mirror image are the conjugates of those of conj(A) in the strip, so a
    mirror image is searched as the strip of the conjugate problem.  For a
    real A that is A itself: one winding and one solve serve both images,
    and each zero z located gives z and conj(z) wherever they lie in the
    box.  A complex A winds and solves each image itself.
    The max_roots tally adds each count once per image it serves, before
    the zeros are solved.  With `nearest`, the search stops before the
    first strip farther from the origin than the nearest-th smallest
    modulus located.

    For a real A, a pair from a mirrored strip is exact by construction.
    Within the axis strip, each zero below the real axis whose mirror image
    was located is replaced by that zero's exact conjugate, and a zero
    within the cluster radius of the axis with no mirror image is made
    exactly real.  BoundaryZeroError when a zero sits on a contour, a count
    is negative, or a split's counts disagree.
    """
    shift, fr, fi = row
    axis: list[complex] = []
    paired: list[complex] = []

    def visit(p, bx: SearchBox, count: int, depth: int, start: complex, found: list):
        if count == 0:
            return
        if count == 1:
            z = _newton_polish(p, start, bx)
            if z is not None and bx.contains(z):
                found.append(z)
                return
        if depth > 64:
            raise NumericalError(f"quadrisection depth exceeded near {bx.center!r}")
        kids = bx.split(fr, fi)
        counts = [count_zeros(p, k) for k in kids]
        # a zero hugging one of the new edges can corrupt two children at
        # once; a disagreeing sum exposes it, and the next attempt moves the lines
        if sum(counts) != count:
            msg = f"split of the box at {bx.center!r}: children count {counts}, parent {count}"
            raise BoundaryZeroError(bx.center, msg)
        for k, c in zip(kids, counts):
            visit(p, k, c, depth + 1, k.center, found)

    real = all(c.imag == 0.0 for c in prob.poly.coeffs)
    # the problem of conj(A); a real A's is A itself
    mirror = prob if real else BoundaryPolynomialProblem(
        Polynomial(tuple(c.conjugate() for c in prob.poly.coeffs))
    )
    total = 0
    for dist, strip, start, images in _strips(box, shift):
        moduli = sorted(abs(z) for z in itertools.chain(axis, paired))
        if nearest and len(moduli) >= nearest and moduli[nearest - 1] < dist:
            break
        found = axis if images is None else paired
        images = images or (False,)
        # one winding and one solve serve a real A's strip and its mirror image
        for flips in [images] if real else [(flip,) for flip in images]:
            p = mirror if flips[0] else prob
            count = count_zeros(p, strip)
            total += count * len(flips)
            if total > max_roots:
                raise NumericalError(
                    f"more than max_roots={max_roots} zeros in the box "
                    f"({len(moduli)} already located)"
                )
            located: list[complex] = []
            visit(p, strip, count, 0, start, located)
            found.extend(z.conjugate() if flip else z for z in located for flip in flips)

    if real:
        # the axis strip's zeros; the mirrored strips' come in exact pairs already
        located = list(axis)
        for i, z in enumerate(located):
            mirrored = (w for w in located if w.imag * z.imag < 0.0)
            partner = next((w for w in mirrored if abs(w.conjugate() - z) <= CLUSTER_RADIUS), None)
            if partner is None and 0.0 < abs(z.imag) <= CLUSTER_RADIUS:
                axis[i] = complex(z.real, 0.0)
            elif partner is not None and z.imag < 0.0:
                axis[i] = partner.conjugate()
    return axis + paired


def find_det_eigenvalues(
    prob: BoundaryPolynomialProblem, box: SearchBox, max_roots: int, nearest: int | None = None
) -> Spectrum:
    """Determinant zeros in the box, polished and sorted by (re, im).

    With `nearest=n`, the search stops once the n smallest-modulus zeros in
    the box are certified: zeros may be missing, but none with modulus at
    or below the n-th smallest returned.  Without it, every zero in the
    box.  A zero on the outer boundary, a cut line or a split line, a
    negative count, or a split whose children's counts do not sum to its
    parent's, triggers up to 5 retries, each with the next row of
    _ATTEMPTS: the cut lines shifted, the split fractions moved, and the box
    nudged outward by the cluster radius.  Every zero is returned with
    multiplicity 1: a multiple zero makes |g| vanish to second order, so
    some contour near it raises BoundaryZeroError.  Every A is searched on
    the one layout of _strips, folded about the real axis: a real A's zeros
    come out real or in exact conjugate pairs (see _collect_roots), and a
    complex A winds and solves each mirror image itself.  Sorted, a pair
    lists -im first.
    """
    max_roots = as_count(max_roots, "max_roots")
    if nearest is not None:
        nearest = as_count(nearest, "nearest")
    for attempt, row in enumerate(_ATTEMPTS, 1):
        try:
            roots = _collect_roots(prob, box, max_roots, nearest, row)
            break
        except BoundaryZeroError:
            if attempt == len(_ATTEMPTS):
                raise
            box = box.expanded(CLUSTER_RADIUS * attempt * 1.618)

    roots.sort(key=lambda z: (z.real, z.imag))
    for z in roots:
        residual = abs(delta_scaled_eval(prob, z))
        # g's terms scale like 1/max(1, |z|) and |A(z)|, times e^{-z} left of the axis
        growth = max(1.0, math.exp(-z.real))
        bound = RESIDUAL_TOL * (1.0 / max(1.0, abs(z)) + abs(poly_eval(prob.poly, z))) * growth
        if residual > bound:
            raise NumericalError(
                f"root {z!r} has residual {residual:.3e} above its bound {bound:.3e}"
            )
    return Spectrum(tuple((z, 1) for z in roots))
