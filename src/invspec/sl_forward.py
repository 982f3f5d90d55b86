"""Forward eigenvalue solver for Neumann problems -y'' + q(x) y = lam y on [0,1].

Shooting from y(0)=1, y'(0)=0: eigenvalues are the zeros of y'(1) in lam.
The propagator is an adaptive fourth-order Magnus stepper (two-point Gauss
nodes) with step-doubling local error control.  It is exact for constant
coefficients, but the rotation cap on its step makes the steps per shot
grow like sqrt(lam) once lam is large.  Eigenvalue counting integrates a
scaled phase of (y, y') and counts phase multiples of pi at x = 1, which
brackets each eigenvalue before sign refinement on y'(1).
"""

from __future__ import annotations

import math

import numpy as np

from .core import RESIDUAL_TOL, Spectrum, as_finite_float, as_positive_tol
from .errors import BracketingError, InputError, IntegrationError, NumericalError
from .potentials import Potential

__all__ = [
    "shoot_miss",
    "eigenvalue_count_below",
    "neumann_eigenvalues",
    "free_spectrum_verdict",
    "rayleigh_mean_gap",
    "mean_value",
]

_HALF_PI = 0.5 * math.pi
_TWO_PI = 2.0 * math.pi
_GAUSS_OFF = math.sqrt(3.0) / 6.0
_COMM_COEF = math.sqrt(3.0) / 12.0
_EPS = math.ulp(1.0)
_RENORM_LIMIT = 1e6
# relative stop width of eigenvalue refinement; shots run at EIG_TOL / 100
EIG_TOL = 1e-10


def _step(qf, lam, x, h, y, p):
    """One fourth-order Magnus step for y'' = (q(x) - lam) y.

    Returns the new (y, y') and the mean of q - lam over the Gauss nodes.
    The 2x2 propagator is exp of a traceless matrix, evaluated in closed
    form; exact whenever q is constant across the step.
    """
    w1 = qf(x + h * (0.5 - _GAUSS_OFF)) - lam
    w2 = qf(x + h * (0.5 + _GAUSS_OFF)) - lam
    wm = 0.5 * (w1 + w2)
    d = _COMM_COEF * h * h * (w1 - w2)
    c = h * wm
    s2 = d * d + h * c
    if s2 > 1e-12:
        s = math.sqrt(s2)
        ch = math.cosh(s)
        sh = math.sinh(s) / s
    elif s2 < -1e-12:
        s = math.sqrt(-s2)
        ch = math.cos(s)
        sh = math.sin(s) / s
    else:
        ch = 1.0 + s2 * (0.5 + s2 / 24.0)
        sh = 1.0 + s2 * (1.0 / 6.0 + s2 / 120.0)
    yn = (ch + sh * d) * y + sh * h * p
    pn = sh * c * y + (ch - sh * d) * p
    return yn, pn, wm


def _advance_phase(psi, cur_scale, y0, p0, y1, p1, wm):
    """Extend the continuous scaled phase atan2(s*y, y') across one sub-step.

    The scale s tracks the local oscillation rate, so the true phase change
    lies in (-pi/2, 3pi/2) by construction (step caps bound the rotation,
    hyperbolic sub-steps cannot cross the invariant diagonals); wrapping the
    atan2 difference into that window recovers it exactly.
    """
    s = math.sqrt(-wm) if wm < -1e-4 else 1e-2
    if s != cur_scale:
        a_new = math.atan2(s * y0, p0)
        a_old = math.atan2(cur_scale * y0, p0)
        delta = a_new - a_old
        # both angles share a closed quadrant, so |delta| < pi/2
        if delta > math.pi:
            delta -= _TWO_PI
        elif delta < -math.pi:
            delta += _TWO_PI
        psi += delta
    a0 = math.atan2(s * y0, p0)
    a1 = math.atan2(s * y1, p1)
    delta = a1 - a0
    delta -= _TWO_PI * math.floor((delta + _HALF_PI) / _TWO_PI)
    return psi + delta, s


def _integrate(qf, breaks, lam, loc_tol, track_phase):
    """Propagate (y, y') from x=0 to x=1 with y(0)=1, y'(0)=0.

    Local error per step is kept below loc_tol times the state scale by
    comparing one full Magnus step against two half steps.  The state is
    renormalized whenever its max-norm exceeds 1e6; uniform rescaling
    preserves both the zero set of y'(1) and every phase angle.

    Returns (y(1), y'(1), psi(1)) with psi the continuous scaled phase
    (pi/2 initially; meaningful only when track_phase is set).
    """
    x = 0.0
    y = 1.0
    p = 0.0
    psi = _HALF_PI
    cur_scale = 1e-2
    bi = 0
    nb = len(breaks)
    w_prev = qf(0.0) - lam
    h = 0.1

    while x < 1.0 - 1e-14:
        # rotation / growth caps keep per-step phase change and cosh range safe
        if w_prev < 0.0:
            hcap = 3.0 / math.sqrt(-w_prev)
            if h > hcap:
                h = hcap
        elif w_prev > 0.0:
            hcap = 80.0 / math.sqrt(w_prev)
            if h > hcap:
                h = hcap
        if h > 0.5:
            h = 0.5
        if x + h > 1.0:
            h = 1.0 - x
        while bi < nb and breaks[bi] <= x + 1e-15:
            bi += 1
        if bi < nb and x + h > breaks[bi] - 1e-15:
            h = breaks[bi] - x
        if h < 1e-14:
            raise IntegrationError(lam, x)

        y1, p1, _ = _step(qf, lam, x, h, y, p)
        ym, pm, wma = _step(qf, lam, x, 0.5 * h, y, p)
        y2, p2, wmb = _step(qf, lam, x + 0.5 * h, 0.5 * h, ym, pm)

        scale = max(1.0, abs(y), abs(p), abs(y2), abs(p2))
        err = max(abs(y1 - y2), abs(p1 - p2)) / 15.0
        tol_step = loc_tol * scale
        if err <= tol_step:
            if track_phase:
                psi, cur_scale = _advance_phase(psi, cur_scale, y, p, ym, pm, wma)
                psi, cur_scale = _advance_phase(psi, cur_scale, ym, pm, y2, p2, wmb)
            x += h
            y, p = y2, p2
            w_prev = wmb
            n = abs(y) if abs(y) > abs(p) else abs(p)
            if n > _RENORM_LIMIT:
                y /= n
                p /= n
            if err == 0.0:
                h *= 5.0
            else:
                fac = 0.9 * (tol_step / err) ** 0.2
                h *= 5.0 if fac > 5.0 else fac
        else:
            fac = 0.9 * (tol_step / err) ** 0.2
            h *= 0.1 if fac < 0.1 else fac
    return y, p, psi


def _shooters(q: Potential, eig_tol: float = EIG_TOL):
    """count_below(mu): eigenvalues below mu, from the phase; miss(lam): (y'(1), y(1))."""
    qf = q.evaluator()
    breaks = q.breakpoints()
    loc_tol = eig_tol / 100.0

    def count_below(mu: float) -> int:
        _, _, psi = _integrate(qf, breaks, mu, loc_tol, True)
        n = math.ceil((psi - _HALF_PI) / math.pi - 1e-12)
        return n if n > 0 else 0

    def miss(lam: float):
        yv, pv, _ = _integrate(qf, breaks, lam, loc_tol, False)
        return pv, yv

    return count_below, miss


def shoot_miss(q: Potential, lam: float) -> float:
    """Renormalized y'(1) of the shot solution; zero exactly at Neumann eigenvalues."""
    lam = as_finite_float(lam, "lambda")
    _, miss = _shooters(q)
    return miss(lam)[0]


def eigenvalue_count_below(q: Potential, mu: float) -> int:
    """Number of Neumann eigenvalues strictly below mu (phase multiples of pi at x=1)."""
    mu = as_finite_float(mu, "mu")
    count_below, _ = _shooters(q)
    return count_below(mu)


def mean_value(q: Potential) -> float:
    """Integral of q over [0,1] by composite Simpson on a 2001-point grid."""
    xs = np.linspace(0.0, 1.0, 2001)
    vals = np.asarray(q.sample(xs), dtype=float)
    w = np.ones(2001)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((w @ vals) / (3.0 * 2000))


def _width_stop(a: float, b: float, eig_tol: float) -> float:
    # eig_tol is a relative width target; it saturates to absolute near zero
    return max(eig_tol * max(1.0, abs(a), abs(b)), 8.0 * _EPS * max(abs(a), abs(b), 1.0))


def _refine_bracket(miss, a, fa, ya, b, fb, yb, eig_tol: float):
    """Shrink a sign-change bracket of y'(1) until its width is below eig_tol.

    miss(lam) gives (y'(1), y(1)); fa, ya and fb, yb are those at a and b.
    Illinois-damped false position: secant candidates are clamped no closer
    than half the stop width to an endpoint, and any step that fails to
    halve the bracket forces a bisection next, so progress is guaranteed.
    Ends with one guarded secant polish on the final interval, and returns
    (lam, y'(1), y(1)) at the point of least |y'(1)|.
    """
    it = 0
    side = 0
    force_bisect = False
    fa_true, fb_true = fa, fb
    while True:
        width = b - a
        xtol = _width_stop(a, b, eig_tol)
        if width <= xtol:
            break
        x = None
        if not force_bisect and fb != fa:
            cand = (a * fb - b * fa) / (fb - fa)
            clamp = max(0.45 * xtol, 4.0 * _EPS * max(abs(a), abs(b)))
            if cand < a + clamp:
                cand = a + clamp
            elif cand > b - clamp:
                cand = b - clamp
            if a < cand < b:
                x = cand
        if x is None:
            x = 0.5 * (a + b)
            side = 0
        fx, yx = miss(x)
        if fx == 0.0:
            return x, 0.0, yx
        if (fx > 0.0) == (fa_true > 0.0):
            a, fa, fa_true, ya = x, fx, fx, yx
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb, fb_true, yb = x, fx, fx, yx
            if side == 1:
                fa *= 0.5
            side = 1
        force_bisect = (b - a) > 0.5 * width
        it += 1
        if it > 200:
            raise NumericalError(f"eigenvalue refinement stalled on [{a}, {b}]")
    if fb_true != fa_true:
        x = b - fb_true * (b - a) / (fb_true - fa_true)
        x = min(max(x, a), b)
    else:
        x = 0.5 * (a + b)
    fx, yx = miss(x)
    best = min(
        ((abs(fa_true), a, fa_true, ya), (abs(fb_true), b, fb_true, yb), (abs(fx), x, fx, yx))
    )
    return best[1:]


def neumann_eigenvalues(q: Potential, count: int, eig_tol: float = EIG_TOL) -> Spectrum:
    """First `count` Neumann eigenvalues of -y'' + q y = lam y, each of multiplicity 1.

    Each eigenvalue is isolated by the phase-counting function, then refined
    on the sign of y'(1) to a relative width of eig_tol.  Raises
    BracketingError if the search window fails to capture an eigenvalue
    even after widening 10x.
    """
    eig_tol = as_positive_tol(eig_tol, "eig_tol")
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    count_below, miss = _shooters(q, eig_tol)
    qbar = mean_value(q)
    margin = max(2.0, q.total_variation() + 1.0)

    lo = q.lower_bound() - 1.0
    for _ in range(4):
        if count_below(lo) == 0:
            break
        lo -= 10.0 * (1.0 + abs(lo))
    else:
        raise BracketingError(0, (lo, lo))

    values: list[float] = []
    for k in range(count):
        guess = (k * math.pi) ** 2 + qbar
        a = max(lo, guess - margin)
        # at a == lo the count is k by construction: lo sits just above the
        # previous eigenvalue (or below the whole spectrum for k = 0)
        ca = count_below(a) if a > lo else k
        if ca > k:
            a = lo
            ca = count_below(lo)
        b = max(guess + margin, a + 1.0)
        cb = count_below(b)
        widen = 0
        while cb < k + 1:
            widen += 1
            if widen > 10:
                raise BracketingError(k, (a, b))
            b = a + (b - a) * 10.0
            cb = count_below(b)
        it = 0
        while not (ca == k and cb == k + 1):
            mid = 0.5 * (a + b)
            cm = count_below(mid)
            if cm <= k:
                a, ca = mid, cm
            else:
                b, cb = mid, cm
            it += 1
            if it > 200:
                raise BracketingError(k, (a, b))

        fa, ya = miss(a)
        fb, yb = miss(b)
        nudge = 1e-9 * (1.0 + abs(a))
        tries = 0
        while fa != 0.0 and fb != 0.0 and (fa > 0.0) == (fb > 0.0):
            # counting said exactly one zero inside; stretch the bracket a hair
            tries += 1
            if tries > 6:
                raise BracketingError(k, (a, b))
            a -= nudge
            b += nudge
            nudge *= 10.0
            fa, ya = miss(a)
            fb, yb = miss(b)
        if fa == 0.0:
            lam_k, f_k, y_end = a, 0.0, ya
        elif fb == 0.0:
            lam_k, f_k, y_end = b, 0.0, yb
        else:
            lam_k, f_k, y_end = _refine_bracket(miss, a, fa, ya, b, fb, yb, eig_tol)

        # a wider stop leaves y'(1) proportionally further from zero
        floor = RESIDUAL_TOL * (1.0 + abs(y_end) + abs(lam_k)) * max(1.0, eig_tol / EIG_TOL)
        if abs(f_k) > floor:
            raise NumericalError(
                f"eigenvalue #{k} residual {abs(f_k):.3e} exceeds floor {floor:.3e}"
            )
        if values and lam_k <= values[-1]:
            raise NumericalError(f"eigenvalue #{k} not above its predecessor")
        values.append(lam_k)
        lo = lam_k + max(4.0 * eig_tol, 1e-10 * (1.0 + abs(lam_k)))

    gate = max(1.0, q.total_variation())
    for n in range(5, count):
        drift = abs(values[n] - (n * math.pi) ** 2 - qbar)
        if drift > gate:
            raise NumericalError(
                f"eigenvalue #{n} violates the asymptotic sanity gate "
                f"(drift {drift:.3e} > {gate:.3e})"
            )
    return Spectrum(tuple((v, 1) for v in values))


def free_spectrum_verdict(spectrum: Spectrum, tol: float) -> bool:
    """True iff every provided eigenvalue sits within tol of (n*pi)^2.

    On the full spectrum this forces q to vanish identically; on a finite
    sample it is the corresponding proxy verdict.
    """
    if len(spectrum) == 0:
        raise InputError("verdict needs a nonempty spectrum")
    return all(
        abs(lam - (n * math.pi) ** 2) <= tol for n, lam in enumerate(spectrum.values)
    )


def rayleigh_mean_gap(q: Potential) -> tuple[float, float]:
    """(first eigenvalue, mean of q).

    The constant trial function makes the first eigenvalue at most the mean;
    equality holds exactly for constant q, so a strict gap witnesses a
    non-constant potential.
    """
    lam0 = neumann_eigenvalues(q, 1).values[0]
    return lam0, mean_value(q)
