"""Forward eigenvalue solver for Neumann problems -y'' + q(x) y = lam y on [0,1].

Shooting from y(0)=1, y'(0)=0: eigenvalues are the zeros of y'(1) in lam.
The propagator is an adaptive fourth-order Magnus stepper (two-point Gauss
nodes) with step-doubling local error control.  It is exact for constant
coefficients, but the rotation cap on its step makes the steps per shot
grow like sqrt(lam) once lam is large.  Eigenvalue counting integrates a
scaled phase of (y, y') and counts phase multiples of pi at x = 1, which
brackets each eigenvalue.  Newton on y'(1) refines it inside that bracket,
with the slope d y'(1) / d lam = -integral(y^2) / y(1) that the Lagrange
identity gives at an eigenvalue.
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
# relative Newton step that stops eigenvalue refinement; shots run at EIG_TOL / 100
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

    The scale s = sqrt|q - lam| tracks the local oscillation or growth rate
    on both sides of a turning point (Pryce, Numerical Solution of
    Sturm-Liouville Problems, 1993), so the true phase change lies in
    (-pi/2, 3pi/2) by construction: step caps bound the rotation, and
    hyperbolic sub-steps cannot cross the invariant diagonals
    s*y = +-y'.  Wrapping the atan2 difference into that window recovers it
    exactly.
    """
    s = math.sqrt(abs(wm)) if abs(wm) > 1e-4 else 1e-2
    a0 = math.atan2(s * y0, p0)
    if s != cur_scale:
        # both scales are positive, so both angles share a closed quadrant
        # and their difference is the rescaling's phase change, below pi/2
        psi += a0 - math.atan2(cur_scale * y0, p0)
    delta = math.atan2(s * y1, p1) - a0
    delta -= _TWO_PI * math.floor((delta + _HALF_PI) / _TWO_PI)
    return psi + delta, s


def _integrate(qf, breaks, lam, loc_tol, track_phase):
    """Propagate (y, y') from x=0 to x=1 with y(0)=1, y'(0)=0.

    Local error per step is kept below loc_tol times the state scale by
    comparing one full Magnus step against two half steps.  The state is
    renormalized whenever its max-norm exceeds 1e6; uniform rescaling
    preserves both the zero set of y'(1) and every phase angle.

    Returns (y(1), y'(1), psi(1), M) with psi the continuous scaled phase
    (pi/2 initially; meaningful only when track_phase is set) and M the
    integral of y^2 over [0, 1], by Simpson's rule on each accepted step and
    in the scale of the returned y.
    """
    x = 0.0
    y = 1.0
    p = 0.0
    psi = _HALF_PI
    m = 0.0
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
        # a breakpoint within 1e-14 ahead counts as landed: a step to it would underflow
        while bi < nb and breaks[bi] <= x + 1e-14:
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
            m += h * (y * y + 4.0 * ym * ym + y2 * y2) / 6.0
            y, p = y2, p2
            w_prev = wmb
            n = abs(y) if abs(y) > abs(p) else abs(p)
            if n > _RENORM_LIMIT:
                y /= n
                p /= n
                m /= n * n
            if err == 0.0:
                h *= 5.0
            else:
                fac = 0.9 * (tol_step / err) ** 0.2
                h *= 5.0 if fac > 5.0 else fac
        else:
            fac = 0.9 * (tol_step / err) ** 0.2
            h *= 0.1 if fac < 0.1 else fac
    return y, p, psi, m


def _shooters(q: Potential, eig_tol: float = EIG_TOL):
    """count_below(mu): eigenvalues below mu, from the phase; miss(lam): (y'(1), y(1), M)."""
    qf = q.evaluator()
    breaks = q.breakpoints()
    loc_tol = eig_tol / 100.0

    def count_below(mu: float) -> int:
        psi = _integrate(qf, breaks, mu, loc_tol, True)[2]
        n = math.ceil((psi - _HALF_PI) / math.pi - 1e-12)
        return n if n > 0 else 0

    def miss(lam: float):
        yv, pv, _, m = _integrate(qf, breaks, lam, loc_tol, False)
        return pv, yv, m

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
    # eig_tol is a relative stop target; it saturates to absolute near zero
    return max(eig_tol * max(1.0, abs(a), abs(b)), 8.0 * _EPS * max(abs(a), abs(b), 1.0))


def _newton_refine(miss, k: int, a: float, b: float, eig_tol: float):
    """Safeguarded Newton on y'(1) for lam_k, the one eigenvalue in [a, b].

    miss(lam) gives (y'(1), y(1), M) with M the integral of y^2.  With
    u = d y / d lam, the Lagrange identity M = u(1) y'(1) - y(1) u'(1) gives
    u'(1) = -M / y(1) where y'(1) = 0, so the Newton step is y'(1) y(1) / M.
    Below lam_k in the bracket y'(1) has the sign (-1)^k, which moves one
    end of the bracket to each shot; a step that would leave the bracket
    bisects instead.  Once a step is below the stop width, one last shot at
    its end is kept if its |y'(1)| is smaller.  Returns (lam, y'(1), y(1)).
    """
    below = k % 2 == 0
    lam = 0.5 * (a + b)
    for _ in range(100):
        f, y, m = miss(lam)
        step = f * y / m
        # the step is tested before the bracket moves: at an eigenvalue the
        # sign of a y'(1) that is pure rounding noise says nothing
        if abs(step) <= _width_stop(a, b, eig_tol):
            if lam + step == lam:
                return lam, f, y
            f2, y2, _ = miss(lam + step)
            return (lam + step, f2, y2) if abs(f2) < abs(f) else (lam, f, y)
        if (f > 0.0) == below:
            a = lam
        else:
            b = lam
        lam += step
        if not a < lam < b:
            lam = 0.5 * (a + b)
    raise NumericalError(f"eigenvalue #{k} refinement stalled on [{a}, {b}]")


def neumann_eigenvalues(q: Potential, count: int, eig_tol: float = EIG_TOL) -> Spectrum:
    """First `count` Neumann eigenvalues of -y'' + q y = lam y, each of multiplicity 1.

    Each eigenvalue is isolated by the phase-counting function, then refined
    by safeguarded Newton on y'(1) to a relative step of eig_tol.  By min-max,
    lam_k lies in [(k pi)^2 + min q, (k pi)^2 + max q], so the window of
    half-width total_variation + 1 around (k pi)^2 + mean q always holds
    it; the count bisection raises BracketingError when it does not.
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
        b = max(guess + margin, a + 1.0)
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

        lam_k, f_k, y_end = _newton_refine(miss, k, a, b, eig_tol)

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
