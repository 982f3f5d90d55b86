"""Forward eigenvalue solver for Neumann problems -y'' + q(x) y = lam y on [0,1].

Shooting from y(0)=1, y'(0)=0: eigenvalues are the zeros of y'(1) in lam.
The propagator is an adaptive fourth-order Magnus stepper (two-point Gauss
nodes) with step-doubling local error control.  It is exact for constant
coefficients, but the rotation cap on its step makes the steps per shot
grow like sqrt(lam) once lam is large.  Every shot also counts the
eigenvalues below its lam from the zeros of y (Sturm's oscillation
theorem), and one safeguarded Newton loop per eigenvalue uses that count to
keep a bracket, with the slope d y'(1) / d lam = -integral(y^2) / y(1) that
the Lagrange identity gives at an eigenvalue.
"""

from __future__ import annotations

import math

import numpy as np

from .core import RESIDUAL_TOL, Spectrum, as_count, as_finite_float, as_positive_tol
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


def _integrate(qf, breaks, lam, loc_tol):
    """Propagate (y, y') from x=0 to x=1 with y(0)=1, y'(0)=0.

    Local error per step is kept below loc_tol times the state scale by
    comparing one full Magnus step against two half steps.  The state is
    renormalized whenever its max-norm exceeds 1e6; uniform rescaling
    preserves both the zero set and the signs of y and y'.

    Returns (y'(1), y(1), count, M).  M is the integral of y^2 over [0, 1],
    by Simpson's rule on each accepted step and in the scale of the returned
    y.  count is the number of eigenvalues strictly below lam, by Sturm's
    oscillation theorem: the zeros of y on (0, 1), plus one when y(1) and
    y'(1) have opposite signs.  The rotation cap keeps each half step's
    turn of y below pi, so every zero changes the sign of y at a half-step
    node; y = 0 counts as positive, in both terms, which keeps the count
    exact when y(1) = 0.
    """
    x = 0.0
    y = 1.0
    p = 0.0
    m = 0.0
    zeros = 0
    bi = 0
    nb = len(breaks)
    w_prev = qf(0.0) - lam
    h = 0.1

    while x < 1.0 - 1e-14:
        # rotation / growth caps keep per-step rotation and cosh range safe
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
        ym, pm, _ = _step(qf, lam, x, 0.5 * h, y, p)
        y2, p2, wmb = _step(qf, lam, x + 0.5 * h, 0.5 * h, ym, pm)

        scale = max(1.0, abs(y), abs(p), abs(y2), abs(p2))
        err = max(abs(y1 - y2), abs(p1 - p2)) / 15.0
        tol_step = loc_tol * scale
        if err <= tol_step:
            x += h
            m += h * (y * y + 4.0 * ym * ym + y2 * y2) / 6.0
            zeros += ((y < 0.0) != (ym < 0.0)) + ((ym < 0.0) != (y2 < 0.0))
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
    return p, y, zeros + (p != 0.0 and (y < 0.0) != (p < 0.0)), m


def shoot_miss(q: Potential, lam: float) -> float:
    """Renormalized y'(1) of the shot solution; zero exactly at Neumann eigenvalues."""
    lam = as_finite_float(lam, "lambda")
    return _integrate(q.evaluator(), q.breakpoints(), lam, EIG_TOL / 100.0)[0]


def eigenvalue_count_below(q: Potential, mu: float) -> int:
    """Number of Neumann eigenvalues strictly below mu, by Sturm's count of the zeros of y."""
    mu = as_finite_float(mu, "mu")
    return _integrate(q.evaluator(), q.breakpoints(), mu, EIG_TOL / 100.0)[2]


def mean_value(q: Potential) -> float:
    """Integral of q over [0,1] by composite Simpson on a 2001-point grid."""
    xs = np.linspace(0.0, 1.0, 2001)
    vals = np.asarray(q.sample(xs), dtype=float)
    w = np.ones(2001)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((w @ vals) / (3.0 * 2000))


def _newton_refine(shoot, k: int, a: float, b: float, lam: float, eig_tol: float):
    """Safeguarded Newton on y'(1) for lam_k, the one eigenvalue in [a, b), from lam.

    shoot(lam) gives (y'(1), y(1), count, M) with M the integral of y^2.
    With u = d y / d lam, the Lagrange identity M = u(1) y'(1) - y(1) u'(1)
    gives u'(1) = -M / y(1) where y'(1) = 0, so the Newton step is
    y'(1) y(1) / M.  Each shot's count moves one end of the bracket (a
    count <= k puts lam_k at or above the shot), and a step that would
    leave the bracket bisects instead.  The search stops at a step below
    the stop width from a shot that counted k or k+1 and that lands in the
    bracket, so it cannot settle on a neighbouring eigenvalue; one last
    shot at the step's end is kept if its |y'(1)| is smaller.  Returns
    (lam, y'(1), y(1)); BracketingError if no shot counted past k, because
    then lam_k may lie at or above b.
    """
    top = b
    for _ in range(100):
        if not a < lam < b:
            lam = 0.5 * (a + b)
        f, y, n, m = shoot(lam)
        step = f * y / m
        if n <= k:
            a = lam
        else:
            b = lam
        # eig_tol is a relative stop target; it saturates to absolute near zero
        width = max(eig_tol, 8.0 * _EPS) * max(1.0, abs(a), abs(b))
        if abs(step) <= width and k <= n <= k + 1 and a <= lam + step <= b:
            if lam + step == lam:
                return lam, f, y
            f2, y2, _, _ = shoot(lam + step)
            return (lam + step, f2, y2) if abs(f2) < abs(f) else (lam, f, y)
        lam += step
    if b == top:
        raise BracketingError(k, (a, b))
    raise NumericalError(f"eigenvalue #{k} refinement stalled on [{a}, {b}]")


def neumann_eigenvalues(q: Potential, count: int, eig_tol: float = EIG_TOL) -> Spectrum:
    """First `count` Neumann eigenvalues of -y'' + q y = lam y, each of multiplicity 1.

    Each eigenvalue is found by safeguarded Newton on y'(1), started at the
    asymptotic guess (k pi)^2 + mean q, inside the bracket from just above
    the previous eigenvalue (below the whole spectrum for k = 0) to the top
    of a window around that guess.  By min-max, lam_k lies in
    [(k pi)^2 + min q, (k pi)^2 + max q], so the window's half-width
    total_variation + 1 always holds it; BracketingError says it did not.
    """
    eig_tol = as_positive_tol(eig_tol, "eig_tol")
    count = as_count(count, "count")
    qf = q.evaluator()
    breaks = q.breakpoints()
    loc_tol = eig_tol / 100.0

    def shoot(lam: float):
        return _integrate(qf, breaks, lam, loc_tol)

    qbar = mean_value(q)
    margin = max(2.0, q.total_variation() + 1.0)
    lo = q.lower_bound() - 1.0
    if shoot(lo)[2] != 0:
        raise BracketingError(0, (lo, lo))

    values: list[float] = []
    for k in range(count):
        guess = (k * math.pi) ** 2 + qbar
        top = max(guess + margin, lo + 1.0)
        lam_k, f_k, y_end = _newton_refine(shoot, k, lo, top, guess, eig_tol)

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
    tol = as_positive_tol(tol, "tol")
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
