"""Forward eigenvalue solver for Neumann problems -y'' + q(x) y = lam y on [0,1].

Shooting from y(0)=1, y'(0)=0: eigenvalues are the zeros of y'(1) in lam.
The propagator is a fourth-order Magnus step (two-point Gauss nodes) with
an exact exponential, on a mesh built once per potential by step doubling
at the bottom of the spectrum and then frozen, so a shot costs the same at
every lam.  Every shot also counts the eigenvalues below its lam from the
zeros of y (Sturm's oscillation theorem), and one safeguarded Newton loop
per eigenvalue uses that count to keep a bracket, with the slope
d y'(1) / d lam = -integral(y^2) / y(1) that the Lagrange identity gives at
an eigenvalue.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import RESIDUAL_TOL, Spectrum, as_count, as_finite_float, as_positive_tol
from .errors import InputError, NumericalError
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
# relative Newton step that stops eigenvalue refinement
EIG_TOL = 1e-10
# Each mesh cell's local error stays below eig_tol / 1000: relative
# eigenvalue errors of up to about 1000 times the cell tolerance were
# measured (lam_299 of a grid potential).  Below 1e-15 rounding swamps the
# step-doubling estimate.
_MESH_TOL_FLOOR = 1e-15


def _cell(qf, x, h):
    """(h, mean q, commutator term) of the Magnus cell [x, x + h], from q at its two Gauss nodes."""
    q1 = qf(x + h * (0.5 - _GAUSS_OFF))
    q2 = qf(x + h * (0.5 + _GAUSS_OFF))
    return h, 0.5 * (q1 + q2), _COMM_COEF * h * h * (q1 - q2)


def _propagate(cell, lam, y, p):
    """Carry (y, y') across a cell of y'' = (q - lam) y; returns (y, y', zeros, integral of y^2).

    The step is exp(W) with W = [[d, h], [h (mean q - lam), -d]], in closed
    form since W^2 = s2 I.  Across the cell y follows the first entry of
    exp(t W) (y, y'), t from 0 to 1, so y_tt = s2 y: it turns through
    sqrt(-s2) and has floor(sqrt(-s2) / pi) zeros plus 0 or 1, whichever
    matches the parity of its sign change (y = 0 counts as positive), and
    the integral of y^2 has a closed form.
    """
    h, qm, d = cell
    c = h * (qm - lam)
    s2 = d * d + h * c
    zeros = 0
    ch = sh = 1.0
    if s2 < 0.0:
        s = math.sqrt(-s2)
        ch = math.cos(s)
        sh = math.sin(s) / s
        zeros = int(s / math.pi)
    elif s2 > 0.0:
        s = math.sqrt(s2)
        ch = math.cosh(s)
        sh = math.sinh(s) / s
    b = d * y + h * p  # dy/dt at t = 0
    yn = ch * y + sh * b
    zeros += (zeros & 1) != ((y < 0.0) != (yn < 0.0))
    # integral of y^2 over t: y^2 (1 + e) / 2 + y b sh^2 + b^2 f / 2, e = ch sh, f = (e - 1) / s2
    e = ch * sh
    f = (e - 1.0) / s2 if abs(s2) > 1e-2 else (
        2 / 3 + s2 * (2 / 15 + s2 * (4 / 315 + s2 * (2 / 2835 + s2 * 4 / 155925))))
    m = h * (0.5 * y * y * (1.0 + e) + y * b * sh * sh + 0.5 * b * b * f)
    return yn, sh * c * y + (ch - sh * d) * p, zeros, m


def _mesh(q: Potential, lam: float, eig_tol: float) -> tuple:
    """Cells covering [0, 1] that land on q's breakpoints, built by step doubling at lam.

    A cell is kept when one Magnus step across it and two across its halves
    agree to the mesh tolerance times the state's scale.  The relative
    eigenvalue error of Magnus steps with an exact exponential does not
    grow with lam (Iserles, BIT 42, 2002), so a mesh built at the bottom of
    the spectrum serves every shot above it.  The growth cap
    80/sqrt(q - lam) keeps cosh finite.
    """
    tol = max(eig_tol / 1000.0, _MESH_TOL_FLOOR)
    qf = q.__call__  # bound once: each q(x) would look the method up again
    breaks = q.breakpoints()
    cells = []
    x, y, p = 0.0, 1.0, 0.0
    bi = 0
    w = qf(0.0) - lam
    h = 0.1
    while x < 1.0 - 1e-14:
        if w > 0.0 and h > 80.0 / math.sqrt(w):
            h = 80.0 / math.sqrt(w)
        h = min(h, 0.5, 1.0 - x)
        # a breakpoint within 1e-14 ahead counts as landed: a step to it would underflow
        while bi < len(breaks) and breaks[bi] <= x + 1e-14:
            bi += 1
        if bi < len(breaks) and x + h > breaks[bi] - 1e-15:
            h = breaks[bi] - x
        if h < 1e-14:
            raise NumericalError(f"integrator step underflow at x={x:.6g} for lambda={lam!r}")

        full = _cell(qf, x, h)
        y1, p1, _, _ = _propagate(full, lam, y, p)
        ym, pm, _, _ = _propagate(_cell(qf, x, 0.5 * h), lam, y, p)
        y2, p2, _, _ = _propagate(_cell(qf, x + 0.5 * h, 0.5 * h), lam, ym, pm)

        scale = max(1.0, abs(y), abs(p), abs(y2), abs(p2))
        err = max(abs(y1 - y2), abs(p1 - p2))
        if err <= tol * scale:
            cells.append(full)
            x += h
            n = max(abs(y2), abs(p2))
            y, p = y2 / n, p2 / n
            w = full[1] - lam
        h *= 5.0 if err == 0.0 else min(max(0.9 * (tol * scale / err) ** 0.2, 0.1), 5.0)
    return tuple(cells)


def _shoot(cells, lam: float):
    """Propagate (y, y') from y(0)=1, y'(0)=0 across the cells to x=1.

    Returns (y'(1), y(1), count, M).  M is the integral of y^2 over [0, 1]
    in the scale of the returned y, which is renormalized after every cell.
    count is the number of eigenvalues strictly below lam, by Sturm's
    oscillation theorem: the zeros of y on (0, 1), plus one when y(1) and
    y'(1) have opposite signs; y = 0 counts as positive in both terms, which
    keeps the count exact when y(1) = 0.
    """
    y, p, m, zeros = 1.0, 0.0, 0.0, 0
    for cell in cells:
        y, p, z, mc = _propagate(cell, lam, y, p)
        n = max(abs(y), abs(p))
        y, p = y / n, p / n
        m = (m + mc) / (n * n)
        zeros += z
    return p, y, zeros + (p != 0.0 and (y < 0.0) != (p < 0.0)), m


def _one_shot(q: Potential, lam: float):
    """A shot on neumann_eigenvalues' mesh, or on one built at lam when lam lies below it."""
    return _shoot(_mesh(q, min(lam, q.bounds()[0] - 1.0), EIG_TOL), lam)


def shoot_miss(q: Potential, lam: float) -> float:
    """Renormalized y'(1) of the shot solution; zero exactly at Neumann eigenvalues."""
    return _one_shot(q, as_finite_float(lam, "lambda"))[0]


def eigenvalue_count_below(q: Potential, mu: float) -> int:
    """Number of Neumann eigenvalues strictly below mu, by Sturm's count of the zeros of y."""
    return _one_shot(q, as_finite_float(mu, "mu"))[2]


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
    the stop width that lands in the bracket, from a shot that counted k
    (lam_{k-1} < lam <= lam_k) or from one that counted k + 1 and steps
    down (lam_k < lam <= lam_{k+1}), so it cannot settle on a neighbouring
    eigenvalue; one last shot at the step's end is kept if its |y'(1)| is
    smaller.  Returns (lam, y'(1), y(1)).  Raises NumericalError "could
    not bracket" when no shot counted past k, since lam_k may then lie at
    or above b: at once if the bracket has shrunk onto b below the stop
    width and a shot at b counts k or fewer too, else after the last
    iteration.
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
        if abs(step) <= width and (n == k or (n == k + 1 and step < 0.0)) and a <= lam + step <= b:
            if lam + step == lam:
                return lam, f, y
            f2, y2, _, _ = shoot(lam + step)
            return (lam + step, f2, y2) if abs(f2) < abs(f) else (lam, f, y)
        if b == top and b - a <= width:
            if shoot(top)[2] <= k:
                break
            top = math.inf  # lam_k lies below b after all
        lam += step
    if b == top:
        raise NumericalError(f"could not bracket eigenvalue #{k} in window [{a:.6g}, {b:.6g}]")
    raise NumericalError(f"eigenvalue #{k} refinement stalled on [{a}, {b}]")


def neumann_eigenvalues(q: Potential, count: int, eig_tol: float = EIG_TOL) -> Spectrum:
    """First `count` Neumann eigenvalues of -y'' + q y = lam y, each of multiplicity 1.

    By min-max (Courant and Hilbert, Methods of Mathematical Physics I,
    ch. VI), lam_k lies in [(k pi)^2 + lower, (k pi)^2 + upper] for
    (lower, upper) = q.bounds().  Each eigenvalue is found by safeguarded
    Newton on y'(1), started at the asymptotic guess (k pi)^2 + mean q,
    inside the bracket from just above the previous eigenvalue (from
    lower - 1 for k = 0) to (k pi)^2 + upper + 1, and must come out at or
    above (k pi)^2 + lower - 1.  A NumericalError "could not bracket" or
    "below its min-max enclosure" says that the enclosure did not hold it.
    """
    eig_tol = as_positive_tol(eig_tol, "eig_tol")
    count = as_count(count, "count")
    qbar = mean_value(q)
    lower, upper = q.bounds()
    lo = lower - 1.0
    shoot = functools.partial(_shoot, _mesh(q, lo, eig_tol))
    if shoot(lo)[2] != 0:
        raise NumericalError(f"could not bracket eigenvalue #0 in window [{lo:.6g}, {lo:.6g}]")

    values: list[float] = []
    for k in range(count):
        free = (k * math.pi) ** 2
        lam_k, f_k, y_end = _newton_refine(shoot, k, lo, free + upper + 1.0, free + qbar, eig_tol)

        # a wider stop leaves y'(1) proportionally further from zero
        floor = RESIDUAL_TOL * (1.0 + abs(y_end) + abs(lam_k)) * max(1.0, eig_tol / EIG_TOL)
        if abs(f_k) > floor:
            raise NumericalError(
                f"eigenvalue #{k} residual {abs(f_k):.3e} exceeds floor {floor:.3e}"
            )
        if values and lam_k <= values[-1]:
            raise NumericalError(f"eigenvalue #{k} not above its predecessor")
        if lam_k < free + lower - 1.0:
            raise NumericalError(
                f"eigenvalue #{k} = {lam_k:.6g} lies below its min-max enclosure "
                f"[{free + lower:.6g}, {free + upper:.6g}]"
            )
        values.append(lam_k)
        lo = lam_k + max(4.0 * eig_tol, 1e-10 * (1.0 + abs(lam_k)))
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
