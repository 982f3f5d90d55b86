"""Independent oracles used only by the test suite.

Everything here deliberately avoids the code paths it checks: the
finite-difference matrix solver is unrelated to shooting, the mpmath
helpers redo arithmetic in extended precision, and the clustering oracle
is a plain union-find.
"""

import cmath

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal

from invspec.errors import InputError, NumericalError

mp.mp.dps = 40


# -- Neumann eigenvalues by dense discretization --------------------------

def fd_neumann_eigenvalues(q, count, cells=2000, richardson=True):
    """Cell-centered second-order finite differences, Richardson extrapolated.

    Mirrored ghost cells impose the zero-slope boundary conditions; the
    eigenvalue error is a clean h^2 series, so one Richardson step with
    doubled resolution leaves O(h^4).
    """

    def eig(n):
        h = 1.0 / n
        xs = (np.arange(n) + 0.5) * h
        qv = np.asarray(q.sample(xs), dtype=float)
        d = 2.0 / h**2 + qv
        d[0] -= 1.0 / h**2
        d[-1] -= 1.0 / h**2
        e = np.full(n - 1, -1.0 / h**2)
        return eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1))[0]

    lam = eig(cells)
    if not richardson:
        return lam
    lam2 = eig(2 * cells)
    return (4.0 * lam2 - lam) / 3.0


# -- the determinant assembled from the fundamental solutions ---------------

_SERIES_CUT = 1e-6


class OverflowRangeError(NumericalError):
    """Direct determinant evaluation would overflow; use the scaled form."""


def y1_eval(lam: complex, x: float) -> complex:
    """First fundamental solution: value 1, slope 0 at x=0."""
    lam = complex(lam)
    return -cmath.exp(2.0 * lam * x) + 2.0 * cmath.exp(lam * x)


def y2_eval(lam: complex, x: float) -> complex:
    """Second fundamental solution: value 0, slope 1 at x=0.

    The removable singularity at lam=0 is continued by the truncated series
    x + (3/2) x^2 lam + (7/6) x^3 lam^2 + (5/8) x^4 lam^3 for |lam| < 1e-6.
    """
    lam = complex(lam)
    if abs(lam) < _SERIES_CUT:
        return x + lam * x * x * (1.5 + lam * x * (7.0 / 6.0 + lam * x * (15.0 / 24.0)))
    return (cmath.exp(2.0 * lam * x) - cmath.exp(lam * x)) / lam


def ode_residual(lam: complex, x: float) -> tuple[float, float]:
    """Residuals |y'' - 3 lam y' + 2 lam^2 y| for both fundamental solutions.

    Derivatives come from the closed exponential forms, so the residuals
    measure only floating-point cancellation.
    """
    lam = complex(lam)
    if abs(lam) < _SERIES_CUT:
        raise InputError(f"ode_residual needs |lam| >= {_SERIES_CUT}, got {abs(lam)}")
    if not 0.0 <= x <= 1.0:
        raise InputError(f"x must be in [0,1], got {x}")
    e1 = cmath.exp(lam * x)
    e2 = cmath.exp(2.0 * lam * x)
    lam2 = lam * lam
    y1 = -e2 + 2.0 * e1
    y1p = -2.0 * lam * e2 + 2.0 * lam * e1
    y1pp = -4.0 * lam2 * e2 + 2.0 * lam2 * e1
    r1 = abs(y1pp - 3.0 * lam * y1p + 2.0 * lam2 * y1)
    y2 = (e2 - e1) / lam
    y2p = 2.0 * e2 - e1
    y2pp = 4.0 * lam * e2 - lam * e1
    r2 = abs(y2pp - 3.0 * lam * y2p + 2.0 * lam2 * y2)
    return r1, r2


def delta_eval(prob, lam: complex) -> complex:
    """The determinant exactly as assembled from the fundamental solutions.

    delta(lam) = (e^{2 lam} - e^{lam})/lam + A(lam) (-e^{2 lam} + 2 e^{lam}),
    continued through lam=0 by series with delta(0) = 1 + a_0.  A comes
    from a Horner loop of its own, not invspec's.  Raises OverflowRangeError
    for re(lam) large enough to overflow e^{2 lam}; use delta_scaled_eval
    there.
    """
    lam = complex(lam)
    if lam.real > 350.0:
        raise OverflowRangeError(
            f"delta overflows for re(lam) = {lam.real:.3g}; use delta_scaled_eval"
        )
    a_val = 0j
    for c in reversed(prob.poly.coeffs):
        a_val = a_val * lam + c
    if abs(lam) < _SERIES_CUT:
        # (e^{2 lam} - e^{lam})/lam = sum_{k>=1} (2^k - 1) lam^{k-1} / k!
        first = 1.0 + lam * (1.5 + lam * (7.0 / 6.0 + lam * (15.0 / 24.0 + lam * (31.0 / 120.0))))
    else:
        first = (cmath.exp(2.0 * lam) - cmath.exp(lam)) / lam
    return first + a_val * (-cmath.exp(2.0 * lam) + 2.0 * cmath.exp(lam))


# -- extended-precision polynomial and linear algebra ---------------------

def mp_power_sum_eval(coeffs, z):
    """Term-by-term power summation of a polynomial in extended precision."""
    zc = mp.mpc(z)
    total = mp.mpc(0)
    for k, c in enumerate(coeffs):
        total += mp.mpc(c) * zc**k
    return total


def mp_gauss_solve(matrix, rhs):
    """Gaussian elimination with partial pivoting, entirely in mpmath."""
    n = len(rhs)
    a = [[mp.mpc(matrix[i][j]) for j in range(n)] for i in range(n)]
    b = [mp.mpc(v) for v in rhs]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) == 0:
            raise ZeroDivisionError("singular system in oracle")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            b[r] -= f * b[col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    x = [mp.mpc(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


def mp_vandermonde_solve(nodes, values):
    n = len(nodes)
    matrix = [[mp.mpc(nodes[i]) ** j for j in range(n)] for i in range(n)]
    return mp_gauss_solve(matrix, values)


# -- determinant evaluations in extended precision -------------------------

def mp_delta(coeffs, lam):
    """Unscaled determinant in extended precision."""
    lam = mp.mpc(lam)
    a_val = mp_power_sum_eval(coeffs, lam)
    if abs(lam) < mp.mpf("1e-25"):
        first = mp.mpf(1)
    else:
        first = (mp.e ** (2 * lam) - mp.e**lam) / lam
    return first + a_val * (-(mp.e ** (2 * lam)) + 2 * mp.e**lam)


def mp_dhat(coeffs, lam):
    """Scaled determinant in extended precision."""
    lam = mp.mpc(lam)
    em = mp.e ** (-lam)
    return (1 - em) + lam * mp_power_sum_eval(coeffs, lam) * (2 * em - 1)


def mp_real_root_bisect(coeffs, lo, hi, bits=200):
    """High-precision bisection for a real root of the scaled determinant."""
    with mp.workprec(bits):
        flo = mp_dhat(coeffs, mp.mpf(lo)).real
        fhi = mp_dhat(coeffs, mp.mpf(hi)).real
        assert flo * fhi < 0, "oracle bisection needs a sign change"
        a, b = mp.mpf(lo), mp.mpf(hi)
        for _ in range(bits):
            mid = (a + b) / 2
            fm = mp_dhat(coeffs, mid).real
            if fm == 0:
                return mid
            if (fm > 0) == (flo > 0):
                a = mid
            else:
                b = mid
        return (a + b) / 2


def rhs_printed_form(lam):
    """The unreduced right-hand side ratio, kept as a cross-check."""
    lam = complex(lam)
    import cmath

    e1 = cmath.exp(lam)
    e2 = cmath.exp(2.0 * lam)
    return -(e2 - e1) / (-lam * e2 + 2.0 * lam * e1)


# -- clustering oracle -----------------------------------------------------

def union_find_clusters(points, mults, radius):
    """Transitive-closure clustering by union-find; weighted centroids."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    changed = True
    items = [(complex(z), int(m)) for z, m in zip(points, mults)]
    # iterate to a fixpoint: merge, recompute centroids, repeat
    while changed:
        n = len(items)
        parent = list(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if abs(items[i][0] - items[j][0]) <= radius:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        merged = []
        for members in groups.values():
            total = sum(items[i][1] for i in members)
            centroid = sum(items[i][0] * items[i][1] for i in members) / total
            merged.append((centroid, total))
        changed = len(merged) != len(items)
        items = merged
    items.sort(key=lambda e: (e[0].real, e[0].imag))
    return items
