"""Exception hierarchy.

Two families matter to callers: :class:`InputError` (bad data, CLI exit
code 2) and :class:`NumericalError` (a computation that could not be
completed, CLI exit code 1).
"""

from __future__ import annotations


class InvspecError(Exception):
    """Base class for every error raised by this package."""


class InputError(InvspecError):
    """Invalid input: malformed file, violated precondition, bad argument."""


class SchemaError(InputError):
    """Malformed document; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DegreeMismatchError(InputError):
    """Two polynomials with different declared degrees were compared."""


class NumericalError(InvspecError):
    """A numerical procedure failed to reach its contract."""


class IntegrationError(NumericalError):
    """The ODE integrator underflowed its step size."""

    def __init__(self, lam, x: float):
        self.lam = lam
        self.x = x
        super().__init__(f"integrator step underflow at x={x:.6g} for lambda={lam!r}")


class BracketingError(NumericalError):
    """No shot in an eigenvalue's window counted past it, or one below the spectrum did."""

    def __init__(self, index: int, window: tuple[float, float]):
        self.index = index
        self.window = window
        super().__init__(
            f"could not bracket eigenvalue #{index} in window "
            f"[{window[0]:.6g}, {window[1]:.6g}]"
        )


class BoundaryZeroError(NumericalError):
    """A zero of the scaled determinant sits (numerically) on a contour.

    Also raised when a split box's four counts do not sum to its parent's,
    which a zero hugging one of the new edges can cause.

    find_det_eigenvalues already nudges its box outward and retries; callers
    of count_zeros must perturb the box by at least the clustering radius
    and retry themselves.
    """

    def __init__(self, location: complex):
        self.location = location
        super().__init__(
            f"determinant vanishes on the search-box boundary near {location!r}; "
            "perturb the box by the cluster radius and retry"
        )


class TooFewRootsError(NumericalError):
    """Root search produced fewer nodes than the reconstruction needs."""

    def __init__(self, needed: int, found):
        self.needed = needed
        self.found = tuple(found)
        super().__init__(
            f"needed {needed} determinant roots but found {len(self.found)} "
            "in the search box"
        )


class MaxRootsExceededError(NumericalError):
    """The box contains more zeros than the caller allowed; partial set attached."""

    def __init__(self, max_roots: int, partial):
        self.max_roots = max_roots
        self.partial = tuple(partial)
        super().__init__(
            f"more than max_roots={max_roots} zeros in the box "
            f"({len(self.partial)} already located)"
        )
