"""Exception hierarchy: one class per way a caller reacts to a failure.

:class:`InputError` is bad data (CLI exit code 2); :class:`SchemaError` is
the InputError that names a field path. :class:`NumericalError` is a
computation that could not be completed (CLI exit code 1).
:class:`BoundaryZeroError` is the one NumericalError the package catches
itself: find_det_eigenvalues retries its search with the next attempt.
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


class NumericalError(InvspecError):
    """A numerical procedure failed to reach its contract."""


class BoundaryZeroError(NumericalError):
    """A zero of the scaled determinant sits (numerically) on a contour.

    Also raised when a box's count comes out negative, or a split box's four
    counts do not sum to its parent's: a zero hugging an edge can cause both.

    find_det_eigenvalues already nudges its box outward and retries; callers
    of count_zeros must perturb the box by at least the clustering radius
    and retry themselves.
    """

    def __init__(self, location: complex, message: str | None = None):
        self.location = location
        super().__init__(
            message
            or f"determinant vanishes on the search-box boundary near {location!r}; "
            "perturb the box by the cluster radius and retry"
        )
