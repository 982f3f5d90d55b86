"""Forward and inverse spectral toolkit.

Forward side: Neumann eigenvalues of -y'' + q y = lam y on [0,1] by
shooting, with brackets from the zeros of y and a spectral rigidity witness.
Inverse side: zeros of the boundary-polynomial characteristic determinant
located by the argument principle, and recovery of the polynomial
coefficients from finitely many of those zeros through a structured
Vandermonde solve.
"""

from .core import (
    Eigenvalue,
    Polynomial,
    Spectrum,
    poly_eval,
    poly_max_abs_diff,
    spectra_match,
)
from .potentials import (
    ConstantPotential,
    CosinePotential,
    GridPotential,
    PolyPotential,
    Potential,
)
from .sl_forward import (
    eigenvalue_count_below,
    free_spectrum_verdict,
    mean_value,
    neumann_eigenvalues,
    rayleigh_mean_gap,
    shoot_miss,
)
from .char_det import (
    BoundaryPolynomialProblem,
    SearchBox,
    count_zeros,
    delta_deriv,
    delta_scaled_eval,
    find_det_eigenvalues,
)
from .reconstruct import (
    ReconstructionResult,
    condition_estimate,
    reconstruct_coeffs,
    rhs_value,
    select_reconstruction_nodes,
    vandermonde_solve,
)
from .workbench import (
    CompareReport,
    ExperimentConfig,
    RoundTripReport,
    UniquenessReport,
    compare_neumann,
    roundtrip,
    run_seeded_suite,
    uniqueness_probe,
)
from .errors import (
    BoundaryZeroError,
    InputError,
    InvspecError,
    NumericalError,
    SchemaError,
)

__version__ = "0.1.0"
