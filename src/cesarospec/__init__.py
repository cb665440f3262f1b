"""Computational spectral theory of the discrete averaging operator.

The package builds exact finite truncations of the running-mean matrix and
its relatives on power-series sequence spaces, decides every finitely
checkable growth criterion for the generating exponent sequence (nuclearity,
shift stability, continuity and compactness of the operator, convergence
exponents), verifies eigenpairs and resolvents against closed formulas, and
simulates iterate and ergodic dynamics.  Every numerical judgement is a
three-state Verdict carrying its evidence, never a bare boolean.
"""

import types

from .criteria import (
    GALLERY_SPECS,
    SpaceProfile,
    banach_step_compactness,
    classify_space,
    d_continuity_check,
    delta_continuity_check,
    gallery,
    inverse_continuity_check,
    koethe_continuity_check,
    noncompactness_witness,
)
from .dynamics import (
    CesaroMeansTrace,
    IterateTrace,
    cesaro_means,
    ergodic_decomposition_check,
    gm_sup,
    iterate_limit_check,
    iterate_via_kernel,
    kernel_matrix,
    power_bound_check,
    power_iterate,
)
from .errors import (
    CesaroError,
    InternalConsistencyError,
    PreconditionError,
    RepresentationError,
    SkEmptyError,
)
from .exact import compare_seminorms
from .operators import (
    CoordinateVector,
    TruncOperator,
    a_matrix,
    b_apply,
    b_matrix,
    basis_vector,
    cesaro,
    cesaro_apply,
    cesaro_inverse_apply,
    delta,
    delta_eigenvector,
    differentiation_apply,
    identity,
    ops_equal_exact,
    resolvent,
    resolvent_tail_logs,
    scaled_e_matrix,
)
from .sequences import (
    AlphaSequence,
    SZeroEstimate,
    WeightSystem,
    n_over_alpha_check,
    nuclearity_check,
    parse_alpha,
    s0_estimate,
    seminorm,
    shift_stability_check,
    sk_convergence,
    v_alpha,
)
from .spectral import (
    DiscReport,
    SetDescriptor,
    SpectrumReport,
    boun_bounds_fit,
    disc_report,
    eigenvector_membership,
    predict_spectra,
    resolvent_point_profile,
    verify_resolvent_point,
)
from .trend import FAILS, HOLDS, INCONCLUSIVE, Verdict

__version__ = "0.1.0"

# Every public name imported above, so that the list cannot drift from them.
__all__ = sorted(name for name, value in vars().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
