"""Thermodynamic-formalism toolkit for finite-type shift models.

Builds exact transfer matrices for finite-range potentials, solves their
Perron data, and from it computes pressure, equilibrium Markov measures,
deviation rate functions and a certified uniform lower bound on the rate
function away from the typical mean, in both closed-form and measured
constants modes.  A deviation lab computes exact and sampled window masses
of running averages.
"""

from .bounds import (
    BoundReport,
    RpfConstants,
    constants_for,
    family_c0,
    measured_rpf_constants,
    paper_rpf_constants,
    certificate_constants,
    verify_bound,
)
from .deviations import WindowMass, exact_window_mass, ldp_scan, sample_paths
from .errors import (
    BadTheta,
    BoundViolated,
    CohomologousConstant,
    DeadSymbol,
    Delta0OutOfRange,
    InadmissibleWord,
    Infeasible,
    LengthMismatch,
    MissingWord,
    ModelMismatch,
    NoConvergence,
    NotAperiodic,
    NotZeroOne,
    ParseError,
    SchemaError,
    ThermoError,
    ValidationError,
    WordTooShort,
)
from .potentials import (
    CohomologySpread,
    Potential,
    affine_combine,
    birkhoff_sum,
    cohomology_spread,
    indicator_example,
    make_potential,
    shift_nonnegative,
)
from .rate import (
    PressureCurve,
    RateValue,
    entropy,
    gamma,
    pressure,
    pressure_curve,
    rate_function,
    rate_levels,
    tilt_eval,
)
from .sft import TransitionMatrix, cylinder_distance, enumerate_words, validate_transitions
from .transfer import (
    MarkovMeasure,
    RpfSolution,
    TiltedFamily,
    TransferMatrix,
    build_transfer_matrix,
    cylinder_mass,
    equilibrium_measure,
    integrate,
    normalize_potential,
    refine_measure,
    rpf_solve,
    rpf_solve_block,
    tilted_family,
    verify_rpf_bounds,
    verify_tilted_family,
)

__version__ = "0.1.0"
