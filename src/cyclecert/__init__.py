"""Numerical certification of limit cycles from explicit-Euler trajectories.

The toolkit simulates an ODE with the explicit Euler scheme, measures how
the Jacobian contracts transversally to the flow along one return loop of a
hyperplane section, and issues two machine-checkable certificates: existence
of a limit cycle inside an invariant tube, and a basin of attraction on the
initial section disk, together with an asymptotic error floor for the Euler
trajectory itself.
"""

__version__ = "0.1.0"

from .attraction import (
    AttractionCertificate,
    ContractionExponent,
    certify_attraction,
    compute_D,
    contraction_exponent,
    integral_criterion,
    sweep_Y0,
)
from .config import PRESETS, PipelineConfig, RunConfig, get_preset
from .constants import (
    GlobalConstants,
    SectionDisk,
    estimate_eta,
    estimate_lipschitz,
    estimate_magnitude_bounds,
    estimate_speed_bounds,
    return_time_sweep,
    theta_dot,
)
from .errors import (
    CertificateBlockedError,
    CycleCertError,
    DivergedError,
    EquilibriumProximityError,
    InputError,
    InvalidReparametrizationError,
    NumericError,
    SynchronizationLostError,
    TransversalityLossError,
)
from .euler import (
    Crossing,
    EulerTrajectory,
    Exclusion,
    Section,
    batch_first_return,
    default_exclusion,
    detect_crossings,
    return_times,
    simulate,
)
from .measures import (
    TransverseSpectrum,
    mu_perp_batch,
    sigma_rate,
    symmetric_part,
    transverse_measure,
)
from .syncerr import (
    ErrorCurveReport,
    ReferenceSolution,
    ReferenceStream,
    SyncErrorSeries,
    error_curve_experiment,
    synchronize,
    tube_membership_check,
)
from .systems import REGISTRY, SystemSpec, VectorField, load_system
from .tube import (
    ExistenceCertificate,
    SegmentGrids,
    Tube,
    ab_profile,
    build_tube,
    certify_existence,
    check_return_inclusion,
    check_step_condition,
    lambda_profile,
)
