"""Light-clock kinematics: radar measures, line elements, decay ensembles."""

from .decay import (
    DecayModel,
    EnsembleRun,
    FrameComparison,
    SeparableSolution,
    chain_rule_check,
    compare_frames,
    dilated_lifetime,
    ode_residual,
    operator_check,
    population,
    run_ensemble,
)
from .errors import (
    CausalityError,
    DegeneratePairError,
    GeometryError,
    LightClockError,
    OrderMismatchError,
    OutOfGridError,
    PoleError,
    SuperluminalError,
)
from .infinitesimals import (
    GridApprox,
    TruncatedHyper,
    grid_approximate,
    infinitely_close,
    st,
)
from .line_element import (
    CertificationReport,
    LineElementParams,
    TransformCoeffs,
    certify_derivation,
    check_rejected_branch,
    compose_velocities_additive_w,
    expand_quadratic,
    gamma_factor,
    invert_nsppm_velocity,
    lambda_factor,
    line_element_m,
    line_element_s,
    nsppm_velocity,
    solve_transform_coeffs,
    standard_rapidity,
    transform_differentials,
    velocity_ratio,
)
from .radar import (
    RadarRecord,
    Reflector,
    einstein_measures,
    radar_velocity,
    simulate_ping,
)

__version__ = "0.1.0"
