"""Light-clock kinematics: radar measures, line elements, decay ensembles.

Each export is loaded from its submodule on first use (PEP 562), so
``import lightclock`` and ``python -m lightclock`` load no submodule until a
name or a command needs one.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "decay": ("DecayModel", "EnsembleRun", "FrameComparison", "SeparableSolution",
              "chain_rule_check", "compare_frames", "dilated_lifetime",
              "ode_residual", "operator_check", "population", "run_ensemble"),
    "errors": ("CausalityError", "DegeneratePairError", "GeometryError",
               "LightClockError", "OrderMismatchError", "OutOfGridError",
               "PoleError", "SuperluminalError"),
    "infinitesimals": ("GridApprox", "TruncatedHyper", "grid_approximate",
                       "infinitely_close", "st"),
    "line_element": ("CertificationReport", "LineElementParams", "TransformCoeffs",
                     "certify_derivation", "check_rejected_branch",
                     "compose_velocities_additive_w", "expand_quadratic",
                     "gamma_factor", "invert_nsppm_velocity", "lambda_factor",
                     "line_element_m", "line_element_s", "nsppm_velocity",
                     "solve_transform_coeffs", "standard_rapidity",
                     "transform_differentials", "velocity_ratio"),
    "radar": ("RadarRecord", "Reflector", "einstein_measures", "radar_velocity",
              "simulate_ping"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, an attribute once imported
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
