"""Numerical certification of limit cycles from explicit-Euler trajectories.

The toolkit simulates an ODE with the explicit Euler scheme, measures how
the Jacobian contracts transversally to the flow along one return loop of a
hyperplane section, and issues two machine-checkable certificates: existence
of a limit cycle inside an invariant tube, and a basin of attraction on the
initial section disk, together with an asymptotic error floor for the Euler
trajectory itself.

Start-up: every name in ``__all__``, and every submodule
(``cyclecert.tube``, ``cyclecert.euler``, ...), is imported on first access
(PEP 562), so a script pays only for the modules it calls: ``load_system``
and the presets load :mod:`~cyclecert.errors`, :mod:`~cyclecert.config` and
:mod:`~cyclecert.systems`.  The command line imports what its commands call
when it starts.
"""

import importlib

__version__ = "0.1.0"

# the public API by submodule: every name, and every submodule, is imported
# on first access
_API = {
    "attraction": """AttractionCertificate ContractionExponent
        certify_attraction compute_D contraction_exponent integral_criterion
        sweep_Y0""",
    "cli": "",
    "config": "PRESETS PipelineConfig RunConfig get_preset",
    "constants": """GlobalConstants SectionDisk estimate_eta estimate_lipschitz
        estimate_magnitude_bounds estimate_speed_bounds return_time_sweep""",
    "errors": """CertificateBlockedError CycleCertError DivergedError
        EquilibriumProximityError InputError InvalidReparametrizationError
        NumericError SynchronizationLostError""",
    "euler": """Crossing EulerTrajectory Exclusion Run Section
        batch_first_return default_exclusion detect_crossings return_times
        simulate""",
    "measures": """TransverseSpectrum mu_perp_batch sigma_rate symmetric_part
        transverse_measure""",
    "output": "",
    "syncerr": """ErrorCurveReport ReferenceSolution ReferenceStream
        SyncErrorSeries error_curve_experiment synchronize""",
    "systems": "REGISTRY VectorField load_system",
    "tube": """ExistenceCertificate SegmentGrids Tube ab_profile build_tube
        certify_existence check_return_inclusion check_step_condition
        lambda_profile""",
    "verdict": "",
}
_SOURCE = {name: mod for mod, names in _API.items() for name in names.split()}

__all__ = sorted([*_API, *_SOURCE])


def __getattr__(name):
    if name in _API:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
