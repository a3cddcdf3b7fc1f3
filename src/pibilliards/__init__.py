"""Collision-counting billiards, their quantum counterparts, and certified
digits of pi extracted from the collision count."""

__version__ = "0.1.0"

from .bigreal import BigReal
from .classical import (ClassicalState, CollisionEvent, CollisionKind,
                        CollisionTrace, IndeterminateFloorError,
                        PiDigitsMismatchError, PiDigitsResult,
                        SimulationConsistencyError, classical_curve,
                        classical_eta_curve, count_certified,
                        count_closed_form, pi_digits,
                        pi_digits_detail, simulate)
from .core import BilliardParams, DomainError, beta_of_ratio
from .curves import CurveSeries, count_extrema, first_extremum_abscissa
from .quantum import (AMPLITUDE_COEFFICIENT_RULE, CylinderPrecisionError,
                      CylinderValue, amplitude_coefficient, cyl_j, cyl_y,
                      cylinder, hankel1, phase_shift,
                      phase_shift_difference, sample_quantum_curve, theta_mean,
                      theta_mean_quadrature)
from .semiclassical import (SemiclassicalConfig, accumulated_phase,
                            berry_connection, extremum_count, sample_curve,
                            total_phase)

__all__ = [
    "__version__",
    "BigReal",
    "BilliardParams", "DomainError", "beta_of_ratio",
    "CurveSeries", "count_extrema", "first_extremum_abscissa",
    "ClassicalState", "CollisionEvent", "CollisionKind", "CollisionTrace",
    "SimulationConsistencyError", "IndeterminateFloorError",
    "PiDigitsMismatchError", "PiDigitsResult",
    "simulate", "count_closed_form", "count_certified", "pi_digits", "pi_digits_detail",
    "classical_curve", "classical_eta_curve",
    "SemiclassicalConfig", "berry_connection", "accumulated_phase",
    "total_phase", "extremum_count", "sample_curve",
    "CylinderValue", "CylinderPrecisionError", "AMPLITUDE_COEFFICIENT_RULE",
    "amplitude_coefficient", "cyl_j", "cyl_y", "cylinder", "hankel1",
    "phase_shift", "phase_shift_difference",
    "theta_mean", "theta_mean_quadrature", "sample_quantum_curve",
]
