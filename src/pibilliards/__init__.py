"""Collision-counting billiards, their quantum counterparts, and certified
digits of pi extracted from the collision count.

The public names are resolved on first use (PEP 562), so importing the
package loads none of its modules, and numpy and scipy load only with the
modules that need them.
"""

import importlib

__version__ = "0.1.0"

# defining module of each public name
_SOURCES = {
    "bigreal": ("BigReal",),
    "core": ("BilliardParams", "DomainError", "beta_of_ratio",
             "phase_shift", "phase_shift_difference"),
    "curves": ("CurveSeries", "count_extrema", "first_extremum_abscissa"),
    "classical": ("ClassicalState", "CollisionEvent", "CollisionKind", "CollisionTrace",
                  "SimulationConsistencyError", "IndeterminateFloorError",
                  "PiDigitsMismatchError", "PiDigitsResult",
                  "simulate", "count_closed_form", "count_certified", "pi_digits",
                  "pi_digits_detail", "classical_curve", "classical_eta_curve"),
    "semiclassical": ("SemiclassicalConfig", "berry_connection", "accumulated_phase",
                      "total_phase", "extremum_count", "sample_curve"),
    "quantum": ("CylinderValue", "CylinderPrecisionError", "AMPLITUDE_COEFFICIENT_RULE",
                "amplitude_coefficient", "cyl_j", "cyl_y", "cylinder", "hankel1",
                "theta_mean", "theta_mean_quadrature", "sample_quantum_curve"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    # an unknown name, a submodule's included, raises AttributeError, so that
    # ``from pibilliards import classical`` falls back to importing it
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
