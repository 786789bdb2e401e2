"""Phase-space dynamics of the damped, white-noise-driven harmonic oscillator.

The package has five layers:

- :mod:`wigosc.model` -- physical parameters, dimensionless groups, exact
  classical flow of the underdamped oscillator;
- :mod:`wigosc.gaussian` -- Gaussian states and the noise-averaged propagator;
- :mod:`wigosc.observables` -- survival probabilities, phase expectations,
  thermal angle averages, the energy generating function;
- :mod:`wigosc.phaseops` -- truncated matrices and spectra of the quantised
  canonical/physical phase, with certified variance series;
- :mod:`wigosc.langevin` -- an independent Euler-Maruyama Monte-Carlo oracle.

``wigosc.cli`` exposes all of it as a CSV-producing command line tool.
"""

__version__ = "0.1.0"

from .errors import (ConvergenceFailure, NonPositiveParameter, OverdampedUnsupported,
                     ParameterMismatch, QuadratureNotConverged, RequiresFriction,
                     SizeTooLarge, StepTooLarge, WigoscError)
from .gaussian import (Gaussian2D, PropagatorKernel, coherent_state, evolve, ground_state,
                       noise_form, noise_form_longtime, propagator, state_overlap,
                       thermal_state)
from .langevin import (ComparisonVerdict, MomentReport, SdeConfig, compare_to_propagator,
                       simulate_ensemble)
from .model import DerivedParams, ModelParams, PhasePoint, classical_flow, derive
from .observables import (energy_generating_function, longtime_survival, mean_angle,
                          nofriction_survival, phase_expectation, survival_probability,
                          thermal_angle_expectation)
from .phaseops import (GMatrix, HermitianMatrix, Spectrum, VarianceEstimate,
                       angle_operator_matrix, canonical_phase_matrix, delta_matrix_element,
                       g_coefficient, g_matrix, phase_fourier, phase_variance_diagonal,
                       physical_phase_matrix, spectrum, thermal_phase_variance,
                       variance_diagonal_table)

__all__ = [
    "__version__",
    # errors
    "WigoscError", "NonPositiveParameter", "OverdampedUnsupported", "RequiresFriction",
    "QuadratureNotConverged", "StepTooLarge", "ParameterMismatch", "ConvergenceFailure",
    "SizeTooLarge",
    # model
    "ModelParams", "DerivedParams", "PhasePoint", "derive", "classical_flow",
    # gaussian engine
    "Gaussian2D", "PropagatorKernel", "ground_state",
    "coherent_state", "noise_form", "noise_form_longtime", "propagator", "evolve",
    "thermal_state", "state_overlap",
    # observables
    "survival_probability", "longtime_survival", "nofriction_survival", "mean_angle",
    "phase_expectation", "thermal_angle_expectation", "energy_generating_function",
    # phase operators
    "GMatrix", "HermitianMatrix", "Spectrum", "VarianceEstimate", "g_coefficient",
    "g_matrix", "phase_fourier", "angle_operator_matrix", "canonical_phase_matrix",
    "physical_phase_matrix", "spectrum", "phase_variance_diagonal",
    "variance_diagonal_table", "thermal_phase_variance", "delta_matrix_element",
    # Monte-Carlo oracle
    "SdeConfig", "MomentReport", "ComparisonVerdict", "simulate_ensemble",
    "compare_to_propagator",
]
