"""optiqft: linear-optics simulation, calibration and fringe fitting for
qutrit Fourier phase estimation."""

__version__ = "0.1.0"

from .calibration import (ADJUSTMENT_PHI, MONITORED_MODES, CalibrationError,
                          CalibrationResult, DegenerateConfigError,
                          StepSolution, TargetInfo, calibrate,
                          simulated_step_intensity, solve_step,
                          target_intensity)
from .elements import (CircuitDescription, Loss, Mirror, OpticalElement,
                       Phase, Splitter, chi_from_split_ratio, compose,
                       element_matrix, equal_up_to_global_phase,
                       equal_up_to_output_phases, loss_matrix, phase_matrix,
                       splitter_matrix, unitarity_defect)
from .experiment import (DEFAULT_SPLIT_R, DEFAULT_SPLIT_T,
                         NOMINAL_SETPOINT_SHIFT, DetectorTrace,
                         ExperimentConfig, default_phi_grid,
                         detector_intensities, detector_intensity_curves,
                         fourier_network_matrix, fourier_setpoints,
                         fourier_setpoints_exact, prepare_state,
                         primary_module_matrix, reference_intensities,
                         theoretical_curves, without_incidental_phases)
from .fitting import (FitModel, FitOptions, FitResult, fit, model_predict,
                      residual_report, synthesize_measured_trace)
from .synthesis import (CHI_TILDE, mz_variable_splitter,
                        phase_estimation_outcome, qft3_circuit,
                        qft3_circuit_compact, qft_matrix, reck_decompose,
                        reconstruction_error)

__all__ = [name for name in dir() if not name.startswith("_")]
