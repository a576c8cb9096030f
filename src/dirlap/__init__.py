"""dirlap: decay experiments on lazily generated infinite directed graphs.

The package splits a directed graph Laplacian into symmetric and skew parts,
estimates the geometry of the induced undirected graph on finite samples
(volume growth, local ellipticity, Poincare constants, total skew mass),
simulates the heat flow on adaptively truncated balls, fits decay exponents,
and runs coupled-oscillator stability experiments whose linearizations are
exactly such Laplacians.
"""

from .builtins import builtin_graph, register_graph
from .errors import (BlowUpError, BudgetExceededError, DegreeCapError,
                     DirlapError, InconsistentAdjacencyError,
                     SingularFormError, StepSizeError, TruncationError)
from .geometry import Ball, ball, distance, shells, volume
from .graph import (GraphGenerator, ValidationReport, Vertex, apply_laplacian,
                    generator_from_edges, validate_generator)
from .hypotheses import (HypothesisReport, check_hypotheses, estimate_alpha,
                         estimate_poincare, estimate_skew_mass,
                         fit_volume_growth)
from .oscillator import (GenericCoupling, OscillatorSystem,
                         PhaseLockCandidate, SeparableCoupling,
                         coupling_from_graph, linearize, simulate_nonlinear,
                         sin_coupling, verify_phase_lock)
from .reports import report_schema_version
from .semigroup import (DecayFit, EvolveResult, SimConfig, StateVector,
                        TruncatedOperator, advection_oracle,
                        advection_stirling_lower, evolve,
                        fit_decay, fit_power_law, norms, q_seminorm,
                        skew_bound_check, trajectory_norms)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
