"""isores: decide, simulate and certify resonance for 2*pi-periodically
forced isochronous oscillators."""

from .errors import (ConfigError, DomainError, IntegrationError, IsoresError,
                     NumericsError)
from .forcing import (ForcingTerm, PiecewiseConst, Sampled, TrigPoly,
                      forcing_from_descriptor, fourier_coefficient, l1_norm)
from .potentials import (PotentialSpec, appendix_audit, asymmetric, custom,
                         harmonic, pinney, potential_from_descriptor,
                         sigma_map)
from .integrate import IntegratorConfig, RawSolution, State, energy, solve_forced
from .autonomous import (ActionAngle, VariationalSolution,
                         action_of_amplitude, amplitude_of_action,
                         bouncing_limit_audit, dx_dI_rofe_beketov,
                         from_action_angle, minimal_period,
                         negative_semiperiod, psi_solution,
                         to_action_angle)
from .phi import (PhiField, corollary_bound, eval_phi, phi_scan,
                  pinney_fourier_constants, resonance_verdict, winding_number)
from .dynamics import (PeriodicSolution, ResonanceDiagnostics,
                       find_periodic_solution, resonance_run,
                       seed_from_phi_zero)
from .acw import (AcwState, acw_first_integral, acw_numeric_check, acw_orbit,
                  acw_poincare, phi_lambda, two_piece_map)

__version__ = "0.1.0"
