"""Vacuum polarization on the horizon of a Schwarzschild black hole threaded
by a cosmic string: non-integer Legendre/Bessel special functions, cone-space
Green's functions in all their representations, the generalized Heine
identity harness, and the renormalized <phi^2> by two independent routes."""

from .blackhole import (DeficitGeometry, RadialSolutionPair,
                        chi_radial_green, exponent_fit, g_sing,
                        geodesic_distance, geodesic_distance_expansion,
                        horizon_green, horizon_green_closed, lambda_of,
                        radial_solutions)
from .conespace import (ConePoint, SeparationInvariants, bessel_integral_lhs,
                        g3_axisym_integral, g3_cylindrical_Qsum, g3_linet,
                        g3_spherical_sum, g3_spheroidal_sum, g3_toroidal_sum,
                        g4_closed, g4_modesum_spherical,
                        generalized_heine_rhs, heine_double_sum)
from .errors import (CoincidenceError, ConvergenceError, DomainError,
                     ExtrapolationError, PoleError, QuadratureError,
                     SeriesRadiusError, SlowConvergenceError, StiffnessError,
                     StringHorizonError)
from .identities import (IdentityCase, check_app5, check_heine_classic,
                         check_heine_generalized, check_linet_sum,
                         check_norm_integral, check_spheroidal_sum,
                         check_toroidal_addition, run_cases,
                         spheroidal_ratio_audit)
from .specfun import (arccosh1p, bessel_IK, ferrers_P, ferrers_P_sequence,
                      legendre_P_axis, legendre_Q, legendre_Q_sequence)
from .vacuumpol import (Phi2Result, dominance_angle, figure1_data,
                        phi2_closed, phi2_limit, phi2_near_axis, phi2_result)

__version__ = "0.1.0"
