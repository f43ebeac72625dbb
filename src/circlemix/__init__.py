"""Numerical laboratory for density evolution and statistical memory loss
under time-dependent expanding circle maps."""

__version__ = "0.1.0"

from .bounds import (BoundsReport, FamilyBounds, cone_parameter, delta0_of_curve,
                     default_a_star, distortion_constant, family_bounds,
                     lambda_local, smooth_positivity_floor, tau_piecewise,
                     tau_smooth)
from .coupling import (BlockPlan, CertificateViolation, CouplingLedger,
                       DecayFit, certify, fit_decay, run_coupled)
from .covering import (CoveringError, CoveringReport, Cylinder,
                       NotEnvelopingError, PartitionExplosionError,
                       cylinder_partition, enveloping_time, escape_time,
                       positivity_horizon, refine_until, verify_overcover)
from .curves import MapCurve, sine_amplitude_curve, slope_curve
from .density import Density
from .maps import (BranchSpec, MapAnalysis, MapFormError, PiecewiseMap,
                   affine_map, analyze, circle_dist, doubling_map,
                   map_from_dict, neighborhood_distance, sine_map,
                   slope25_map, slope3_two_branch, two_slope_wrap_map)
from .scenarios import ScenarioError, build_sequence, run_scenario
from .transfer import (TransferOperator, backend_consistency, push,
                       ulam_matrix)

__all__ = [name for name in dir() if not name.startswith("_")]
