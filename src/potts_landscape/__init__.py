"""Phase diagrams of the three-state Curie-Weiss Potts model in a field."""

from .errors import (DomainError, NumericalError, RemovableSingularityError,
                     ToleranceError)
from .model import (AprioriMeasure, CoordPQ, CoordUV, CoordXY, DEFAULT_TOL,
                    ModelParams, Permutation, PERMUTATIONS, SpinDistribution,
                    ToleranceConfig, alpha_from_xy, apply_permutation,
                    catastrophe_map, degeneracy_lhs, free_energy, from_pq,
                    from_uv, from_xy, gradient_local, hessian_local,
                    stationary_value, to_pq, to_uv, to_xy)
from .stationary import (MinimaCensus, PointKind, StationaryPoint,
                         brute_force_global_min, census, censuses,
                         find_stationary_points)
from .bifurcation import (ButterflyCoefficients, DomainIntervals, Interval,
                          SliceCurve, SurfacePatch, butterfly_expansion,
                          degenerate_locus_xy, discriminant_roots,
                          domain_intervals, gamma, slice_curves,
                          surface_patches)
from .critical import (BETA_BUTTERFLY, BETA_ELLIS_WANG, BETA_UMBILIC,
                       CriticalTemps, all_critical_temps, beta_cross,
                       beta_touch)
from .maxwell import (AxisSegment, BeyondEllisWangSegment, CoexistenceCurve,
                      CoexistencePoint, beyond_ellis_wang_segment,
                      coexistence_curve, ivp_tangent, symmetric_segment,
                      triple_point)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
