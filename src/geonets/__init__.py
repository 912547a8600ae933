"""Numerical laboratory for stationary geodesic networks on surfaces."""

from .surfaces import (Chart, ConformalFamily, DomainError, Dumbbell,
                       DumbbellWidthFamily, FlatTorus, ScalarField, Sphere,
                       Surface, constant_field, load_surface,
                       surface_average, surface_integral, volume)
from .nets import (DegenerateNetError, Edge, GammaNet, WeightedMultigraph,
                   dumbbell_circle, loop_graph, sphere_latitude, theta_graph,
                   torus_geodesic, torus_theta_net)
from .solver import (closed_geodesic_certificate, embeddedness_certificate,
                     is_nondegenerate, second_variation_spectrum,
                     solve_stationary, stationarity_residual)
from .variation import (PerturbationDirection, conformal_direction, eps_close,
                        family_direction, fd_length_derivative, first_variation,
                        resolved_family, run_battery)
from .minmax import (birkhoff_shorten, build_sweepout, dumbbell_kink, dumbbell_realizer,
                     dumbbell_width, minmax_upper_bound, weyl_ratio_probe)
from .equidist import (BumpSystem, WeightedNetFamily, build_partition,
                       convex_gradient_search, discrepancy,
                       discrepancy_transfer, merge_sequences,
                       merged_block_ratios, min_norm_point,
                       rationalize, ratio_series,
                       running_ratio)

__version__ = "0.1.0"
