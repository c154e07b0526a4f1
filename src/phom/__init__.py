"""Persistent homology for point clouds, images, voxel grids and series.

Importing phom loads no part of scipy: a function that calls scipy
imports it in its own body, so a command pays only for the scipy parts
its code path uses (`phom rips` uses none).
"""

__version__ = "0.1.0"

from .cubical import (build_cubical_filtration, image_persistence,
                      superlevel_persistence, voxel_persistence)
from .datagen import (Perturbation, gen_diffusion_field, gen_periodic_pair,
                      kde_grid, sample_annulus, sample_double_annulus,
                      sliding_windows)
from .distances import (DiagramDistanceReport, bottleneck_distance,
                        matching_cost, wasserstein_distance)
from .datagen import KdeField
from .errors import InputError, InternalError, ParameterError, PhomError
from .homology import (BoundaryMatrixZ2, SnfResult, betti_numbers,
                       build_boundary_matrix, connected_components,
                       format_boundary_table, snf_rank)
from .persistence import (Filtration, PersistenceDiagram, PersistencePairing,
                          RepresentativeCycle, compute_persistence,
                          cycle_boundary_is_zero, diagram_at_scale_betti,
                          representative_cycle, sparsify_cycle)
from .simplicial import (ComplexViolation, FilteredSimplicialComplex, Simplex,
                         boundary_chain, check_distance_matrix,
                         point_cloud_distances, rips_filtration,
                         rips_persistence, rips_persistence_batch,
                         validate_complex)
from .vectorize import (PersistenceImage, image_stability_constant,
                        persistence_image)

__all__ = [
    "__version__",
    "BoundaryMatrixZ2",
    "ComplexViolation",
    "DiagramDistanceReport",
    "FilteredSimplicialComplex",
    "Filtration",
    "InputError",
    "InternalError",
    "KdeField",
    "ParameterError",
    "PersistenceDiagram",
    "PersistenceImage",
    "PersistencePairing",
    "Perturbation",
    "PhomError",
    "RepresentativeCycle",
    "Simplex",
    "SnfResult",
    "betti_numbers",
    "bottleneck_distance",
    "boundary_chain",
    "build_boundary_matrix",
    "build_cubical_filtration",
    "check_distance_matrix",
    "compute_persistence",
    "connected_components",
    "cycle_boundary_is_zero",
    "diagram_at_scale_betti",
    "format_boundary_table",
    "gen_diffusion_field",
    "gen_periodic_pair",
    "image_persistence",
    "image_stability_constant",
    "kde_grid",
    "matching_cost",
    "persistence_image",
    "point_cloud_distances",
    "representative_cycle",
    "rips_filtration",
    "rips_persistence",
    "rips_persistence_batch",
    "sample_annulus",
    "sample_double_annulus",
    "sliding_windows",
    "snf_rank",
    "sparsify_cycle",
    "superlevel_persistence",
    "validate_complex",
    "voxel_persistence",
    "wasserstein_distance",
]
