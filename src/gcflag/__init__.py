"""Gelfand-Cetlin polytopes, toric degenerations and potential functions."""

from .flags import (
    FlagType,
    LadderDiagram,
    anticanonical_lambda,
    dimension,
    ladder_diagram,
    meet_join,
    normalize_index_set,
    path_count,
    positive_paths,
)
from .polytopes import (
    Facet,
    GCPattern,
    GCPolytope,
    build_polytope,
    dual_volume,
    free_positions,
    interior_lattice_points,
    is_reflexive,
    lattice_point_count,
    lattice_points,
    polytope_from_json,
    polytope_to_json,
    simplicial_cone_determinant,
    volume,
    volume_formula,
    weyl_dimension,
)
from .system import arrow_completion, fiber_point, gc_map, random_orbit_point
from .degeneration import (
    PluckerPoint,
    TorusPoint,
    binomial_relation_holds,
    deformed_plucker,
    moment_mu,
    moment_nu,
    monomial_embedding,
    multi_deformed_plucker,
    parse_relation,
    random_torus_point,
    verify_family_equation,
    weight_matrix,
)
from .potential import (
    CriticalPoint,
    LaurentPotential,
    build_potential,
    cohomology_rank,
    critical_points,
    critical_valuation,
    hessian_nondegenerate,
    positive_real_minimum,
)
from .toda import (
    PhaseCoordinates,
    TodaState,
    gc_to_toda,
    level_set_check,
    phase_function,
    toda_hamiltonians,
)

__all__ = [name for name in dir() if not name.startswith("_")]
