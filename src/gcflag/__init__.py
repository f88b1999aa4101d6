"""Gelfand-Cetlin polytopes, toric degenerations and potential functions.

The layer modules are registered here without being run (gcflag._lazy),
so a `gc` command runs only the layers it calls; each exported name
resolves from its layer module on first use.
"""

from . import _lazy

_LAYERS = ("flags", "exactla", "polytopes", "system", "degeneration", "potential", "toda")
flags, exactla, polytopes, system, degeneration, potential, toda = (
    _lazy.lazy(__name__ + "." + m) for m in _LAYERS
)

_EXPORTS = {
    "flags": """FlagType LadderDiagram anticanonical_lambda dimension ladder_diagram
        meet_join normalize_index_set path_count positive_paths""",
    "polytopes": """Facet GCPolytope build_polytope dual_volume free_positions
        is_reflexive lattice_point_count lattice_points polytope_from_json
        polytope_to_json simplicial_cone_determinant volume volume_formula
        weyl_dimension""",
    "system": "arrow_completion fiber_point gc_map random_orbit_point",
    "degeneration": """PluckerPoint TorusPoint binomial_relation_holds deformed_plucker
        moment_mu moment_nu monomial_embedding multi_deformed_plucker parse_relation
        random_torus_point verify_family_equation weight_matrix""",
    "potential": """CriticalPoint LaurentPotential build_potential cohomology_rank
        critical_points critical_valuation hessian_nondegenerate positive_real_minimum""",
    "toda": """PhaseCoordinates TodaState gc_to_toda level_set_check phase_function
        toda_hamiltonians""",
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_HOME, *_LAYERS])


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
