"""Certified Cheeger isoperimetric bounds on graphs, rooted trees, metric
spaces and their hyperbolic approximations.

Every bound the library emits is an interval with re-verifiable witnesses:
brute-force window minima give upper endpoints, function certificates and the
tree/decomposition theorems give lower endpoints, and all finite-horizon
results disclose the window they were proved on.

Every CLI job is a fresh process, so class definitions are start-up cost.
Plain result records are ``typing.NamedTuple``s: field-wise equality and a
``Name(field=...)`` repr.  Types that validate, cache or compare by identity
are explicit classes on the bases in ``frozen`` (``Graph``, ``RootedTree``,
``FiniteMetricSpace``, ...).  No module uses the standard library's data
class generator: on a 2-vCPU VM under Python 3.11, a frozen data class took
0.5-1.2 ms to define, since each generated method is compiled by ``exec``,
a NamedTuple 0.1-0.2 ms and a plain class 0.01 ms, and importing the
generator also loads ``inspect``, 7-13 ms cold, which no graph-side command
needs otherwise.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it.  Submodules and names
# resolve on first access (PEP 562), so ``import cheegerlab`` imports none of
# them, and numpy is loaded only with metric, hyperbolicity or approximation.
_EXPORTS = {
    "errors": (
        "BudgetExceededError",
        "CheegerLabError",
        "ConstructionError",
        "EmptyWindowError",
        "InvalidHorizonError",
        "InvalidInputError",
        "InvalidSupportError",
    ),
    "graphs": (
        "BoundEndpoint",
        "CheegerBound",
        "CertificateResult",
        "DEFAULT_DELTA_BUDGET",
        "DEFAULT_SUBSET_BUDGET",
        "Graph",
        "admissible_vertices",
        "auto_max_size",
        "boundary",
        "certificate_lower_bound",
        "cheeger_ratio",
        "cycle_graph",
        "gradient",
        "grid_window",
        "laplacian",
        "path_window",
        "relabeled",
        "vertex_function",
    ),
    "window": (
        "interior_cheeger_bruteforce",
        "window_bound",
    ),
    "lemmas": (
        "boundary_identification_check",
        "corollary_connected_bound",
        "green_identity_check",
        "lemma_suite",
        "quasi_isometry_check",
    ),
    "hyperbolicity": (
        "DeltaReport",
        "delta_four_point",
        "evaluate_witness",
        "gromov_product",
        "pole_defect",
    ),
    "metric": (
        "FiniteMetricSpace",
        "GeometryProfile",
        "PerfectnessCertificate",
        "cantor_sample",
        "epsilon_net",
        "greedy_separated",
        "interval_sample",
        "line_space",
        "one_point_to_two_point_constant",
        "rescale_eps0",
        "strongly_bounded_geometry_profile",
        "two_point",
        "two_point_perfectness_check",
        "two_point_to_one_point_constant",
        "uniformly_perfect_check",
    ),
    "trees": (
        "RootedTree",
        "TreeAnalysis",
        "comb_tree",
        "complementedness_index",
        "end_space",
        "essential_boundary",
        "even_branching_tree",
        "full_branching_tree",
        "grafted_dead_branches",
        "growing_chain",
        "homogeneous_tree",
        "maximal_complete_subtree",
        "pseudo_regularity_index",
        "random_branching_tree",
        "random_tree",
        "subtree_past",
        "theorem_lower_bound",
        "tree_cheeger_bounds",
        "tree_from_parents",
    ),
    "approximation": (
        "LeveledGraph",
        "build_truncated",
        "level_certificate",
        "relevel",
        "structural_checks",
    ),
    "decomposition": (
        "DecompositionSpec",
        "GraftResult",
        "PieceCertificate",
        "bound_general",
        "bound_strong",
        "converse_scan",
        "decomposition_bound",
        "graft",
        "graft_decomposition",
        "validate",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    # not cached here: the submodule's attribute stays the one source, so a
    # name patched or wrapped there is what the package hands out
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_OWNER) | set(_EXPORTS))
