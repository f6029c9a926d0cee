"""Semistrong and (0,1)-relaxed strong edge colorings.

Constructions for the closed-form families, a greedy + repair solver that
meets the Δ²−1 bound on qualifying graphs, verifiers for all three coloring
notions, and a small exact oracle for cross-checking.
"""

from .coloring import Coloring
from .exact import Budget, ExactResult, FeasibilityResult, exact_index, feasibility
from .graph import (
    ComponentView,
    Graph,
    GraphError,
    build_graph,
    connected_components,
    g_family_witness,
    is_complete_bipartite_dd,
    max_degree,
)
from .neighborhood import EdgeNeighborhood, PairType, compute_neighborhood, m_set, observation_bound
from .solver import (
    EngineInvariantError,
    PaletteExhaustedError,
    SolveResult,
    greedy_good_coloring,
    repair,
    solve,
)
from .verify import (
    BadnessReport,
    VerifyResult,
    badness,
    is_good_coloring,
    is_induced_matching,
    is_semistrong_matching,
    verify_relaxed,
    verify_semistrong,
    verify_strong,
)

__all__ = [
    "BadnessReport",
    "Budget",
    "Coloring",
    "ComponentView",
    "EdgeNeighborhood",
    "EngineInvariantError",
    "ExactResult",
    "FeasibilityResult",
    "Graph",
    "GraphError",
    "PairType",
    "PaletteExhaustedError",
    "SolveResult",
    "VerifyResult",
    "badness",
    "build_graph",
    "compute_neighborhood",
    "connected_components",
    "exact_index",
    "feasibility",
    "g_family_witness",
    "greedy_good_coloring",
    "is_complete_bipartite_dd",
    "is_good_coloring",
    "is_induced_matching",
    "is_semistrong_matching",
    "m_set",
    "max_degree",
    "observation_bound",
    "repair",
    "solve",
    "verify_relaxed",
    "verify_semistrong",
    "verify_strong",
]
