"""Exact power measures and cooperative-game analysis for directed hierarchical networks.

A directed edge is read as a control relationship.  The package turns a
network into transferable-utility games (how many nodes a coalition
partially or fully controls), computes the classical equal-split gauge
and its proportional, disruption-balancing counterpart in exact rational
arithmetic, tests Core membership, and mechanically verifies the
structural theorems that relate all of these on arbitrary small networks.
"""

from .coalitions import Coalition, coalition, members
from .documents import (
    NetworkDocument,
    document_from_edge_list,
    document_from_json,
    load_document,
)
from .errors import (
    CapExceededError,
    EfficiencyError,
    GaugeError,
    HierPowerError,
    InputError,
    NotRegularError,
)
from .games import (
    BALANCED_PROPENSITY,
    DEFAULT_PLAYER_CAP,
    INFINITE_PROPENSITY,
    Imputation,
    TUGame,
    dual,
    find_core_violation,
    gately,
    harsanyi_dividends,
    in_core,
    is_concave,
    is_convex,
    marginal,
    propensity_to_disrupt,
    shapley,
    shapley_permutation,
    strong_successor_game,
    successor_game,
)
from .generators import generate_random
from .measures import (
    CoreViolation,
    beta_measure,
    check_gauge,
    core_vertices,
    core_violation,
    degree_measure,
    gately_measure,
    proportional_measure,
    restricted_egalitarian,
    unique_simple_gauge,
)
from .networks import (
    DEFAULT_SUBNETWORK_CAP,
    HierNet,
    NetworkClass,
    NodePartition,
    classify,
    partition,
    principal_restriction,
    simple_subnetwork_count,
    simple_subnetworks,
    strong_successors,
)
from .verification import (
    AxiomReport,
    ClauseResult,
    ClauseTally,
    TheoremReport,
    VerifyReport,
    check_axioms,
    shapley_oracle_agrees,
    verify_networks,
    verify_theorems,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BALANCED_PROPENSITY",
    "CapExceededError",
    "ClauseResult",
    "ClauseTally",
    "Coalition",
    "CoreViolation",
    "DEFAULT_PLAYER_CAP",
    "DEFAULT_SUBNETWORK_CAP",
    "EfficiencyError",
    "GaugeError",
    "HierNet",
    "HierPowerError",
    "INFINITE_PROPENSITY",
    "Imputation",
    "InputError",
    "NetworkClass",
    "NetworkDocument",
    "NodePartition",
    "NotRegularError",
    "TUGame",
    "TheoremReport",
    "VerifyReport",
    "beta_measure",
    "check_axioms",
    "check_gauge",
    "classify",
    "coalition",
    "core_vertices",
    "core_violation",
    "degree_measure",
    "document_from_edge_list",
    "document_from_json",
    "dual",
    "find_core_violation",
    "gately",
    "gately_measure",
    "generate_random",
    "harsanyi_dividends",
    "in_core",
    "is_concave",
    "is_convex",
    "load_document",
    "marginal",
    "members",
    "partition",
    "principal_restriction",
    "propensity_to_disrupt",
    "proportional_measure",
    "restricted_egalitarian",
    "shapley",
    "shapley_oracle_agrees",
    "shapley_permutation",
    "simple_subnetwork_count",
    "simple_subnetworks",
    "strong_successor_game",
    "strong_successors",
    "successor_game",
    "unique_simple_gauge",
    "verify_networks",
    "verify_theorems",
]
