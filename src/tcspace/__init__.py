"""Exact transportation-cost spaces on finite metric spaces.

Build a canonical graph from an exact metric, compute TC norms and optimal
roadmaps by successive shortest paths, pass to the Lipschitz dual side
(supporting functions, downhill graphs, uniqueness), and certify
nonexistence of isometric l_infty^k subspaces via degree obstructions.
Everything is exact rational arithmetic.
"""

from .errors import (
    DomainError,
    InvalidInput,
    MetricViolation,
    NegativeDistance,
    NonSymmetric,
    NotImprovable,
    NotLipschitz,
    NotNormalized,
    NotRealizable,
    NullProblem,
    OversizedResult,
    PeelNotApplicable,
    PreconditionFailed,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)
from .rational import frac_str, to_fraction
from .metric import (
    MetricSpace,
    metric_violations,
    path_metric,
    space_from_weighted_graph,
    validate_metric,
    weighted_graph_json_to_space,
)
from .graph import (
    CanonicalGraph,
    DirectedSubgraph,
    Edge,
    canonical_graph,
    connected_components,
)
from .vectors import Roadmap, TransportationProblem
from .lp import ExactLP, LPResult, LPStatus
from .transport import (
    CycleBasis,
    Improving,
    Optimal,
    OptimalityCertificate,
    OrientedCycle,
    TransportationPlan,
    cancel_cycle,
    cycle_basis,
    directed_graph_of,
    improving_cycle,
    maximal_roadmap,
    maximal_support,
    plan_to_roadmap,
    tc_norm,
)
from .oracle import oracle_tc_norm
from .duality import (
    LipschitzFunction,
    downhill_graph,
    downhill_to_problem,
    evaluate,
    is_unique_supporting,
    realizable_as_downhill,
    supporting_function,
)
from .obstruction import (
    Certificate,
    LinftyCandidate,
    SignPatternReport,
    certify_no_linfty,
    check_sign_pattern_disjointness,
    count_disjoint_roadmaps,
    strongly_disjoint,
    verify_linfty_basis,
)
from .families import (
    FamilyDescriptor,
    TwoPortGraph,
    complete_bipartite,
    compose,
    cycle,
    diamond,
    grid,
    k2n_two_port,
    quadrilateral_two_port,
    recursive_family,
    unit_edge_two_port,
)

__version__ = "0.1.0"
