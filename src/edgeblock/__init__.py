"""edgeblock: independent-cascade spread simulation and edge blocking.

A library and CLI for simulating information spread on undirected weighted
graphs with the independent cascade model, comparing edge-blocking
countermeasures (centrality baselines and a community-based resolution
sweep), and cross-checking densest-subgraph / edge-blocking optimum
identities on small instances by brute force.
"""

__version__ = "0.1.0"

# every kernel is plain Python/numpy; kept for scripts that still print it
NUMBA_ENABLED = False

from .cascade import (
    estimate_spread,
    estimate_spreads,
    sample_seed_set,
)
from .centrality import ConvergenceError, edge_betweenness, node_closeness, node_pagerank
from .community import (
    SweepParams,
    inter_community_edges,
    louvain_partition,
    resolution_sweep,
    sweep_walk,
)
from .evaluation import (
    ContainmentReport,
    ExperimentConfig,
    export_csv,
    export_svg,
    run_experiment,
)
from .graph import (
    Graph,
    GraphStats,
    ParseError,
    assign_jaccard_weights,
    from_edge_arrays,
    girth,
    graph_stats,
    parse_edge_list,
    write_edge_list,
)
from .hardness import (
    BlockingInstance,
    BruteForceResult,
    ReductionCheck,
    brute_force_densest_subgraph,
    brute_force_edge_blocking,
    expand_to_blocking_instance,
    sweep_small_instances,
    verify_reduction,
)
from .strategies import (
    STRATEGIES,
    blocked_edges,
    blocked_sets,
    score_edges,
)
