"""Differential knowledge-graph toolkit over xdp⁺, the XOR differentials of
modular addition: SPECK's non-linear step. SIMON's round is modelled, but
no table of its own differentials is built yet."""

from .errors import ParameterError
from .simon import (
    CipherParams,
    WordState,
    all_variants,
    decrypt,
    encrypt,
    feistel_round,
    feistel_round_inverse,
    rotl,
    round_fn,
)
from .differential import (
    InvalidDifferentialError,
    brute_force_dp,
    differential_probability,
    differential_weight,
    dyadic_str,
    eq_mask,
    is_valid_differential,
)
from .pddt import (
    Pddt,
    PddtConfig,
    PddtOverflowError,
    SampleSpec,
    build_pddt,
    node_columns,
    partial_dp,
    pddt_stats,
    sample_pddt,
)
from .graph import (
    DiffGraph,
    EdgeRule,
    PathResult,
    Predicate,
    RuleError,
    build_graph,
    default_edge_rule,
    export_graph,
    find_optimal_paths,
    graph_stats,
    printed_edge_rule,
)
from .bench import (
    McsConfig,
    SearchReport,
    build_fig_tree_fixture,
    compare,
    graph_guided_search,
    mcs_search,
    min_weight_leaf_path,
)

__version__ = "0.1.0"
