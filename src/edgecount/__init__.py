"""Graph-based two-sample tests that stay well-defined under repeated observations.

Pipeline: deduplicate observations into distinct values, build a similarity
graph on the distinct values (nearest neighbor link by default, which keeps
all tied minimal edges), then test whether the two samples were drawn from
the same distribution using edge-count statistics summarized over the whole
family of observation-level graphs the distinct-value graph induces.
"""

from .dataset import (
    DistanceMatrix,
    DistinctTable,
    deduplicate,
    expand_to_observations,
    load_table,
    pairwise_distances,
    read_distance_input,
    read_observations,
    write_distance_input,
    write_observations,
)
from .errors import (
    DegenerateNullError,
    FamilyTooLargeError,
    InfeasibleGraphError,
    InputFormatError,
    VerificationError,
)
from .graphs import (
    SimilarityGraph,
    build_kmst,
    build_knnl,
    build_nnl,
    count_graph_family,
    read_graph,
    write_graph,
)
from .inference import (
    Diagnostics,
    TestReport,
    analytic_pvalue_block,
    analyze,
    analyze_fixed_graph,
    condition_diagnostics,
    max_null_cdf,
    normal_cdf,
    permutation_pvalues,
    pvalue_analytic,
    solve_kappa,
)
from .oracle import (
    distance_euclidean,
    distance_footrule,
    distance_frobenius_sq,
    distance_kendall,
    distance_spearman,
    enumerate_graph_family,
    materialize_union_graph,
)
from .simulate import (
    BUILTIN_SCENARIOS,
    GeneratorSpec,
    MallowsModel,
    RestrictedUniform,
    ScenarioConfig,
    ScenarioResult,
    built_in_scenario,
    enumerate_rankings,
    parse_scenario_file,
    run_scenario,
    sample_mallows,
    sample_restricted_uniform,
)
from .stats import (
    ExtendedCounts,
    MomentSet,
    StatisticKernel,
    StatisticValues,
    evaluate_statistics,
    extended_counts,
    mixture_variance,
    moments,
    pergraph_statistics,
)

__version__ = "0.1.0"
