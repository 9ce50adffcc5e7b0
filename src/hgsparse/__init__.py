"""Cut sparsifiers for weighted multi-hypergraphs.

The pipeline: spread each hyperedge's weight over its clique pairs until the
assignment is gamma-balanced, read off edge strengths from the resulting
graph, sample each edge with probability proportional to 1/strength, and
reweight survivors.  Wrappers extend the core sampler to arbitrary weight
ratios (geometric bucketing) and to insertion-only streams (merge and
reduce).  `all_cuts_report` checks a sparsifier against every cut of its
input, and `brute_force_strengths` checks strengths by subset enumeration,
both at small scale.
"""

from .balance import (
    BalanceError,
    BalanceReport,
    BalanceState,
    find_max_bad,
    init_weights,
    is_balanced,
    run_balance,
    transfer_step,
)
from .graph import (
    StrengthTable,
    UnionFind,
    brute_force_strengths,
    collapse,
    edge_strengths,
    k_strong_components,
    pair_strengths,
)
from .hypergraph import (
    Cut,
    HyperEdge,
    ParseError,
    WeightedHypergraph,
    as_weight,
    cut_weight,
    format_weight,
    gen_example,
    gen_footnote_graph,
    gen_random,
    gen_sunflower,
    parse_hypergraph,
    serialize_hypergraph,
)
from .pipeline import (
    BucketReport,
    PipelineError,
    StreamState,
    WeightBuckets,
    bucket_by_weight,
    contract_components,
    fast_sparsify,
    stream_sparsify,
)
from .seeds import RNG_ID, child_seed
from .sparsify import (
    SamplingError,
    SamplingPlan,
    SparsifierResult,
    copy_counts,
    make_plan,
    reduce_weighted,
    result_metadata,
    sample_sparsifier,
    save_result,
    sparsify_unweighted,
    sparsify_weighted,
    theoretical_rho,
)
from .verify import (
    CutRecord,
    QualityReport,
    all_cuts_report,
    report_csv,
    report_text,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceError",
    "BalanceReport",
    "BalanceState",
    "BucketReport",
    "Cut",
    "CutRecord",
    "HyperEdge",
    "ParseError",
    "PipelineError",
    "QualityReport",
    "RNG_ID",
    "SamplingError",
    "SamplingPlan",
    "SparsifierResult",
    "StreamState",
    "StrengthTable",
    "UnionFind",
    "WeightBuckets",
    "WeightedHypergraph",
    "all_cuts_report",
    "as_weight",
    "brute_force_strengths",
    "bucket_by_weight",
    "child_seed",
    "collapse",
    "contract_components",
    "copy_counts",
    "cut_weight",
    "edge_strengths",
    "fast_sparsify",
    "find_max_bad",
    "format_weight",
    "gen_example",
    "gen_footnote_graph",
    "gen_random",
    "gen_sunflower",
    "init_weights",
    "is_balanced",
    "k_strong_components",
    "make_plan",
    "pair_strengths",
    "parse_hypergraph",
    "reduce_weighted",
    "report_csv",
    "report_text",
    "result_metadata",
    "run_balance",
    "sample_sparsifier",
    "save_result",
    "serialize_hypergraph",
    "sparsify_unweighted",
    "sparsify_weighted",
    "stream_sparsify",
    "theoretical_rho",
    "transfer_step",
]
