"""Workbench for non-adaptive cell-probe schemes answering prefix-sum and
bracket-matching queries: reference schemes, the constructive steps of the
lower-bound argument as exactly verifiable algorithms, and adversary
pipelines that replay the argument against a concrete scheme.
"""

from .bits import Bits, bits_to_str, parse_bits, prefix_sums, validate_bits
from .brackets import (
    balanced_rows,
    catalan_count,
    enumerate_bal,
    is_balanced,
    match_index,
    match_rows,
    scan_matches,
    unmatched_close_prob,
    unmatched_open_prob,
)
from .core import (
    DOMAIN_ALL,
    DOMAIN_BAL,
    KIND_MATCH,
    KIND_SUM,
    Counterexample,
    RestrictedScheme,
    Scheme,
    TableDecoder,
    TableEncoder,
    VerificationReport,
    redundancy,
    restrict_scheme,
    verify_scheme,
)
from .entropy_sum import (
    EntropySumWitness,
    PrefixSetReport,
    ThresholdReport,
    binomial_tail,
    entropy_sum_analysis,
    entropy_sum_analysis_uniform,
    find_threshold,
    good_prefix_set,
    stretch_term,
)
from .errors import (
    CapacityError,
    CellProbeError,
    ConsistencyError,
    DomainError,
    ParameterError,
    RangeError,
    SizeError,
)
from .infotheory import (
    Distribution,
    GoodSetReport,
    conditional_entropy,
    entropy,
    good_blocks,
    good_cells,
    tv_distance,
    tv_from_uniform,
)
from .pipeline import (
    ChainLine,
    PipelineReport,
    StageRecord,
    run_bracket_pipeline,
    run_pipeline,
    run_prefix_pipeline,
)
from .schemeio import load_scheme, read_scheme, save_scheme, write_scheme
from .schemes import (
    BUILTIN_BUILDERS,
    build_bracket_table,
    build_builtin,
    build_precomputed_sums,
    build_raw_identity,
    build_two_level_rank,
)
from .separator import (
    BracketSeparatorResult,
    SeparatorResult,
    StageLog,
    find_separator,
    find_separator_brackets,
    greedy_disjoint,
    pairwise_disjoint,
)
from .stretcher import StretcherResult, StretchPair, find_stretcher

__version__ = "0.1.0"
