"""Entropy rate preservation and lumpability analysis of finite Markov chains.

Given a finite irreducible chain and a surjective state-to-block map, the
library decides whether observing blocks instead of states loses entropy,
certifies a quantitative loss bound when it does, verifies weak and strong
higher-order lumpability, and brackets the block process's entropy rate by
exact per-horizon bounds plus a seeded Monte Carlo belief-filter estimate.
"""

from . import errors
from .chain import (
    ConnectivityReport,
    MarkovChain,
    build_chain,
    reverse_chain,
)
from .cli import (
    AnalysisConfig,
    AnalysisReport,
    export_dot,
    format_report,
    parse_model,
    report_from_json,
    run_analysis,
)
from .entropy import (
    BlackwellEstimate,
    EntropyBounds,
    LossInterval,
    blackwell_entropy_estimate,
    block_entropy,
    chain_entropy_rate,
    conditional_entropy_rate_estimate,
    lumped_block_entropy,
    lumped_rate_bounds,
)
from .lumping import (
    LossBound,
    Lumping,
    LumpabilityCounterexample,
    LumpabilityVerdict,
    SfsResult,
    SingleEntryResult,
    SplitMergeResult,
    SplitMergeWitness,
    WeakHorizonVerdict,
    build_lumping,
    check_sfs,
    check_single_entry,
    check_strong_lumpable,
    check_weak_lumpable,
    entropy_loss_bound,
    identity_lumping,
    pair_depth_cap,
    preimage_count,
    split_merge_index,
)
from .simulate import (
    GrowthCheckpoint,
    OccurrenceRateCheck,
    Trajectory,
    empirical_growth,
    occurrence_rate_check,
    sample_trajectory,
)

__all__ = [name for name in dir() if not name.startswith("_")]
