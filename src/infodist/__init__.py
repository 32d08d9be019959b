"""Value-based distance between finite common-prior information structures.

The package computes the largest gap in zero-sum Bayesian game values
between two information structures as a garbling optimization, together
with the surrounding toolkit: game values and optimal strategies, comparison
of structures, single-agent distances, belief-hierarchy analysis and the
nonzero-sum payoff-set distance, feasible-payoff bounds, example-family
generators with closed-form oracles, and a desk-scale replication of the
large-space Markov construction.
"""

from .catalog import (
    ApproxKnowledgePair,
    BlackwellSpec,
    canonical_examples,
    approx_knowledge_pair,
    blackwell_conjecture_report,
    blackwell_d1_closed_form,
    blackwell_structure,
    common_knowledge,
    counterexample_pairs,
    email_game,
    ladder_structure,
    knowledge_level,
    no_information,
    uniform_support,
)
from .distance import (
    DiameterBounds,
    GapCertificate,
    StateDistribution,
    cond_indep_collapse_report,
    complements_report,
    diameter_bounds,
    dw,
    is_better,
    joint_information_report,
    one_sided_gap,
    single_agent_distance,
    substitutes_report,
    value_distance,
    witness_game,
)
from .errors import (
    BudgetExceeded,
    HypothesisViolated,
    InfoDistError,
    InvalidParameters,
    InvalidSymbol,
    NegativeMass,
    NotNormalized,
    NumericalFailure,
    ShapeMismatch,
    ShrinkNotAllowed,
    ZeroMassCondition,
)
from .games import (
    BimatrixGame,
    ValueResult,
    ZeroSumGame,
    guarantee,
    minmax_levels,
    transport_strategy,
    value,
    value_normal_form,
)
from .hierarchy import (
    Decomposition,
    SignalPartition,
    ck_decompose,
    dnzs,
    hierarchy_partition,
    is_simple,
    mix,
    reduce_redundancy,
)
from .markov import (
    ConcentrationReport,
    MixingImplicationReport,
    MarkovWorld,
    MixingMatrix,
    TruthfulGuarantee,
    MixingReport,
    revelation_game,
    chain_structure,
    check_mixing,
    concentration_report,
    is_nice,
    mixing_implication_check,
    sample_S,
    truthful_guarantee,
)
from .payoffs import (
    FeasibleBoundReport,
    IrBoundReport,
    PayoffPolygon,
    feasible_set,
    hausdorff_max,
    verify_feasible_bound,
    verify_ir_bound,
)
from .structures import (
    ConditionalQuery,
    Garbling,
    InformationStructure,
    PLAYER1,
    PLAYER2,
    compose_garblings,
    conditional,
    embed_signals,
    eps_conditional_independence,
    garble,
    l1_distance,
    marginalize,
    validate_structure,
)

__version__ = "0.1.0"
