"""passklab: a numerical laboratory for pass@k policy-gradient conflict.

Exact toy-bandit ground truth, Monte Carlo estimators, the prompt
interference kernel, agreement-score diagnostics, conflict certificates
with step-size bounds, ascent trajectories, and a pipeline for external
per-prompt gradient logs.
"""

__version__ = "0.1.0"

from .bandit import (
    BanditConfig,
    PromptBatch,
    derive_reference_theta,
    grad_success_probs,
    overlap_pair,
    policy_regularity_constants,
    reference_theta,
    sample_prompts,
    success_probs,
)
from .conflict import (
    ConflictReport,
    KernelInnerProduct,
    conflict_bound,
    conflict_report,
    delta_bound,
    inner_product_k_m,
    k_star,
    max_safe_step,
    reweighted_distribution,
    smoothness_constants,
)
from .errors import (
    AlignmentError,
    DomainError,
    GradLogError,
    IdentityCheckError,
    PassKLabError,
)
from .gradlog import (
    DiagReport,
    FilterSpec,
    GradLogRecord,
    diagnose,
    filter_by_difficulty,
    load_gradlog,
    make_synthetic_conflict_log,
    scatter_export,
)
from .interference import GradientTable, agreement_scores, kernel_matrix
from .mc import (
    SampleSet,
    empirical_profile,
    mc_grad_pass1,
    mc_grad_passk,
    sample_actions,
)
from .objectives import (
    SuccessProfile,
    fk,
    pass_at_k,
    pass_at_k_bounds,
    unbiased_pass_at_k,
    wk,
)
from .optimizer import TrajectoryRecord, ascent_step, evaluate_state, run_trajectory
