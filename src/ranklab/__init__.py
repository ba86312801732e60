"""ranklab: adversarial and contrastive learning-to-rank trainers, ranking
metrics, dataset tooling, and an exact policy-gradient variance laboratory."""

from .core import (
    Dataset,
    DatasetKind,
    Document,
    Judgment,
    Query,
    build_dataset,
    candidate_pool,
    relevant_fraction,
)
from .scorers import (
    ParamVector,
    Scorer,
    build_scorer,
    discriminator_prob,
    init_params,
    load_checkpoint,
    pairwise_prob,
    save_checkpoint,
)
from .policy import (
    SoftmaxPolicy,
    log_prob_gradient,
    normalized_discriminator_sampling,
    policy_probs,
    sample_docs,
)
from .baselines import (
    ConstantBaseline,
    MonteCarloValueBaseline,
    ValueFunctionBaseline,
    parse_baseline,
)
from .metrics import (
    EvalReport,
    RankedList,
    evaluate_model,
    ndcg_at_k,
    p_at_1,
    precision_at_k,
    rank,
)
from .dataio import (
    SyntheticSpec,
    Vocab,
    parse_interactions,
    parse_letor,
    parse_qa_pairs,
    serialize_letor,
    split_queries,
    synth_retrieval,
)
from .trainers import (
    RunRecord,
    TrainConfig,
    TrainResult,
    discriminator_step,
    dns_epoch,
    dual_d_outer_epoch,
    generator_gradient,
    irgan_objective,
    irgan_pairwise_epoch,
    irgan_pointwise_epoch,
    pretrain_mle,
    run_trainer,
    single_d_epoch,
    value_function_baseline,
)
from .pgvar import (
    BaselinePartition,
    BoundCheckReport,
    MDPInstance,
    StudyConfig,
    build_instance,
    exact_gradient_mean,
    exact_variance,
    gradient_sample,
    mc_variance,
    partition_actions,
    sparsity_vs_bound_study,
    variance_decomposition,
    variance_lower_bound,
    verify_variance_bound,
)

__version__ = "0.1.0"
