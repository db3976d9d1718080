"""Desk-scale simulator of adaptive fair federated learning.

Heterogeneity-driven messenger adaptation, curriculum knowledge transfer,
Shapley-weighted fair aggregation, differential privacy, Byzantine-robust
consensus, and a healthcare-style benchmark metric suite — all deterministic
given (config, seed).
"""

from .config import (
    AttackBlock,
    ConfigError,
    FederationBlock,
    ProtocolBlock,
    RunConfig,
    config_from_dict,
    load_config,
)
from .fairness import (
    aggregate_messengers,
    fair_weights,
    fairness_gap,
    gini,
    monitor_and_adjust,
    robust_aggregate,
    shapley_estimate,
)
from .federation import (
    ClientProfile,
    DatasetShard,
    gen_federation,
    gen_reference_shard,
    pooled_label_distribution,
)
from .harness import (
    RoundRecord,
    RunLog,
    compute_load,
    inject_attack,
    run_experiment,
    run_round,
    sample_clients,
)
from .heterogeneity import (
    HeterogeneityReport,
    heterogeneity_index,
    stat_divergence,
)
from .messenger import (
    CapacityDecision,
    CurriculumSchedule,
    FusionConfig,
    curriculum_weights,
    distill_to_messenger,
    fuse_modalities,
    inject_knowledge,
    select_capacity,
)
from .models import (
    Arch,
    ModelParams,
    assign_difficulty_tiers,
    evaluate,
    init_params,
    train_local,
)
from .privacy import (
    PrivacyParams,
    PrivacySpend,
    account_privacy,
    clip_update,
    mia_attack,
    privatize,
)

__version__ = "0.1.0"
