"""Desk-scale simulator for inference-serving-aware machine unlearning.

The package models a sharded-ensemble classifier serving concurrent
inference and unlearning requests. Its centerpiece is a certified
prediction-consistency test that decides, without retraining, whether a
vote can be answered from stale shard models while unlearning requests
are pending — plus eight scheduling policies built on it, a deterministic
discrete-event simulator, closed-form waiting-time formulas to validate
against, and adversarial workload generators with their mitigations.
"""

from .certify import (
    CertificationVerdict,
    ChallengerCheck,
    EnumerationCapError,
    GammaCounts,
    brute_force_consistent,
    certify_coarse,
    certify_fine,
    certify_fine_shared_margin,
    gamma_counts,
    judge,
)
from .ensemble import aggregate, count_votes, predict_label
from .oracle import (
    OracleConfig,
    PredictionTrace,
    SampleId,
    TraceError,
    load_trace,
    predict,
    predict_matrix,
    predict_vector,
    sample_for,
)
from .scheduler import (
    MitigationConfig,
    Scheduler,
    VariantConfig,
    VARIANT_NAMES,
    variant_config,
)
from .simulator import (
    Metrics,
    RequestRecord,
    SimParams,
    replay_privacy_check,
    run,
)
from .theory import (
    TheoryParams,
    dimp_upper_bound,
    expected_wait_dimp_series,
    expected_wait_sisa,
    k_r,
    t_d,
)
from .workload import (
    Gaussian,
    Multimodal,
    Request,
    WorkloadSpec,
    deterministic_unlearning_grid,
    export_csv,
    generate,
    import_csv,
    merge_streams,
    symmetric_multimodal,
)

__version__ = "0.1.0"
