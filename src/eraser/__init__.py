"""Desk-scale simulator for inference-serving-aware machine unlearning.

The package models a sharded-ensemble classifier serving concurrent
inference and unlearning requests. Its centerpiece is a certified
prediction-consistency test that decides, without retraining, whether a
vote can be answered from stale shard models while unlearning requests
are pending — plus eight scheduling policies built on it, a deterministic
discrete-event simulator, closed-form waiting-time formulas to validate
against, and adversarial workload generators with their mitigations.

The package namespace holds the names the README quick start and the
demos use; everything else is imported from its module.
"""

from .certify import brute_force_consistent, certify_coarse, certify_fine
from .oracle import OracleConfig
from .scheduler import VARIANT_NAMES, MitigationConfig, VariantConfig
from .simulator import SimParams, replay_privacy_check, run
from .workload import WorkloadSpec, generate

__version__ = "0.1.0"
