"""Trustworthiness ranking of fact-providing websites against a knowledge base."""

from .baselines import pcf_run, truthfinder_run, voting_run
from .corpus import (
    Claims,
    CorpusError,
    EngineConfig,
    FactRecord,
    StateError,
    TrueFact,
    TrustState,
    Website,
    build_state,
    canonical_claims,
    load_claims,
    load_knowledge_base,
    load_state,
    normalize_name,
    save_state,
)
from .engine import (
    EpochReport,
    Index,
    adjust_confidences,
    assign_pcf,
    build_index,
    damp,
    implication_factor,
    implication_rows,
    run,
    run_epoch,
    run_epochs,
)
from .generator import GenSpec, generate_claims, generate_kb
from .serp import SerpRow, StaleMethodError, query, rank_websites, serp_tsv
from .similarity import fact_pcf, name_pcf, tf_name_score, weighted_name_scores

__version__ = "0.1.0"
