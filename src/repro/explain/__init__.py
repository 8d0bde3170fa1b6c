"""Localized explanations for synthesized configurations (paper core)."""

from .annotate import annotate_router
from .blackbox import BlackboxExplanation, explain_blackbox
from .certificate import AuditResult, Certificate, audit, make_certificate
from .dossier import generate_dossier
from .engine import Explanation, ExplanationEngine, ExplanationStatus
from .family import SharedCaches, SimulationCache
from .lift import LiftResult, generate_candidates, lift
from .project import ProjectedSpec, ProjectionError, project
from .qa import question_and_answer
from .repair import RepairCandidate, RepairReport, repair_candidates
from .seed import SeedSpecification, extract_seed
from .serialize import SCHEMA as EXPLANATION_SCHEMA
from .serialize import explanation_from_dict, explanation_to_dict
from .session import InteractiveSession, WhatIfResult
from .simplifier import SimplifiedSeed, cone_of_influence, simplify_seed
from .subspec import Subspecification
from .summaries import AssumeGuaranteeSummary, summarize
from .symbolize import (
    ACTION,
    FieldRef,
    MATCH_ATTR,
    MATCH_VALUE,
    SET_ATTR,
    SET_VALUE,
    SymbolizationError,
    default_domain,
    symbolize,
    symbolize_line,
    symbolize_router,
)

__all__ = [
    "ExplanationEngine",
    "Explanation",
    "ExplanationStatus",
    "SharedCaches",
    "SimulationCache",
    "BlackboxExplanation",
    "explain_blackbox",
    "Subspecification",
    "AssumeGuaranteeSummary",
    "summarize",
    "RepairCandidate",
    "RepairReport",
    "repair_candidates",
    "question_and_answer",
    "Certificate",
    "AuditResult",
    "make_certificate",
    "audit",
    "generate_dossier",
    "annotate_router",
    "InteractiveSession",
    "WhatIfResult",
    "SeedSpecification",
    "extract_seed",
    "EXPLANATION_SCHEMA",
    "explanation_to_dict",
    "explanation_from_dict",
    "SimplifiedSeed",
    "simplify_seed",
    "cone_of_influence",
    "ProjectedSpec",
    "ProjectionError",
    "project",
    "LiftResult",
    "lift",
    "generate_candidates",
    "FieldRef",
    "symbolize",
    "symbolize_line",
    "symbolize_router",
    "default_domain",
    "SymbolizationError",
    "ACTION",
    "MATCH_ATTR",
    "MATCH_VALUE",
    "SET_ATTR",
    "SET_VALUE",
]
