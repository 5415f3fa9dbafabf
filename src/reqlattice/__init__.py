"""Multi-jurisdiction requirements analysis: partitioning, refinement
optimization, change impact, hierarchy composition and conflict ranking."""

from reqlattice.model import (
    Component,
    Corpus,
    Jurisdiction,
    Level,
    RelationSet,
    Requirement,
    RequirementKind,
    SourceItem,
    SourceKind,
    content_hash,
    validate_corpus,
)

__all__ = [
    "Component",
    "Corpus",
    "Jurisdiction",
    "Level",
    "RelationSet",
    "Requirement",
    "RequirementKind",
    "SourceItem",
    "SourceKind",
    "content_hash",
    "validate_corpus",
]

__version__ = "0.1.0"
