"""Subword-informed word representation learning at desk scale.

Segmentation (BPE / char n-grams / MDL morphs) -> position-enriched subword
embeddings -> additive composition -> skip-gram with negative sampling,
plus linear probes for mention typing, morphological tagging, and NER.
"""

__version__ = "0.1.0"
