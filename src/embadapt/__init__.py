"""Residual adapter training for frozen text embeddings.

The top level holds what the README's library example needs; every other
name is imported from its module (embadapt.evaluation, embadapt.objectives,
and so on).
"""

from .adapter import init_adapter, load_checkpoint, save_checkpoint, transform
from .config import TrainConfig
from .data import EmbeddingTable, RelevanceSet, split_train_val
from .evaluation import evaluate
from .io import load_qrels_tsv, read_embeddings, write_embeddings
from .trainer import train

__version__ = "0.1.0"

__all__ = [
    "EmbeddingTable",
    "RelevanceSet",
    "TrainConfig",
    "evaluate",
    "init_adapter",
    "load_checkpoint",
    "load_qrels_tsv",
    "read_embeddings",
    "save_checkpoint",
    "split_train_val",
    "train",
    "transform",
    "write_embeddings",
]
