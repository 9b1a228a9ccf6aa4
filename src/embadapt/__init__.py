"""Residual adapter training for frozen text embeddings."""

from .adapter import (
    AdapterModel,
    MlpParams,
    init_adapter,
    load_checkpoint,
    save_checkpoint,
    transform,
    transform_grad,
)
from .config import TrainConfig
from .data import (
    EmbeddingTable,
    ItemSet,
    RelevanceSet,
    TextItem,
    split_train_val,
)
from .evaluation import (
    RankedList,
    RetrievalReport,
    evaluate,
    ndcg_at_k,
    rank_candidates,
    score_all,
)
from .io import (
    EncoderEndpointConfig,
    fetch_embeddings,
    load_jsonl_items,
    load_qrels_tsv,
    read_embeddings,
    write_embeddings,
)
from .objectives import (
    BatchScores,
    cosine_similarity,
    prediction_loss,
    ranking_loss,
    recovery_loss,
    total_loss,
)
from .trainer import TrainReport, make_batch, train

__version__ = "0.1.0"

__all__ = [
    "AdapterModel",
    "BatchScores",
    "EmbeddingTable",
    "EncoderEndpointConfig",
    "ItemSet",
    "MlpParams",
    "RankedList",
    "RelevanceSet",
    "RetrievalReport",
    "TextItem",
    "TrainConfig",
    "TrainReport",
    "cosine_similarity",
    "evaluate",
    "fetch_embeddings",
    "init_adapter",
    "load_checkpoint",
    "load_jsonl_items",
    "load_qrels_tsv",
    "make_batch",
    "ndcg_at_k",
    "rank_candidates",
    "prediction_loss",
    "ranking_loss",
    "read_embeddings",
    "recovery_loss",
    "save_checkpoint",
    "score_all",
    "split_train_val",
    "total_loss",
    "train",
    "transform",
    "transform_grad",
    "write_embeddings",
]
