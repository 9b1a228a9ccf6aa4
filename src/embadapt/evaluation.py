"""Exact cosine retrieval with streaming top-k, and nDCG@k evaluation."""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .adapter import AdapterModel, is_identity, row_blocks, transform
from .data import EmbeddingTable, RelevanceSet, check_compatible, check_embeddings
from .errors import DataError
from .objectives import unit_rows, unit_scores

# float64 scores held per query block: 32 MiB is 209 queries against a 20k corpus
SCORE_BLOCK_BYTES = 32 << 20


@dataclass
class RankedList:
    query_id: str
    entries: list[tuple[str, float]]  # (corpus_id, score), descending score


@dataclass
class RetrievalReport:
    k: int
    per_query_ndcg: dict[str, float]
    mean_ndcg: float
    n_evaluated: int
    n_skipped: int = 0  # queries with no positive grade, excluded from the mean

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def to_text(self) -> str:
        lines = [f"nDCG@{self.k} over {self.n_evaluated} queries "
                 f"({self.n_skipped} skipped, no positives)"]
        width = max((len(q) for q in self.per_query_ndcg), default=0)
        for qid in sorted(self.per_query_ndcg):
            lines.append(f"  {qid:<{width}}  {self.per_query_ndcg[qid]:.5f}")
        lines.append(f"  mean nDCG@{self.k}: {self.mean_ndcg:.5f}")
        return "\n".join(lines)


def _unit_side(table: EmbeddingTable, model: AdapterModel | None, which: str) -> np.ndarray:
    """The table's unit rows (see unit_rows), adapted as the `which` side by
    transform unless model is None or the identity: the unit rows of the
    table that transform writes, bit for bit.

    Rows are adapted and normalised in the row blocks of transform, so the
    float64 unit rows are the only full-size array built.
    """
    x = table.vectors
    adapt = model is not None and not is_identity(model, which)
    unit = np.empty(x.shape, dtype=np.float64)
    for rows in row_blocks(len(x), max(x.shape[1], model.hidden) if adapt else x.shape[1]):
        unit[rows], _ = unit_rows(transform(model, x[rows], which) if adapt else x[rows])
    return unit


def _unit_sides(
    q_table: EmbeddingTable,
    c_table: EmbeddingTable,
    model: AdapterModel | None,
    force: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """_unit_side of the queries and of the corpus, each computed once.

    Tables and a model that check_compatible refuses raise its error unless
    force is set."""
    check_compatible({"query": q_table, "corpus": c_table}, model, force)
    return _unit_side(q_table, model, "query"), _unit_side(c_table, model, "corpus")


def score_all(
    q_table: EmbeddingTable,
    c_table: EmbeddingTable,
    model: AdapterModel | None = None,
    force: bool = False,
) -> np.ndarray:
    """Dense (n_q, n_c) cosine score matrix, optionally on the sides adapted
    by transform, each normalised once."""
    return unit_scores(*_unit_sides(q_table, c_table, model, force))


def _check_k(k: int | None) -> None:
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def rank_candidates(
    corpus_ids: list[str], scores: np.ndarray, k: int | None = None
) -> list[tuple[str, float]]:
    """Top k candidates by descending score, ties broken by ascending id.

    Equal to the first k of np.lexsort((ids, -scores)) for finite scores, with
    ids compared in Python string order. Only the candidates scoring at least
    the k-th largest score are sorted, so every tie at the k-th position is
    ordered by id. k=None returns the full order.
    """
    _check_k(k)
    scores = np.asarray(scores)
    n = len(scores)
    if k is None or k >= n:
        kept = np.arange(n)
    else:
        kth = np.partition(scores, n - k)[n - k]
        kept = np.flatnonzero(scores >= kth)
    pairs = sorted(
        zip(scores[kept].tolist(), kept.tolist()),
        key=lambda p: (-p[0], corpus_ids[p[1]]),
    )
    return [(corpus_ids[i], s) for s, i in pairs[:k]]


def _score_blocks(
    q_table: EmbeddingTable,
    c_table: EmbeddingTable,
    model: AdapterModel | None,
    force: bool,
) -> Iterator[tuple[list[str], np.ndarray]]:
    """Cosine scores of consecutive query blocks against the whole corpus.

    Yields (query ids, scores) with scores of shape (block, n_c). Each side is
    adapted and normalised once per call, and only its unit rows are kept;
    each block (see row_blocks) then takes one product with the unit corpus
    and holds at most SCORE_BLOCK_BYTES of scores (one query at least), so
    memory grows with the corpus size, not with n_q * n_c. BLAS rounds each
    product by its shape, so the scores may differ from the matching rows of
    score_all in the last bits.
    """
    q_unit, c_unit = _unit_sides(q_table, c_table, model, force)
    qids = q_table.ids
    for rows in row_blocks(len(qids), max(1, len(c_table)), SCORE_BLOCK_BYTES):
        yield qids[rows], unit_scores(q_unit[rows], c_unit)


def ranked_lists(
    q_table: EmbeddingTable,
    c_table: EmbeddingTable,
    model: AdapterModel | None = None,
    k: int | None = None,
    force: bool = False,
) -> list[RankedList]:
    """Top k of each query, the sides adapted by transform: the entries equal
    those of ranked_lists without a model over the tables that transform
    writes, bit for bit, as do evaluate's and score_all's values."""
    _check_k(k)
    cids = c_table.ids
    return [
        RankedList(qid, rank_candidates(cids, row, k))
        for qids, scores in _score_blocks(q_table, c_table, model, force)
        for qid, row in zip(qids, scores)
    ]


def _gain(y: float, mode: str) -> float:
    if mode == "standard":
        return 2.0**y - 1.0
    if mode == "paper-literal":
        return 2.0**y
    raise ValueError(f"unknown gain mode: {mode!r}")


def dcg_at_k(grades_in_rank_order: list[float], k: int, gain: str = "standard") -> float:
    return sum(
        _gain(y, gain) / math.log2(rank + 2)
        for rank, y in enumerate(grades_in_rank_order[:k])
    )


def ndcg_at_k(
    ranked: list[tuple[str, float]],
    grades: dict[str, float],
    k: int,
    gain: str = "standard",
) -> float:
    """nDCG truncated at rank k for one query.

    grades maps corpus_id -> relevance; missing ids are grade 0. Undefined
    (raises) when the query has no positive grade.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    positives = sorted((y for y in grades.values() if y > 0), reverse=True)
    if not positives:
        raise DataError("nDCG undefined for a query with no positive grade")
    ranked_grades = [grades.get(cid, 0.0) for cid, _ in ranked]
    ideal = positives
    if gain == "paper-literal":
        # zero-grade items carry gain 2^0 = 1, so the ideal list pads with
        # zeros up to what the realized ranking could retrieve
        ideal_len = min(k, max(len(ranked), len(positives)))
        ideal = positives + [0.0] * max(0, ideal_len - len(positives))
    dcg = dcg_at_k(ranked_grades, k, gain)
    idcg = dcg_at_k(ideal, k, gain)
    return dcg / idcg


def evaluate(
    q_table: EmbeddingTable,
    c_table: EmbeddingTable,
    rels: RelevanceSet,
    model: AdapterModel | None = None,
    k: int = 10,
    gain: str = "standard",
    force: bool = False,
) -> RetrievalReport:
    """Mean nDCG@k over every query in q_table with at least one positive;
    each qrels row of a query in q_table must name embeddings that exist.
    The sides are adapted by transform, so the report equals, bit for bit,
    evaluate without a model over the tables that transform writes."""
    _check_k(k)
    check_embeddings(q_table, c_table, rels.restricted_to(q_table.ids))
    cids = c_table.ids
    per_query: dict[str, float] = {}
    n_skipped = 0
    for qids, scores in _score_blocks(q_table, c_table, model, force):
        for qid, row in zip(qids, scores):
            grades = rels.positives_for(qid)
            if not grades:
                n_skipped += 1
                continue
            ranked = rank_candidates(cids, row, k)
            per_query[qid] = ndcg_at_k(ranked, grades, k, gain)
    if not per_query:
        raise DataError("no evaluable query: every query lacks positive grades")
    mean = float(np.mean(list(per_query.values())))
    return RetrievalReport(
        k=k,
        per_query_ndcg=per_query,
        mean_ndcg=mean,
        n_evaluated=len(per_query),
        n_skipped=n_skipped,
    )
