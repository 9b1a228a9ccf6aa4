"""Domain types: text items, relevance judgments, and embedding tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class TextItem:
    id: str
    text: str = ""
    title: str | None = None

    def __post_init__(self):
        if not self.id:
            raise DataError("item id must be non-empty")


class ItemSet:
    """Ordered collection of TextItems with unique ids.

    Used for both query sets and corpus sets; immutable after construction.
    """

    def __init__(self, items: Iterable[TextItem]):
        self._items: tuple[TextItem, ...] = tuple(items)
        self._by_id: dict[str, TextItem] = {}
        for item in self._items:
            if item.id in self._by_id:
                raise DataError(f"duplicate item id: {item.id!r}")
            self._by_id[item.id] = item

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[TextItem]:
        return iter(self._items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._by_id

    def __getitem__(self, item_id: str) -> TextItem:
        return self._by_id[item_id]

    @property
    def ids(self) -> list[str]:
        return [item.id for item in self._items]


class RelevanceSet:
    """Sparse positive relevance triplets (query_id, corpus_id, grade).

    Any pair absent from the set has implicit grade 0.
    """

    def __init__(self, triplets: Iterable[tuple[str, str, float]]):
        self._grades: dict[tuple[str, str], float] = {}
        self._by_query: dict[str, dict[str, float]] = {}
        for qid, cid, grade in triplets:
            grade = float(grade)
            if grade < 0:
                raise DataError(f"negative grade for ({qid!r}, {cid!r}): {grade}")
            key = (qid, cid)
            if key in self._grades:
                raise DataError(f"duplicate triplet for ({qid!r}, {cid!r})")
            self._grades[key] = grade
            self._by_query.setdefault(qid, {})[cid] = grade

    def __len__(self) -> int:
        return len(self._grades)

    @property
    def triplets(self) -> list[tuple[str, str, float]]:
        return [(q, c, y) for (q, c), y in self._grades.items()]

    @property
    def query_ids(self) -> list[str]:
        return list(self._by_query.keys())

    @property
    def n_positive(self) -> int:
        return sum(1 for y in self._grades.values() if y > 0)

    def grade(self, query_id: str, corpus_id: str) -> float:
        return self._grades.get((query_id, corpus_id), 0.0)

    def grades_for(self, query_id: str) -> dict[str, float]:
        return dict(self._by_query.get(query_id, {}))

    def positives_for(self, query_id: str) -> dict[str, float]:
        return {c: y for c, y in self._by_query.get(query_id, {}).items() if y > 0}

    def restricted_to(self, query_ids: Iterable[str]) -> "RelevanceSet":
        keep = set(query_ids)
        return RelevanceSet(
            (q, c, y) for (q, c), y in self._grades.items() if q in keep
        )


class EmbeddingTable:
    """id-indexed dense float32 vectors from a frozen encoder."""

    def __init__(self, ids: Sequence[str], vectors: np.ndarray, encoder_tag: str = ""):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise DataError("vectors must be a 2-D array")
        if len(ids) != vectors.shape[0]:
            raise DataError("ids and vectors disagree in length")
        if vectors.shape[1] < 1:
            raise DataError("embedding dimension must be positive")
        if not np.all(np.isfinite(vectors)):
            raise DataError("embedding vectors must be finite")
        self._ids = list(ids)
        self._index = {}
        for i, item_id in enumerate(self._ids):
            if item_id in self._index:
                raise DataError(f"duplicate embedding id: {item_id!r}")
            self._index[item_id] = i
        self._vectors = vectors.copy()
        self._vectors.flags.writeable = False
        self.encoder_tag = encoder_tag

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._index

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    @property
    def vectors(self) -> np.ndarray:
        """Read-only (n, dim) float32 matrix in insertion order."""
        return self._vectors

    def vector(self, item_id: str) -> np.ndarray:
        return self._vectors[self._index[item_id]]

    def rows_for(self, item_ids: Sequence[str]) -> np.ndarray:
        idx = [self._index[i] for i in item_ids]
        return self._vectors[idx]

    def subset(self, item_ids: Sequence[str]) -> "EmbeddingTable":
        return EmbeddingTable(list(item_ids), self.rows_for(item_ids), self.encoder_tag)


@dataclass
class ValidationSummary:
    n_queries: int
    n_corpus: int
    n_positive: int
    dangling_query_ids: list[str] = field(default_factory=list)
    dangling_corpus_ids: list[str] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return not self.dangling_query_ids and not self.dangling_corpus_ids

    @property
    def trainable(self) -> bool:
        return self.accepted and self.n_positive > 0


def validate_dataset(
    queries: ItemSet, corpus: ItemSet, rels: RelevanceSet
) -> ValidationSummary:
    """Cross-check ids and count positives; dangling ids are reported, not raised."""
    dangling_q, dangling_c = [], []
    seen_q, seen_c = set(), set()
    for qid, cid, _ in rels.triplets:
        if qid not in queries and qid not in seen_q:
            dangling_q.append(qid)
            seen_q.add(qid)
        if cid not in corpus and cid not in seen_c:
            dangling_c.append(cid)
            seen_c.add(cid)
    return ValidationSummary(
        n_queries=len(queries),
        n_corpus=len(corpus),
        n_positive=rels.n_positive,
        dangling_query_ids=dangling_q,
        dangling_corpus_ids=dangling_c,
    )


def split_train_val(
    rels: RelevanceSet, ratio: float, seed: int
) -> tuple[RelevanceSet, RelevanceSet]:
    """Partition by query id so validation queries are fully unseen.

    All triplets of a query land on the same side. Deterministic given seed.
    """
    if not 0.0 < ratio < 1.0:
        raise DataError(f"ratio must be in (0, 1), got {ratio}")
    qids = sorted(rels.query_ids)
    if len(qids) < 2:
        raise DataError("need at least 2 distinct query ids to split")
    n_train = int(round(len(qids) * ratio))
    if n_train == 0 or n_train == len(qids):
        raise DataError(
            f"ratio {ratio} leaves one side empty for {len(qids)} queries"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(qids))
    train_ids = {qids[i] for i in perm[:n_train]}
    val_ids = {qids[i] for i in perm[n_train:]}
    return rels.restricted_to(train_ids), rels.restricted_to(val_ids)
