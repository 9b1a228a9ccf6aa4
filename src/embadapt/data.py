"""Domain types: text items, relevance judgments, and embedding tables."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, TagMismatchError


@dataclass(frozen=True)
class TextItem:
    id: str
    text: str = ""
    title: str | None = None

    def __post_init__(self):
        if not self.id:
            raise DataError("item id must be non-empty")


class RelevanceSet:
    """Sparse positive relevance triplets (query_id, corpus_id, grade).

    Any pair absent from the set has implicit grade 0. A grade-0 row is that
    same implicit grade, so it is checked and then dropped: it does not make
    its query a judged query and is never checked against a corpus.
    """

    def __init__(self, triplets: Iterable[tuple[str, str, float]]):
        self._by_query: dict[str, dict[str, float]] = {}
        for qid, cid, grade in triplets:
            grade = float(grade)
            if not math.isfinite(grade):
                raise DataError(f"non-finite grade for ({qid!r}, {cid!r}): {grade}")
            if grade < 0:
                raise DataError(f"negative grade for ({qid!r}, {cid!r}): {grade}")
            if grade == 0.0:
                continue
            graded = self._by_query.setdefault(qid, {})
            if cid in graded:
                raise DataError(f"duplicate triplet for ({qid!r}, {cid!r})")
            graded[cid] = grade

    def __len__(self) -> int:
        return sum(map(len, self._by_query.values()))

    @property
    def triplets(self) -> list[tuple[str, str, float]]:
        """Every (query_id, corpus_id, grade), each grade positive, a query's
        rows together, in order of each query's first row."""
        return [(q, c, y) for q, graded in self._by_query.items() for c, y in graded.items()]

    @property
    def query_ids(self) -> list[str]:
        """The queries with at least one positive grade."""
        return list(self._by_query.keys())

    def positives_for(self, query_id: str) -> dict[str, float]:
        return dict(self._by_query.get(query_id, {}))

    def restricted_to(self, query_ids: Iterable[str]) -> "RelevanceSet":
        keep = set(query_ids)
        return RelevanceSet((q, c, y) for q, c, y in self.triplets if q in keep)


class EmbeddingTable:
    """id-indexed dense float32 vectors from a frozen encoder."""

    def __init__(self, ids: Sequence[str], vectors: np.ndarray, encoder_tag: str = ""):
        # keep an array that asarray has just made, or a read-only one that owns
        # its memory (read_embeddings returns one); copy any other array once,
        # so that a caller's later writes do not reach the table
        array = np.asarray(vectors, dtype=np.float32)
        copy = not array.flags.owndata or (array is vectors and array.flags.writeable)
        vectors = array.copy() if copy else array
        if vectors.ndim != 2:
            raise DataError("vectors must be a 2-D array")
        if len(ids) != vectors.shape[0]:
            raise DataError("ids and vectors disagree in length")
        if vectors.shape[1] < 1:
            raise DataError("embedding dimension must be positive")
        if not np.all(np.isfinite(vectors)):
            raise DataError("embedding vectors must be finite")
        self._ids = list(ids)
        if len(set(self._ids)) != len(self._ids):
            seen: set[str] = set()
            for item_id in self._ids:
                if item_id in seen:
                    raise DataError(f"duplicate embedding id: {item_id!r}")
                seen.add(item_id)
        self._vectors = vectors
        self._vectors.flags.writeable = False
        self.encoder_tag = encoder_tag

    def __len__(self) -> int:
        return len(self._ids)

    @cached_property
    def _index(self) -> dict[str, int]:
        """Row of each id, built on the first lookup: ranking and transform
        never look an id up."""
        return dict(zip(self._ids, range(len(self._ids))))

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

    def row_indices(self, item_ids: Sequence[str]) -> np.ndarray:
        """Row of each id in `vectors`, as an intp array; KeyError for an unknown id."""
        return np.array([self._index[i] for i in item_ids], dtype=np.intp)

    def rows_for(self, item_ids: Sequence[str]) -> np.ndarray:
        return self._vectors[self.row_indices(item_ids)]

    def _with_rows(self, vectors: np.ndarray, encoder_tag: str) -> "EmbeddingTable":
        """A table of this table's ids, sharing their checked list, and of
        `vectors`, kept uncopied and made read-only. Only their dtype and
        shape are checked: the caller vouches that the rows are finite, as
        transform's output is, and that nothing else writes to them."""
        if vectors.dtype != np.float32 or vectors.shape != self._vectors.shape:
            raise DataError(f"rows {vectors.dtype} {vectors.shape} do not match "
                            f"the table's float32 {self._vectors.shape}")
        vectors.flags.writeable = False
        table = object.__new__(EmbeddingTable)
        table._ids, table._vectors, table.encoder_tag = self._ids, vectors, encoder_tag
        return table

    def subset(self, item_ids: Sequence[str]) -> "EmbeddingTable":
        return EmbeddingTable(list(item_ids), self.rows_for(item_ids), self.encoder_tag)


def check_embeddings(
    q_table: EmbeddingTable, c_table: EmbeddingTable, *rel_sets: RelevanceSet
) -> None:
    """Raise DataError unless every judged query id is in q_table and every
    judged corpus id is in c_table; a RelevanceSet keeps positive grades only."""
    dangling = [
        (qid, cid)
        for rels in rel_sets
        for qid, cid, _ in rels.triplets
        if qid not in q_table or cid not in c_table
    ]
    if dangling:
        raise DataError(
            f"{len(dangling)} qrels rows reference missing embeddings, "
            f"first: {dangling[0]}"
        )


# transform marks the tag of a table it writes with the side it adapted the
# rows as and the CRC32 of the checkpoint: "<encoder tag>@adapted:corpus:1a2b3c4d"
_ADAPTED = re.compile(r"(.*)@adapted:(query|corpus):([0-9a-f]{8})", re.DOTALL)


def adapted_tag(encoder_tag: str, side: str, checkpoint_crc: int) -> str:
    """The tag of a table whose rows a checkpoint adapted as `side`."""
    return f"{encoder_tag}@adapted:{side}:{checkpoint_crc:08x}"


def _provenance(tag: str) -> tuple[str, str | None, str | None]:
    """(encoder tag, side, checkpoint CRC32) of a tag; no side or CRC for a
    table that transform did not write."""
    m = _ADAPTED.fullmatch(tag)
    return (tag, None, None) if m is None else (m[1], m[2], m[3])


def as_side(tag: str, side: str) -> str:
    """tag with the side of its adapted mark, if it has one, set to side."""
    base, old, crc = _provenance(tag)
    return tag if old is None else adapted_tag(base, side, int(crc, 16))


def check_compatible(
    tables: dict[str, EmbeddingTable], model=None, force: bool = False
) -> None:
    """Raise DataError unless the named tables, and the model when one is
    given, share one dim. The model is read only through `dim` and
    `encoder_tag`, and is the one that will be applied to the tables.

    Unless force is set, raise TagMismatchError unless:
    - they share one encoder tag once transform's mark is set aside;
    - every table carries the same mark: none, or one checkpoint's CRC32;
    - a table named "query" or "corpus" was adapted as that side, if at all;
    - no table is adapted when a model is given, which would adapt it twice.
    """
    sides = {**tables, **({"model": model} if model is not None else {})}

    def listed(attr):
        return ", ".join(f"{name} {getattr(side, attr)!r}" for name, side in sides.items())

    if len({side.dim for side in sides.values()}) > 1:
        raise DataError(f"dim does not match: {listed('dim')}")
    if force:
        return
    marks = {name: _provenance(side.encoder_tag) for name, side in sides.items()}
    if len({base for base, _, _ in marks.values()}) > 1:
        raise TagMismatchError(f"encoder tag does not match: {listed('encoder_tag')}")
    if len({marks[name][2] for name in tables}) > 1:
        raise TagMismatchError(f"tables were not adapted by one checkpoint: "
                               f"{listed('encoder_tag')}")
    for name in tables:
        _, side, crc = marks[name]
        if side is not None and name in ("query", "corpus") and side != name:
            raise TagMismatchError(f"{name} table was adapted as {side}: "
                                   f"{listed('encoder_tag')}")
        if crc is not None and model is not None:
            raise TagMismatchError(f"{name} table was already adapted by checkpoint {crc}, "
                                   f"and a model would adapt it twice: {listed('encoder_tag')}")


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
