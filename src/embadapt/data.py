"""Domain types: text items, relevance judgments, and embedding tables."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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


def check_shape(count: int, dim: int) -> None:
    """An embedding table's rule for its shape: one row at least, dim >= 1."""
    if not count:
        raise DataError("an embedding table needs at least one row")
    if dim < 1:
        raise DataError("embedding dimension must be positive")


def check_finite(vectors: np.ndarray) -> None:
    """An embedding table's rule for its rows: every component finite."""
    if not np.all(np.isfinite(vectors)):
        raise DataError("embedding vectors must be finite")


def check_unique(ids: Sequence[str]) -> None:
    """An embedding table's rule for its ids; names the first repeated one."""
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for item_id in ids:
            if item_id in seen:
                raise DataError(f"duplicate embedding id: {item_id!r}")
            seen.add(item_id)


# the fingerprint of a string of bytes b is sum(b[t] * FP_BASE**t) modulo
# 2**64, xor its length times FP_LENGTH; FP_BASE is odd, so it has an inverse
FP_BASE, FP_LENGTH = 0x9E3779B97F4A7C15, 0xD6E8FEB86659FD93
# the bytes of whole strings fingerprinted at once, or the longest string
FP_CHUNK = 1 << 14


def fingerprints(raw: bytes, ends: np.ndarray) -> np.ndarray:
    """The uint64 fingerprint of each string of raw, those that end at the
    ascending offsets ends (int64), the first starting at 0: equal strings
    have equal fingerprints.

    Each chunk of whole strings, FP_CHUNK bytes at most unless one string
    is longer, takes one prefix sum of byte * FP_BASE**offset; a string's
    fingerprint is the difference of two sums shifted back to its start.
    So memory beyond the result is a few uint64 arrays of one chunk, and
    the work is numpy's, which runs without the interpreter lock.
    """
    starts = np.concatenate([[0], ends[:-1]])
    lengths = ends - starts
    span = min(max(FP_CHUNK, int(lengths.max(initial=0))), len(raw))
    # FP_BASE**t and FP_BASE**-t up to a chunk's length (uint64 products wrap)
    steps = np.full((2, span + 1), [[FP_BASE], [pow(FP_BASE, -1, 2**64)]], np.uint64)
    steps[:, 0] = 1
    powers, inverse = np.cumprod(steps, axis=1)
    out = np.empty(len(ends), np.uint64)
    sums = np.zeros(span + 1, np.uint64)
    lo = 0
    while lo < len(ends):
        first = int(starts[lo])
        hi = int(np.searchsorted(ends, first + span, side="right"))
        size = int(ends[hi - 1]) - first
        chunk = np.frombuffer(raw, np.uint8, size, first).astype(np.uint64)
        chunk *= powers[:size]
        np.cumsum(chunk, out=sums[1 : size + 1])
        at, to = starts[lo:hi] - first, ends[lo:hi] - first
        out[lo:hi] = (sums[to] - sums[at]) * inverse[at]
        lo = hi
    out ^= lengths.astype(np.uint64) * np.uint64(FP_LENGTH)
    return out


class IdBlock(Sequence[str]):
    """The ids of a .sadp file as it stores them: one block of UTF-8 bytes,
    split by their lengths, each valid UTF-8 on its own (io checks it). An
    id is decoded when it is asked for; iterating decodes them all in one
    pass, and they are kept from then on."""

    def __init__(self, raw: bytes, lengths: np.ndarray):
        self._raw = raw
        self._ends = np.cumsum(lengths, dtype=np.int64)
        self._all: list[str] | None = None

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if self._all is not None:
            return self._all[i]
        i = range(len(self))[i]  # an IndexError past either end
        start = int(self._ends[i - 1]) if i else 0
        return self._raw[start : int(self._ends[i])].decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        if self._all is None:
            # 0xFF is in no valid UTF-8 and no valid UTF-8 decodes to a
            # surrogate, so a 0xFF put between the ids decodes to the one U+DCFF there is
            marked = np.insert(np.frombuffer(self._raw, np.uint8), self._ends[:-1], 0xFF)
            text = marked.tobytes().decode("utf-8", "surrogateescape")
            self._all = text.split("\udcff") if len(self) else []
        return iter(self._all)

    def check_unique(self) -> None:
        """check_unique on the bytes: the same verdict and message, with no id
        decoded unless it is repeated. Sorted fingerprints find the candidates
        at numpy's speed; ids of equal fingerprint are compared byte for byte."""
        fp = fingerprints(self._raw, self._ends)
        ordered = np.sort(fp)
        if not (ordered[1:] == ordered[:-1]).any():
            return
        order = np.argsort(fp, kind="stable")  # the ids of one fingerprint in file order
        same = fp[order][1:] == fp[order][:-1]
        shared = order[np.concatenate([same, [False]]) | np.concatenate([[False], same])]
        starts = np.concatenate([[0], self._ends[:-1]])
        seen: set[bytes] = set()
        first = len(self)
        # a repeated id follows its first instance in its fingerprint's run
        for i in shared.tolist():
            raw = self._raw[int(starts[i]) : int(self._ends[i])]
            if raw in seen:
                first = min(first, i)
            seen.add(raw)
        if first < len(self):
            raise DataError(f"duplicate embedding id: {self[first]!r}")


class EmbeddingTable:
    """id-indexed dense float32 vectors from a frozen encoder, one row at least."""

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
        check_shape(*vectors.shape)
        check_finite(vectors)
        self._ids: Sequence[str] = tuple(ids)
        check_unique(self._ids)
        self._vectors = vectors
        self._vectors.flags.writeable = False
        self.encoder_tag = encoder_tag

    @classmethod
    def _checked(cls, ids: IdBlock, vectors: np.ndarray, encoder_tag: str) -> "EmbeddingTable":
        """A table of the ids and the read-only rows of a .sadp file, which
        io's reader has checked as __init__ checks a table's."""
        table = cls.__new__(cls)
        table._ids, table._vectors, table.encoder_tag = ids, vectors, encoder_tag
        return table

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
    def names(self) -> Sequence[str]:
        """The ids, uncopied and read-only; a table read from a file decodes
        only those asked for (see IdBlock)."""
        return self._ids

    @property
    def vectors(self) -> np.ndarray:
        """Read-only (n, dim) float32 matrix in insertion order."""
        return self._vectors

    def row_indices(self, item_ids: Sequence[str]) -> np.ndarray:
        """Row of each id in `vectors`, as an intp array; KeyError for an unknown id."""
        return np.array([self._index[i] for i in item_ids], dtype=np.intp)

    def rows_for(self, item_ids: Sequence[str]) -> np.ndarray:
        return self._vectors[self.row_indices(item_ids)]

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
    given, share one dim. Tables and model are read only through `dim` and
    `encoder_tag` (transform passes an open io.EmbeddingFile as its table),
    and the model is the one that will be applied to the tables.

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


def check_ratio(ratio: float) -> None:
    if not 0.0 < ratio < 1.0:
        raise DataError(f"ratio must be in (0, 1), got {ratio}")


def split_train_val(
    rels: RelevanceSet, ratio: float, seed: int
) -> tuple[RelevanceSet, RelevanceSet]:
    """Partition by query id so validation queries are fully unseen.

    All triplets of a query land on the same side. Deterministic given seed.
    """
    check_ratio(ratio)
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
