"""Exact cosine top-k (float32 screen, float64 rescoring) and nDCG@k evaluation."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .adapter import (AdapterModel, adapt_block, block_width, map_blocks, row_blocks,
                      transform, workers)
from .config import check_gain
from .data import EmbeddingTable, RelevanceSet, check_compatible, check_embeddings
from .errors import DataError
from .io import EmbeddingFile, Stage, scan_embeddings
from .objectives import NORM_EPS, cosine_scores, unit_rows

# the query blocks' budget at 8 bytes a (query, column) pair, which their
# float32 screen scores take half of, shared by the workers of map_blocks: 32
# MiB is 209 queries against a 20k corpus on one worker, 104 a block on two;
# also the float64 unit rows of the rescoring chunks, a side
SCORE_BLOCK_BYTES = 32 << 20
# norms whose float32 squares are screened: neither they nor the products
# with a unit row overflow float32, and gradual underflow stays far below
# float32 rounding (see screen_bound)
SCREEN_NORMS = (2.0**-32, 2.0**32)
# strided column groups whose maxima floor each query's screen (see _screen)
GROUPS = 1024


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


def _screen_rows(
    model: AdapterModel | None, block: np.ndarray, which: str
) -> tuple[np.ndarray, np.ndarray]:
    """A float32 row block's rows as transform writes them for the `which`
    side (the block itself with no model), and their float32 squared norms.
    Each row's square depends on that row alone, so the blocks give the bits
    of one pass over the whole side. Calls no traced name, so a worker of
    map_blocks may run it."""
    if model is not None:
        block = adapt_block(model, block, which)
    with np.errstate(over="ignore"):
        return block, np.einsum("ij,ij->i", block, block)


@dataclass(frozen=True, eq=False)
class Side:
    """One side of a ranking: a table's names, encoder tag and dim, and the
    float32 rows that ranked_lists scores for it, those that transform
    writes for `which` with `model` (the table's own rows with no model),
    with their float32 squared norms. read_side builds one from a file
    without holding the file's rows whole."""

    names: Sequence[str]
    encoder_tag: str
    dim: int
    rows: np.ndarray
    squares: np.ndarray
    model: AdapterModel | None
    which: str

    def __len__(self) -> int:
        return len(self.names)

    @cached_property
    def _index(self) -> frozenset[str]:
        return frozenset(self.names)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._index

    @classmethod
    def of(cls, table: EmbeddingTable, model: AdapterModel | None, which: str) -> "Side":
        """A table's side, built in transform's row blocks on the threads of
        map_blocks; the adapt's DataError is raised."""
        x = table.vectors
        rows = x if model is None else np.empty_like(x)
        squares = np.empty(len(x), dtype=np.float32)

        def run(at: slice) -> None:
            adapted, squares[at] = _screen_rows(model, x[at], which)
            if model is not None:
                rows[at] = adapted

        map_blocks(run, row_blocks(len(x), block_width(table.dim, model)), workers())
        return cls(table.names, table.encoder_tag, table.dim, rows, squares, model, which)


def read_side(path: str | Path, model: AdapterModel | None, which: str) -> Side:
    """The Side of read_embeddings(path) for model and which, built by
    io.scan_embeddings with an adapt-and-norm stage: each block is read,
    checked and turned into its rows and squares on a worker, so the file's
    rows are never held whole beside them. A model whose dim the file does
    not share is refused before any block is read; then the reader's faults
    are raised, and then the adapt's."""
    rows: list[np.ndarray] = []  # the side's rows and squares, once the file's size has passed

    def start() -> Stage:
        rows.extend([np.empty((src.count, src.dim), dtype=np.float32),
                     np.empty(src.count, dtype=np.float32)])

        def stage(at: slice, block: np.ndarray) -> None:
            rows[0][at], rows[1][at] = _screen_rows(model, block, which)
        return stage

    with open(path, "rb") as f:
        src = EmbeddingFile(f, path)
        check_compatible({which: src}, model, force=True)
        names = scan_embeddings(src, block_width(src.dim, model), start)
    return Side(names, src.encoder_tag, src.dim, *rows, model, which)


def _side(table: EmbeddingTable | Side, model: AdapterModel | None, which: str) -> Side:
    """The Side that ranked_lists scores for a table, or a Side given, which
    must have been built for this model and side."""
    if not isinstance(table, Side):
        return Side.of(table, model, which)
    if table.model is not model or (model is not None and table.which != which):
        raise ValueError(f"the {which} side was built for another model or side")
    return table


def score_all(
    q_table: EmbeddingTable,
    c_table: EmbeddingTable,
    model: AdapterModel | None = None,
    force: bool = False,
) -> np.ndarray:
    """Dense (n_q, n_c) float64 cosine score matrix on the rows that
    transform writes (the tables' own rows with no model): the dense
    reference for the top k that ranked_lists returns."""
    check_compatible({"query": q_table, "corpus": c_table}, model, force)
    return cosine_scores(*(t.vectors if model is None else transform(model, t.vectors, which)
                           for t, which in ((q_table, "query"), (c_table, "corpus"))))


def check_k(k: int | None, n: float = math.inf) -> float:
    """The entries a top k of n keeps: n for k None, else min(k, n). DataError for k < 1."""
    if k is not None and k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    return n if k is None else min(k, n)


def _rank(
    cids: list[str], r: np.ndarray, j: np.ndarray, scores: np.ndarray, k: int, n_q: int
) -> list[list[tuple[str, float]]]:
    """Each of n_q queries' top k of its candidates (cids[j], score), for the
    candidate pairs (query r, column j) with those scores: by descending
    score, ties broken by ascending id in Python string order.

    One np.lexsort orders all the pairs by (query, -score, id rank), where
    the id rank is taken among the columns in j; each query's run is then
    cut at k. The id ranks come from a Python sort of the distinct columns'
    names, one reference a column.
    """
    cols, inverse = np.unique(j, return_inverse=True)
    names = [cids[c] for c in cols.tolist()]
    id_rank = np.empty(len(cols), dtype=np.intp)
    id_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(cols))
    order = np.lexsort((id_rank[inverse.reshape(-1)], -scores, r))
    starts = np.searchsorted(r[order], np.arange(n_q))
    counts = np.diff(starts, append=len(order))
    order = order[np.arange(len(order)) - np.repeat(starts, counts) < k]
    counts = np.minimum(counts, k)
    entries = list(zip([cids[c] for c in j[order].tolist()], scores[order].tolist()))
    ends = np.cumsum(counts).tolist()
    return [entries[lo:hi] for lo, hi in zip([0] + ends, ends)]


def rank_candidates(
    corpus_ids: list[str], scores: np.ndarray, k: int | None = None
) -> list[tuple[str, float]]:
    """Top k candidates by descending score, ties broken by ascending id:
    the first k of np.lexsort((ids, -scores)) for finite scores, with ids
    compared in Python string order (see _rank). k=None keeps every
    candidate, as a k at or beyond their number does.
    """
    scores = np.asarray(scores)
    n = len(scores)
    return _rank(corpus_ids, np.zeros(n, np.intp), np.arange(n), scores, check_k(k, n), 1)[0]


def screen_bound(d: int) -> float:
    """Largest gap, at dimension d, by which a column the screen drops can
    trail the k-th screen score and still reach the float64 top k; columns
    within it of the k-th screen score are rescored (see ranked_lists).

    Let c be the exact cosine of two float32 rows q and x, u = 2**-24 and
    v = 2**-53 the unit roundoffs of float32 and float64, and
    g(m, w) = m*w / (1 - m*w) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1). An inner product of length d in any
    summation order, BLAS included, is x.y + e with |e| <= g(d, w)|x|.|y|;
    a norm's inverse square root carries a relative error within g(d, w);
    a product of factors (1 + t_i), each |t_i| <= g(m_i, w), is
    1 + t with |t| <= g(sum m_i, w). Both errors below are of that form,
    times sum |q_i x_i| / (|q| |x|) <= 1:

    - The screen score: each side's float32 sum of squares and inverse
      square root, rounded twice (d + 2 units a side); the unit query
      component (1); the float32 product with the raw corpus row (d); and
      the column's scale (1). Only rows whose float32 norm lies in
      SCREEN_NORMS are screened, and on them gradual underflow adds less
      than d * 2**-85 < u in all: |screen - c| <= E32 = g(3d + 7, u).
    - The float64 score (unit_rows, then a float64 dot product): each
      side's norm, square root and division (d + 2 a side) and the dot
      product (d); clipping to [-1, 1] only moves it towards c:
      |score - c| <= E64 = g(3d + 4, v).

    So a screen score is within E = E32 + E64 of its float64 score. If t is
    the k-th screen score of a query, the k columns at or above t score at
    least t - E in float64, and a column whose screen score is below
    t - 2E scores below t - E, strictly below all k of them: it is neither
    in the float64 top k nor tied with its k-th score. (Degenerate rows
    screen and score exactly 0; wild rows are not screened, see
    _screen_side.) The bound is 2E,
    1.4e-4 at d = 384, 4.7e-5 at d = 128 and 2.4e-5 at d = 64; it is
    infinite, so that every column is rescored, once g is no longer small.
    """
    m32 = (3 * d + 7) * 2.0**-24
    if m32 >= 0.5:
        return math.inf
    m64 = (3 * d + 4) * 2.0**-53
    return 2.0 * (m32 / (1.0 - m32) + m64 / (1.0 - m64))


def _screen_side(side: Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A side's rows, their screen scales, and the rows the screen cannot
    score, from the side's squared norms.

    A row's scale is its float32 inverse norm when that norm lies in
    SCREEN_NORMS. Any other row takes its norm from unit_rows: a degenerate
    one (norm below NORM_EPS) has scale 0, so it screens as 0 as it scores;
    the rest are wild, with scale 0, and are always rescored.
    """
    rows, squares = side.rows, side.squares
    lo, hi = SCREEN_NORMS
    tame = (squares >= lo * lo) & (squares <= hi * hi)
    scale = np.zeros(len(rows), dtype=np.float32)
    scale[tame] = 1 / np.sqrt(squares[tame])
    wild = ~tame
    wild[wild] = unit_rows(rows[wild].astype(np.float64))[1] >= NORM_EPS
    return rows, scale, wild


def _screen(q_side, c_side, rows: slice, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (query, column) pairs that the queries in rows rescore, as two
    arrays in ascending (query, column) order, with each query counted from
    rows.start: the columns whose float32 cosine is at least the query's
    floor, each wild column, and every column of a wild query. With k = n_c,
    the largest k that ranked_lists passes, every column survives.

    The floor is a lower bound on the k-th screen score t, less
    screen_bound. Column j < m * G belongs to the strided group j mod G,
    where G = min(n_c, max(GROUPS, k)) and m = n_c // G; the last
    n_c - m * G columns stand alone (with m = 1, every column does). The
    group maxima and the lone columns are screen scores of distinct columns,
    so the k-th largest of them is at most t, and the floor, that value less
    screen_bound, keeps a superset of the columns within screen_bound of t:
    screen_bound's argument still excludes every column dropped. Only the
    groups whose maximum reaches the floor are searched for survivors, so
    past the product and the group maxima (an elementwise maximum over m
    rows of G contiguous scores) the work grows with G and the survivors,
    not with the block. Wild columns screen as -inf for the floor and
    survive through it at +inf.
    """
    q_rows, q_scale, q_wild = q_side
    c_rows, c_scale, c_wild = c_side
    n_q, n_c = rows.stop - rows.start, len(c_rows)
    with np.errstate(over="ignore", invalid="ignore"):
        screen = (q_rows[rows] * q_scale[rows, None]) @ c_rows.T
        screen *= c_scale
    wild = np.flatnonzero(c_wild)
    screen[:, wild] = -np.inf
    g = min(n_c, max(GROUPS, k))
    grouped = n_c // g * g
    tops = screen[:, :grouped].reshape(n_q, -1, g).max(axis=1)
    pool = np.concatenate([tops, screen[:, grouped:]], axis=1)
    kth = np.partition(pool, pool.shape[1] - k, axis=1)[:, pool.shape[1] - k]
    # rounded outwards, so each floor is at most kth - screen_bound
    margin = np.nextafter(np.float32(screen_bound(c_rows.shape[1])), np.float32(np.inf))
    floor = np.nextafter(kth - margin, np.float32(-np.inf))
    floor[q_wild[rows]] = -np.inf
    screen[:, wild] = np.inf
    tops[:, wild[wild < grouped] % g] = np.inf
    hit_q, hit_g = np.divmod(np.flatnonzero(tops >= floor[:, None]), g)
    pairs = (hit_q * n_c + hit_g)[:, None] + np.arange(0, grouped, g)
    pairs = pairs[screen.reshape(-1)[pairs] >= floor[hit_q, None]]
    lone_q, lone_j = np.nonzero(screen[:, grouped:] >= floor[:, None])
    pairs = np.concatenate([pairs, lone_q * n_c + grouped + lone_j])
    pairs.sort()
    return np.divmod(pairs, n_c)


def _rescore(
    q_rows: np.ndarray, c_rows: np.ndarray, r: np.ndarray, j: np.ndarray, budget: int
) -> np.ndarray:
    """Float64 cosine of each pair of rows (q_rows[r], c_rows[j]): both rows
    normalised by unit_rows, multiplied and summed, then clipped to [-1, 1].
    A pair's score depends on its two rows alone. r is ascending and takes
    every value between its ends, so a chunk of pairs normalises each of its
    query rows once; the chunks' float64 unit rows hold at most budget bytes
    a side."""
    scores = np.empty(len(r))
    step = max(1, budget // (8 * q_rows.shape[1]))
    for lo in range(0, len(r), step):
        qr, cr = r[lo : lo + step], j[lo : lo + step]
        pairs = unit_rows(q_rows[qr[0] : qr[-1] + 1].astype(np.float64))[0][qr - qr[0]]
        pairs *= unit_rows(c_rows[cr].astype(np.float64))[0]
        scores[lo : lo + step] = pairs.sum(axis=1)
    return np.clip(scores, -1.0, 1.0, out=scores)


def ranked_lists(
    q_table: EmbeddingTable | Side,
    c_table: EmbeddingTable | Side,
    model: AdapterModel | None = None,
    k: int | None = None,
    force: bool = False,
) -> list[RankedList]:
    """Top k of each query by float64 cosine, ties broken by ascending id, on
    the float32 rows that transform writes (or the tables' own rows without
    a model): the entries equal, bit for bit, those of ranked_lists without
    a model over the tables that transform writes.

    Screen in float32, rescore in float64. Each query block (see row_blocks)
    takes one float32 product with the corpus rows, scaled to cosines by
    float32 inverse norms. Every column whose screen score is at least the
    query's floor survives; the floor is at most t - screen_bound(d), where
    t is the query's k-th screen score, and is found from strided group
    maxima without partitioning the block (see _screen). screen_bound
    derives why no other column can be in the float64 top k or tie its k-th
    score. Only the survivors are scored in float64, from their rows
    normalised as unit_rows does, and one lexsort orders the block's
    survivors (see _rank). k=None, as any k at or beyond the corpus size,
    takes the same path with k = n_c, whose floor keeps every column. The
    top k is therefore the first k of a float64 lexsort of every column;
    each score is a float64 product of the two unit rows, which may differ
    from score_all's matrix product in the last bits, and depends on its two
    rows alone, so the survivors beyond those within screen_bound of t
    change no output.

    Each side is adapted and its squared norms taken once, in transform's
    row blocks on the threads of map_blocks (see Side.of); a Side given, as
    read_side builds from a file, is used as it is. The query blocks
    then run on the threads of map_blocks, in block order. A block's
    entries do not depend on its size, so neither do the lists on the
    thread count. Names are read from the sides uncopied, so a table read
    from a file decodes only the surviving columns' ids and the queries'.

    No float64 copy of either side is built. With w workers, a query block
    holds at most SCORE_BLOCK_BYTES / w of float32 screen scores and
    survivor indices at 8 bytes a pair (one query at least), and its
    survivors are rescored in chunks of the same size. Beside that budget,
    _rank holds one reference a distinct surviving column, up to n_c a block
    in flight on a corpus of one repeated row, where every column survives.
    So memory grows with the corpus size, not with n_q * n_c.
    """
    k = check_k(k, len(c_table))
    check_compatible({"query": q_table, "corpus": c_table}, model, force)
    q, c = _side(q_table, model, "query"), _side(c_table, model, "corpus")
    q_side, c_side = _screen_side(q), _screen_side(c)
    qids, cids = q.names, c.names
    n_workers = workers()
    budget = SCORE_BLOCK_BYTES // n_workers

    def rank_block(rows: slice) -> list[RankedList]:
        r, j = _screen(q_side, c_side, rows, k)
        scores = _rescore(q_side[0][rows], c_side[0], r, j, budget)
        return list(map(RankedList, qids[rows],
                        _rank(cids, r, j, scores, k, rows.stop - rows.start)))

    blocks = row_blocks(len(qids), len(cids), budget)
    return [ranked for lists in map_blocks(rank_block, blocks, n_workers) for ranked in lists]


def ndcg_at_k(
    ranked: list[tuple[str, float]],
    grades: dict[str, float],
    k: int,
    gain: str = "standard",
) -> float:
    """nDCG at rank k for one query, with gain 2^y - 1 ("standard") or 2^y
    ("paper-literal") and discount log2(rank + 2). grades maps corpus_id ->
    relevance; missing ids are grade 0. Raises DataError when no grade is
    positive.

    The ideal list is the positive grades, descending, padded with zero
    grades to the ranked list's length: a zero grade gains 1 under
    paper-literal gain, 0 under standard. Both DCGs are added left to right
    in one loop, not by sum(), which rounds otherwise from Python 3.12 on.
    """
    check_k(k)
    check_gain(gain)
    ideal = sorted((y for y in grades.values() if y > 0), reverse=True)[:k]
    if not ideal:
        raise DataError("nDCG undefined for a query with no positive grade")
    ranked_grades = [grades.get(cid, 0.0) for cid, _ in ranked[:k]]
    ideal += [0.0] * (len(ranked_grades) - len(ideal))
    shift = 1.0 if gain == "standard" else 0.0
    dcg = idcg = 0.0
    for rank, y in enumerate(ideal):
        discount = math.log2(rank + 2)
        idcg += (2.0**y - shift) / discount
        if rank < len(ranked_grades):
            dcg += (2.0 ** ranked_grades[rank] - shift) / discount
    return dcg / idcg


def evaluate(
    q_table: EmbeddingTable | Side,
    c_table: EmbeddingTable | Side,
    rels: RelevanceSet,
    model: AdapterModel | None = None,
    k: int = 10,
    gain: str = "standard",
    force: bool = False,
) -> RetrievalReport:
    """Mean nDCG@k over every query in q_table with at least one positive;
    each qrels row of a query in q_table must name embeddings that exist.
    Each query's nDCG is taken from its list in ranked_lists: screened in
    float32, rescored in float64, and equal to the first k of a float64
    sort of every corpus row (screen_bound says why). The sides are adapted
    by transform, so the report equals, bit for bit, evaluate without a
    model over the tables that transform writes. Either table may be a
    Side built for model (see ranked_lists)."""
    check_k(k)
    check_gain(gain)
    check_embeddings(q_table, c_table, rels.restricted_to(q_table.names))
    per_query: dict[str, float] = {}
    n_skipped = 0
    for ranked in ranked_lists(q_table, c_table, model, k, force):
        grades = rels.positives_for(ranked.query_id)
        if grades:
            per_query[ranked.query_id] = ndcg_at_k(ranked.entries, grades, k, gain)
        else:
            n_skipped += 1
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
