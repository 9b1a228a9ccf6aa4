"""Exact cosine top-k (float32 screen, float64 rescoring) and nDCG@k evaluation."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .adapter import AdapterModel, is_identity, row_blocks, transform
from .config import check_gain
from .data import EmbeddingTable, RelevanceSet, check_compatible, check_embeddings
from .errors import DataError
from .objectives import NORM_EPS, cosine_scores, unit_rows

# a query block's budget at 8 bytes a (query, column) pair, which its float32
# screen scores take half of: 32 MiB is 209 queries against a 20k corpus; also
# the float64 unit rows of one rescoring chunk, a side
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


def _rows(table: EmbeddingTable, model: AdapterModel | None, which: str) -> np.ndarray:
    """The float32 rows that transform writes for the `which` side, or the
    table's own rows, uncopied, when model is None or the identity."""
    if model is None or is_identity(model, which):
        return table.vectors
    return transform(model, table.vectors, which)


def score_all(
    q_table: EmbeddingTable,
    c_table: EmbeddingTable,
    model: AdapterModel | None = None,
    force: bool = False,
) -> np.ndarray:
    """Dense (n_q, n_c) float64 cosine score matrix on the rows of _rows:
    the dense reference for the top k that ranked_lists returns."""
    check_compatible({"query": q_table, "corpus": c_table}, model, force)
    return cosine_scores(_rows(q_table, model, "query"), _rows(c_table, model, "corpus"))


def _check_k(k: int | None, n: float = math.inf) -> int | None:
    """k, or None when k is None or at least n, the number of candidates:
    a k that keeps them all. ValueError for a k below 1."""
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return None if k is None or k >= n else k


def _rank(
    cids: list[str], r: np.ndarray, j: np.ndarray, scores: np.ndarray, k: int | None, n_q: int
) -> list[list[tuple[str, float]]]:
    """Each of n_q queries' top k of its candidates (cids[j], score), for the
    candidate pairs (query r, column j) with those scores: by descending
    score, ties broken by ascending id in Python string order. k=None keeps
    every candidate.

    One np.lexsort orders all the pairs by (query, -score, id rank), where
    the id rank is taken among the columns in j; each query's run is then
    cut at k.
    """
    cols, inverse = np.unique(j, return_inverse=True)
    names = [cids[c] for c in cols.tolist()]
    id_rank = np.empty(len(cols), dtype=np.intp)
    id_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(cols))
    order = np.lexsort((id_rank[inverse.reshape(-1)], -scores, r))
    starts = np.searchsorted(r[order], np.arange(n_q))
    counts = np.diff(starts, append=len(order))
    if k is not None:
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
    compared in Python string order (see _rank). k=None, or k at least the
    number of candidates, returns the full order.
    """
    scores = np.asarray(scores)
    n = len(scores)
    k = _check_k(k, n)
    return _rank(corpus_ids, np.zeros(n, dtype=np.intp), np.arange(n), scores, k, 1)[0]


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


def _screen_side(
    table: EmbeddingTable, model: AdapterModel | None, which: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of _rows, their screen scales, and the rows the screen
    cannot score.

    A row's scale is its float32 inverse norm when that norm lies in
    SCREEN_NORMS. Any other row takes its norm from unit_rows: a degenerate
    one (norm below NORM_EPS) has scale 0, so it screens as 0 as it scores;
    the rest are wild, with scale 0, and are always rescored.
    """
    rows = _rows(table, model, which)
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->i", rows, rows)
    lo, hi = SCREEN_NORMS
    tame = (squares >= lo * lo) & (squares <= hi * hi)
    scale = np.zeros(len(rows), dtype=np.float32)
    scale[tame] = 1 / np.sqrt(squares[tame])
    wild = ~tame
    wild[wild] = unit_rows(rows[wild].astype(np.float64))[1] >= NORM_EPS
    return rows, scale, wild


def _screen(q_side, c_side, rows: slice, k: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The (query, column) pairs that the queries in rows rescore, as two
    arrays in ascending (query, column) order, with each query counted from
    rows.start: the columns whose float32 cosine is at least the query's
    floor, each wild column, and every column of a wild query. With k None,
    as ranked_lists passes a k at least the corpus size, every column.

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
    if k is None:
        return np.divmod(np.arange(n_q * n_c), n_c)
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


def _rescore(q_rows: np.ndarray, c_rows: np.ndarray, r: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Float64 cosine of each pair of rows (q_rows[r], c_rows[j]): both rows
    normalised by unit_rows, multiplied and summed, then clipped to [-1, 1].
    A pair's score depends on its two rows alone. r is ascending and takes
    every value between its ends, so a chunk of pairs normalises each of its
    query rows once; the chunks' float64 unit rows hold at most
    SCORE_BLOCK_BYTES a side."""
    scores = np.empty(len(r))
    step = max(1, SCORE_BLOCK_BYTES // (8 * q_rows.shape[1]))
    for lo in range(0, len(r), step):
        qr, cr = r[lo : lo + step], j[lo : lo + step]
        pairs = unit_rows(q_rows[qr[0] : qr[-1] + 1].astype(np.float64))[0][qr - qr[0]]
        pairs *= unit_rows(c_rows[cr].astype(np.float64))[0]
        scores[lo : lo + step] = pairs.sum(axis=1)
    return np.clip(scores, -1.0, 1.0, out=scores)


def ranked_lists(
    q_table: EmbeddingTable,
    c_table: EmbeddingTable,
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
    survivors (see _rank). k=None, or a k at least the corpus size, ranks
    every column. The top k is therefore the first k of a float64
    lexsort of every column, and each score is a float64 product of the two
    unit rows, which may differ from score_all's matrix product in the last
    bits. A pair's score depends on its two rows alone, so the survivors
    beyond those within screen_bound of t change no output.

    No float64 copy of either side is built. A query block holds at most
    SCORE_BLOCK_BYTES of float32 screen scores and survivor indices at 8
    bytes a pair (one query at least), and the survivors are rescored in
    chunks of the same size, so memory grows with the corpus size, not with
    n_q * n_c, even when every column survives, as on a corpus of one
    repeated row.
    """
    k = _check_k(k, len(c_table))
    check_compatible({"query": q_table, "corpus": c_table}, model, force)
    q_side = _screen_side(q_table, model, "query")
    c_side = _screen_side(c_table, model, "corpus")
    qids, cids = q_table.ids, c_table.ids
    lists = []
    for rows in row_blocks(len(qids), max(1, len(cids)), SCORE_BLOCK_BYTES):
        r, j = _screen(q_side, c_side, rows, k)
        scores = _rescore(q_side[0][rows], c_side[0], r, j)
        entries = _rank(cids, r, j, scores, k, rows.stop - rows.start)
        lists.extend(map(RankedList, qids[rows], entries))
    return lists


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
    _check_k(k)
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
    Each query's nDCG is taken from its list in ranked_lists: screened in
    float32, rescored in float64, and equal to the first k of a float64
    sort of every corpus row (screen_bound says why). The sides are adapted
    by transform, so the report equals, bit for bit, evaluate without a
    model over the tables that transform writes."""
    _check_k(k)
    check_gain(gain)
    check_embeddings(q_table, c_table, rels.restricted_to(q_table.ids))
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
