"""Independent numpy reference for the benchmark's correctness gate.

Adapter forward x + tanh(x W1 + b1) W2 + b2 in float64, cosine scores, the
ranking order (descending score, ascending id) and nDCG@k with gain 2^y - 1.
"""

from __future__ import annotations

import math

import numpy as np


def adapt(model, x: np.ndarray, which: str) -> np.ndarray:
    """The adapted embedding of rows x, `which` being "query" or "corpus"."""
    p = model.f_corpus_params if which == "corpus" and model.separate_adapters \
        else model.f_params
    x = np.asarray(x, dtype=np.float64)
    out = np.tanh(x @ p.w1.astype(np.float64) + p.b1) @ p.w2.astype(np.float64) + p.b2
    return x + out if model.use_skip else out


def cosine(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    c = c / np.linalg.norm(c, axis=1, keepdims=True)
    return np.clip(q @ c.T, -1.0, 1.0)


def id_ranks(ids: list[str]) -> np.ndarray:
    """Position of each id in ascending string order, the tie-break key."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def validation_ids(query_ids: list[str], train_ratio: float, seed: int) -> set[str]:
    """The held-out query ids of `embadapt train --val-ratio train_ratio --seed seed`.

    The split is by query id: the sorted ids in a seeded random permutation,
    the first round(n * train_ratio) of them train, the rest validate.
    """
    qids = sorted(query_ids)
    perm = np.random.default_rng(seed).permutation(len(qids))
    return {qids[i] for i in perm[int(round(len(qids) * train_ratio)):]}


def top_k(scores: np.ndarray, ranks: np.ndarray, k: int) -> np.ndarray:
    return np.lexsort((ranks, -scores))[:k]


def ndcg(ranked_grades: list[float], positive_grades: list[float], k: int) -> float:
    def dcg(grades):
        return sum((2.0**y - 1.0) / math.log2(r + 2) for r, y in enumerate(grades[:k]))

    return dcg(ranked_grades) / dcg(sorted(positive_grades, reverse=True))


def mean_ndcg(scores: np.ndarray, qids: list[str], cids: list[str],
              grades: dict[str, dict[str, float]], k: int = 10) -> float:
    ranks = id_ranks(cids)
    values = []
    for i, qid in enumerate(qids):
        positives = grades.get(qid)
        if not positives:
            continue
        top = top_k(scores[i], ranks, k)
        values.append(ndcg([positives.get(cids[j], 0.0) for j in top],
                           list(positives.values()), k))
    return float(np.mean(values))


def search_ok(lines: list[tuple[str, float]], scores: np.ndarray, ranks: np.ndarray,
              index: dict[str, int], k: int, tol: float = 1e-6) -> bool:
    """Top-k ids equal the reference's; swaps only among scores within tol.

    Each returned item must score within tol of the reference item at its
    rank, and its printed score within tol of its reference score.
    """
    ref = top_k(scores, ranks, k)
    got = [index.get(cid) for cid, _ in lines]
    if len(got) != len(ref) or None in got or len(set(got)) != len(got):
        return False
    return all(abs(scores[g] - scores[j]) <= tol and abs(s - scores[g]) <= tol
               for (_, s), g, j in zip(lines, got, ref))
