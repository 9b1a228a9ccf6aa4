"""Loss functions over batch score/grade matrices, with analytic gradients.

Gradients here are taken with respect to score matrices and embedding
matrices only; the trainer chains them through the adapter networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

NORM_EPS = 1e-12
# Temperature for the sigmoid / contrastive alternative losses.
VARIANT_TEMPERATURE = 0.05
# Largest (queries, r, n_c) block of float64 temporaries ranking_loss builds.
PAIR_BLOCK_FLOATS = 2**15


@dataclass
class BatchScores:
    """Dense cosine scores and grades over a (query batch, candidate set)."""

    scores: np.ndarray  # (n_q, n_c)
    grades: np.ndarray  # (n_q, n_c), >= 0

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.grades = np.asarray(self.grades, dtype=np.float64)
        if self.scores.ndim != 2 or self.scores.shape != self.grades.shape:
            raise ValueError(
                f"scores {self.scores.shape} and grades {self.grades.shape} disagree"
            )
        if np.any(self.grades < 0):
            raise ValueError("grades must be non-negative")

    @property
    def n_q(self) -> int:
        return self.scores.shape[0]

    @property
    def n_c(self) -> int:
        return self.scores.shape[1]


def softplus(x: np.ndarray) -> np.ndarray:
    """Overflow-safe log(1 + e^x)."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; tanh saturates, so it cannot overflow."""
    return 0.5 * (1.0 + np.tanh(x / 2))


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of x scaled to unit length, and their norms. A row whose norm is
    below NORM_EPS (a degenerate row) comes back as a zero unit row, so it
    scores 0 against everything. Each row's result depends on that row alone."""
    x = np.asarray(x, dtype=np.float64)
    norm = np.linalg.norm(x, axis=1)
    unit = x / np.maximum(norm, NORM_EPS)[:, None]
    unit[norm < NORM_EPS] = 0.0
    return unit, norm


def unit_scores(q_unit: np.ndarray, c_unit: np.ndarray) -> np.ndarray:
    """Cosine scores (n_q, n_c) from the unit rows that unit_rows returns,
    clipped to [-1, 1]."""
    scores = q_unit @ c_unit.T
    return np.clip(scores, -1.0, 1.0, out=scores)


def cosine_scores(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarity matrix, (n_q, n_c), float64.

    Rows/columns with near-zero norm score 0 against everything.
    """
    return unit_scores(unit_rows(q)[0], unit_rows(c)[0])


def cosine_scores_backward(
    q_unit: np.ndarray,
    q_norm: np.ndarray,
    c_unit: np.ndarray,
    c_norm: np.ndarray,
    scores: np.ndarray,
    grad_scores: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(grad_scores * scores) w.r.t. the rows q and c that
    unit_rows turned into (q_unit, q_norm) and (c_unit, c_norm), where scores
    is unit_scores(q_unit, c_unit). A degenerate row scores 0 against
    everything, so its gradient is zero.
    """
    g = np.asarray(grad_scores, dtype=np.float64)
    gs = g * scores
    # d s_ij / d q_i = (c_unit_j - s_ij * q_unit_i) / |q_i|
    grad_q = g @ c_unit - gs.sum(axis=1)[:, None] * q_unit
    grad_c = g.T @ q_unit - gs.sum(axis=0)[:, None] * c_unit
    return tuple(
        np.divide(grad, norm[:, None], out=np.zeros_like(grad), where=norm[:, None] >= NORM_EPS)
        for grad, norm in ((grad_q, q_norm), (grad_c, c_norm))
    )


def ranking_loss(batch: BatchScores, gap_weighted: bool = True) -> tuple[float, np.ndarray]:
    """Pairwise softplus loss, the one kernel for the pairwise variants.

    For each query, every candidate pair (j, k) with y_j > y_k contributes
    w_jk * softplus(s_k - s_j), where w_jk is the grade gap y_j - y_k
    (Search-Adaptor) or 1 with gap_weighted=False (RankNet). Returns the
    summed loss and its gradient w.r.t. the score matrix.

    Queries are grouped by r, the number of candidates graded above the
    query's lowest grade (the rows j that have at least one active pair), and
    each group is evaluated on (queries, r, n_c) blocks of at most
    PAIR_BLOCK_FLOATS elements. Each query's loss is summed over its own
    (r, n_c) block and the queries are added in order, so the result does not
    depend on the grouping.
    """
    s, y = batch.scores, batch.grades
    # inf for a row without candidates, so it has no rows above its floor
    above = y > np.min(y, axis=1, initial=np.inf, keepdims=True)
    n_above = above.sum(axis=1)
    per_query = np.zeros(batch.n_q)
    grad = np.zeros_like(s)
    for r in np.unique(n_above[n_above > 0]):
        qs = np.nonzero(n_above == r)[0]
        rows = (np.flatnonzero(above[qs]) % batch.n_c).reshape(len(qs), r)
        step = max(1, PAIR_BLOCK_FLOATS // (r * batch.n_c))
        for b in range(0, len(qs), step):
            at, rws = qs[b : b + step, None], rows[b : b + step]  # (B, 1), (B, r)
            gap = y[at, rws][..., None] - y[at]  # (B, r, 1) - (B, 1, n_c)
            w = np.where(gap > 0, gap if gap_weighted else 1.0, 0.0)
            margin = s[at] - s[at, rws][..., None]  # s_k - s_j
            per_query[at[:, 0]] = (w * softplus(margin)).reshape(len(at), -1).sum(axis=1)
            g = w * sigmoid(margin)  # d/d margin
            grad[at[:, 0]] = g.sum(axis=1)  # + d margin / d s_k
            grad[at, rws] -= g.sum(axis=2)  # - d margin / d s_j
    # one addition per query in query order; np.sum and, from Python 3.12,
    # sum() would round differently
    total = 0.0
    for value in per_query.tolist():
        total += value
    return total, grad


def listwise_loss(batch: BatchScores, temperature: float = 1.0) -> tuple[float, np.ndarray]:
    """Per-query softmax cross-entropy of s / temperature against the grade
    distribution y / sum(y); queries without positive grade mass add nothing."""
    s = batch.scores / temperature
    y = batch.grades
    mass = y.sum(axis=1, keepdims=True)
    target = y / np.where(mass > 0, mass, 1.0)
    z = s - s.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    total = float(-np.sum(target * log_probs))
    grad = np.where(mass > 0, np.exp(log_probs) - target, 0.0) / temperature
    return total, grad


def sigmoid_ce_loss(batch: BatchScores) -> tuple[float, np.ndarray]:
    """Pointwise binary cross-entropy on sigmoid(s / tau) vs binarized grades."""
    s = batch.scores / VARIANT_TEMPERATURE
    labels = (batch.grades > 0).astype(np.float64)
    # BCE with logits: softplus(s) - label * s, summed.
    total = float(np.sum(softplus(s) - labels * s))
    grad = (sigmoid(s) - labels) / VARIANT_TEMPERATURE
    return total, grad


_RANK_LOSSES = {
    "search-adaptor": ranking_loss,
    "sigmoid-ce": sigmoid_ce_loss,
    "contrastive": partial(listwise_loss, temperature=VARIANT_TEMPERATURE),
    "softmax-ce": listwise_loss,
    "ranknet": partial(ranking_loss, gap_weighted=False),
}
# The loss variants that TrainConfig and the CLI accept.
LOSS_VARIANTS = tuple(_RANK_LOSSES)


def rank_loss(batch: BatchScores, variant: str = "search-adaptor") -> tuple[float, np.ndarray]:
    try:
        fn = _RANK_LOSSES[variant]
    except KeyError:
        raise ValueError(f"unknown loss variant: {variant!r}") from None
    return fn(batch)


def recovery_loss(
    adapted_q: np.ndarray,
    orig_q: np.ndarray,
    adapted_c: np.ndarray,
    orig_c: np.ndarray,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean L1 drift of adapted embeddings from the originals.

    value = mean_i ||aq_i - q_i||_1 + mean_j ||ac_j - c_j||_1.
    Returns gradients w.r.t. the adapted matrices.
    """
    aq = np.asarray(adapted_q, dtype=np.float64)
    oq = np.asarray(orig_q, dtype=np.float64)
    ac = np.asarray(adapted_c, dtype=np.float64)
    oc = np.asarray(orig_c, dtype=np.float64)
    if aq.shape != oq.shape or ac.shape != oc.shape:
        raise ValueError("adapted/original shapes disagree")
    n = max(aq.shape[0], 1)
    m = max(ac.shape[0], 1)
    dq = aq - oq
    dc = ac - oc
    value = float(np.abs(dq).sum() / n + np.abs(dc).sum() / m)
    return value, (np.sign(dq) / n, np.sign(dc) / m)


def prediction_loss(
    adapted_q: np.ndarray,
    predicted_q: np.ndarray,
    pair_query_idx: np.ndarray,
    pair_grades: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Grade-weighted L1 between adapted queries and predictor outputs.

    predicted_q holds one row per positive pair; pair_query_idx maps each pair
    to its row in adapted_q. value = sum_p y_p * ||aq_{i(p)} - pred_p||_1 / sum_p y_p.
    Returns (value, grad w.r.t. adapted_q, grad w.r.t. predicted_q).
    """
    aq = np.asarray(adapted_q, dtype=np.float64)
    pred = np.asarray(predicted_q, dtype=np.float64)
    idx = np.asarray(pair_query_idx, dtype=np.intp)
    y = np.asarray(pair_grades, dtype=np.float64)
    if pred.shape[0] != idx.shape[0] or pred.shape[0] != y.shape[0]:
        raise ValueError("pair arrays disagree in length")
    grad_q = np.zeros_like(aq)
    grad_pred = np.zeros_like(pred)
    mass = float(y.sum())
    if mass <= 0 or pred.shape[0] == 0:
        return 0.0, grad_q, grad_pred
    diff = aq[idx] - pred
    value = float(np.sum(y[:, None] * np.abs(diff)) / mass)
    per_pair = (y[:, None] * np.sign(diff)) / mass
    np.add.at(grad_q, idx, per_pair)
    grad_pred = -per_pair
    return value, grad_q, grad_pred


@dataclass
class TotalLoss:
    value: float
    rank_value: float
    recovery_value: float
    prediction_value: float
    grad_scores: np.ndarray
    grad_adapted_q: np.ndarray  # recovery + prediction parts, pre-weighted
    grad_adapted_c: np.ndarray  # recovery part, pre-weighted
    grad_predicted_q: np.ndarray  # prediction part, pre-weighted

    @property
    def components(self) -> dict[str, float]:
        return {
            "rank": self.rank_value,
            "recovery": self.recovery_value,
            "prediction": self.prediction_value,
            "total": self.value,
        }


def total_loss(
    batch: BatchScores,
    variant: str,
    *,
    alpha: float,
    beta: float,
    recovery_inputs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    prediction_inputs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> TotalLoss:
    """Combined objective: rank term + alpha * recovery + beta * prediction.

    alpha and beta are TrainConfig's loss weights, which it checks.
    recovery_inputs are recovery_loss's arguments and prediction_inputs are
    prediction_loss's. The variant selects only the rank term; the
    regularizers are unchanged. Embedding-space gradients come back
    pre-multiplied by their weights; grad_scores is the raw rank-term gradient.
    """
    rank_value, grad_scores = rank_loss(batch, variant)
    recovery_value, (g_aq, g_ac) = recovery_loss(*recovery_inputs)
    prediction_value, g_q, g_pred = prediction_loss(*prediction_inputs)
    value = rank_value + alpha * recovery_value + beta * prediction_value
    return TotalLoss(
        value=value,
        rank_value=rank_value,
        recovery_value=recovery_value,
        prediction_value=prediction_value,
        grad_scores=grad_scores,
        grad_adapted_q=alpha * g_aq + beta * g_q,
        grad_adapted_c=alpha * g_ac,
        grad_predicted_q=beta * g_pred,
    )
