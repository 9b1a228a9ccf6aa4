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
# Largest (queries, r, n_c) block of temporaries ranking_loss builds, in the
# scores' dtype.
PAIR_BLOCK_FLOATS = 2**15
# softplus_sigmoid clamps its exponent here: e^-40 is below half an ulp of 1
# in float64 (2^-53), and so in float32
EXP_CLAMP = 40.0


def _as_float(x) -> np.ndarray:
    """x as an array of its own float dtype, uncopied; any other input (ints,
    bools, lists of numbers) becomes float64. Every function here computes in
    the dtype this gives its input."""
    x = np.asarray(x)
    return x if np.issubdtype(x.dtype, np.floating) else x.astype(np.float64)


@dataclass
class BatchScores:
    """Dense cosine scores and grades over a (query batch, candidate set).
    The grades take the scores' float dtype (see _as_float), so a rank loss
    computes in it."""

    scores: np.ndarray  # (n_q, n_c)
    grades: np.ndarray  # (n_q, n_c), >= 0

    def __post_init__(self):
        self.scores = _as_float(self.scores)
        self.grades = np.asarray(self.grades, dtype=self.scores.dtype)
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


def softplus_sigmoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + e^x) and 1 / (1 + e^-x), the pairwise kernel's loss term and
    its derivative, from one exponential of x clamped at EXP_CLAMP:
    e = exp(min(x, EXP_CLAMP)), softplus = max(log1p(e), x), sigmoid =
    e / (1 + e). Past the clamp both are x and 1 to within e^-EXP_CLAMP,
    below half an ulp in float32 and float64, so they are exact to rounding
    for every finite x and cannot overflow; NaN gives NaN."""
    x = _as_float(x)
    e = np.exp(np.minimum(x, EXP_CLAMP))
    return np.maximum(np.log1p(e), x), e / (1.0 + e)


def softplus(x: np.ndarray) -> np.ndarray:
    """Overflow-safe log(1 + e^x), by softplus_sigmoid's formula."""
    return softplus_sigmoid(x)[0]


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of x scaled to unit length, and their norms. A row whose norm is
    below NORM_EPS (a degenerate row) comes back as a zero unit row, so it
    scores 0 against everything; a row whose norm overflows x's dtype comes
    back NaN, not as the zero that dividing by an infinite norm would give.
    Each row's result depends on that row alone."""
    x = _as_float(x)
    norm = np.linalg.norm(x, axis=1)
    unit = x / np.maximum(norm, NORM_EPS)[:, None]
    unit[norm < NORM_EPS] = 0.0
    unit[norm == np.inf] = np.nan
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
    return unit_scores(*(unit_rows(np.asarray(x, dtype=np.float64))[0] for x in (q, c)))


def cosine_scores_backward(
    q_unit: np.ndarray,
    q_norm: np.ndarray,
    c_unit: np.ndarray,
    c_norm: np.ndarray,
    grad_scores: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(grad_scores * unit_scores(q_unit, c_unit)) w.r.t. the
    rows q and c that unit_rows turned into (q_unit, q_norm) and
    (c_unit, c_norm). A degenerate row scores 0 against everything, so its
    gradient is zero.
    """
    g = _as_float(grad_scores)
    return (_unit_rows_backward(g @ c_unit, q_unit, q_norm),
            _unit_rows_backward(g.T @ q_unit, c_unit, c_norm))


def _unit_rows_backward(grad: np.ndarray, unit: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the rows x that unit_rows turned into (unit, norm),
    from grad, the gradient w.r.t. unit, overwritten in place:
    (grad - (grad . unit) unit) / |x| per row, and zero for a degenerate row.

    For the cosine, grad = g @ c_unit and grad . unit of row i is
    sum_j g_ij s_ij (up to unit_scores' clip, which moves a score only by
    rounding), so this is d s_ij / d q_i = (c_unit_j - s_ij q_unit_i) / |q_i|
    summed over j, without an (n_q, n_c) temporary.
    """
    grad -= np.einsum("ij,ij->i", grad, unit)[:, None] * unit
    ok = (norm >= NORM_EPS)[:, None]
    np.divide(grad, norm[:, None], out=grad, where=ok)
    np.copyto(grad, 0.0, where=~ok)
    return grad


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
            w = np.maximum(gap, 0) if gap_weighted else (gap > 0).astype(s.dtype)
            margin = s[at] - s[at, rws][..., None]  # s_k - s_j
            loss, g = softplus_sigmoid(margin)
            loss *= w
            g *= w  # d/d margin
            per_query[at[:, 0]] = loss.reshape(len(at), -1).sum(axis=1)
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
    labels = (batch.grades > 0).astype(s.dtype)
    # BCE with logits: softplus(s) - label * s, summed.
    plus, sig = softplus_sigmoid(s)
    total = float(np.sum(plus - labels * s))
    grad = (sig - labels) / VARIANT_TEMPERATURE
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
    aq, oq, ac, oc = map(_as_float, (adapted_q, orig_q, adapted_c, orig_c))
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
    aq, pred, y = map(_as_float, (adapted_q, predicted_q, pair_grades))
    idx = np.asarray(pair_query_idx, dtype=np.intp)
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
