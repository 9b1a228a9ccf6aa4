"""Mini-batch training loop: batching, negative subsampling, Adam updates,
early stopping, and model selection on validation nDCG@k."""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from .adapter import (
    AdapterModel,
    init_adapter,
    mlp_grad,
    predict_query,
    transform_forward,
    transform_grad,
)
from .config import TrainConfig
from .data import EmbeddingTable, RelevanceSet, check_compatible, check_embeddings
from .errors import DataError, TrainingDivergedError
from .evaluation import SCREEN_NORMS, evaluate
from .objectives import (
    BatchScores,
    cosine_scores_backward,
    total_loss,
    unit_rows,
    unit_scores,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class EvalLogEntry:
    iteration: int
    rank_loss: float | None
    recovery_loss: float | None
    prediction_loss: float | None
    total_loss: float | None
    val_ndcg: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class TrainReport:
    entries: list[EvalLogEntry] = field(default_factory=list)
    best_iteration: int = 0
    best_val_ndcg: float = 0.0
    stop_reason: str = "max-iterations"

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self.entries) + "\n"

    def summary(self) -> str:
        zero_shot = self.entries[0].val_ndcg if self.entries else float("nan")
        return (
            f"evaluations={len(self.entries)} zero_shot_val_ndcg={zero_shot:.5f} "
            f"best_iteration={self.best_iteration} best_val_ndcg={self.best_val_ndcg:.5f} "
            f"stop_reason={self.stop_reason}"
        )


def _pool_rows(excluded_rows: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Corpus rows at positions `picks` of the pool: every row not in
    excluded_rows, in row order.

    With the excluded rows sorted as e_0 < e_1 < ..., e_i - i pool rows come
    before e_i, so pool position p is row p + #{i : e_i - i <= p}. This is
    O(len(picks) + len(excluded_rows)), independent of the corpus size.
    """
    excluded = np.sort(excluded_rows)
    shift = np.searchsorted(excluded - np.arange(len(excluded)), picks, side="right")
    return (picks + shift).astype(np.intp, copy=False)


def make_batch(
    positives: Mapping[str, dict[str, float]],
    query_ids: list[str],
    c_table: EmbeddingTable,
    ratio: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate set for a query batch: all batch positives plus subsampled negatives.

    positives maps each training query to its positive grades, as
    RelevanceSet.positives_for gives them; a query it lacks has none.
    |negatives| = ratio * |distinct positive ids|, capped at what exists;
    they are drawn from the corpus rows that are not batch positives, in
    O(batch) time. Returns (candidate rows of c_table, positives first in
    order of first appearance; dense (n_q, n_cand) float32 grade matrix).
    """
    batch = [positives.get(qid, {}) for qid in query_ids]
    column: dict[str, int] = {}  # positive id -> its candidate column
    for qid, graded in zip(query_ids, batch):
        if not graded:
            raise DataError(f"query {qid!r} has no positive in the training split")
        for cid in graded:
            column.setdefault(cid, len(column))
    pos_rows = c_table.row_indices(list(column))
    pool_size = len(c_table) - len(pos_rows)
    n_neg = min(ratio * len(pos_rows), pool_size)
    neg_rows = (
        _pool_rows(pos_rows, rng.choice(pool_size, size=n_neg, replace=False))
        if n_neg > 0
        else np.empty(0, dtype=np.intp)
    )
    grades = np.zeros((len(query_ids), len(pos_rows) + n_neg), dtype=np.float32)
    for i, graded in enumerate(batch):
        for cid, y in graded.items():
            grades[i, column[cid]] = y
    return np.concatenate([pos_rows, neg_rows]), grades


class _AdamState:
    def __init__(self, params: list[np.ndarray]):
        self.m = [np.zeros_like(p, dtype=np.float32) for p in params]
        self.v = [np.zeros_like(p, dtype=np.float32) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
        """One update in place. A value past the float32 range becomes inf
        without a warning; train refuses it after the step."""
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        with np.errstate(over="ignore", invalid="ignore"):
            for p, g, m, v in zip(params, grads, self.m, self.v):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * (g * g)
                p -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def _flatten_trainable(model: AdapterModel) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for _, params in model.trainable():
        out.extend(params.arrays())
    return out


def loss_and_param_grads(
    model: AdapterModel,
    q_orig: np.ndarray,
    c_orig: np.ndarray,
    grades: np.ndarray,
    cfg: TrainConfig,
):
    """Forward + backward for one batch, with cfg's loss weights and variant.

    The predictor's pairs are the positive entries of grades. Returns
    (TotalLoss, flat gradient list aligned with model.trainable()). The chain
    is: losses -> score/embedding gradients -> adapter and predictor
    parameter gradients. Each backward step reuses the activations, unit
    rows and norms of its forward step. The whole chain computes in
    the float dtype of q_orig and c_orig, and the gradients come back in it.
    """
    adapted_q, hidden_q = transform_forward(model, q_orig, "query")
    adapted_c, hidden_c = transform_forward(model, c_orig, "corpus")
    q_unit, q_norm = unit_rows(adapted_q)
    c_unit, c_norm = unit_rows(adapted_c)
    batch = BatchScores(scores=unit_scores(q_unit, c_unit), grades=grades)

    pair_query_idx, pair_corpus_idx = np.divmod(np.flatnonzero(grades > 0), grades.shape[1])
    pair_grades = batch.grades[pair_query_idx, pair_corpus_idx]
    pred_in = adapted_c[pair_corpus_idx]
    predicted, hidden_p = predict_query(model, pred_in)

    loss = total_loss(
        batch,
        cfg.loss_variant,
        alpha=cfg.alpha,
        beta=cfg.beta,
        recovery_inputs=(adapted_q, q_orig, adapted_c, c_orig),
        prediction_inputs=(adapted_q, predicted, pair_query_idx, pair_grades),
    )

    grad_aq, grad_ac = cosine_scores_backward(q_unit, q_norm, c_unit, c_norm, loss.grad_scores)
    grad_aq += loss.grad_adapted_q
    grad_ac += loss.grad_adapted_c
    # Predictor backward: its input gradient flows into the adapted corpus rows.
    p_grads, d_pred_in = mlp_grad(model.p_params, pred_in, hidden_p, loss.grad_predicted_q)
    np.add.at(grad_ac, pair_corpus_idx, d_pred_in)

    f_query_grads = transform_grad(model, q_orig, hidden_q, grad_aq, "query")
    f_corpus_grads = transform_grad(model, c_orig, hidden_c, grad_ac, "corpus")
    # same order as model.trainable(): f, p, then f_corpus if it exists
    if model.separate_adapters:
        return loss, f_query_grads.arrays() + p_grads.arrays() + f_corpus_grads.arrays()
    f_grads = [a + b for a, b in zip(f_query_grads.arrays(), f_corpus_grads.arrays())]
    return loss, f_grads + p_grads.arrays()


def _check_finite(loss, step: int) -> None:
    for name, value in loss.components.items():
        if not math.isfinite(value):
            raise TrainingDivergedError(f"step {step}: {name} loss became {value}")


def _check_params(model: AdapterModel, step: int) -> None:
    """Raise TrainingDivergedError, naming the network and the parameter,
    unless every parameter is finite after Adam step `step`."""
    for net, params in model.trainable():
        try:
            params.check()
        except ValueError as exc:
            raise TrainingDivergedError(
                f"Adam step {step} made the {net} network diverge: {exc}") from None


def train(
    q_table: EmbeddingTable,
    c_table: EmbeddingTable,
    train_rels: RelevanceSet,
    val_rels: RelevanceSet,
    cfg: TrainConfig,
) -> tuple[AdapterModel, TrainReport]:
    """Train adapter and predictor; returns the best-validation checkpoint.

    Iteration 0 is evaluated before any update, so the zero-shot model is
    always a selectable checkpoint.
    """
    cfg.validate()
    model = init_adapter(
        dim=q_table.dim,
        hidden=cfg.hidden,
        seed=cfg.seed,
        use_skip=cfg.use_skip,
        separate_adapters=cfg.separate_adapters,
        encoder_tag=q_table.encoder_tag,
        config=cfg,
    )
    # the model is applied to both tables, so a table transform wrote is refused
    check_compatible({"query": q_table, "corpus": c_table}, model)
    check_embeddings(q_table, c_table, train_rels, val_rels)

    # each training query's positives, built once for every batch
    positives = {qid: train_rels.positives_for(qid) for qid in train_rels.query_ids}
    train_qids = sorted(qid for qid, graded in positives.items() if graded)
    if not train_qids:
        raise DataError("training split has no query with a positive relation")

    val_qids = [
        qid
        for qid in q_table.ids
        if val_rels.positives_for(qid)
    ]
    if not val_qids:
        raise DataError("validation split has no query with a positive relation")

    # The step computes in its rows' dtype: the tables' float32, unless a
    # component lies outside 2**32, past which float32 squares of the rows
    # could overflow; there it takes float64 copies. A float32 step that
    # overflows all the same makes a loss non-finite, which _check_finite
    # refuses (unit_rows makes a row whose norm overflows NaN, not zero), or
    # a gradient non-finite, whose Adam step leaves a parameter non-finite
    # for _check_params to refuse.
    hi = SCREEN_NORMS[1]
    step_dtype = np.float32 if all(
        -hi <= table.vectors.min(initial=0) and table.vectors.max(initial=0) <= hi
        for table in (q_table, c_table)
    ) else np.float64

    rng = np.random.default_rng(cfg.seed)
    val_q_table = q_table.subset(val_qids)

    def validate_now() -> float:
        report = evaluate(val_q_table, c_table, val_rels, model, k=10, gain=cfg.gain)
        return report.mean_ndcg

    report = TrainReport(best_val_ndcg=validate_now())
    report.entries.append(EvalLogEntry(0, None, None, None, None, report.best_val_ndcg))
    flat_params = _flatten_trainable(model)
    best_params = [p.copy() for p in flat_params]
    adam = _AdamState(flat_params)
    schedule: list[str] = []

    for iteration in range(1, cfg.max_iterations + 1):
        if len(schedule) < cfg.batch_size:
            refill = list(train_qids)
            rng.shuffle(refill)
            schedule.extend(refill)
        batch_qids = schedule[: cfg.batch_size]
        del schedule[: cfg.batch_size]

        rows, grades = make_batch(
            positives, batch_qids, c_table, cfg.neg_subsample_ratio, rng
        )
        q_orig = q_table.rows_for(batch_qids).astype(step_dtype, copy=False)
        c_orig = c_table.vectors[rows].astype(step_dtype, copy=False)

        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = loss_and_param_grads(model, q_orig, c_orig, grades, cfg)
        _check_finite(loss, iteration)
        adam.step(flat_params, grads, cfg.learning_rate)
        _check_params(model, iteration)

        if iteration % cfg.eval_every == 0 or iteration == cfg.max_iterations:
            val_ndcg = validate_now()
            report.entries.append(
                EvalLogEntry(
                    iteration,
                    loss.rank_value,
                    loss.recovery_value,
                    loss.prediction_value,
                    loss.value,
                    val_ndcg,
                )
            )
            if val_ndcg > report.best_val_ndcg:
                report.best_val_ndcg = val_ndcg
                report.best_iteration = iteration
                best_params = [p.copy() for p in flat_params]
        if iteration - report.best_iteration >= cfg.patience:
            report.stop_reason = "early-stop"
            break

    for current, best in zip(flat_params, best_params):
        current[...] = best
    return model, report
