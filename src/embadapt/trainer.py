"""Mini-batch training loop: batching, negative subsampling, Adam updates,
early stopping, and model selection on validation nDCG@k."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .adapter import (
    AdapterModel,
    init_adapter,
    mlp_forward,
    mlp_grad,
    transform_forward,
    transform_grad,
)
from .config import TrainConfig
from .data import EmbeddingTable, RelevanceSet
from .errors import DataError, TrainingDivergedError
from .evaluation import evaluate
from .objectives import (
    BatchScores,
    LossWeights,
    cosine_scores,
    cosine_scores_backward,
    total_loss,
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
        return json.dumps(
            {
                "iteration": self.iteration,
                "rank_loss": self.rank_loss,
                "recovery_loss": self.recovery_loss,
                "prediction_loss": self.prediction_loss,
                "total_loss": self.total_loss,
                "val_ndcg": self.val_ndcg,
            },
            sort_keys=True,
        )


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


def make_batch(
    train_rels: RelevanceSet,
    query_ids: list[str],
    corpus_ids: list[str],
    ratio: int,
    rng: np.random.Generator,
) -> tuple[list[str], np.ndarray]:
    """Candidate set for a query batch: all batch positives plus subsampled negatives.

    |negatives| = ratio * |distinct positive ids|, capped at what exists.
    Returns (candidate corpus ids, dense (n_q, n_cand) float32 grade matrix).
    """
    positive_ids: list[str] = []
    seen = set()
    for qid in query_ids:
        positives = train_rels.positives_for(qid)
        if not positives:
            raise DataError(f"query {qid!r} has no positive in the training split")
        for cid in positives:
            if cid not in seen:
                seen.add(cid)
                positive_ids.append(cid)
    pool = [cid for cid in corpus_ids if cid not in seen]
    n_neg = min(ratio * len(positive_ids), len(pool))
    negatives = (
        [pool[i] for i in rng.choice(len(pool), size=n_neg, replace=False)]
        if n_neg > 0
        else []
    )
    candidates = positive_ids + negatives
    grades = np.zeros((len(query_ids), len(candidates)), dtype=np.float32)
    col = {cid: j for j, cid in enumerate(candidates)}
    for i, qid in enumerate(query_ids):
        for cid, y in train_rels.grades_for(qid).items():
            if cid in col:
                grades[i, col[cid]] = y
    return candidates, grades


class _AdamState:
    def __init__(self, params: list[np.ndarray]):
        self.m = [np.zeros_like(p, dtype=np.float32) for p in params]
        self.v = [np.zeros_like(p, dtype=np.float32) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
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
    pair_query_idx: np.ndarray,
    pair_corpus_idx: np.ndarray,
    weights: LossWeights,
    variant: str = "search-adaptor",
):
    """Forward + backward for one batch.

    Returns (TotalLoss, flat gradient list aligned with model.trainable()).
    The chain is: losses -> score/embedding gradients -> adapter and
    predictor parameter gradients. Each backward step reuses the activations
    and scores of its forward step.
    """
    q_orig = np.asarray(q_orig, dtype=np.float64)
    c_orig = np.asarray(c_orig, dtype=np.float64)
    adapted_q, hidden_q = transform_forward(model, q_orig, "query")
    adapted_c, hidden_c = transform_forward(model, c_orig, "corpus")
    scores = cosine_scores(adapted_q, adapted_c)
    batch = BatchScores(scores=scores, grades=grades)

    pair_query_idx = np.asarray(pair_query_idx, dtype=np.intp)
    pair_corpus_idx = np.asarray(pair_corpus_idx, dtype=np.intp)
    pair_grades = np.asarray(grades, dtype=np.float64)[pair_query_idx, pair_corpus_idx]
    pred_in = adapted_c[pair_corpus_idx]
    predicted, hidden_p = mlp_forward(model.p_params, pred_in)

    loss = total_loss(
        batch,
        weights,
        variant,
        recovery_inputs=(adapted_q, q_orig, adapted_c, c_orig),
        prediction_inputs=(adapted_q, predicted, pair_query_idx, pair_grades),
    )

    grad_aq, grad_ac = cosine_scores_backward(adapted_q, adapted_c, scores, loss.grad_scores)
    grad_aq += loss.grad_adapted_q
    grad_ac += loss.grad_adapted_c
    # Predictor backward: its input gradient flows into the adapted corpus rows.
    p_grads, d_pred_in = mlp_grad(model.p_params, pred_in, hidden_p, loss.grad_predicted_q)
    np.add.at(grad_ac, pair_corpus_idx, d_pred_in)

    f_query_grads, _ = transform_grad(model, q_orig, hidden_q, grad_aq, "query")
    f_corpus_grads, _ = transform_grad(model, c_orig, hidden_c, grad_ac, "corpus")
    # same order as model.trainable(): f, p, then f_corpus if it exists
    if model.separate_adapters:
        return loss, f_query_grads.arrays() + p_grads.arrays() + f_corpus_grads.arrays()
    f_grads = [a + b for a, b in zip(f_query_grads.arrays(), f_corpus_grads.arrays())]
    return loss, f_grads + p_grads.arrays()


def _check_finite(loss) -> None:
    for name, value in loss.components.items():
        if not math.isfinite(value):
            raise TrainingDivergedError(f"{name} loss became {value}")


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
    if q_table.dim != c_table.dim:
        raise DataError("query and corpus embedding dimensions disagree")
    if q_table.encoder_tag != c_table.encoder_tag:
        raise DataError(
            f"query tag {q_table.encoder_tag!r} != corpus tag {c_table.encoder_tag!r}"
        )

    train_qids = sorted(
        qid
        for qid in train_rels.query_ids
        if train_rels.positives_for(qid) and qid in q_table
    )
    if not train_qids:
        raise DataError("training split has no query with a positive relation")
    for qid, cid, y in train_rels.triplets:
        if y > 0 and cid not in c_table:
            raise DataError(f"positive corpus id {cid!r} missing from corpus table")

    val_qids = [
        qid
        for qid in q_table.ids
        if val_rels.positives_for(qid)
    ]
    if not val_qids:
        raise DataError("validation split has no query with a positive relation")

    model = init_adapter(
        dim=q_table.dim,
        hidden=cfg.hidden,
        seed=cfg.seed,
        use_skip=cfg.use_skip,
        separate_adapters=cfg.separate_adapters,
        encoder_tag=q_table.encoder_tag,
        config=cfg,
    )
    weights = LossWeights(alpha=cfg.alpha, beta=cfg.beta)
    rng = np.random.default_rng(cfg.seed)

    val_q_table = q_table.subset(val_qids)
    val_c_table = c_table
    if cfg.val_corpus_sample is not None and cfg.val_corpus_sample < len(c_table):
        # keep every positive of the validation split, fill with random corpus
        keep = {cid for q in val_qids for cid in val_rels.positives_for(q)}
        pool = [cid for cid in c_table.ids if cid not in keep]
        n_fill = max(0, cfg.val_corpus_sample - len(keep))
        fill = [pool[i] for i in rng.choice(len(pool), size=min(n_fill, len(pool)), replace=False)]
        val_c_table = c_table.subset(sorted(keep) + fill)

    def validate_now() -> float:
        report = evaluate(val_q_table, val_c_table, val_rels, model, k=10, gain=cfg.gain)
        return report.mean_ndcg

    report = TrainReport()
    best_val = validate_now()
    best_iter = 0
    best_params = [p.copy() for p in _flatten_trainable(model)]
    report.entries.append(EvalLogEntry(0, None, None, None, None, best_val))

    flat_params = _flatten_trainable(model)
    adam = _AdamState(flat_params)
    schedule: list[str] = []

    stop_reason = "max-iterations"
    for iteration in range(1, cfg.max_iterations + 1):
        if len(schedule) < cfg.batch_size:
            refill = list(train_qids)
            rng.shuffle(refill)
            schedule.extend(refill)
        batch_qids = schedule[: cfg.batch_size]
        del schedule[: cfg.batch_size]

        candidates, grades = make_batch(
            train_rels, batch_qids, c_table.ids, cfg.neg_subsample_ratio, rng
        )
        q_orig = q_table.rows_for(batch_qids)
        c_orig = c_table.rows_for(candidates)
        pair_q, pair_c = np.nonzero(grades > 0)

        loss, grads = loss_and_param_grads(
            model, q_orig, c_orig, grades, pair_q, pair_c, weights, cfg.loss_variant
        )
        _check_finite(loss)
        adam.step(flat_params, grads, cfg.learning_rate)

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
            if val_ndcg > best_val:
                best_val = val_ndcg
                best_iter = iteration
                best_params = [p.copy() for p in flat_params]
        if iteration - best_iter >= cfg.patience:
            stop_reason = "early-stop"
            break

    for current, best in zip(flat_params, best_params):
        current[...] = best
    report.best_iteration = best_iter
    report.best_val_ndcg = best_val
    report.stop_reason = stop_reason
    return model, report
