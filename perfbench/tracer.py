"""Span tracing for the benchmark: wraps embadapt's public functions from outside.

Each wrapped call records a span [name, start, end, parent, run, counts]; spans
stay in memory and are written as JSON lines when the run ends. Every name is
replaced in each embadapt module that looks it up, so calls between modules
(for example trainer -> evaluation.evaluate) are seen too.
"""

from __future__ import annotations

import functools
import json
import os
import time

# layer -> public functions wrapped at every module-level lookup site
LAYERS = {
    "io": ("read_embeddings", "write_embeddings", "load_qrels_tsv"),
    "data": ("split_train_val",),
    "adapter": ("transform", "transform_grad", "mlp_grad", "predict_query",
                "save_checkpoint", "load_checkpoint"),
    "objectives": ("cosine_scores", "cosine_scores_backward", "rank_loss",
                   "total_loss", "recovery_loss", "prediction_loss"),
    "trainer": ("train", "make_batch", "loss_and_param_grads"),
    "evaluation": ("evaluate", "score_all", "rank_candidates", "ndcg_at_k"),
}
MODULES = ("cli", "io", "data", "adapter", "objectives", "trainer", "evaluation")


def _count_transform(args, kwargs, result):
    model, x = args[0], args[1]
    rows, d, h = (1 if x.ndim == 1 else len(x)), model.dim, model.hidden
    # two dense layers of 2*d*h flops per row; bytes: float64 in, hidden, out
    return {"rows": rows, "flop": 4 * rows * d * h, "bytes": 8 * rows * (2 * d + h)}


def _count_cosine(args, kwargs, result):
    n_q, n_c = result.shape
    d = args[0].shape[1]
    return {"pairs": n_q * n_c, "flop": 2 * n_q * n_c * d,
            "bytes": 8 * ((n_q + n_c) * d + n_q * n_c)}


def _count_rank(args, kwargs, result):
    return {"sorted": len(args[0]), "kept": len(result)}


def _count_make_batch(args, kwargs, result):
    candidates, grades = result
    positives = int((grades > 0).any(axis=0).sum())
    return {"scanned": len(args[2]), "negatives": len(candidates) - positives}


def _count_file(path_index):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_index])}
    return count


COUNTERS = {
    "adapter.transform": _count_transform,
    "objectives.cosine_scores": _count_cosine,
    "evaluation.rank_candidates": _count_rank,
    "trainer.make_batch": _count_make_batch,
    "io.read_embeddings": _count_file(0),
    "io.write_embeddings": _count_file(1),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.run, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(f"embadapt.{m}") for m in MODULES]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"embadapt.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        setattr(module, fname, wrapped)
        table = importlib.import_module("embadapt.data").EmbeddingTable
        table.__init__ = self.wrap("data.EmbeddingTable", table.__init__)
        table.rows_for = self.wrap("data.rows_for", table.rows_for)
        # validation inside train() is the trainer's view of evaluation.evaluate
        trainer = importlib.import_module("embadapt.trainer")
        trainer.evaluate = self.wrap("trainer.validate", trainer.evaluate)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced round.

    `.s` is inclusive time; `.self_s` subtracts the time of child spans.
    Flops and bytes are computed from array shapes, not measured.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, float]] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run, cnt in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start
        for key, value in (cnt or {}).items():
            bucket = counts.setdefault(name, {})
            bucket[key] = bucket.get(key, 0) + value
    self_time: dict[str, float] = {}
    for (name, start, end, *_), children in zip(spans, child_time):
        self_time[name] = self_time.get(name, 0.0) + (end - start - children)

    def s(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in ("io.read_embeddings", "io.write_embeddings"):
        m[f"{name}.s"] = s(name)
        m[f"{name}.mb_per_s"] = ratio(c(name, "bytes") / 1e6, s(name))
    m["io.read_embeddings.calls"] = n("io.read_embeddings")
    m["io.load_qrels_tsv.s"] = s("io.load_qrels_tsv")
    m["data.EmbeddingTable.s"] = s("data.EmbeddingTable")
    m["data.EmbeddingTable.calls"] = n("data.EmbeddingTable")
    m["data.rows_for.s"] = s("data.rows_for")
    m["data.split_train_val.s"] = s("data.split_train_val")

    m["adapter.transform.s"] = s("adapter.transform")
    m["adapter.transform.rows"] = c("adapter.transform", "rows")
    m["adapter.transform.gflop"] = c("adapter.transform", "flop") / 1e9
    m["adapter.transform.gbytes"] = c("adapter.transform", "bytes") / 1e9
    m["adapter.transform.gflop_per_s"] = ratio(m["adapter.transform.gflop"],
                                               self_time.get("adapter.transform", 0.0))
    for name in ("load_checkpoint", "save_checkpoint", "transform_grad", "mlp_grad",
                 "predict_query"):
        m[f"adapter.{name}.s"] = s(f"adapter.{name}")

    m["objectives.cosine_scores.s"] = s("objectives.cosine_scores")
    m["objectives.cosine_scores.pairs"] = c("objectives.cosine_scores", "pairs")
    m["objectives.cosine_scores.score_mb"] = 8 * m["objectives.cosine_scores.pairs"] / 1e6
    m["objectives.cosine_scores.gflop"] = c("objectives.cosine_scores", "flop") / 1e9
    m["objectives.cosine_scores.gbytes"] = c("objectives.cosine_scores", "bytes") / 1e9
    for name in ("cosine_scores_backward", "rank_loss", "total_loss", "recovery_loss",
                 "prediction_loss"):
        m[f"objectives.{name}.s"] = s(f"objectives.{name}")

    m["trainer.make_batch.s"] = s("trainer.make_batch")
    m["trainer.make_batch.negatives"] = c("trainer.make_batch", "negatives")
    m["trainer.make_batch.scan_per_negative"] = ratio(c("trainer.make_batch", "scanned"),
                                                      m["trainer.make_batch.negatives"])
    m["trainer.loss_and_param_grads.s"] = s("trainer.loss_and_param_grads")
    m["trainer.steps"] = n("trainer.loss_and_param_grads")
    m["trainer.step_ms"] = 1e3 * ratio(s("trainer.train") - s("trainer.validate"),
                                       m["trainer.steps"])
    m["trainer.train.self_s"] = self_time.get("trainer.train", 0.0)
    m["trainer.validate.s"] = s("trainer.validate")
    m["trainer.validate.share"] = ratio(s("trainer.validate"), s("trainer.train"))

    m["evaluation.rank_candidates.s"] = s("evaluation.rank_candidates")
    m["evaluation.rank_candidates.calls"] = n("evaluation.rank_candidates")
    m["evaluation.rank_candidates.sorted_per_kept"] = ratio(
        c("evaluation.rank_candidates", "sorted"), c("evaluation.rank_candidates", "kept"))
    for name in ("score_all", "ndcg_at_k", "evaluate"):
        m[f"evaluation.{name}.s"] = s(f"evaluation.{name}")
    return m
