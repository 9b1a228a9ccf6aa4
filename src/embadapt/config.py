"""Training configuration shared by the adapter, trainer, and CLI."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .objectives import LOSS_VARIANTS

GAIN_MODES = ("standard", "paper-literal")


@dataclass
class TrainConfig:
    batch_size: int = 128
    max_iterations: int = 2000
    patience: int = 125
    learning_rate: float = 0.001
    neg_subsample_ratio: int = 10
    alpha: float = 0.1
    beta: float = 0.01
    hidden: int | None = None  # None -> embedding dimension
    seed: int = 0
    eval_every: int = 10
    use_skip: bool = True
    separate_adapters: bool = False
    loss_variant: str = "search-adaptor"
    gain: str = "standard"
    # None evaluates validation queries against the full corpus; an integer
    # subsamples the corpus during training-time validation (escape hatch for
    # very large corpora).
    val_corpus_sample: int | None = None

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.patience < 1:
            raise ValueError("patience must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.neg_subsample_ratio < 1:
            raise ValueError("neg_subsample_ratio must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("loss weights must be non-negative")
        if self.eval_every < 1 or self.eval_every > self.patience:
            raise ValueError("eval_every must be in [1, patience]")
        if self.hidden is not None and self.hidden < 1:
            raise ValueError("hidden width must be positive")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss variant: {self.loss_variant!r}")
        if self.gain not in GAIN_MODES:
            raise ValueError(f"unknown gain mode: {self.gain!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg
