"""Training configuration shared by the adapter, trainer, and CLI."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .objectives import LOSS_VARIANTS

GAIN_MODES = ("standard", "paper-literal")
# a field's annotation -> the types its value may have; a bool is an int, so
# only a bool field accepts one
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def check_gain(gain: str) -> None:
    if gain not in GAIN_MODES:
        raise ValueError(f"unknown gain mode: {gain!r}")


def check_field_types(config) -> None:
    """Raise ValueError unless each field of the dataclass instance holds a
    value of its annotated type; a float field must also be finite."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional:
            continue
        if (isinstance(value, bool) != (kind == "bool")
                or not isinstance(value, _FIELD_TYPES[kind])
                or (kind == "float" and not math.isfinite(value))):
            finite = "finite " if kind == "float" else ""
            raise ValueError(f"{f.name} must be {finite}{f.type}, got {value!r}")


def check_keys(cls, d) -> dict:
    """Return d after checking that it is a JSON object naming only fields of
    the dataclass cls, and every field without a default; else ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
    fields = dataclasses.fields(cls)
    unknown = set(d) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in d and f.default is dataclasses.MISSING]
    if missing:
        raise ValueError(f"missing config keys: {missing}")
    return d


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

    def validate(self) -> None:
        check_field_types(self)
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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.hidden is not None and self.hidden < 1:
            raise ValueError("hidden width must be positive")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss variant: {self.loss_variant!r}")
        check_gain(self.gain)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        cfg = cls(**check_keys(cls, d))
        cfg.validate()
        return cfg
