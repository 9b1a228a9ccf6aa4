"""Settings: the training config and the encoder endpoint config, each checked
when it is built, and from_json, the one reader that builds either from JSON."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from urllib.parse import urlsplit

from .errors import FormatError
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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    value = dict(pairs)
    if len(value) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise FormatError(f"repeated keys: {sorted(k for k, n in counts.items() if n > 1)}")
    return value


def from_json(cls, text: str, retired: tuple[str, ...] = (), **overrides):
    """The settings dataclass cls built from the JSON object in text, less the
    retired keys, each override replacing the value of its name. FormatError
    if text is not a JSON object, repeats a key, or has a key that cls lacks
    or lacks a field that has no default; ValueError if cls refuses a value."""
    try:
        value = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise FormatError(f"not a JSON object, got {type(value).__name__}")
    for key in retired:
        value.pop(key, None)
    fields = dataclasses.fields(cls)
    unknown = set(value) - {f.name for f in fields}
    if unknown:
        raise FormatError(f"unknown keys: {sorted(unknown)}")
    value.update(overrides)
    missing = [f.name for f in fields if f.name not in value and f.default is dataclasses.MISSING]
    if missing:
        raise FormatError(f"missing keys: {missing}")
    return cls(**value)


@dataclass(frozen=True)
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

    def __post_init__(self):
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


@dataclass(frozen=True)
class EncoderEndpointConfig:
    base_url: str
    auth_token_env_var: str = ""
    max_batch: int = 100
    max_concurrent_requests: int = 4
    retry_limit: int = 3
    encoder_tag: str = ""
    request_field: str = "texts"
    response_field: str = "embeddings"
    timeout_seconds: float = 60.0
    backoff_base_seconds: float = 0.5

    def __post_init__(self):
        check_field_types(self)
        try:
            url = urlsplit(self.base_url)
        except ValueError:  # such as an unclosed IPv6 bracket
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http or https URL with a host, "
                             f"got {self.base_url!r}")
        # http.client refuses a space or a control character, and a path with
        # a non-ASCII character, only when it sends the first request
        if re.search(r"[^\x21-\x7e]", self.base_url):
            raise ValueError(f"base_url must be printable ASCII with no spaces, "
                             f"got {self.base_url!r}")
        try:
            url.port
        except ValueError:
            raise ValueError(f"base_url port must be a number in [0, 65535], "
                             f"got {self.base_url!r}") from None
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_concurrent_requests < 1:
            raise ValueError("max_concurrent_requests must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be > 0")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be >= 0")
