"""Trainable networks: residual adaptation MLP and query predictor.

Both networks are single-hidden-layer tanh MLPs mapping R^d -> R^d. The
adaptation network is applied with a skip connection (output = x + mlp(x))
so a zero-initialized output layer makes it the identity map. The predictor
never uses a skip connection.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .data import EmbeddingTable
from .errors import FormatError, TagMismatchError

CHECKPOINT_MAGIC = b"SADC"
CHECKPOINT_VERSION = 1

PARAM_NAMES = ("w1", "b1", "w2", "b2")


@dataclass
class MlpParams:
    """w1: (d, h), b1: (h,), w2: (h, d), b2: (d,), all float32."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]

    def copy(self) -> "MlpParams":
        return MlpParams(*(a.copy() for a in self.arrays()))

    def check(self) -> None:
        d, h = self.dim, self.hidden
        shapes = [(d, h), (h,), (h, d), (d,)]
        for name, arr, shape in zip(PARAM_NAMES, self.arrays(), shapes):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")


def init_mlp(dim: int, hidden: int, rng: np.random.Generator) -> MlpParams:
    """Hidden layer small-uniform, output layer exactly zero.

    Zero output means mlp(x) == 0 at step 0, so the residual transform starts
    as the identity and any metric on adapted embeddings equals zero-shot.
    """
    bound = 1.0 / np.sqrt(dim)
    w1 = rng.uniform(-bound, bound, size=(dim, hidden)).astype(np.float32)
    b1 = rng.uniform(-bound, bound, size=(hidden,)).astype(np.float32)
    w2 = np.zeros((hidden, dim), dtype=np.float32)
    b2 = np.zeros((dim,), dtype=np.float32)
    return MlpParams(w1, b1, w2, b2)


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x: (n, d) float64 -> (mlp(x), tanh activations); float64 math over
    float32 parameters. The activations are the tape that mlp_grad consumes."""
    hidden = x @ params.w1.astype(np.float64)
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    out = hidden @ params.w2.astype(np.float64)
    out += params.b2
    return out, hidden


def mlp_grad(
    params: MlpParams, x: np.ndarray, hidden: np.ndarray, upstream: np.ndarray
) -> tuple[MlpParams, np.ndarray]:
    """Gradients of sum(upstream * mlp_forward(params, x)[0]).

    hidden is the activation tape that mlp_forward returned for x.
    Returns (parameter gradients, gradient w.r.t. x), both float64.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    d_w2 = hidden.T @ upstream
    d_b2 = upstream.sum(axis=0)
    d_hidden = (upstream @ params.w2.T) * (1.0 - hidden * hidden)
    d_w1 = x.T @ d_hidden
    d_b1 = d_hidden.sum(axis=0)
    d_x = d_hidden @ params.w1.T
    return MlpParams(d_w1, d_b1, d_w2, d_b2), d_x


@dataclass
class AdapterModel:
    dim: int
    hidden: int
    f_params: MlpParams
    p_params: MlpParams
    f_corpus_params: MlpParams | None = None
    use_skip: bool = True
    separate_adapters: bool = False
    encoder_tag: str = ""
    config_snapshot: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.separate_adapters and self.f_corpus_params is None:
            raise ValueError("separate_adapters=True requires f_corpus_params")
        if not self.separate_adapters:
            self.f_corpus_params = None

    def params_for(self, which: str) -> MlpParams:
        if which == "query" or not self.separate_adapters:
            return self.f_params
        if which == "corpus":
            return self.f_corpus_params  # type: ignore[return-value]
        raise ValueError(f"which must be 'query' or 'corpus', got {which!r}")

    def trainable(self) -> list[tuple[str, MlpParams]]:
        nets = [("f", self.f_params), ("p", self.p_params)]
        if self.separate_adapters:
            nets.append(("f_corpus", self.f_corpus_params))
        return nets

    def check_tag(self, table: EmbeddingTable, force: bool = False) -> None:
        if force:
            return
        if self.encoder_tag != table.encoder_tag:
            raise TagMismatchError(
                f"model encoder tag {self.encoder_tag!r} does not match "
                f"table tag {table.encoder_tag!r} (use force to override)"
            )

    def copy(self) -> "AdapterModel":
        return AdapterModel(
            dim=self.dim,
            hidden=self.hidden,
            f_params=self.f_params.copy(),
            p_params=self.p_params.copy(),
            f_corpus_params=self.f_corpus_params.copy() if self.separate_adapters else None,
            use_skip=self.use_skip,
            separate_adapters=self.separate_adapters,
            encoder_tag=self.encoder_tag,
            config_snapshot=self.config_snapshot,
        )


def init_adapter(
    dim: int,
    hidden: int | None = None,
    seed: int = 0,
    use_skip: bool = True,
    separate_adapters: bool = False,
    encoder_tag: str = "",
    config: TrainConfig | None = None,
) -> AdapterModel:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    hidden = dim if hidden is None else hidden
    if hidden < 1:
        raise ValueError("hidden must be >= 1")
    rng = np.random.default_rng(seed)
    f_params = init_mlp(dim, hidden, rng)
    p_params = init_mlp(dim, hidden, rng)
    f_corpus = init_mlp(dim, hidden, rng) if separate_adapters else None
    return AdapterModel(
        dim=dim,
        hidden=hidden,
        f_params=f_params,
        p_params=p_params,
        f_corpus_params=f_corpus,
        use_skip=use_skip,
        separate_adapters=separate_adapters,
        encoder_tag=encoder_tag,
        config_snapshot=config if config is not None else TrainConfig(),
    )


def transform_forward(
    model: AdapterModel, x: np.ndarray, which: str = "query"
) -> tuple[np.ndarray, np.ndarray]:
    """x: (n, d) float64 -> (adapted embeddings, tanh activations of the network)."""
    out, hidden = mlp_forward(model.params_for(which), x)
    if model.use_skip:
        out += x
    return out, hidden


def transform(model: AdapterModel, x: np.ndarray, which: str = "query") -> np.ndarray:
    """Adapted embedding: x + mlp(x) with skip, mlp(x) without.

    x is one vector (d,) or a batch (n, d); the result has the same shape.
    """
    # parameters are stored float32; forward/backward math runs in float64
    x = np.asarray(x, dtype=np.float64)
    batch = x[None, :] if x.ndim == 1 else x
    if batch.ndim != 2 or batch.shape[1] != model.dim:
        raise ValueError(f"input has shape {x.shape}, expected (*, {model.dim})")
    out, _ = transform_forward(model, batch, which)
    return out[0] if x.ndim == 1 else out


def transform_grad(
    model: AdapterModel,
    x: np.ndarray,
    hidden: np.ndarray,
    upstream: np.ndarray,
    which: str = "query",
) -> tuple[MlpParams, np.ndarray]:
    """Gradients of sum(upstream * transform(model, x, which)) for a batch x.

    hidden is the activation tape that transform_forward returned for x.
    Returns (gradients for the selected network, gradient w.r.t. x).
    """
    grads, d_x = mlp_grad(model.params_for(which), x, hidden, upstream)
    if model.use_skip:
        d_x += upstream
    return grads, d_x


def predict_query(model: AdapterModel, adapted_corpus: np.ndarray) -> np.ndarray:
    """Predictor network forward pass (no skip connection), (n, d) -> (n, d)."""
    out, _ = mlp_forward(model.p_params, np.asarray(adapted_corpus, dtype=np.float64))
    return out


def _write_str(f, s: str) -> None:
    raw = s.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def save_checkpoint(model: AdapterModel, path: str) -> None:
    import io as _io

    buf = _io.BytesIO()
    buf.write(struct.pack("<H", CHECKPOINT_VERSION))
    flags = (1 if model.use_skip else 0) | (2 if model.separate_adapters else 0)
    buf.write(struct.pack("<IIB", model.dim, model.hidden, flags))
    _write_str(buf, model.encoder_tag)
    _write_str(buf, json.dumps(model.config_snapshot.to_dict(), sort_keys=True))
    for _, params in model.trainable():
        params.check()
        for arr in params.arrays():
            buf.write(arr.astype("<f4").tobytes())
    payload = buf.getvalue()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def load_checkpoint(path: str) -> AdapterModel:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {data[:4]!r}")
    if len(data) < 8:
        raise FormatError(f"{path}: truncated checkpoint")
    payload, (crc,) = data[4:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FormatError(f"{path}: checksum mismatch, checkpoint corrupted")
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(payload):
            raise FormatError(f"{path}: truncated checkpoint payload")
        out = payload[off : off + n]
        off += n
        return out

    def take_str() -> str:
        (n,) = struct.unpack("<I", take(4))
        return take(n).decode("utf-8")

    (version,) = struct.unpack("<H", take(2))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    dim, hidden, flags = struct.unpack("<IIB", take(9))
    encoder_tag = take_str()
    config = TrainConfig.from_dict(json.loads(take_str()))
    use_skip = bool(flags & 1)
    separate = bool(flags & 2)

    def take_params() -> MlpParams:
        shapes = [(dim, hidden), (hidden,), (hidden, dim), (dim,)]
        arrays = []
        for shape in shapes:
            n = int(np.prod(shape))
            arrays.append(
                np.frombuffer(take(4 * n), dtype="<f4").reshape(shape).copy()
            )
        return MlpParams(*arrays)

    f_params = take_params()
    p_params = take_params()
    f_corpus = take_params() if separate else None
    if off != len(payload):
        raise FormatError(f"{path}: trailing bytes in checkpoint payload")
    return AdapterModel(
        dim=dim,
        hidden=hidden,
        f_params=f_params,
        p_params=p_params,
        f_corpus_params=f_corpus,
        use_skip=use_skip,
        separate_adapters=separate,
        encoder_tag=encoder_tag,
        config_snapshot=config,
    )
