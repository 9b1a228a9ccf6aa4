"""Trainable networks: residual adaptation MLP and query predictor.

Both networks are single-hidden-layer tanh MLPs mapping R^d -> R^d. The
adaptation network is applied with a skip connection (output = x + mlp(x))
so a zero-initialized output layer makes it the identity map. The predictor
never uses a skip connection.
"""

from __future__ import annotations

import json
import os
import re
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, TypeVar

import numpy as np

from .config import TrainConfig, from_json
from .errors import DataError, FormatError
from .io import BlockReader, _utf8, write_blocks

CHECKPOINT_MAGIC = b"SADC"
CHECKPOINT_VERSION = 1

PARAM_NAMES = ("w1", "b1", "w2", "b2")
# float64 bytes of one row block of the widest layer, in transform and in the
# evaluation's pass over each side: 341 rows at d=384, 2048 rows at d=64
# (transform's float32 blocks fill half of it)
ROW_BLOCK_BYTES = 1 << 20
# the most threads that map_blocks runs blocks on
MAX_WORKERS = 8

S = TypeVar("S")
T = TypeVar("T")


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
    """x: (n, d) float32 or float64 -> (mlp(x), tanh activations), both in
    x's dtype, which the math runs in (numpy promotes the float32 parameters
    to it). The activations are the tape that mlp_grad consumes."""
    hidden = x @ params.w1
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    out = hidden @ params.w2
    out += params.b2
    return out, hidden


def mlp_grad(
    params: MlpParams, x: np.ndarray, hidden: np.ndarray, upstream: np.ndarray
) -> tuple[MlpParams, np.ndarray]:
    """Gradients of sum(upstream * mlp_forward(params, x)[0]).

    hidden is the activation tape that mlp_forward returned for x.
    Returns (parameter gradients, gradient w.r.t. x) in the dtype of hidden
    and upstream, which a training step takes from its rows: float32 rows
    give float32 gradients, float64 rows float64 ones.
    """
    grads, d_hidden = _param_grads(params, x, hidden, upstream)
    return grads, d_hidden @ params.w1.T


def _param_grads(
    params: MlpParams, x: np.ndarray, hidden: np.ndarray, upstream: np.ndarray
) -> tuple[MlpParams, np.ndarray]:
    """mlp_grad's parameter gradients, and the gradient w.r.t. the hidden
    layer's pre-activations, from which mlp_grad takes the input's."""
    d_w2 = hidden.T @ upstream
    d_b2 = upstream.sum(axis=0)
    d_hidden = upstream @ params.w2.T
    d_hidden *= 1.0 - hidden * hidden
    d_w1 = x.T @ d_hidden
    d_b1 = d_hidden.sum(axis=0)
    return MlpParams(d_w1, d_b1, d_w2, d_b2), d_hidden


@dataclass
class AdapterModel:
    """The adaptation network f, the predictor p and, with separate adapters,
    a corpus-side adaptation network; their arrays fix the model's shape."""

    f_params: MlpParams
    p_params: MlpParams
    f_corpus_params: MlpParams | None = None
    use_skip: bool = True
    encoder_tag: str = ""
    config_snapshot: TrainConfig = field(default_factory=TrainConfig)
    checkpoint_crc: int | None = None  # the CRC32 of the .sadc file it was loaded from

    @property
    def dim(self) -> int:
        return self.f_params.dim

    @property
    def hidden(self) -> int:
        return self.f_params.hidden

    @property
    def separate_adapters(self) -> bool:
        return self.f_corpus_params is not None

    def params_for(self, which: str) -> MlpParams:
        if which not in ("query", "corpus"):
            raise ValueError(f"which must be 'query' or 'corpus', got {which!r}")
        if which == "corpus" and self.separate_adapters:
            return self.f_corpus_params  # type: ignore[return-value]
        return self.f_params

    def trainable(self) -> list[tuple[str, MlpParams]]:
        nets = [("f", self.f_params), ("p", self.p_params)]
        if self.separate_adapters:
            nets.append(("f_corpus", self.f_corpus_params))
        return nets


def init_adapter(
    dim: int, *, seed: int = 0, encoder_tag: str = "", config: TrainConfig | None = None
) -> AdapterModel:
    """A model whose layout (hidden width, skip connection, separate corpus
    network) is config's, TrainConfig() when None; config becomes its
    config_snapshot, so a checkpoint's config block matches its networks."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    config = TrainConfig() if config is None else config
    hidden = dim if config.hidden is None else config.hidden
    rng = np.random.default_rng(seed)
    f_params = init_mlp(dim, hidden, rng)
    p_params = init_mlp(dim, hidden, rng)
    f_corpus = init_mlp(dim, hidden, rng) if config.separate_adapters else None
    return AdapterModel(
        f_params=f_params,
        p_params=p_params,
        f_corpus_params=f_corpus,
        use_skip=config.use_skip,
        encoder_tag=encoder_tag,
        config_snapshot=config,
    )


def transform_forward(
    model: AdapterModel, x: np.ndarray, which: str = "query"
) -> tuple[np.ndarray, np.ndarray]:
    """x: (n, d) float32 or float64 -> (adapted embeddings, tanh activations
    of the network), in x's dtype (see mlp_forward). Training runs it on the
    dtype that train picks for the step: the tables' float32 rows, or
    float64 when a component lies outside 2**32."""
    out, hidden = mlp_forward(model.params_for(which), x)
    if model.use_skip:
        out += x
    return out, hidden


def row_blocks(n: int, width: int, budget: int | None = None) -> list[slice]:
    """Consecutive slices covering n rows in ceil(n / B) blocks whose sizes
    differ by at most one, where B rows of `width` float64 columns fill
    budget bytes, ROW_BLOCK_BYTES by default.

    The blocks are near-equal, not B rows and a short remainder: OpenBLAS
    runs a GEMM of one or a few rows with other kernels, which round
    differently from the kernel that the whole matrix gets.
    """
    per_block = max(1, (ROW_BLOCK_BYTES if budget is None else budget) // (8 * width))
    count = max(1, -(-n // per_block))
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _blas_name() -> str:
    """numpy's BLAS, lower case; "openblas" where numpy cannot say (< 1.25)."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()
    except (AttributeError, KeyError, TypeError):
        return "openblas"


BLAS = _blas_name()
# the variables a BLAS reads its thread count from, the first one set first
THREAD_VARIABLES = {"openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
                    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS")}


def blas_on_one_thread(environ: Mapping[str, str] = os.environ, blas: str = BLAS) -> bool:
    """True when the BLAS named blas runs each product on one thread: the
    first of its THREAD_VARIABLES that C's atoi reads as a positive integer
    ("01" is 1; "", "0" and "x" pass on) is 1. With none set, OpenBLAS and
    MKL start a thread per CPU; another BLAS's threads are not known."""
    names = next((names for family, names in THREAD_VARIABLES.items() if family in blas), ())
    for name in names:
        digits = re.match(r"\s*([+-]?\d+)", environ.get(name, ""), re.ASCII)
        if digits and int(digits[1]) > 0:
            return int(digits[1]) == 1
    return False


# read once, as BLAS reads those variables once, when numpy loads it
BLAS_ONE_THREAD = blas_on_one_thread()


def workers() -> int:
    """The threads that transform and ranked_lists run their blocks on.

    With BLAS on one thread (BLAS_ONE_THREAD), one per CPU this process may
    run on (os.cpu_count() where the platform cannot tell), at most
    MAX_WORKERS. Otherwise 1: BLAS's own threads already share each product
    among the CPUs, and blocks on threads of their own as well made
    evaluate 45 % slower on 2 CPUs. A CPU time quota, as a container may
    set, is not read.
    """
    if not BLAS_ONE_THREAD:
        return 1
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # macOS, Windows
        n = os.cpu_count() or 1
    return min(MAX_WORKERS, n)


def map_blocks(fn: Callable[[S], T], blocks: list[S], n_workers: int) -> list[T]:
    """[fn(rows) for rows in blocks], run on up to n_workers threads (a
    caller passes workers()) and returned in block order; with one worker or
    one block it is that plain loop and starts no thread. The first
    exception raised, in block order, is raised here.

    fn runs on a worker thread, where numpy's products, sorts and
    elementwise kernels release the interpreter lock, under the caller's
    np.errstate (which is per thread), as in the plain loop. So fn writes
    only its own rows and calls no function that perfbench/tracer.py wraps,
    whose span stack is shared.
    """
    n = min(n_workers, len(blocks))
    if n <= 1:
        return [fn(rows) for rows in blocks]
    state = dict(np.geterr(), call=np.geterrcall())

    def run(rows: S) -> T:
        with np.errstate(**state):
            return fn(rows)

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(run, blocks))


def transform(model: AdapterModel, x: np.ndarray, which: str = "query") -> np.ndarray:
    """Adapted embedding: x + mlp(x) with skip, mlp(x) without.

    x is one vector (d,) or a batch (n, d); the result has the same shape,
    float32, the dtype of the parameters and of an embedding file. Float64
    input is rounded to float32 first, and the network runs in float32. The
    batch runs through the network in row blocks (see row_blocks), so the
    output is the only full-size array built. An output that is not all
    finite, as when a finite model overflows float32, raises DataError.
    The blocks run on the threads of map_blocks; each block's product has
    the shape it has in a plain loop, so the output does not depend on the
    number of threads. Each thread holds one block's temporaries, at most
    1.5 * ROW_BLOCK_BYTES (ROW_BLOCK_BYTES for float32 input), so memory
    beyond the output grows with workers(), not with the batch.
    """
    x = np.asarray(x)
    batch = x[None, :] if x.ndim == 1 else x
    if batch.ndim != 2 or batch.shape[1] != model.dim:
        raise ValueError(f"input has shape {x.shape}, expected (*, {model.dim})")
    out = np.empty(batch.shape, dtype=np.float32)

    def forward(rows: slice) -> None:
        out[rows] = adapt_block(model, np.asarray(batch[rows], dtype=np.float32), which)

    map_blocks(forward, row_blocks(len(batch), max(model.dim, model.hidden)), workers())
    return out[0] if x.ndim == 1 else out


def adapt_block(model: AdapterModel, block: np.ndarray, which: str) -> np.ndarray:
    """transform's network on one float32 row block of its blocks (see
    row_blocks), as a new float32 array; DataError unless it is all finite.
    Traced by no benchmark span, so a worker of map_blocks may call it."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = transform_forward(model, block, which)[0]  # the activations freed at once
    if not np.isfinite(out).all():  # checked while the block is in cache
        raise DataError(f"the adapted {which} embeddings are not all finite in float32")
    return out


def transform_grad(
    model: AdapterModel,
    x: np.ndarray,
    hidden: np.ndarray,
    upstream: np.ndarray,
    which: str = "query",
) -> MlpParams:
    """Gradients of sum(upstream * transform(model, x, which)) for a batch x
    with respect to the selected network's parameters, in the dtype of x's
    step (see mlp_grad).

    hidden is the activation tape that transform_forward returned for x. The
    skip connection has no parameters, so it adds nothing here. The rows x
    are inputs, not parameters, so no gradient w.r.t. x is computed.
    """
    return _param_grads(model.params_for(which), x, hidden, upstream)[0]


def predict_query(model: AdapterModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictor forward (no skip connection) on adapted corpus rows x:
    (predicted queries, tanh activations), in x's dtype (see mlp_forward)."""
    return mlp_forward(model.p_params, x)


def save_checkpoint(model: AdapterModel, path: str) -> None:
    tag = _utf8(model.encoder_tag, "encoder tag")
    config = json.dumps(model.config_snapshot.to_dict(), sort_keys=True).encode("utf-8")
    flags = (1 if model.use_skip else 0) | (2 if model.separate_adapters else 0)
    blocks = [
        struct.pack("<HIIBI", CHECKPOINT_VERSION, model.dim, model.hidden, flags, len(tag)) + tag,
        struct.pack("<I", len(config)) + config,
    ]
    for net, params in model.trainable():
        params.check()
        if (params.dim, params.hidden) != (model.dim, model.hidden):
            raise ValueError(f"{net} network is {params.dim}x{params.hidden}, "
                             f"f is {model.dim}x{model.hidden}")
        blocks += [np.ascontiguousarray(arr, dtype="<f4") for arr in params.arrays()]
    write_blocks(path, CHECKPOINT_MAGIC, blocks)


def load_checkpoint(path: str) -> AdapterModel:
    with open(path, "rb") as f:
        r = BlockReader(f, path, CHECKPOINT_MAGIC)
        version, dim, hidden, flags, tag_len = r.unpack("<HIIBI", "header")
        if version != CHECKPOINT_VERSION:
            raise r.error(f"unsupported checkpoint version {version}")
        if dim < 1 or hidden < 1:
            raise r.error(f"dim and hidden must be >= 1, got {dim} and {hidden}")
        if flags & ~3:
            raise r.error(f"unknown flag bits {flags:#04x}")
        encoder_tag = r.string(tag_len, "encoder tag")
        config_text = r.string(*r.unpack("<I", "config length"), "config")
        try:
            # older checkpoints store val_corpus_sample, which only shaped training-time validation
            config = from_json(TrainConfig, config_text, retired=("val_corpus_sample",))
        except (FormatError, ValueError) as exc:
            raise r.error(f"invalid config: {exc}") from None
        separate = bool(flags & 2)
        shapes = [(dim, hidden), (hidden,), (hidden, dim), (dim,)]
        nets = []
        for net in ("f", "p", "f_corpus")[: 2 + separate]:
            params = MlpParams(*(r.array(shape, f"{net} {name}")
                                 for name, shape in zip(PARAM_NAMES, shapes)))
            try:
                params.check()
            except ValueError as exc:
                raise r.error(f"{net} network: {exc}") from None
            nets.append(params)
        crc = r.end()
    return AdapterModel(
        f_params=nets[0],
        p_params=nets[1],
        f_corpus_params=nets[2] if separate else None,
        use_skip=bool(flags & 1),
        encoder_tag=encoder_tag,
        config_snapshot=config,
        checkpoint_crc=crc,
    )
