"""Dataset and embedding persistence, plus the remote encoder client.

File formats:
  - queries.jsonl / corpus.jsonl: one object per line, BEIR-style
    {"_id": ..., "text": ..., "title": ...}.
  - qrels.tsv: query-id<TAB>corpus-id<TAB>score, optional header row.
  - *.sadp: binary embedding table, little-endian, see EMBEDDING_MAGIC.
"""

from __future__ import annotations

import json
import os
import random
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np
import requests

from .data import EmbeddingTable, ItemSet, RelevanceSet, TextItem
from .errors import FetchError, FormatError

EMBEDDING_MAGIC = b"SADP"
EMBEDDING_VERSION = 1
BACKOFF_CAP_SECONDS = 60.0


def load_jsonl_items(path: str | Path) -> ItemSet:
    """Load a BEIR-style jsonl file of items, preserving file order."""
    items: list[TextItem] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict) or "_id" not in obj:
                raise FormatError(f"{path}:{lineno}: object missing '_id'")
            items.append(
                TextItem(
                    id=str(obj["_id"]),
                    text=str(obj.get("text", "")),
                    title=str(obj["title"]) if obj.get("title") is not None else None,
                )
            )
    try:
        return ItemSet(items)
    except Exception as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_qrels_tsv(path: str | Path) -> RelevanceSet:
    """Load TSV relevance judgments; zero-score rows are implicit negatives."""
    triplets: list[tuple[str, str, float]] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            qid, cid, raw_score = parts
            try:
                score = float(raw_score)
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise FormatError(
                    f"{path}:{lineno}: non-numeric score {raw_score!r}"
                ) from None
            if score == 0.0:
                continue
            triplets.append((qid, cid, score))
    try:
        return RelevanceSet(triplets)
    except Exception as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _write_str(f: BinaryIO, s: str) -> None:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError("string too long for format")
    f.write(struct.pack("<H", len(raw)))
    f.write(raw)


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise FormatError(f"truncated file while reading {what}")
    return raw


def _read_str(f: BinaryIO, what: str) -> str:
    (n,) = struct.unpack("<H", _read_exact(f, 2, what))
    raw = _read_exact(f, n, what)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not valid UTF-8: {exc}") from None


def write_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Persist an embedding table; round-trips bit-exactly via read_embeddings."""
    if len(table) == 0:
        raise FormatError("refusing to write an empty embedding table")
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC)
        f.write(struct.pack("<HQI", EMBEDDING_VERSION, len(table), table.dim))
        _write_str(f, table.encoder_tag)
        vectors = table.vectors
        for i, item_id in enumerate(table.ids):
            _write_str(f, item_id)
            f.write(vectors[i].astype("<f4").tobytes())


def read_embeddings(path: str | Path) -> EmbeddingTable:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != EMBEDDING_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        version, count, dim = struct.unpack("<HQI", _read_exact(f, 14, "header"))
        if version != EMBEDDING_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        encoder_tag = _read_str(f, "encoder tag")
        # each record holds at least a 2-byte id length and 4 * dim bytes
        if f.tell() + count * (2 + 4 * dim) > os.fstat(f.fileno()).st_size:
            raise FormatError(f"{path}: truncated file, header claims {count} "
                              f"records of {dim} floats")
        ids: list[str] = []
        vectors = np.empty((count, dim), dtype=np.float32)
        for i in range(count):
            ids.append(_read_str(f, f"record {i} id"))
            raw = _read_exact(f, 4 * dim, f"record {i} vector")
            vectors[i] = np.frombuffer(raw, dtype="<f4")
        trailing = f.read(1)
        if trailing:
            raise FormatError(f"{path}: trailing bytes after {count} records")
    try:
        return EmbeddingTable(ids, vectors, encoder_tag)
    except Exception as exc:
        raise FormatError(f"{path}: {exc}") from exc


@dataclass
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
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_concurrent_requests < 1:
            raise ValueError("max_concurrent_requests must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "EncoderEndpointConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls(**json.load(f))


def _auth_headers(cfg: EncoderEndpointConfig) -> dict[str, str]:
    if not cfg.auth_token_env_var:
        return {}
    token = os.environ.get(cfg.auth_token_env_var)
    if not token:
        raise FetchError(
            f"auth env var {cfg.auth_token_env_var!r} is not set"
        )
    return {"Authorization": f"Bearer {token}"}


def _fetch_batch(
    session,
    cfg: EncoderEndpointConfig,
    headers: dict[str, str],
    texts: list[str],
    start: int,
) -> list[list[float]]:
    last_error: Exception | None = None
    for attempt in range(cfg.retry_limit + 1):
        if attempt > 0:
            delay = min(
                BACKOFF_CAP_SECONDS,
                cfg.backoff_base_seconds * (2 ** (attempt - 1)),
            )
            time.sleep(delay * (0.5 + random.random()))
        try:
            resp = session.post(
                cfg.base_url,
                json={cfg.request_field: texts},
                headers=headers,
                timeout=cfg.timeout_seconds,
            )
            resp.raise_for_status()
            payload = resp.json()
            embeddings = payload[cfg.response_field]
            if len(embeddings) != len(texts):
                raise FetchError(
                    f"endpoint returned {len(embeddings)} vectors for {len(texts)} texts"
                )
            return embeddings
        except Exception as exc:  # noqa: BLE001 - any failure is retryable
            last_error = exc
    raise FetchError(
        f"batch [{start}:{start + len(texts)}] failed after "
        f"{cfg.retry_limit + 1} attempts: {last_error}"
    )


def fetch_embeddings(
    items: Sequence[TextItem],
    cfg: EncoderEndpointConfig,
    session=None,
) -> EmbeddingTable:
    """Embed items via the remote endpoint.

    Requests are batched at cfg.max_batch, issued with bounded concurrency,
    and retried with exponential backoff. Either a full table is returned or
    an error is raised; partial results are never surfaced.
    """
    if not items:
        raise FetchError("no items to embed")
    owns_session = session is None
    if owns_session:
        session = requests.Session()
    headers = _auth_headers(cfg)
    batches = [
        (start, [it.text for it in items[start : start + cfg.max_batch]])
        for start in range(0, len(items), cfg.max_batch)
    ]
    try:
        with ThreadPoolExecutor(max_workers=cfg.max_concurrent_requests) as pool:
            futures = [
                pool.submit(_fetch_batch, session, cfg, headers, texts, start)
                for start, texts in batches
            ]
            results = [fut.result() for fut in futures]
    finally:
        if owns_session:
            session.close()
    all_vectors = [vec for batch in results for vec in batch]
    dims = {len(vec) for vec in all_vectors}
    if len(dims) != 1:
        raise FetchError(f"inconsistent embedding dimensions across batches: {sorted(dims)}")
    vectors = np.asarray(all_vectors, dtype=np.float32)
    return EmbeddingTable([it.id for it in items], vectors, cfg.encoder_tag)
