"""Dataset and embedding persistence, plus the remote encoder client.

File formats:
  - queries.jsonl / corpus.jsonl: one object per line, BEIR-style
    {"_id": ..., "text": ..., "title": ...}.
  - qrels.tsv: query-id<TAB>corpus-id<TAB>score, optional header row.
  - *.sadp: binary embedding table, little-endian. Version 2, the only one
    written: magic b"SADP", header <HQI (version, count, dim), the encoder
    tag as a u16 byte length plus UTF-8 bytes, then three blocks: count u16
    id lengths, all UTF-8 id bytes, and a contiguous count x dim <f4 vector
    block; last, a u32 CRC32 over everything after the magic. Ids and the
    tag are at most 65535 bytes each. Version 1 (one u16-prefixed id and one
    vector per record, no checksum) is still read, never written.
"""

from __future__ import annotations

import json
import math
import os
import random
import struct
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np
import requests

from .data import EmbeddingTable, ItemSet, RelevanceSet, TextItem
from .errors import FetchError, FormatError

EMBEDDING_MAGIC = b"SADP"
EMBEDDING_VERSION = 2
BACKOFF_CAP_SECONDS = 60.0


def _text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) pairs of a UTF-8 text file.

    Bytes that are not UTF-8 raise FormatError naming the line: they decode
    to lone surrogates, which no valid UTF-8 produces and encode() refuses.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise FormatError(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line


def load_jsonl_items(path: str | Path) -> ItemSet:
    """Load a BEIR-style jsonl file of items, preserving file order."""
    items: list[TextItem] = []
    for lineno, line in _text_lines(path):
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
    for lineno, line in _text_lines(path):
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
        if not math.isfinite(score):
            raise FormatError(f"{path}:{lineno}: non-finite score {raw_score!r}")
        if score == 0.0:
            continue
        triplets.append((qid, cid, score))
    try:
        return RelevanceSet(triplets)
    except Exception as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _decode_str(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not valid UTF-8: {exc}") from None


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise FormatError(f"truncated file while reading {what}")
    return raw


def write_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Persist an embedding table as .sadp v2, one write per block.

    Round-trips bit-exactly via read_embeddings.
    """
    if len(table) == 0:
        raise FormatError("refusing to write an empty embedding table")
    encoded = [s.encode("utf-8") for s in (table.encoder_tag, *table.ids)]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    if lengths.max() > 0xFFFF:
        longest = encoded[int(lengths.argmax())]
        raise FormatError(f"string {longest[:40]!r}... is {len(longest)} bytes, "
                          "over the format's limit of 65535")
    tag = encoded[0]
    vectors = np.ascontiguousarray(table.vectors, dtype="<f4")
    blocks = (
        struct.pack("<HQIH", EMBEDDING_VERSION, len(table), table.dim, len(tag)) + tag,
        lengths[1:].astype("<u2"),
        b"".join(encoded[1:]),
        memoryview(vectors).cast("B"),
    )
    crc = 0
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC)
        for block in blocks:
            f.write(block)
            crc = zlib.crc32(block, crc)
        f.write(struct.pack("<I", crc))


def read_embeddings(path: str | Path) -> EmbeddingTable:
    """Read a .sadp v1 or v2 file; any malformed input raises FormatError."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic != EMBEDDING_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        header = _read_exact(f, 16, "header")
        version, count, dim, tag_len = struct.unpack("<HQIH", header)
        if version not in (1, EMBEDDING_VERSION):
            raise FormatError(f"{path}: unsupported version {version}")
        raw_tag = _read_exact(f, tag_len, "encoder tag")
        encoder_tag = _decode_str(raw_tag, "encoder tag")
        # each record holds at least a 2-byte id length and 4 * dim bytes
        if f.tell() + count * (2 + 4 * dim) > size:
            raise FormatError(f"{path}: truncated file, header claims {count} "
                              f"records of {dim} floats")
        if version == 1:
            ids, vectors = _read_v1_records(f, path, count, dim)
        else:
            crc = zlib.crc32(raw_tag, zlib.crc32(header))
            ids, vectors = _read_v2_blocks(f, path, count, dim, size, crc)
    try:
        return EmbeddingTable(ids, vectors, encoder_tag)
    except Exception as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _read_v1_records(
    f: BinaryIO, path: str | Path, count: int, dim: int
) -> tuple[list[str], np.ndarray]:
    """v1 (read-only): one u16-prefixed id and one <f4 vector per record."""
    ids: list[str] = []
    vectors = np.empty((count, dim), dtype=np.float32)
    for i in range(count):
        (n,) = struct.unpack("<H", _read_exact(f, 2, f"record {i} id"))
        ids.append(_decode_str(_read_exact(f, n, f"record {i} id"), f"record {i} id"))
        raw = _read_exact(f, 4 * dim, f"record {i} vector")
        vectors[i] = np.frombuffer(raw, dtype="<f4")
    if f.read(1):
        raise FormatError(f"{path}: trailing bytes after {count} records")
    return ids, vectors


def _read_v2_blocks(
    f: BinaryIO, path: str | Path, count: int, dim: int, size: int, crc: int
) -> tuple[list[str], np.ndarray]:
    """v2: id lengths, id bytes and vectors as three blocks, then a CRC32.

    The caller has checked count * (2 + 4 * dim) against the file size.
    """
    raw_lengths = _read_exact(f, 2 * count, "id lengths")
    crc = zlib.crc32(raw_lengths, crc)
    lengths = np.frombuffer(raw_lengths, dtype="<u2")
    offsets = [0, *np.cumsum(lengths, dtype=np.int64).tolist()]
    id_bytes = offsets[-1]
    expected = f.tell() + id_bytes + 4 * count * dim + 4
    if size < expected:
        raise FormatError(f"{path}: truncated file, {size} bytes where the "
                          f"id lengths imply {expected}")
    if size > expected:
        raise FormatError(f"{path}: trailing bytes after {count} records")
    raw_ids = _read_exact(f, id_bytes, "ids")
    crc = zlib.crc32(raw_ids, crc)
    try:
        ids = [raw_ids[a:b].decode("utf-8") for a, b in zip(offsets, offsets[1:])]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: an id is not valid UTF-8: {exc}") from None
    vectors = np.empty((count, dim), dtype="<f4")
    block = vectors.reshape(-1).view(np.uint8)  # readinto fills the table in place
    if f.readinto(block) != len(block):
        raise FormatError(f"{path}: truncated file while reading vectors")
    crc = zlib.crc32(block, crc)
    (stored,) = struct.unpack("<I", _read_exact(f, 4, "checksum"))
    if stored != crc:
        raise FormatError(f"{path}: checksum mismatch, embedding file corrupted")
    return ids, vectors


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


def _retry_after_seconds(resp) -> float | None:
    """An integer Retry-After header in seconds, capped at BACKOFF_CAP_SECONDS."""
    value = resp.headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(BACKOFF_CAP_SECONDS, float(value))


def _fetch_batch(
    session,
    cfg: EncoderEndpointConfig,
    headers: dict[str, str],
    texts: list[str],
    start: int,
) -> list[list[float]]:
    """Embed one batch, retrying only failures that can succeed on retry.

    Timeouts, connection errors, malformed bodies and HTTP 408, 429 and 5xx
    are retried with exponential backoff, or after an integer Retry-After;
    any other 4xx raises FetchError at once.
    """
    span = f"batch [{start}:{start + len(texts)}]"
    last_error: Exception | None = None
    delay: float | None = None  # the Retry-After of the last response, if any
    for attempt in range(cfg.retry_limit + 1):
        if attempt > 0:
            if delay is None:
                backoff = cfg.backoff_base_seconds * (2 ** (attempt - 1))
                delay = min(BACKOFF_CAP_SECONDS, backoff) * (0.5 + random.random())
            time.sleep(delay)
            delay = None
        try:
            resp = session.post(
                cfg.base_url,
                json={cfg.request_field: texts},
                headers=headers,
                timeout=cfg.timeout_seconds,
            )
        except Exception as exc:  # noqa: BLE001 - timeouts and connection errors
            last_error = exc
            continue
        status = resp.status_code
        if status >= 400:
            if status < 500 and status not in (408, 429):
                raise FetchError(f"{span} refused with HTTP {status}, not retried")
            last_error = FetchError(f"HTTP {status}")
            delay = _retry_after_seconds(resp)
            continue
        try:
            embeddings = resp.json()[cfg.response_field]
            if len(embeddings) == len(texts):
                return embeddings
            last_error = FetchError(
                f"endpoint returned {len(embeddings)} vectors for {len(texts)} texts"
            )
        except (ValueError, KeyError, TypeError) as exc:  # a malformed body may be transient
            last_error = exc
    raise FetchError(
        f"{span} failed after {cfg.retry_limit + 1} attempts: {last_error}"
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
