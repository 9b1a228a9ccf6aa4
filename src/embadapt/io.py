"""Dataset and embedding persistence, plus the remote encoder client.

File formats:
  - queries.jsonl / corpus.jsonl: one object per line, BEIR-style
    {"_id": ..., "text": ..., "title": ...}.
  - qrels.tsv: query-id<TAB>corpus-id<TAB>score, optional header row.
  - *.sadp and *.sadc share one little-endian frame, read by BlockReader
    and written by write_blocks: a 4-byte magic, the body, then a u32 CRC32
    over everything after the magic.
  - *.sadp: binary embedding table, version 2. Magic b"SADP", header <HQIH
    (version, count, dim, encoder tag byte length), the UTF-8 tag, then
    three blocks: count u16 id lengths, all UTF-8 id bytes, and a contiguous
    count x dim <f4 vector block. Ids are unique and each is valid UTF-8 on
    its own. Ids and the tag are at most 65535 bytes each.
  - *.sadc (adapter.py): checkpoint, version 1. Magic b"SADC", header <HIIB
    (version, dim, hidden, flags: 1 skip, 2 separate adapters), the encoder
    tag and the config JSON each as a u32 byte length plus UTF-8 bytes, then
    w1 b1 w2 b2 as <f4 for f, p and, with flag 2, f_corpus.
"""

from __future__ import annotations

import json
import math
import os
import random
import stat
import struct
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import EncoderEndpointConfig
from .data import EmbeddingTable, RelevanceSet, TextItem
from .errors import DataError, FetchError, FormatError

EMBEDDING_MAGIC = b"SADP"
EMBEDDING_VERSION = 2
BACKOFF_CAP_SECONDS = 60.0


def _text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) pairs of a UTF-8 text file, less a leading BOM.

    Bytes that are not UTF-8 raise FormatError naming the line: they decode
    to lone surrogates, which no valid UTF-8 produces and encode() refuses.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise FormatError(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line


def _utf8(s: str, what: str) -> bytes:
    if not isinstance(s, str):
        raise FormatError(f"{what} {s!r} is {type(s).__name__}, not str")
    try:
        return s.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        raise FormatError(f"{what} {s!r} cannot be encoded as UTF-8") from None


def load_jsonl_items(path: str | Path) -> list[TextItem]:
    """Load a BEIR-style jsonl file of items with unique ids, in file order."""
    items: list[TextItem] = []
    seen: set[str] = set()
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
        # str() of any other JSON value is a Python repr, such as 'None' or 'False'
        raw_id, text, title = obj["_id"], obj.get("text", ""), obj.get("title")
        if type(raw_id) not in (str, int):
            raise FormatError(f"{path}:{lineno}: '_id' is not a string or an integer")
        if not isinstance(text, str):
            raise FormatError(f"{path}:{lineno}: 'text' is not a string")
        if title is not None and not isinstance(title, str):
            raise FormatError(f"{path}:{lineno}: 'title' is not a string or null")
        item_id = str(raw_id)
        if not item_id:
            raise FormatError(f"{path}:{lineno}: empty '_id'")
        _utf8(item_id, f"{path}:{lineno}: '_id'")  # a JSON escape can make a lone surrogate
        if item_id in seen:
            raise FormatError(f"{path}: duplicate item id: {item_id!r}")
        seen.add(item_id)
        items.append(TextItem(id=item_id, text=text, title=title))
    return items


def load_qrels_tsv(path: str | Path) -> RelevanceSet:
    """Load TSV relevance judgments; RelevanceSet drops a zero-score row, the
    implicit grade 0 of any pair without a row."""
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
        triplets.append((qid, cid, score))
    try:
        return RelevanceSet(triplets)
    except DataError as exc:
        raise FormatError(f"{path}: {exc}") from exc


class BlockReader:
    """Reads one framed binary file: a magic, a body, then a u32 CRC32 over
    every byte after the magic.

    Each read is checked against the bytes left in the file before anything
    sized by it is allocated, and every byte read after the magic is fed to a
    running CRC32. Every failure raises FormatError naming the file.
    """

    def __init__(self, f: BinaryIO, path: str | Path, magic: bytes):
        self._f = f
        self.path = path
        self.crc = 0
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):  # the file size bounds every read
            raise self.error("not a regular file")
        self.left = st.st_size - len(magic)
        head = f.read(len(magic))
        if head != magic:
            raise self.error(f"bad magic {head!r}")

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.path}: {message}")

    def need(self, n: int, what: str) -> None:
        if n > self.left:
            raise self.error(f"truncated file, {self.left} bytes left "
                             f"for {n} bytes of {what}")

    def read(self, n: int, what: str) -> bytes:
        self.need(n, what)
        raw = self._f.read(n)
        if len(raw) != n:
            raise self.error(f"truncated file while reading {what}")
        self.left -= n
        self.crc = zlib.crc32(raw, self.crc)
        return raw

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def string(self, n: int, what: str) -> str:
        """One UTF-8 string of n bytes."""
        return self._decode(self.read(n, what), what)

    def strings(self, lengths: np.ndarray, what: str) -> list[str]:
        """UTF-8 strings of the given byte lengths, stored back to back, each
        valid UTF-8 on its own. The block is decoded and split once, not
        string by string."""
        ends = np.cumsum(lengths, dtype=np.int64)
        if not len(ends):
            return []
        raw = self.read(int(ends[-1]), what)
        self._decode(raw, what)
        starts = ends[:-1]
        # no string may start inside a character, on a continuation byte
        first = np.frombuffer(raw, dtype=np.uint8)[starts[starts < len(raw)]]
        split = np.flatnonzero(first & 0xC0 == 0x80)
        if len(split):
            raise self.error(f"{what} is not valid UTF-8: the string at index "
                             f"{int(split[0]) + 1} starts inside a character")
        # 0xFF is in no valid UTF-8 and no valid UTF-8 decodes to a surrogate,
        # so a 0xFF put between the strings decodes to the one U+DCFF there is
        marked = np.insert(np.frombuffer(raw, dtype=np.uint8), starts, 0xFF).tobytes()
        return marked.decode("utf-8", "surrogateescape").split("\udcff")

    def _decode(self, raw: bytes, what: str) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not valid UTF-8: {exc}") from None

    def array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """A fresh <f4 array of the given shape, filled in place by one read."""
        self.need(4 * math.prod(shape), what)
        out = np.empty(shape, dtype="<f4")
        block = out.reshape(-1).view(np.uint8)
        if self._f.readinto(block) != len(block):
            raise self.error(f"truncated file while reading {what}")
        self.left -= len(block)
        self.crc = zlib.crc32(block, self.crc)
        return out

    def end(self) -> int:
        """Check the stored CRC32 and refuse trailing bytes. Returns the CRC32
        of the body."""
        crc = self.crc  # the sum before the stored value is read into it
        (stored,) = self.unpack("<I", "checksum")
        if stored != crc:
            raise self.error("checksum mismatch, file corrupted")
        if self.left:
            raise self.error(f"{self.left} trailing bytes")
        return crc


def write_blocks(path: str | Path, magic: bytes, blocks: Iterable) -> None:
    """Write the magic, each bytes-like block and a u32 CRC32 over the blocks."""
    crc = 0
    with open(path, "wb") as f:
        f.write(magic)
        for block in blocks:
            f.write(block)
            crc = zlib.crc32(block, crc)
        f.write(struct.pack("<I", crc))


def _check_length(raw: bytes) -> None:
    if len(raw) > 0xFFFF:
        raise FormatError(f"string {raw[:40]!r}... is {len(raw)} bytes, "
                          "over the format's limit of 65535")


def write_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Persist an embedding table as .sadp v2, one write per block.

    Round-trips bit-exactly via read_embeddings.
    """
    tag = _utf8(table.encoder_tag, "encoder tag")
    _check_length(tag)
    ids = table.ids
    try:
        text = "".join(ids)
        raw = text.encode("utf-8")
    except (TypeError, UnicodeEncodeError):  # name the first id that is not a str or not UTF-8
        for item_id in ids:
            _utf8(item_id, "id")
        raise
    lengths = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
    if len(raw) != len(text):  # not ASCII: count bytes up to each id's first character
        ends = np.cumsum(lengths)
        lead = np.flatnonzero((np.frombuffer(raw, dtype=np.uint8) & 0xC0) != 0x80)
        lengths = np.diff(np.append(lead, len(raw))[ends], prepend=0)
    if lengths.max() > 0xFFFF:
        _check_length(ids[int(lengths.argmax())].encode("utf-8"))
    vectors = np.ascontiguousarray(table.vectors, dtype="<f4")
    write_blocks(path, EMBEDDING_MAGIC, (
        struct.pack("<HQIH", EMBEDDING_VERSION, len(table), table.dim, len(tag)) + tag,
        lengths.astype("<u2"),
        raw,
        memoryview(vectors).cast("B"),
    ))


def read_embeddings(path: str | Path) -> EmbeddingTable:
    """Read a .sadp v2 file; any malformed input raises FormatError."""
    with open(path, "rb") as f:
        r = BlockReader(f, path, EMBEDDING_MAGIC)
        version, count, dim, tag_len = r.unpack("<HQIH", "header")
        if version != EMBEDDING_VERSION:
            raise r.error(f"unsupported version {version}")
        encoder_tag = r.string(tag_len, "encoder tag")
        lengths = np.frombuffer(r.read(2 * count, "id lengths"), dtype="<u2")
        ids = r.strings(lengths, "ids the id lengths imply")
        vectors = r.array((count, dim), "vectors")
        r.end()
    vectors.flags.writeable = False  # nothing else holds it: the table keeps it uncopied
    try:
        return EmbeddingTable(ids, vectors, encoder_tag)
    except DataError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _auth_headers(cfg: EncoderEndpointConfig) -> dict[str, str]:
    if not cfg.auth_token_env_var:
        return {}
    token = os.environ.get(cfg.auth_token_env_var)
    if not token:
        raise FetchError(
            f"auth env var {cfg.auth_token_env_var!r} is not set"
        )
    return {"Authorization": f"Bearer {token}"}


def _retry_after_seconds(headers) -> float | None:
    """An integer Retry-After header in seconds, capped at BACKOFF_CAP_SECONDS."""
    value = headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(BACKOFF_CAP_SECONDS, float(value))


def _post(url: str, body: bytes, headers: dict[str, str],
          timeout: float) -> tuple[int, Mapping[str, str], bytes]:
    """POST body to url; returns the status, the headers and the body of the
    response.

    An HTTP error status is returned, with an empty body, not raised. A TLS
    failure other than a dropped connection, such as a certificate that
    fails verification or a server that does not speak TLS, raises
    FetchError, since no retry mends it. Every other failure of the
    transport is an OSError: a response cut short or garbled raises
    ConnectionError. The headers go to url alone, never to the target of a
    redirect. The HTTP modules are imported here, so that only a command
    that fetches loads them.
    """
    import http.client
    import ssl
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=body, method="POST")
    for name, value in headers.items():
        request.add_unredirected_header(name, value)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.headers, b""
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, ssl.SSLError) and not isinstance(exc.reason, ssl.SSLEOFError):
            raise FetchError(f"TLS failure: {exc.reason}") from exc
        raise
    except http.client.InvalidURL:  # such as a redirect to a port that is not a number
        raise
    except http.client.HTTPException as exc:
        raise ConnectionError(f"response cut short or garbled: {exc!r}") from exc


def _as_vectors(embeddings, n: int) -> np.ndarray | None:
    """embeddings as an (n, d) float32 array, or None unless it is n lists of
    d > 0 JSON numbers that float32 holds as finite values."""
    # JSON numbers only: bool is an int subclass, and str or null are not numbers
    if not (isinstance(embeddings, list) and len(embeddings) == n
            and all(isinstance(vec, list) and 0 < len(vec) == len(embeddings[0])
                    and all(type(x) in (int, float) for x in vec) for vec in embeddings)):
        return None
    try:
        wide = np.array(embeddings, dtype=np.float64)
    except OverflowError:  # an int beyond float64
        return None
    with np.errstate(over="ignore"):  # beyond float32 becomes inf, refused below
        vectors = wide.astype(np.float32)
    return vectors if np.isfinite(vectors).all() else None


def _fetch_batch(
    cfg: EncoderEndpointConfig,
    headers: dict[str, str],
    texts: list[str],
    start: int,
) -> np.ndarray:
    """Embed one batch as an (n, d) float32 array, retrying only failures that
    can succeed on retry.

    Any OSError from _post (a timeout, a connection refused or dropped, a
    response cut short or garbled), a malformed body and HTTP 408, 429 and
    5xx are retried with exponential backoff, or after an integer
    Retry-After. Any other status outside 2xx, a 307 or 308 redirect among
    them, and any other error, a TLS failure among them, raise FetchError
    at once.
    """
    span = f"batch [{start}:{start + len(texts)}]"
    body = json.dumps({cfg.request_field: texts}).encode()
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
            status, resp_headers, content = _post(cfg.base_url, body, headers,
                                                  cfg.timeout_seconds)
        except OSError as exc:
            last_error = exc
            continue
        except Exception as exc:  # noqa: BLE001 - such as a ValueError, which no retry mends
            raise FetchError(f"{span} could not be sent, not retried: {exc}") from exc
        if not 200 <= status < 300:
            if status < 500 and status not in (408, 429):
                raise FetchError(f"{span} refused with HTTP {status}, not retried")
            last_error = FetchError(f"HTTP {status}")
            delay = _retry_after_seconds(resp_headers)
            continue
        # a malformed body may be transient
        try:
            embeddings = json.loads(content)[cfg.response_field]
        except (ValueError, KeyError, TypeError) as exc:
            last_error = exc
            continue
        vectors = _as_vectors(embeddings, len(texts))
        if vectors is not None:
            return vectors
        last_error = FetchError(f"{cfg.response_field!r} is not {len(texts)} lists of numbers "
                                "of one length, finite in float32")
    raise FetchError(
        f"{span} failed after {cfg.retry_limit + 1} attempts: {last_error}"
    )


def fetch_embeddings(items: Sequence[TextItem], cfg: EncoderEndpointConfig) -> EmbeddingTable:
    """Embed items via the remote endpoint.

    Requests are batched at cfg.max_batch, issued with bounded concurrency,
    and retried with exponential backoff. Either a full table is returned or
    an error is raised; partial results are never surfaced. Once a batch has
    failed, no batch that has not started is sent, and the error raised is
    that of the first failed batch in item order.
    """
    if not items:
        raise FetchError("no items to embed")
    headers = {"Content-Type": "application/json", **_auth_headers(cfg)}
    batches = [
        (start, [it.text for it in items[start : start + cfg.max_batch]])
        for start in range(0, len(items), cfg.max_batch)
    ]
    failed = threading.Event()

    def fetch(texts: list[str], start: int) -> np.ndarray | None:
        # batches start in item order, so a skipped batch comes after a failed one
        if failed.is_set():
            return None
        try:
            return _fetch_batch(cfg, headers, texts, start)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=cfg.max_concurrent_requests) as pool:
        futures = [pool.submit(fetch, texts, start) for start, texts in batches]
        results = [fut.result() for fut in futures]
    dims = {batch.shape[1] for batch in results}
    if len(dims) != 1:
        raise FetchError(f"inconsistent embedding dimensions across batches: {sorted(dims)}")
    return EmbeddingTable([it.id for it in items], np.concatenate(results), cfg.encoder_tag)
