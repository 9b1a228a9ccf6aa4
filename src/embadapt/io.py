"""Dataset and embedding persistence, plus the remote encoder client.

File formats:
  - queries.jsonl / corpus.jsonl: one object per line, BEIR-style
    {"_id": ..., "text": ..., "title": ...}.
  - qrels.tsv: query-id<TAB>corpus-id<TAB>score, optional header row.
  - *.sadp and *.sadc share one little-endian frame, read by BlockReader: a
    4-byte magic, the body, then a u32 CRC32 over everything after the
    magic. write_blocks writes a .sadc; EmbeddingFile and EmbeddingWriter
    are the one reader and the one writer of the .sadp layout.
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

import functools
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

    def skip(self, n: int, what: str) -> None:
        """Count n bytes as read that the caller reads at their offset itself,
        and whose CRC32 it folds into crc (see EmbeddingFile)."""
        self.need(n, what)
        self.left -= n

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def string(self, n: int, what: str) -> str:
        """One UTF-8 string of n bytes."""
        return self.decode(self.read(n, what), what)

    def decode(self, raw: bytes, what: str) -> str:
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


_CRC32_POLY = 0xEDB88320  # the CRC32 polynomial, bit-reflected as zlib keeps it


def _multmodp(a: int, b: int) -> int:
    """a * b modulo the CRC32 polynomial, both bit-reflected; a is not 0
    (zlib's multmodp)."""
    m, p = 1 << 31, 0
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ _CRC32_POLY if b & 1 else b >> 1


# x**(2**k) modulo the polynomial for k in 0..31; x**(2**32) is x again
_X2N = [1 << 30]
for _ in range(31):
    _X2N.append(_multmodp(_X2N[-1], _X2N[-1]))


@functools.lru_cache(maxsize=16)
def _crc32_shift(length: int) -> int:
    """x**(8 * length) modulo the polynomial, the operator that carries a
    CRC32 past length bytes (zlib's x2nmodp(length, 3)). Cached: the blocks
    of one file have at most two lengths."""
    p, k = 1 << 31, 3  # p is x**0
    while length:
        if length & 1:
            p = _multmodp(_X2N[k & 31], p)
        length >>= 1
        k += 1
    return p


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """zlib.crc32(a + b) from crc1 = zlib.crc32(a), crc2 = zlib.crc32(b) and
    len2 = len(b), as zlib's crc32_combine computes it, which Python's zlib
    module does not offer."""
    return _multmodp(_crc32_shift(len2), crc1) ^ crc2


# the lock of a seek and a read or write where the platform has no
# positional read (os.preadv) or write (os.pwrite)
_SEEK_LOCK = threading.Lock()


def _read_at(f: BinaryIO, buf: np.ndarray, offset: int) -> int:
    """Fill the C-contiguous array buf from the bytes at offset of f, from any
    thread. Returns the bytes read: fewer only at the end of the file."""
    view = buf.reshape(-1).view(np.uint8)
    done = 0
    while done < len(view):
        if hasattr(os, "preadv"):
            n = os.preadv(f.fileno(), [view[done:]], offset + done)
        else:
            with _SEEK_LOCK:
                f.seek(offset + done)
                n = f.readinto(view[done:])
        if not n:
            break
        done += n
    return done


def _write_at(f: BinaryIO, data, offset: int) -> None:
    """Write the bytes-like data at offset of f, from any thread."""
    view = memoryview(data).cast("B")
    while len(view):
        if hasattr(os, "pwrite"):
            n = os.pwrite(f.fileno(), view, offset)
        else:
            with _SEEK_LOCK:
                f.seek(offset)
                n = f.write(view)
        view, offset = view[n:], offset + n


def _check_length(raw: bytes) -> None:
    if len(raw) > 0xFFFF:
        raise FormatError(f"string {raw[:40]!r}... is {len(raw)} bytes, "
                          "over the format's limit of 65535")


class EmbeddingFile:
    """An open .sadp file, the one reader of the layout.

    Opening parses the header, the encoder tag and the id lengths, and reads
    the id bytes undecoded, each read checked as BlockReader checks it. The
    rest is read as the caller chooses, and read_embeddings checks it in
    this order: ids() decodes the ids; check_size() refuses a file too short
    for the vector block and the checksum; read_rows() reads rows of the
    vector block at their offset, from any thread; check_end() takes the
    CRC32 of the whole vector block, checks the stored CRC32 and refuses
    trailing bytes. A file of no rows, a dim of 0, rows that are not finite
    and repeated ids are the checks of EmbeddingTable, done after these.
    """

    def __init__(self, f: BinaryIO, path: str | Path):
        self._f = f
        self._r = r = BlockReader(f, path, EMBEDDING_MAGIC)
        version, self.count, self.dim, tag_len = r.unpack("<HQIH", "header")
        if version != EMBEDDING_VERSION:
            raise r.error(f"unsupported version {version}")
        self.encoder_tag = r.string(tag_len, "encoder tag")
        self.id_lengths = r.read(2 * self.count, "id lengths")
        self._lengths = np.frombuffer(self.id_lengths, dtype="<u2")
        self.id_bytes = r.read(int(self._lengths.sum(dtype=np.int64)),
                               "ids the id lengths imply")
        self.vectors_at = f.tell()
        self.nbytes = 4 * self.count * self.dim  # of the vector block
        self.error = r.error

    def ids(self) -> list[str]:
        """The ids, each valid UTF-8 on its own. The id bytes are decoded and
        split once, not id by id."""
        what, raw = "ids the id lengths imply", self.id_bytes
        if not self.count:
            return []
        self._r.decode(raw, what)
        starts = np.cumsum(self._lengths, dtype=np.int64)[:-1]
        # no id may start inside a character, on a continuation byte
        first = np.frombuffer(raw, dtype=np.uint8)[starts[starts < len(raw)]]
        split = np.flatnonzero(first & 0xC0 == 0x80)
        if len(split):
            raise self.error(f"{what} is not valid UTF-8: the string at index "
                             f"{int(split[0]) + 1} starts inside a character")
        # 0xFF is in no valid UTF-8 and no valid UTF-8 decodes to a surrogate,
        # so a 0xFF put between the ids decodes to the one U+DCFF there is
        marked = np.insert(np.frombuffer(raw, dtype=np.uint8), starts, 0xFF).tobytes()
        return marked.decode("utf-8", "surrogateescape").split("\udcff")

    def check_size(self) -> None:
        """Refuse a file too short for the vector block and the checksum."""
        self._r.skip(self.nbytes, "vectors")
        self._r.need(4, "checksum")

    def read_rows(self, rows: slice) -> np.ndarray:
        """A fresh (rows, dim) <f4 array of the given rows of the vector block;
        any thread may call it once check_size has passed."""
        out = np.empty((rows.stop - rows.start, self.dim), dtype="<f4")
        if _read_at(self._f, out, self.vectors_at + 4 * self.dim * rows.start) != out.nbytes:
            raise self.error("truncated file while reading vectors")
        return out

    def check_end(self, vector_crc: int) -> None:
        """Check the stored CRC32, given the CRC32 of the whole vector block,
        and refuse trailing bytes."""
        self._r.crc = crc32_combine(self._r.crc, vector_crc, self.nbytes)
        self._f.seek(self.vectors_at + self.nbytes)
        self._r.end()


class EmbeddingWriter:
    """Writes one .sadp file, the one writer of the layout.

    Made from the header's fields, and refusing an encoder tag that the
    layout cannot hold, before any file is touched. start() writes the
    magic, the header, the encoder tag and the id block (id lengths and id
    bytes, as EmbeddingFile reads them); write_rows() writes rows of the
    vector block at their offset, from any thread; finish() writes the
    CRC32, given that of the whole vector block.
    """

    def __init__(self, count: int, dim: int, encoder_tag: str):
        tag = _utf8(encoder_tag, "encoder tag")
        _check_length(tag)
        self._head = struct.pack("<HQIH", EMBEDDING_VERSION, count, dim, len(tag)) + tag
        self._dim = dim
        self.nbytes = 4 * count * dim  # of the vector block

    def start(self, f: BinaryIO, id_lengths: bytes, id_bytes: bytes) -> None:
        self._f = f
        offset = 0
        for block in (EMBEDDING_MAGIC + self._head, id_lengths, id_bytes):
            _write_at(f, block, offset)
            offset += len(block)
        self.crc = zlib.crc32(id_bytes, zlib.crc32(id_lengths, zlib.crc32(self._head)))
        self.vectors_at = offset

    def write_rows(self, rows: slice, block: np.ndarray) -> int:
        """Write block, the float32 rows `rows`, at their offset; returns the
        CRC32 of its bytes."""
        raw = np.ascontiguousarray(block, dtype="<f4").reshape(-1).view(np.uint8)
        _write_at(self._f, raw, self.vectors_at + 4 * self._dim * rows.start)
        return zlib.crc32(raw)

    def finish(self, vector_crc: int) -> None:
        crc = crc32_combine(self.crc, vector_crc, self.nbytes)
        _write_at(self._f, struct.pack("<I", crc), self.vectors_at + self.nbytes)


def write_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Persist an embedding table as .sadp v2 through EmbeddingWriter.

    Round-trips bit-exactly via read_embeddings.
    """
    writer = EmbeddingWriter(len(table), table.dim, table.encoder_tag)
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
    with open(path, "wb") as f:
        writer.start(f, lengths.astype("<u2").tobytes(), raw)
        writer.finish(writer.write_rows(slice(0, len(table)), table.vectors))


def read_embeddings(path: str | Path) -> EmbeddingTable:
    """Read a .sadp v2 file through EmbeddingFile; any malformed input raises
    FormatError."""
    with open(path, "rb") as f:
        src = EmbeddingFile(f, path)
        ids = src.ids()
        src.check_size()
        vectors = src.read_rows(slice(0, src.count))
        src.check_end(zlib.crc32(vectors))
    vectors.flags.writeable = False  # nothing else holds it: the table keeps it uncopied
    try:
        return EmbeddingTable(ids, vectors, src.encoder_tag)
    except DataError as exc:
        raise src.error(str(exc)) from exc


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
