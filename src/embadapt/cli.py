"""Command-line entry point: embed, train, transform, evaluate, search."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import zlib
from collections.abc import Callable
from pathlib import Path

from .adapter import (
    adapt_block,
    load_checkpoint,
    map_blocks,
    row_blocks,
    save_checkpoint,
    workers,
)
from .config import GAIN_MODES, LOSS_VARIANTS, EncoderEndpointConfig, TrainConfig, from_json
from .data import (
    EmbeddingTable,
    TextItem,
    adapted_tag,
    as_side,
    check_compatible,
    check_finite,
    check_ratio,
    check_shape,
    check_unique,
    split_train_val,
)
from .errors import DataError, EmbAdaptError, FormatError
from .evaluation import check_k, evaluate, ranked_lists
from .io import (
    EmbeddingFile,
    EmbeddingWriter,
    _as_vectors,
    crc32_combine,
    fetch_embeddings,
    load_jsonl_items,
    load_qrels_tsv,
    read_embeddings,
    write_embeddings,
)
from .trainer import train


class _In(str):
    """The type of a path flag whose file the command reads."""


class _Out(str):
    """The type of a path flag whose file the command writes."""


def _check_paths(args) -> None:
    """Refuse, naming its flag, a path flag given empty, and an output path
    that is a directory, whose directory does not exist, or that is an input
    or another output of the command as an absolute path."""
    paths = {"--" + dest.replace("_", "-"): path for dest, path in vars(args).items()
             if isinstance(path, (_In, _Out))}
    taken = {os.path.abspath(path): flag for flag, path in paths.items() if isinstance(path, _In)}
    for flag, path in paths.items():
        if not path:  # open() refuses it, and its abspath is the working directory
            raise EmbAdaptError(f"{flag} path is empty")
        if isinstance(path, _In):
            continue
        where = os.path.abspath(path)
        if os.path.isdir(path):
            raise EmbAdaptError(f"{flag} {path} is a directory")
        if not os.path.isdir(os.path.dirname(where)):
            raise EmbAdaptError(f"{flag} {path}: no such directory {os.path.dirname(where)}")
        if taken.setdefault(where, flag) != flag:
            raise EmbAdaptError(f"{flag} {path} is the {taken[where]} path")


def _atomic_write(*outputs: tuple[str, Callable[[str], object]]) -> None:
    """Write each (path, writer) output: writer(tmp) fills a temp file beside
    path, and once every writer has run the temp files are renamed onto
    their paths. If any step fails, no output and no temp file is left.

    main has checked each path with _check_paths before any input was read.
    The temp files are made by open(), so each output gets the mode
    that open() gives a new file under the umask (mkstemp would give 0600)."""
    temps: list[str] = []
    written: list[str] = []
    try:
        for path, writer in outputs:
            temps.append(os.path.join(os.path.dirname(os.path.abspath(path)),
                                      f".tmp-{os.urandom(8).hex()}.part"))
            open(temps[-1], "xb").close()
            writer(temps[-1])
        for tmp, (path, _) in zip(temps, outputs):
            os.replace(tmp, path)
            written.append(path)
    except BaseException:
        for leftover in temps + written:
            if os.path.exists(leftover):
                os.unlink(leftover)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embadapt",
        description="Train and apply residual adapters on frozen text embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="fetch embeddings from a remote encoder")
    p_embed.set_defaults(run=cmd_embed)
    p_embed.add_argument("--items", type=_In, required=True, help="items .jsonl file")
    p_embed.add_argument("--endpoint-config", type=_In, required=True, help="endpoint config JSON")
    p_embed.add_argument("--out", type=_Out, required=True, help="output .sadp file")

    p_train = sub.add_parser("train", help="train an adapter on qrels")
    p_train.set_defaults(run=cmd_train)
    p_train.add_argument("--queries", type=_In, required=True, help="query embeddings .sadp")
    p_train.add_argument("--corpus", type=_In, required=True, help="corpus embeddings .sadp")
    p_train.add_argument("--qrels", type=_In, required=True, help="relevance judgments .tsv")
    p_train.add_argument("--out", type=_Out, required=True, help="output checkpoint path")
    p_train.add_argument("--log", type=_Out, help="training log JSONL (default: <out>.log.jsonl)")
    p_train.add_argument("--config", type=_In, help="TrainConfig JSON file; flags override it")
    p_train.add_argument("--val-ratio", type=float, default=0.8,
                         help="train fraction of the query split (default 0.8)")
    p_train.add_argument("--alpha", type=float)
    p_train.add_argument("--beta", type=float)
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--max-iters", dest="max_iterations", type=int)
    p_train.add_argument("--patience", type=int)
    p_train.add_argument("--lr", dest="learning_rate", type=float)
    p_train.add_argument("--neg-ratio", dest="neg_subsample_ratio", type=int)
    p_train.add_argument("--hidden", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--eval-every", type=int)
    p_train.add_argument("--loss-variant", choices=LOSS_VARIANTS)
    p_train.add_argument("--no-skip", dest="use_skip", action="store_const", const=False)
    p_train.add_argument("--separate-adapters", action="store_const", const=True)
    p_train.add_argument("--gain", choices=GAIN_MODES)

    p_tf = sub.add_parser("transform", help="apply a checkpoint to an embedding file")
    p_tf.set_defaults(run=cmd_transform)
    p_tf.add_argument("--in", type=_In, required=True)
    p_tf.add_argument("--model", type=_In, required=True)
    p_tf.add_argument("--which", choices=("query", "corpus"), default="query")
    p_tf.add_argument("--out", type=_Out, required=True)
    p_tf.add_argument("--force", action="store_true")

    p_eval = sub.add_parser("evaluate", help="compute nDCG@k against qrels")
    p_eval.set_defaults(run=cmd_evaluate)
    p_eval.add_argument("--queries", type=_In, required=True)
    p_eval.add_argument("--corpus", type=_In, required=True)
    p_eval.add_argument("--qrels", type=_In, required=True)
    p_eval.add_argument("--model", type=_In)
    p_eval.add_argument("--k", type=int, default=10)
    p_eval.add_argument("--gain", choices=GAIN_MODES, default="standard")
    p_eval.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    p_eval.add_argument("--per-query", type=_Out, help="write per-query nDCG TSV here")
    p_eval.add_argument("--force", action="store_true")

    p_search = sub.add_parser("search", help="top-k corpus matches for one query")
    p_search.set_defaults(run=cmd_search)
    p_search.add_argument("--corpus", type=_In, required=True)
    p_search.add_argument("--model", type=_In)
    p_search.add_argument("--k", type=int, default=10)
    p_search.add_argument("--vector", help="comma-separated query vector")
    p_search.add_argument("--text", help="query text (requires --endpoint-config)")
    p_search.add_argument("--endpoint-config", type=_In)
    p_search.add_argument("--force", action="store_true")
    return parser


def _read_settings(cls, flag: str, path: str, **overrides):
    """from_json(cls, <the UTF-8 file at path>, **overrides); a fault of the
    file, not of a value, is reported as `<flag> <path>: <reason>`."""
    try:
        return from_json(cls, Path(path).read_text(encoding="utf-8-sig"), **overrides)
    except (OSError, UnicodeDecodeError, FormatError) as exc:
        # an OSError's strerror, since its message repeats the path
        raise EmbAdaptError(f"{flag} {path}: {getattr(exc, 'strerror', None) or exc}") from None


def cmd_embed(args) -> int:
    cfg = _read_settings(EncoderEndpointConfig, "--endpoint-config", args.endpoint_config)
    items = load_jsonl_items(args.items)
    table = fetch_embeddings(items, cfg)
    _atomic_write((args.out, lambda tmp: write_embeddings(table, tmp)))
    print(f"wrote {len(table)} embeddings dim={table.dim} "
          f"encoder_tag={table.encoder_tag!r} -> {args.out}")
    return 0


def _effective_config(args) -> TrainConfig:
    """The --config file's TrainConfig, each flag given overriding the field
    that is its dest before the fields are checked."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)
             if getattr(args, f.name) is not None}
    if args.config is not None:
        return _read_settings(TrainConfig, "--config", args.config, **flags)
    return TrainConfig(**flags)


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    q_table = read_embeddings(args.queries)
    c_table = read_embeddings(args.corpus)
    rels = load_qrels_tsv(args.qrels)
    train_rels, val_rels = split_train_val(rels, args.val_ratio, cfg.seed)
    model, report = train(q_table, c_table, train_rels, val_rels, cfg)

    _atomic_write((args.out, lambda tmp: save_checkpoint(model, tmp)),
                  (args.log, lambda tmp: Path(tmp).write_text(report.to_jsonl(),
                                                              encoding="utf-8")))

    zero_shot = report.entries[0].val_ndcg
    print(f"effective config: {json.dumps(cfg.to_dict(), sort_keys=True)}")
    print(f"zero-shot validation nDCG@10: {zero_shot:.5f}")
    print(f"best validation nDCG@10: {report.best_val_ndcg:.5f} "
          f"at iteration {report.best_iteration} ({report.stop_reason})")
    print(f"checkpoint -> {args.out}")
    print(f"training log -> {args.log}")
    return 0


def cmd_transform(args) -> int:
    path = getattr(args, "in")
    with open(path, "rb") as f:
        src = EmbeddingFile(f, path)  # a fault of the header is raised here
        _atomic_write((args.out, lambda tmp: _stream_transform(src, args.model, args.which,
                                                               args.force, tmp)))
    print(f"wrote {src.count} adapted ({args.which}) embeddings -> {args.out}")
    return 0


# The faults that _stream_transform records, in the order in which
# read_embeddings, load_checkpoint, check_compatible, transform and
# write_embeddings, run one after another, would raise them.
(_IDS, _SIZE, _END, _SHAPE, _FINITE, _UNIQUE,
 _MODEL, _COMPATIBLE, _OUTPUT, _TAG, _KINDS) = range(11)


def _stream_transform(src: EmbeddingFile, model_path: str, which: str, force: bool,
                      out_path: str) -> None:
    """Write the rows of src, adapted as `which` by the checkpoint at
    model_path, as a .sadp file at out_path.

    The vector block is streamed in transform's row blocks (so each product
    has transform's shape and bits) on the threads of map_blocks: each block
    is read at its offset, its CRC32 taken and its rows checked, then it is
    adapted, checked again, and written at its offset with its CRC32 taken.
    The ids are checked as one more task beside the blocks, and their bytes
    are copied as they are. The calling thread folds the CRC32s in block
    order. Every check of the in-memory path is made; the first fault in
    that path's order is raised once every block has been read, and after
    a fault is known a block is only read and checked. Memory beyond the id
    block is the blocks in flight.
    """
    faults: list[Exception | None] = [None] * _KINDS  # the first of each kind

    def table_check(kind: int, check, *args) -> None:
        # one of EmbeddingTable's checks, whose DataError read_embeddings reports as the file's
        try:
            check(*args)
        except DataError as exc:
            faults[kind] = src.error(str(exc))

    def check_ids() -> None:
        try:
            ids = src.ids()
        except FormatError as exc:
            faults[_IDS] = exc
        else:
            table_check(_UNIQUE, check_unique, ids)

    try:
        src.check_size()
    except FormatError as exc:
        faults[_SIZE] = exc
    table_check(_SHAPE, check_shape, src.count, src.dim)
    model = writer = None
    try:
        model = load_checkpoint(model_path)
    except (EmbAdaptError, OSError) as exc:
        faults[_MODEL] = exc
    else:
        try:
            check_compatible({"input": src}, model, force)
        except EmbAdaptError as exc:
            faults[_COMPATIBLE] = exc
        try:
            writer = EmbeddingWriter(src.count, src.dim,
                                     adapted_tag(src.encoder_tag, which, model.checkpoint_crc))
        except FormatError as exc:
            faults[_TAG] = exc

    def stream(rows: slice) -> tuple[int, int | None]:
        """The CRC32s of one block as read and as written, None when not written."""
        block = src.read_rows(rows)
        crc = zlib.crc32(block)
        if faults[_FINITE] is None:
            table_check(_FINITE, check_finite, block)
        if any(faults[:_OUTPUT]):
            return crc, None
        try:
            adapted = adapt_block(model, block, which)
        except DataError as exc:
            faults[_OUTPUT] = exc
            return crc, None
        return crc, None if any(faults) else writer.write_rows(rows, adapted)

    width = max(1, src.dim, model.hidden if model is not None else 0)
    blocks = [] if faults[_SIZE] else row_blocks(src.count, width)
    sizes = [4 * src.dim * (rows.stop - rows.start) for rows in blocks]

    def fold(crcs) -> int:
        """The CRC32 of the whole vector block from those of its blocks."""
        crc = 0
        for part, size in zip(crcs, sizes):
            crc = crc32_combine(crc, part, size)
        return crc

    with open(out_path, "wb") as out:
        if not any(faults):
            writer.start(out, src.id_lengths, src.id_bytes)
        tasks = [check_ids, *(functools.partial(stream, rows) for rows in blocks)]
        crcs = map_blocks(lambda task: task(), tasks, workers())[1:]
        if faults[_SIZE] is None:
            try:
                src.check_end(fold(read for read, _ in crcs))
            except FormatError as exc:
                faults[_END] = exc
        for fault in faults:
            if fault is not None:
                raise fault
        writer.finish(fold(written for _, written in crcs))


def cmd_evaluate(args) -> int:
    q_table = read_embeddings(args.queries)
    c_table = read_embeddings(args.corpus)
    rels = load_qrels_tsv(args.qrels)
    model = load_checkpoint(args.model) if args.model is not None else None
    report = evaluate(q_table, c_table, rels, model, k=args.k,
                      gain=args.gain, force=args.force)
    if args.per_query is not None:
        text = "".join(f"{qid}\t{v:.6f}\n" for qid, v in sorted(report.per_query_ndcg.items()))
        _atomic_write((args.per_query, lambda tmp: Path(tmp).write_text(text, encoding="utf-8")))
    print(report.to_json() if args.json else report.to_text())
    return 0


def cmd_search(args) -> int:
    if (args.vector is None) == (args.text is None):
        raise EmbAdaptError("search requires exactly one of --vector or --text")
    if args.vector is not None:
        # the rule of an encoder body: finite in float32, at least one component
        try:
            values = [float(x) for x in args.vector.split(",")]
        except ValueError:  # a component that is not a number
            values = None
        query = _as_vectors([values], 1)
        if query is None:
            raise EmbAdaptError("--vector must be numbers that float32 holds as finite values")
    elif args.endpoint_config is None:
        raise EmbAdaptError("--text requires --endpoint-config")
    else:
        cfg = _read_settings(EncoderEndpointConfig, "--endpoint-config", args.endpoint_config)
    c_table = read_embeddings(args.corpus)
    model = load_checkpoint(args.model) if args.model is not None else None
    if args.vector is not None:
        # a vector is taken to be a query in the space of the corpus
        q_table = EmbeddingTable(["q"], query, as_side(c_table.encoder_tag, "query"))
    else:  # the paid request comes after every local input has been read
        q_table = fetch_embeddings([TextItem(id="q", text=args.text)], cfg)
    [ranked] = ranked_lists(q_table, c_table, model, k=args.k, force=args.force)
    for cid, score in ranked.entries:
        print(f"{cid}\t{score:.6f}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with '-' as an option, so a vector
    # whose first component is negative is attached to its flag
    if "--vector" in argv[:-1]:
        i = argv.index("--vector")
        argv[i : i + 2] = [f"--vector={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        # every path and flag rule is checked here, before any input is read
        if args.command == "train" and args.log is None:
            args.log = _Out(args.out + ".log.jsonl")
        _check_paths(args)
        for dest, rule in {"k": check_k, "val_ratio": check_ratio}.items():
            if dest in vars(args):  # the library's own rule for the flag's value
                rule(vars(args)[dest])
        return args.run(args)
    except (EmbAdaptError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
