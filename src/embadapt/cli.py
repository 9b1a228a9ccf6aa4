"""Command-line entry point: embed, train, transform, evaluate, search."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

from .adapter import AdapterModel, adapt_block, block_width, load_checkpoint, save_checkpoint
from .config import GAIN_MODES, LOSS_VARIANTS, EncoderEndpointConfig, TrainConfig, from_json
from .data import (
    EmbeddingTable,
    TextItem,
    adapted_tag,
    as_side,
    check_compatible,
    check_ratio,
    split_train_val,
)
from .errors import EmbAdaptError, FormatError
from .evaluation import RankedList, Side, check_k, evaluate, ranked_lists, read_side
from .io import (
    EmbeddingFile,
    EmbeddingWriter,
    _as_vectors,
    fetch_embeddings,
    load_jsonl_items,
    load_qrels_tsv,
    read_embeddings,
    scan_embeddings,
    write_embeddings,
)
from .trainer import train

T = TypeVar("T")


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


def _or_serial_fault(fused: Callable[[], T], serial: Callable[[], object]) -> T:
    """fused(), or, if it raises EmbAdaptError or OSError, the first fault of
    serial(), the serial path's replay, else that fault again. The replay runs
    after the handler, the fault's traceback dropped: it keeps no frame of
    fused() alive, nor the blocks, model or sides that frame holds."""
    try:
        return fused()
    except (EmbAdaptError, OSError) as exc:
        fault = exc
    fault.__traceback__ = None
    serial()
    raise fault


def cmd_transform(args) -> int:
    path = getattr(args, "in")
    count = _or_serial_fault(lambda: _stream_transform(path, args),
                             lambda: _replay_transform(path, args))
    print(f"wrote {count} adapted ({args.which}) embeddings -> {args.out}")
    return 0


def _replay_transform(path: str, args) -> None:
    """The checks of the serial path (read_embeddings, load_checkpoint,
    check_compatible, transform, write_embeddings) in its order, the input
    streamed: a scan with no stage, then one whose stage only adapts."""
    with open(path, "rb") as f:
        src = EmbeddingFile(f, path)
        scan_embeddings(src, src.dim)
    model = load_checkpoint(args.model)
    check_compatible({"input": src}, model, args.force)
    with open(path, "rb") as f:
        scan_embeddings(EmbeddingFile(f, path), block_width(src.dim, model),
                        lambda: lambda rows, block: adapt_block(model, block, args.which))
    EmbeddingWriter(src.count, src.dim, adapted_tag(src.encoder_tag, args.which,
                                                    model.checkpoint_crc))


def _stream_transform(path: str, args) -> int:
    """Write the rows of the file at path, adapted as --which by --model, to
    --out, and return their count. The stage of scan_embeddings adapts each
    row block (transform's blocks, so each product has transform's shape and
    bits), checks it, and writes it at its offset; the id bytes are copied."""
    model = load_checkpoint(args.model)
    with open(path, "rb") as f:
        src = EmbeddingFile(f, path)
        check_compatible({"input": src}, model, args.force)
        writer = EmbeddingWriter(src.count, src.dim, adapted_tag(src.encoder_tag, args.which,
                                                                 model.checkpoint_crc))

        def write(tmp: str) -> None:
            with open(tmp, "wb") as out:
                def start():
                    writer.start(out, src.id_lengths, src.id_bytes)
                    return lambda rows, block: writer.write_rows(
                        rows, adapt_block(model, block, args.which))

                scan_embeddings(src, block_width(src.dim, model), start)
                writer.finish()

        _atomic_write((args.out, write))
    return src.count


def cmd_evaluate(args) -> int:
    def fused() -> tuple[AdapterModel | None, Side, Side, RelevanceSet]:
        model = load_checkpoint(args.model) if args.model is not None else None
        return (model, read_side(args.queries, model, "query"),
                read_side(args.corpus, model, "corpus"), load_qrels_tsv(args.qrels))

    model, q_side, c_side, rels = _or_serial_fault(fused, lambda: evaluate(
        # the serial path: every input read in turn, then the library's checks
        read_embeddings(args.queries), read_embeddings(args.corpus), load_qrels_tsv(args.qrels),
        load_checkpoint(args.model) if args.model is not None else None,
        k=args.k, gain=args.gain, force=args.force))
    report = evaluate(q_side, c_side, rels, model, k=args.k, gain=args.gain, force=args.force)
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

    def rank(corpus: EmbeddingTable | Side, model: AdapterModel | None) -> RankedList:
        if args.vector is not None:
            # a vector is taken to be a query in the space of the corpus
            q_table = EmbeddingTable(["q"], query, as_side(corpus.encoder_tag, "query"))
        else:  # the paid request comes after every local input has been read
            q_table = fetch_embeddings([TextItem(id="q", text=args.text)], cfg)
        return ranked_lists(q_table, corpus, model, k=args.k, force=args.force)[0]

    def fused() -> tuple[AdapterModel | None, Side]:
        model = load_checkpoint(args.model) if args.model is not None else None
        return model, read_side(args.corpus, model, "corpus")

    model, c_side = _or_serial_fault(fused, lambda: rank(  # the serial path, in its order
        read_embeddings(args.corpus),
        load_checkpoint(args.model) if args.model is not None else None))
    for cid, score in rank(c_side, model).entries:
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
