"""Command-line entry point: embed, train, transform, evaluate, search."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path

from .adapter import load_checkpoint, save_checkpoint, transform
from .config import GAIN_MODES, LOSS_VARIANTS, TrainConfig, check_keys
from .data import (
    EmbeddingTable,
    TextItem,
    adapted_tag,
    as_side,
    check_compatible,
    split_train_val,
)
from .errors import EmbAdaptError
from .evaluation import evaluate, ranked_lists
from .io import (
    EncoderEndpointConfig,
    _as_vectors,
    fetch_embeddings,
    load_jsonl_items,
    load_qrels_tsv,
    read_embeddings,
    write_embeddings,
)
from .trainer import train


def _check_output(path: str, flag: str | None = None) -> None:
    """Refuse an output path that is a directory or whose directory does not
    exist, naming the flag when one is given."""
    where = path if flag is None else f"{flag} {path}"
    if os.path.isdir(path):
        raise EmbAdaptError(f"{where} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise EmbAdaptError(f"{where}: no such directory {parent}")


def _atomic_write(*outputs: tuple[str, Callable[[str], object]]) -> None:
    """Write each (path, writer) output: writer(tmp) fills a temp file beside
    path, and once every writer has run the temp files are renamed onto
    their paths. If any step fails, no output and no temp file is left.

    The temp files are made by open(), so each output gets the mode that
    open() gives a new file under the umask (mkstemp would give 0600)."""
    for path, _ in outputs:
        _check_output(path)
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
    p_embed.add_argument("--items", required=True, help="items .jsonl file")
    p_embed.add_argument("--endpoint-config", required=True, help="endpoint config JSON")
    p_embed.add_argument("--out", required=True, help="output .sadp file")

    p_train = sub.add_parser("train", help="train an adapter on qrels")
    p_train.add_argument("--queries", required=True, help="query embeddings .sadp")
    p_train.add_argument("--corpus", required=True, help="corpus embeddings .sadp")
    p_train.add_argument("--qrels", required=True, help="relevance judgments .tsv")
    p_train.add_argument("--out", required=True, help="output checkpoint path")
    p_train.add_argument("--log", help="training log JSONL (default: <out>.log.jsonl)")
    p_train.add_argument("--config", help="TrainConfig JSON file; flags override it")
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
    p_tf.add_argument("--in", dest="infile", required=True)
    p_tf.add_argument("--model", required=True)
    p_tf.add_argument("--which", choices=("query", "corpus"), default="query")
    p_tf.add_argument("--out", required=True)
    p_tf.add_argument("--force", action="store_true")

    p_eval = sub.add_parser("evaluate", help="compute nDCG@k against qrels")
    p_eval.add_argument("--queries", required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--qrels", required=True)
    p_eval.add_argument("--model")
    p_eval.add_argument("--k", type=int, default=10)
    p_eval.add_argument("--gain", choices=GAIN_MODES, default="standard")
    p_eval.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    p_eval.add_argument("--per-query", help="write per-query nDCG TSV here")
    p_eval.add_argument("--force", action="store_true")

    p_search = sub.add_parser("search", help="top-k corpus matches for one query")
    p_search.add_argument("--corpus", required=True)
    p_search.add_argument("--model")
    p_search.add_argument("--k", type=int, default=10)
    p_search.add_argument("--vector", help="comma-separated query vector")
    p_search.add_argument("--text", help="query text (requires --endpoint-config)")
    p_search.add_argument("--endpoint-config")
    p_search.add_argument("--force", action="store_true")
    return parser


def cmd_embed(args) -> int:
    items = load_jsonl_items(args.items)
    cfg = EncoderEndpointConfig.from_json_file(args.endpoint_config)
    table = fetch_embeddings(items, cfg)
    _atomic_write((args.out, lambda tmp: write_embeddings(table, tmp)))
    print(f"wrote {len(table)} embeddings dim={table.dim} "
          f"encoder_tag={table.encoder_tag!r} -> {args.out}")
    return 0


def _effective_config(args) -> TrainConfig:
    """The --config file's TrainConfig, each flag given overriding the field
    that is its dest."""
    base: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            try:  # not UTF-8 or not JSON (both ValueErrors), or not a config object
                base = check_keys(TrainConfig, json.load(f))
            except ValueError as exc:
                raise EmbAdaptError(f"--config {args.config}: {exc}") from None
    for f in dataclasses.fields(TrainConfig):
        if getattr(args, f.name) is not None:
            base[f.name] = getattr(args, f.name)
    return TrainConfig.from_dict(base)


def cmd_train(args) -> int:
    log_path = args.log or args.out + ".log.jsonl"
    # before any input is read, so a run cannot train and then fail to write
    _check_output(args.out, "--out")
    _check_output(log_path, "--log")
    if os.path.abspath(log_path) == os.path.abspath(args.out):
        raise EmbAdaptError(f"--log {log_path} is the --out path")
    cfg = _effective_config(args)
    q_table = read_embeddings(args.queries)
    c_table = read_embeddings(args.corpus)
    rels = load_qrels_tsv(args.qrels)
    train_rels, val_rels = split_train_val(rels, args.val_ratio, cfg.seed)
    model, report = train(q_table, c_table, train_rels, val_rels, cfg)

    _atomic_write((args.out, lambda tmp: save_checkpoint(model, tmp)),
                  (log_path, lambda tmp: Path(tmp).write_text(report.to_jsonl())))

    zero_shot = report.entries[0].val_ndcg
    print(f"effective config: {json.dumps(cfg.to_dict(), sort_keys=True)}")
    print(f"zero-shot validation nDCG@10: {zero_shot:.5f}")
    print(f"best validation nDCG@10: {report.best_val_ndcg:.5f} "
          f"at iteration {report.best_iteration} ({report.stop_reason})")
    print(f"checkpoint -> {args.out}")
    print(f"training log -> {log_path}")
    return 0


def cmd_transform(args) -> int:
    table = read_embeddings(args.infile)
    model = load_checkpoint(args.model)
    check_compatible({"input": table}, model, args.force)
    adapted = transform(model, table.vectors, args.which)  # refuses non-finite rows
    tag = adapted_tag(table.encoder_tag, args.which, model.checkpoint_crc)
    out_table = table._with_rows(adapted, tag)  # nothing else holds adapted
    _atomic_write((args.out, lambda tmp: write_embeddings(out_table, tmp)))
    print(f"wrote {len(out_table)} adapted ({args.which}) embeddings -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    q_table = read_embeddings(args.queries)
    c_table = read_embeddings(args.corpus)
    rels = load_qrels_tsv(args.qrels)
    model = load_checkpoint(args.model) if args.model else None
    report = evaluate(q_table, c_table, rels, model, k=args.k,
                      gain=args.gain, force=args.force)
    if args.per_query:
        lines = [f"{qid}\t{v:.6f}" for qid, v in sorted(report.per_query_ndcg.items())]
        text = "\n".join(lines) + "\n"
        _atomic_write((args.per_query, lambda tmp: Path(tmp).write_text(text)))
    print(report.to_json() if args.json else report.to_text())
    return 0


def cmd_search(args) -> int:
    c_table = read_embeddings(args.corpus)
    model = load_checkpoint(args.model) if args.model else None
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
        # a vector is taken to be a query in the space of the corpus
        q_table = EmbeddingTable(["q"], query, as_side(c_table.encoder_tag, "query"))
    else:
        if not args.endpoint_config:
            raise EmbAdaptError("--text requires --endpoint-config")
        cfg = EncoderEndpointConfig.from_json_file(args.endpoint_config)
        q_table = fetch_embeddings([TextItem(id="q", text=args.text)], cfg)
    [ranked] = ranked_lists(q_table, c_table, model, k=args.k, force=args.force)
    for cid, score in ranked.entries:
        print(f"{cid}\t{score:.6f}")
    return 0


_COMMANDS = {
    "embed": cmd_embed,
    "train": cmd_train,
    "transform": cmd_transform,
    "evaluate": cmd_evaluate,
    "search": cmd_search,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with '-' as an option, so a vector
    # whose first component is negative is attached to its flag
    if "--vector" in argv[:-1]:
        i = argv.index("--vector")
        argv[i : i + 2] = [f"--vector={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EmbAdaptError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
