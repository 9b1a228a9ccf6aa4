"""embadapt benchmark: the planted retrieval task through the public CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload {train-m,train-l,infer} --seed N \
        --seconds S --trace {0,1}

Generates the planted task of tests/synth.py from --seed, times set-up through
the package, then runs the workload's CLI calls (embadapt.cli.main,
in-process) in one fresh child process with BLAS pinned to one thread. Every
output is checked against the numpy reference in reference.py. With
--trace 0 the last line holds the end-to-end metrics; with --trace 1 one
untraced and one traced round run back to back and the last line holds the
per-layer metrics of the traced round. See README.md for the metric
definitions and notes.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child process.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TAG = "synthetic-v1"
# A child may outlast --seconds by its fewest cycles; this bounds that.
CHILD_MARGIN_S = 120


class Workload(NamedTuple):
    shape: tuple[int, int, int]  # n_queries, n_corpus, dim
    # `embadapt train` --val-ratio (the train share of the queries), --eval-every
    # and --max-iters; None when the workload does no training
    train: tuple[float, int, int] | None
    kinds: dict[str, int]  # call kind -> calls per cycle
    cycles: int  # the fewest whole cycles a run makes


# train-m validates 400 queries at iterations 0 and 10, so validation is most
# of train. train-l validates 4 queries at iterations 0 and 100, so its
# validation (an adapter pass over the corpus and one sort per query) is a
# small share of train. Patience equals the iteration budget, so every train
# call does the same work. train-l's corpus is 100k, not 200k: every search
# and transform reads the whole corpus, and at 200k a run has room for too few
# of them to give a steady median.
WORKLOADS = {
    "train-m": Workload((2000, 20000, 128), (0.8, 10, 10),
                        {"main": 1, "search": 8, "transform": 4}, 3),
    "train-l": Workload((2000, 100000, 64), (0.998, 100, 100),
                        {"main": 1, "search": 4, "transform": 4}, 2),
    "infer": Workload((1000, 20000, 384), None,
                      {"main": 1, "search": 5, "transform": 3}, 2),
}
# set-up repeats at least this often and for at least this long; setup_s is the median
SETUP_REPS, SETUP_MIN_S = 5, 2.0
N_VECTORS = 32  # distinct query vectors cycled through by the search loop
TRACE_ROUND = {"main": 1, "search": 5, "transform": 1}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(workload: str, seed: int):
    """Numpy generation of the inputs; not part of the timed set-up."""
    import numpy as np
    from synth import planted_task
    from embadapt import init_adapter

    n_q, n_c, dim = WORKLOADS[workload].shape
    q, c, rels = planted_task(n_queries=n_q, n_corpus=n_c, dim=dim, seed=seed)
    model = None
    if WORKLOADS[workload].train is None:
        # a fixed checkpoint: seeded non-zero output layer, so it is not the identity
        model = init_adapter(dim, seed=seed, encoder_tag=TAG)
        rng = np.random.default_rng(seed)
        p = model.f_params
        p.w2[...] = rng.normal(0.0, 0.5 / np.sqrt(p.hidden), p.w2.shape)
        p.b2[...] = rng.normal(0.0, 0.05, p.b2.shape)
    rng = np.random.default_rng(seed + 1)
    picks = rng.choice(n_q, size=N_VECTORS, replace=False)
    vectors = [",".join(repr(float(x)) for x in q.vectors[i]) for i in picks]
    return q, c, rels, model, vectors


def set_up(work: Path, q, c, rels, model) -> float:
    """Set-up through the package: tables, .sadp files, qrels, checkpoint.

    Names are looked up in their modules at call time, so a tracer sees them.
    """
    from embadapt import adapter, data, io

    start = time.perf_counter()
    io.write_embeddings(data.EmbeddingTable(q.ids, q.vectors, TAG), work / "queries.sadp")
    io.write_embeddings(data.EmbeddingTable(c.ids, c.vectors, TAG), work / "corpus.sadp")
    with open(work / "qrels.tsv", "w", encoding="utf-8") as f:
        f.write("query-id\tcorpus-id\tscore\n")
        f.writelines(f"{qid}\t{cid}\t{y:g}\n" for qid, cid, y in rels.triplets)
    if model is not None:
        adapter.save_checkpoint(model, str(work / "fixed.sadc"))
    return time.perf_counter() - start


def call_kinds(workload: str, seed: int, work: Path) -> dict[str, dict]:
    files = {k: str(work / k) for k in ("queries.sadp", "corpus.sadp", "qrels.tsv")}
    train = WORKLOADS[workload].train
    if train is None:
        model = str(work / "fixed.sadc")
        main = {"kind": "evaluate", "outputs": [],
                "argv": ["evaluate", "--queries", files["queries.sadp"], "--corpus",
                         files["corpus.sadp"], "--qrels", files["qrels.tsv"],
                         "--model", model, "--json"]}
    else:
        model = str(work / "train0.sadc")
        out = str(work / "train{i}.sadc")
        main = {"kind": "train", "outputs": [out, out + ".log.jsonl"],
                "argv": ["train", "--queries", files["queries.sadp"], "--corpus",
                         files["corpus.sadp"], "--qrels", files["qrels.tsv"], "--out", out,
                         "--seed", str(seed), "--val-ratio", str(train[0]),
                         "--eval-every", str(train[1]), "--max-iters", str(train[2]),
                         "--patience", str(train[2])]}
    transformed = str(work / "transformed.sadp")
    return {
        "main": main,
        "search": {"kind": "search", "outputs": [],
                   "argv": ["search", "--corpus", files["corpus.sadp"], "--model", model,
                            "--k", "10"]},
        "transform": {"kind": "transform", "outputs": [transformed],
                      "argv": ["transform", "--in", files["corpus.sadp"], "--model", model,
                               "--which", "corpus", "--out", transformed]},
    }


def run_child(work: Path, name: str, kinds: list[dict], vectors: list[str],
              trace: bool, seconds: float | None = None, cycles: int = 0) -> dict:
    spec = {"src": str(ROOT / "src"), "dir": str(work), "name": name, "trace": trace,
            "kinds": kinds, "vectors": vectors, "seconds": seconds, "cycles": cycles}
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                          env={**os.environ, **THREADS}, capture_output=True, text=True,
                          timeout=(seconds or 0) + CHILD_MARGIN_S)
    result_path = work / f"{name}.json"
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{name} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def train_report(stdout: str) -> tuple[float, float, int] | None:
    """(zero-shot nDCG, best nDCG, best iteration) as `embadapt train` prints them."""
    zero = re.search(r"zero-shot validation nDCG@10: ([0-9.]+)", stdout)
    best = re.search(r"best validation nDCG@10: ([0-9.]+) at iteration ([0-9]+)", stdout)
    if zero is None or best is None:
        return None
    return float(zero[1]), float(best[1]), int(best[2])


def evaluate_report(stdout: str) -> dict:
    try:
        report = json.loads(stdout)
    except ValueError:
        return {}
    return report if isinstance(report, dict) else {}


def search_lines(stdout: str) -> list[tuple[str, float]] | None:
    """`embadapt search` output as (id, score) pairs; None if malformed."""
    try:
        return [(cid, float(score)) for cid, score in
                (line.split("\t") for line in stdout.splitlines())]
    except ValueError:
        return None


def check_calls(workload: str, seed: int, work: Path, q, c, rels,
                calls: list[dict]) -> list[bool]:
    """Correctness of each call against the numpy reference; True = passed."""
    import numpy as np
    import reference as ref
    from embadapt import load_checkpoint, read_embeddings
    from embadapt.errors import EmbAdaptError

    ok = [call["rc"] == 0 for call in calls]
    firsts: dict[str, list] = {}
    for n, call in enumerate(calls):
        # one set of runs must give byte-identical outputs (checkpoint, log, transform)
        shas = call["files"]
        if shas != firsts.setdefault(call["kind"], shas) or None in shas:
            ok[n] = False

    train = WORKLOADS[workload].train
    model_path = work / ("fixed.sadc" if train is None else "train0.sadc")
    try:
        model = load_checkpoint(str(model_path))
    except (EmbAdaptError, OSError, ValueError):
        return [False] * len(calls)
    cids = c.ids
    adapted_c = ref.adapt(model, c.vectors, "corpus")
    ranks = ref.id_ranks(cids)
    index = {cid: j for j, cid in enumerate(cids)}
    grades = {qid: rels.positives_for(qid) for qid in rels.query_ids}
    mean_ref = None
    val_ref = None
    transform_ok = None
    search_scores: dict[str, np.ndarray] = {}
    for n, call in enumerate(calls):
        if not ok[n]:
            continue
        kind = call["kind"]
        if kind == "train":
            if val_ref is None:
                # zero-shot is the raw embeddings (the adapter starts as the identity);
                # best is the checkpoint that train wrote
                val = ref.validation_ids(rels.query_ids, train[0], seed)
                rows = [i for i, qid in enumerate(q.ids) if qid in val]
                val_qids = [q.ids[i] for i in rows]
                raw = np.asarray(q.vectors[rows], dtype=np.float64)
                val_ref = (
                    ref.mean_ndcg(ref.cosine(raw, np.asarray(c.vectors, dtype=np.float64)),
                                  val_qids, cids, grades, k=10),
                    ref.mean_ndcg(ref.cosine(ref.adapt(model, raw, "query"), adapted_c),
                                  val_qids, cids, grades, k=10))
            reported = train_report(call["stdout"])
            # printed to 5 decimals; training must beat zero-shot at some iteration
            ok[n] = (reported is not None and reported[2] > 0
                     and abs(reported[0] - val_ref[0]) <= 5e-6 + 1e-9
                     and abs(reported[1] - val_ref[1]) <= 5e-6 + 1e-9)
        elif kind == "evaluate":
            if mean_ref is None:
                scores = ref.cosine(ref.adapt(model, q.vectors, "query"), adapted_c)
                mean_ref = ref.mean_ndcg(scores, q.ids, cids, grades, k=10)
            mean = evaluate_report(call["stdout"]).get("mean_ndcg", float("nan"))
            ok[n] = abs(mean - mean_ref) <= 1e-9
        elif kind == "search":
            vector = call["vector"]
            if vector not in search_scores:
                x = np.array([float(v) for v in vector.split(",")], dtype=np.float32)
                aq = ref.adapt(model, x[None, :], "query")
                search_scores[vector] = ref.cosine(aq, adapted_c)[0]
            lines = search_lines(call["stdout"])
            ok[n] = lines is not None and ref.search_ok(lines, search_scores[vector], ranks,
                                                        index, k=10)
        elif kind == "transform":
            if transform_ok is None:
                try:
                    out = read_embeddings(str(work / "transformed.sadp"))
                except (EmbAdaptError, OSError, ValueError):
                    out = None
                expect = adapted_c.astype(np.float32)
                transform_ok = (out is not None and out.ids == cids
                                and out.vectors.shape == expect.shape
                                and float(np.max(np.abs(out.vectors - expect))) <= 1e-5)
            ok[n] = transform_ok
    return ok


def quantile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def environment(seed: int, work: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    inputs = sorted(p.name for p in work.iterdir()
                    if p.name in ("queries.sadp", "corpus.sadp", "qrels.tsv", "fixed.sadc"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREADS,
        "seed": seed,
        "inputs_sha256": {name: sha256(work / name) for name in inputs},
    }


def report_line(name: str, value: float, unit: str, n: int, note: str = "") -> str:
    return f"  {name:<20} {value:>14.6g} {unit:<12} n={n}{'  ' + note if note else ''}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "embadapt" / "cli.py", ROOT / "tests" / "synth.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    # on SIGTERM, unwind: subprocess.run kills and waits for the child, and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, work: Path) -> int:
    q, c, rels, model, vectors = generate(args.workload, args.seed)
    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        setup_times.append(set_up(work, q, c, rels, model))
    env = environment(args.seed, work)
    argv = call_kinds(args.workload, args.seed, work)

    if args.trace:
        from tracer import Tracer

        # one traced set-up, so set-up's layers show in the per-layer metrics
        tracer = Tracer()
        tracer.install()
        set_up(work, q, c, rels, model)
        setup_spans = list(tracer.spans)
        round_kinds = [{**argv[name], "count": TRACE_ROUND[name]} for name in TRACE_ROUND]
        plain = run_child(work, "plain", round_kinds, vectors, trace=False)
        traced = run_child(work, "traced", round_kinds, vectors, trace=True)
        calls = plain["calls"] + traced["calls"]
    else:
        workload = WORKLOADS[args.workload]
        timed_kinds = [{**argv[name], "per_cycle": per_cycle}
                       for name, per_cycle in workload.kinds.items()]
        plain = run_child(work, "plain", timed_kinds, vectors, trace=False,
                          seconds=args.seconds, cycles=workload.cycles)
        calls = plain["calls"]
    for call in calls:
        if call["kind"] == "search":
            call["vector"] = vectors[call["i"] % len(vectors)]
    ok = check_calls(args.workload, args.seed, work, q, c, rels, calls)
    failed = ok.count(False)

    by_kind: dict[str, list[dict]] = {}
    for call in plain["calls"]:
        by_kind.setdefault(call["kind"], []).append(call)
    main_kind = argv["main"]["kind"]
    main_s = [call["seconds"] for call in by_kind[main_kind]]
    search_s = [call["seconds"] for call in by_kind["search"]]
    transform_s = [call["seconds"] for call in by_kind["transform"]]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "main_s": statistics.median(main_s),
        "search_p50_ms": 1e3 * statistics.median(search_s),
        "transform_s": statistics.median(transform_s),
        "peak_rss_mb": plain["peak_rss_mb"],
    }

    print(f"embadapt benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced round' if args.trace else f'{args.seconds:g} s closed loop, one client'}")
    lines = [report_line("setup_s", end_to_end["setup_s"], "s", len(setup_times))]
    if main_kind == "train":
        best = [r[1] for r in map(train_report, (call["stdout"] for call in by_kind["train"]))
                if r is not None]
        lines.append(report_line("train_s", end_to_end["main_s"], "s", len(main_s)))
        if best:
            lines.append(report_line("val_ndcg", max(best), "nDCG@10", len(best)))
    else:
        report = evaluate_report(by_kind["evaluate"][0]["stdout"])
        qps = [report.get("n_evaluated", 0) / t for t in main_s]
        lines.append(report_line("evaluate_qps", statistics.median(qps), "queries/s",
                                 len(qps)))
        lines.append(report_line("eval_ndcg", report.get("mean_ndcg", 0.0), "nDCG@10", 1))
    p90 = quantile_90(search_s)
    beyond = sum(t > p90 for t in search_s)
    lines.append(report_line("search_p50_ms", end_to_end["search_p50_ms"], "ms",
                             len(search_s)))
    lines.append(report_line("search_p90_ms", 1e3 * p90, "ms", len(search_s),
                             f"{beyond} samples beyond p90"))
    lines.append(report_line("transform_s", end_to_end["transform_s"], "s",
                             len(transform_s)))
    lines.append(report_line("peak_rss_mb", end_to_end["peak_rss_mb"], "MB", 1))
    lines.append(report_line("ops_failed_ratio", failed / len(calls), "ratio", len(calls),
                             f"{failed} of {len(calls)} calls failed"))
    print("\n".join(lines))
    env["samples_s"] = {kind: [round(call["seconds"], 6) for call in group]
                        for kind, group in by_kind.items()}
    env["setup_samples_s"] = [round(t, 6) for t in setup_times]
    print("info " + json.dumps(env, sort_keys=True))

    if args.trace:
        from tracer import layer_metrics, load_spans

        offset = len(setup_spans)
        spans = setup_spans + [[name, t0, t1, parent + offset if parent >= 0 else -1, *rest]
                               for name, t0, t1, parent, *rest
                               in load_spans(str(work / "traced.spans.jsonl"))]
        values = layer_metrics(spans)
        untraced = sum(call["seconds"] for call in plain["calls"])
        traced_s = sum(call["seconds"] for call in traced["calls"])
        values["trace.overhead_pct"] = 100.0 * (traced_s / untraced - 1.0)
    else:
        values = end_to_end
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if set(listed) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(listed) ^ set(values)}")
    metrics = {name: {"value": value, "unit": listed[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
